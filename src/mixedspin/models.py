"""Hamiltonian families for alternating (1/2, 1) Heisenberg rings.

Three families, all real symmetric and periodic:

* nearest-neighbor ring, even or odd site count;
* even ring with a uniform z magnetic field;
* even ring with both nearest- and next-nearest-neighbor exchange.

The next-nearest sum runs once over the N/2 unit cells, pairing cell i with
cell i+1 (mod N/2) on each sublattice. On the four-site ring that sum visits
every sublattice pair twice, so each pair effectively carries 2*J2; this is
deliberate and is pinned down by the four-site level ladder checked in the
tests. For N >= 6 every pair appears exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_ops import HALF, ONE, SiteLayout, heisenberg_bond, total_sz


@dataclass(frozen=True)
class ModelSpec:
    """Full problem definition: site count, couplings, and field.

    Energies are in units of the nearest-neighbor coupling scale; k_B = 1.
    Every model rule is checked here, so the builders take any spec as valid.
    """

    n_sites: int
    j1: float = 1.0
    j2: float = 0.0
    field_b: float = 0.0

    def __post_init__(self):
        # Dense matrices: 8 sites is 1296 states, and each cell more is 6x.
        if not 2 <= self.n_sites <= 8:
            raise ValueError("n_sites must be between 2 and 8")
        if not all(map(math.isfinite, (self.j1, self.j2, self.field_b))):
            raise ValueError("couplings and field must be finite")
        if self.j2 < 0.0:
            raise ValueError("next-nearest coupling j2 must be >= 0")
        if self.j2 != 0.0 and (self.n_sites % 2 or self.n_sites < 4):
            raise ValueError("next-nearest coupling requires an even ring with n >= 4")
        if self.j2 != 0.0 and self.j1 < 0.0:
            raise ValueError("next-nearest model requires antiferromagnetic j1 >= 0")
        if self.field_b != 0.0 and self.j2 != 0.0:
            raise ValueError("field and next-nearest coupling are studied separately; set one to 0")
        if self.field_b != 0.0 and self.n_sites % 2:
            raise ValueError("the field model is defined for even rings only")


@dataclass(frozen=True)
class Hamiltonian:
    matrix: np.ndarray
    layout: SiteLayout
    spec: ModelSpec


def ring_layout(n: int) -> SiteLayout:
    """Alternating layout: even n = (1/2,1)*n/2; odd n closes with an extra 1/2."""
    if n % 2 == 0:
        spins = (HALF, ONE) * (n // 2)
    else:
        spins = (HALF, ONE) * ((n - 1) // 2) + (HALF,)
    return SiteLayout(spins)


def nn_bond_list(n: int) -> list[tuple[int, int]]:
    """Nearest-neighbor edges of the periodic ring; a 2-site ring has one bond."""
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def nnn_bond_list(n: int) -> list[tuple[int, int]]:
    """One next-nearest term per unit cell and sublattice, wrapping mod n/2.

    For n = 4 the wrap makes each sublattice pair appear twice.
    """
    cells = n // 2
    bonds = []
    for i in range(cells):
        bonds.append((2 * i, (2 * i + 2) % n))          # spin-1/2 sublattice
        bonds.append((2 * i + 1, (2 * i + 3) % n))      # spin-1 sublattice
    return bonds


# The bond sums depend only on the ring size, not the couplings; caching them
# makes coupling sweeps cost one matrix combination per grid point instead of
# embedding every bond again (about 0.15 s per sum at 8 sites).

@lru_cache(maxsize=None)
def _bond_sum(n: int, bond_list) -> np.ndarray:
    """Sum of unit Heisenberg bonds over bond_list(n) (nn_bond_list or nnn_bond_list)."""
    layout = ring_layout(n)
    h = sum(heisenberg_bond(a, b, layout) for a, b in bond_list(n))
    h.setflags(write=False)
    return h


def build_model(spec: ModelSpec) -> Hamiltonian:
    """The plain ring, plus the field term or the next-nearest term when set."""
    n = spec.n_sites
    h = spec.j1 * _bond_sum(n, nn_bond_list)
    if spec.field_b != 0.0:
        h = h + spec.field_b * total_sz(ring_layout(n))
    elif spec.j2 != 0.0:
        h = h + spec.j2 * _bond_sum(n, nnn_bond_list)
    return Hamiltonian(matrix=h, layout=ring_layout(n), spec=spec)
