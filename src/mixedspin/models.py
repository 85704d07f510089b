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

Every family is j1 * H_nn + j2 * H_nnn: a Hamiltonian is its couplings times
cached bond-sum terms, each built once per ring size as total-Sz sector blocks
from the bond action on product states, with no full-space matrix. The field
b*Sz is b*M on sector M: `diagonalize` puts it on the energies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spin_ops import HALF, ONE, SiteLayout, is_count, product_basis, spin_matrices


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
        # 8 sites is 1296 states, the largest ring the tests can check
        # against the full Kronecker-built matrix; each cell more is 6x.
        if not is_count(self.n_sites, 2, 8):
            raise ValueError("n_sites must be an integer between 2 and 8")
        if not all(isinstance(x, numbers.Real) and math.isfinite(x)
                   for x in (self.j1, self.j2, self.field_b)):
            raise ValueError("couplings and field must be finite real numbers")
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


@dataclass(frozen=True, eq=False)
class Term:
    """Field-free exchange as product_basis sector blocks, and diagonalize's projections of it."""

    blocks: tuple[np.ndarray, ...]
    projected: list = field(default_factory=list, init=False, repr=False)


@dataclass(frozen=True)
class Hamiltonian:
    """H's exchange as the sum of coefficient * term over terms; b*Sz stays in spec."""

    terms: tuple[tuple[float, Term], ...]
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


# The bond sums depend only on the ring size, not the couplings, so each is
# one cached term: a coupling point only names them with its coefficients.
# Every bond conserves total Sz, so each sum is kept as its sector blocks
# (product_basis order), views of one flat array: 243,782 entries at 8
# sites against 1296^2 for the full matrix.

@lru_cache(maxsize=None)
def _bond_sum(n: int, bond_list) -> Term:
    """The sum of unit Heisenberg bonds over bond_list(n), as a term.

    A bond s_a . s_b adds m_a m_b to each product state's diagonal entry and
    (s+_a s-_b + s-_a s+_b)/2 between two states one flip apart, which share
    a sector. The bonds are added in bond_list order, so every entry is the
    same float as in the sum of the embedded bonds.
    """
    layout = ring_layout(n)
    digits, strides, _, _, _, place, row_start, blocks = product_basis(layout)
    h = np.zeros(blocks[-1][0].stop)
    diagonal = row_start + place
    for a, b in bond_list(n):
        ops_a, ops_b = spin_matrices(layout.spins[a]), spin_matrices(layout.spins[b])
        h[diagonal] += np.diag(ops_a.sz)[digits[a]] * np.diag(ops_b.sz)[digits[b]]
        # states where s+_a s-_b acts: site a below its top m, site b above its bottom
        state = np.flatnonzero((digits[a] > 0) & (digits[b] < layout.dims[b] - 1))
        flipped = state - strides[a] + strides[b]
        da, db = digits[a][state], digits[b][state]
        value = 0.5 * (ops_a.splus[da - 1, da] * ops_b.sminus[db + 1, db])
        h[row_start[flipped] + place[state]] += value
        h[row_start[state] + place[flipped]] += value
    h.setflags(write=False)
    return Term(tuple(h[span].reshape(k, k) for span, k in blocks))


def build_model(spec: ModelSpec) -> Hamiltonian:
    """j1 times the ring's bond-sum term, plus j2 times the next-nearest one; b stays in spec."""
    n = spec.n_sites
    terms = ((spec.j1, _bond_sum(n, nn_bond_list)),)
    if spec.j2 != 0.0:
        terms += ((spec.j2, _bond_sum(n, nnn_bond_list)),)
    return Hamiltonian(terms=terms, layout=ring_layout(n), spec=spec)
