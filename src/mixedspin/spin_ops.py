"""Local spin operators and their embedding into a ring's product space.

Everything here is real arithmetic: exchange couplings are assembled in the
ladder form sz*sz + (s+ s- + s- s+)/2 instead of using sy, so Hamiltonians
and thermal states stay real symmetric throughout.

Basis convention: each site's z-eigenbasis is ordered by descending magnetic
quantum number (m = +s first), and the global basis is the plain Kronecker
product of the sites in layout order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class SpinMagnitude(Enum):
    """Spin magnitude of a single site; only 1/2 and 1 occur on these rings."""

    HALF = 0.5
    ONE = 1.0

    @property
    def spin(self) -> float:
        return self.value

    @property
    def dimension(self) -> int:
        return int(round(2.0 * self.value + 1.0))


HALF = SpinMagnitude.HALF
ONE = SpinMagnitude.ONE


@dataclass(frozen=True)
class SiteLayout:
    """Ordered list of spin magnitudes on the ring.

    Defines the global Kronecker basis: site 0 is the slowest index. Instances
    are immutable and safe to share across threads.
    """

    spins: tuple[SpinMagnitude, ...]

    def __post_init__(self):
        if not self.spins:
            raise ValueError("layout must contain at least one site")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.spins)

    @property
    def total_dimension(self) -> int:
        return int(np.prod(self.dims))

    def check_site(self, site: int) -> None:
        if not 0 <= site < len(self.spins):
            raise ValueError(f"site index {site} out of range for {len(self.spins)} sites")


class SpinOperators(NamedTuple):
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray


def spin_matrices(s: SpinMagnitude) -> SpinOperators:
    """Angular-momentum matrices for one site, descending-m basis.

    sz = diag(s, s-1, ..., -s); splus has the ladder coefficients
    sqrt(s(s+1) - m(m+1)) on the first superdiagonal; sminus = splus.T.
    """
    sval = s.spin
    m = sval - np.arange(s.dimension)
    ladder = np.sqrt(sval * (sval + 1.0) - m[1:] * (m[1:] + 1.0))
    splus = np.diag(ladder, 1)
    return SpinOperators(sz=np.diag(m), splus=splus, sminus=splus.T)


def embed(op: np.ndarray, sites: tuple[int, ...], layout: SiteLayout) -> np.ndarray:
    """Embed an operator on the ordered sites (a product or not) in the full space.

    op acts on the Kronecker product of the sites in the order given, so
    embed(kron(a, b), (i, j)) and embed(kron(b, a), (j, i)) are the same.
    """
    for site in sites:
        layout.check_site(site)
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {sites}")
    dims = layout.dims
    d_op = int(np.prod([dims[s] for s in sites]))
    if op.shape != (d_op, d_op):
        raise ValueError(f"operator is {op.shape} but sites {sites} have dimension {d_op}")
    # kron(op, I) orders the factors sites + rest; one transpose puts them back.
    order = list(sites) + [i for i in range(len(dims)) if i not in sites]
    back = list(np.argsort(order))
    shape = [dims[i] for i in order] * 2
    full = np.kron(op, np.eye(layout.total_dimension // d_op)).reshape(shape)
    full = full.transpose(back + [len(dims) + i for i in back])
    return full.reshape(layout.total_dimension, layout.total_dimension)


def heisenberg_bond(site_a: int, site_b: int, layout: SiteLayout) -> np.ndarray:
    """Isotropic exchange s_a . s_b embedded in the full space.

    Assembled as sz sz + (s+ s- + s- s+)/2, which equals the vector dot
    product and is exactly real symmetric.
    """
    layout.check_site(site_a)
    layout.check_site(site_b)
    a = spin_matrices(layout.spins[site_a])
    b = spin_matrices(layout.spins[site_b])
    bond = np.kron(a.sz, b.sz) + 0.5 * np.kron(a.splus, b.sminus) \
        + 0.5 * np.kron(a.sminus, b.splus)
    return embed(bond, (site_a, site_b), layout)


def total_sz(layout: SiteLayout) -> np.ndarray:
    """Sum of all embedded z operators: diagonal, each product state's total m."""
    m = np.zeros(1)
    for s in layout.spins:
        m = np.add.outer(m, np.diag(spin_matrices(s).sz)).ravel()
    return np.diag(m)
