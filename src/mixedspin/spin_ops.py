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

    def __len__(self) -> int:
        return len(self.spins)

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


def embed_one(op: np.ndarray, site: int, layout: SiteLayout) -> np.ndarray:
    """Embed a one-site operator as I x ... x op x ... x I."""
    layout.check_site(site)
    d = layout.dims[site]
    if op.shape != (d, d):
        raise ValueError(f"operator is {op.shape} but site {site} has dimension {d}")
    out = np.eye(1)
    for i, dim in enumerate(layout.dims):
        out = np.kron(out, op if i == site else np.eye(dim))
    return out


def embed_two(op_a: np.ndarray, site_a: int, op_b: np.ndarray, site_b: int,
              layout: SiteLayout) -> np.ndarray:
    """Embed a product of one-site operators acting on two distinct sites."""
    layout.check_site(site_a)
    layout.check_site(site_b)
    if site_a == site_b:
        raise ValueError("sites must be distinct")
    out = np.eye(1)
    for i, dim in enumerate(layout.dims):
        if i == site_a:
            factor = op_a
        elif i == site_b:
            factor = op_b
        else:
            factor = np.eye(dim)
        out = np.kron(out, factor)
    return out


def heisenberg_bond(site_a: int, site_b: int, layout: SiteLayout) -> np.ndarray:
    """Isotropic exchange s_a . s_b embedded in the full space.

    Assembled as sz sz + (s+ s- + s- s+)/2, which equals the vector dot
    product and is exactly real symmetric.
    """
    ops_a = spin_matrices(layout.spins[site_a])
    ops_b = spin_matrices(layout.spins[site_b])
    out = embed_two(ops_a.sz, site_a, ops_b.sz, site_b, layout)
    out += 0.5 * embed_two(ops_a.splus, site_a, ops_b.sminus, site_b, layout)
    out += 0.5 * embed_two(ops_a.sminus, site_a, ops_b.splus, site_b, layout)
    return out


def total_sz(layout: SiteLayout) -> np.ndarray:
    """Sum of all embedded z operators (diagonal in the product basis)."""
    out = np.zeros((layout.total_dimension,) * 2)
    for site, s in enumerate(layout.spins):
        out += embed_one(spin_matrices(s).sz, site, layout)
    return out
