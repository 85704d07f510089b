"""Local spin operators, the basis of a ring's product space, and its Sz sectors.

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
from functools import lru_cache
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

    def pair_order(self, keep: tuple[int, int]) -> tuple[int, ...]:
        """Every site, the two kept ones first in ascending order, then the rest."""
        for site in keep:
            self.check_site(site)
        site_a, site_b = sorted(keep)
        if site_a == site_b:
            raise ValueError("keep sites must be distinct")
        return (site_a, site_b, *(i for i in range(len(self.spins)) if i not in keep))


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


def basis_magnetization(layout: SiteLayout) -> np.ndarray:
    """Total m of each product basis state, in basis order (exact half-integers)."""
    m = np.zeros(1)
    for s in layout.spins:
        m = np.add.outer(m, np.diag(spin_matrices(s).sz)).ravel()
    return m


@lru_cache(maxsize=None)
def sector_rows(layout: SiteLayout) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Basis indices of each total-Sz sector in ascending M, and each row's M in that order.

    The flip m -> -m maps basis index i to D - 1 - i: sectors k and S - 1 - k mirror.
    """
    m = basis_magnetization(layout)
    rows = tuple(np.flatnonzero(m == value) for value in sorted(set(m.tolist())))
    for shared in rows:
        shared.setflags(write=False)
    return rows, m[np.concatenate(rows)]
