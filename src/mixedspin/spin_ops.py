"""Local spin operators, the product basis of a layout with its Sz sectors, and the pair basis.

Everything here is real arithmetic: exchange couplings are assembled in the
ladder form sz*sz + (s+ s- + s- s+)/2 instead of using sy, so Hamiltonians
and thermal states stay real symmetric throughout.

Basis convention: each site's z-eigenbasis is ordered by descending magnetic
quantum number (m = +s first), and the global basis is the plain Kronecker
product of the sites in layout order.

`product_basis` owns a ring's product states: their digits, their total m,
and each total-Sz sector's rows and each state's place among them.

`pair_basis` owns the layout of a two-site state: which of its d^2 places
a total-Sz-conserving state can fill (equal m_a + m_b), how they are stored
as block entries, and which blocks the state and its partial transpose
split into (equal m_a + m_b, and equal m_a - m_b). Pair blocks, the dense
pair state and the negativity kernel all read it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def is_count(value, low: int, high: float = math.inf) -> bool:
    """Whether value is an integer, Python's or numpy's but not a bool, from low to high."""
    try:
        return not isinstance(value, bool) and low <= operator.index(value) <= high
    except TypeError:
        return False


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
        if not is_count(site, 0, len(self.spins) - 1):
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


class ProductBasis(NamedTuple):
    """The product basis of a layout and its total-Sz sectors; see product_basis."""

    digits: np.ndarray              # (sites, D) each state's digit per site, m = s - digit
    strides: np.ndarray             # (sites,) each site's stride in the state index
    m: np.ndarray                   # (D,) each state's total m (exact half-integers)
    rows: tuple[np.ndarray, ...]    # each sector's states, sectors in ascending M
    sector_m: np.ndarray            # (D,) each row's M, the sectors one after another
    place: np.ndarray               # (D,) each state's place in its sector


@lru_cache(maxsize=None)
def product_basis(layout: SiteLayout) -> ProductBasis:
    """The layout's product states, their total m and their total-Sz sectors.

    State i = sum(digits[:, i] * strides). The flip m -> -m maps state i to
    D - 1 - i: sectors k and S - 1 - k mirror.
    """
    dims = layout.dims
    digits = np.array(np.unravel_index(np.arange(layout.total_dimension), dims))
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    m = sum(np.diag(spin_matrices(s).sz)[d] for s, d in zip(layout.spins, digits))
    rows = tuple(np.flatnonzero(m == value) for value in sorted(set(m.tolist())))
    place = np.empty(layout.total_dimension, dtype=np.intp)
    for sector in rows:
        place[sector] = np.arange(sector.shape[0])
    basis = ProductBasis(digits, strides, m, rows, m[np.concatenate(rows)], place)
    for shared in (*basis[:3], *rows, *basis[4:]):
        shared.setflags(write=False)
    return basis


class PairBasis(NamedTuple):
    """The layout of a (dim_a, dim_b) pair state, d = dim_a * dim_b; see pair_basis."""

    label: np.ndarray               # (d,) a + b of each pair state
    places: np.ndarray              # (E,) the entries' flat places p * d + q
    entry: np.ndarray               # (d^2,) the entry at each place, E between blocks
    flip: np.ndarray                # (E + 1,) the entry each entry takes under m -> -m
    plan: tuple[np.ndarray, ...]    # the blocks as entries, one (2, k, n, n) per size n
    diagonal: np.ndarray            # (d,) the diagonal's entries in natural order
    whole: tuple[np.ndarray, ...]   # one block: the d^2 places, and the transpose's


@lru_cache(maxsize=None)
def pair_basis(dim_a: int, dim_b: int) -> PairBasis:
    """The total-Sz block entries of a (dim_a, dim_b) pair state and its block plans.

    Pair state p = a * dim_b + b has m_a + m_b = s_a + s_b - (a + b), and a
    state that conserves total Sz couples only states of equal a + b. Its E
    entries are the places (p, q), p >= q, of equal a + b, listed by a + b,
    then p, then q: each a + b is one run, its block's lower triangle row by
    row; the spin flip takes p to d - 1 - p. Its partial transpose, whose
    entry ((a, b), (a', b')) is the state's ((a', b), (a, b')), couples only
    equal a - b, in blocks of the same sizes (b -> dim_b - 1 - b maps one
    labelling onto the other). A plan's (2, k, n, n) array holds its k
    blocks of size n, the state's and then the partial transpose's.
    """
    d = dim_a * dim_b
    a, b = np.divmod(np.arange(d), dim_b)
    label = a + b
    p, q = np.nonzero((label[:, None] == label) & np.tri(d, dtype=bool))
    places = (p * d + q)[np.argsort(label[p], kind="stable")]
    size = places.shape[0]
    entry = np.full(d * d, size)
    entry[places] = entry[places % d * d + places // d] = np.arange(size)
    flip = np.append(entry[d * d - 1 - places], size)
    state = np.arange(d * d).reshape(d, d)
    transpose = (a * dim_b + b[:, None]) * d + a[:, None] * dim_b + b

    def blocks(label: np.ndarray, matrix: np.ndarray) -> list[np.ndarray]:
        # labels are consecutive integers; no np.unique, whose first call is slow
        groups = [np.flatnonzero(label == v) for v in range(label.min(), label.max() + 1)]
        sizes = sorted({len(group) for group in groups})
        rows = [np.array([group for group in groups if len(group) == n]) for n in sizes]
        return [matrix[r[:, :, None], r[:, None, :]] for r in rows]

    plan = tuple(entry[np.stack(pair)]
                 for pair in zip(blocks(label, state), blocks(a - b, transpose)))
    basis = PairBasis(label, places, entry, flip, plan, entry[np.arange(d) * (d + 1)],
                      (np.stack((state, transpose))[:, None],))
    for shared in (*basis[:4], *plan, basis.diagonal, *basis.whole):
        shared.setflags(write=False)
    return basis
