"""Parameter sweeps, threshold location, and boundary curves.

A sweep groups its points by exchange couplings, which only a j2 axis
changes: every field shares the zero-field decomposition (the field term
commutes with H; `SpectralDecomposition.energies` gives E + b*M), and a
temperature only changes the weights. A group builds its coupling
`ModelSpec` once, as the Hamiltonian's total-Sz sector blocks, and needs
one eigensolve, sector by sector (being at zero field, only the sectors
M >= 0: spin inversion gives the rest), plus the pair blocks of its
decomposition, gathered from the sector eigenvectors. Groups go through in
batches of G whose pair blocks and weights fit in about STACK_ENTRIES
entries (7 groups of 80 temperatures at four sites, 1 group from six sites
on): one stacked eigensolve per sector and one product per pair
magnetization for all G, so small rings pay the call overhead once per
batch. Its points go through in stacks of about STACK_ENTRIES entries of
weights and pair states: their spectra form a (k, G, D) array,
`state_weights` turns it into weights W (Boltzmann weights, or an equal
mixture of the ground manifold at T = 0), U and log Z follow in array
operations, `reduce_pair` forms each pair's states as W @ pair blocks, and
the `negativities` kernel checks and evaluates the whole stack. No D x D
Hamiltonian, state or eigenvector matrix is formed and no Python runs per
point. Batches run one after another, leaving the cores to the
multithreaded BLAS inside each eigensolve, and a sweep holds one batch of
decompositions at a time. Rows come out axis1-major.

Thresholds are found by bisecting the indicator "negativity > EPS_NONZERO",
not the value itself, so boundaries driven by level crossings (where the
value jumps) are handled the same way as smooth zeros. Which decompositions
a search keeps is decided here, not by callers: a temperature or field
search memoizes its one model, so it diagonalizes once, and scans as one
stack; a j2 search holds one decomposition at a time; a boundary curve
shares one memo across its points, which keeps the scan-grid models its
next value meets again but never a bisection midpoint. One check,
`_check_ranges`, rejects a bad sweep, search or curve before any eigensolve.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .models import ModelSpec, build_model, ring_layout
from .negativity import negativities, reduce_pair
from .thermal import (SpectralDecomposition, diagonalize, log_partition,
                      state_weights)

# Negativity above this counts as "nonzero" when locating thresholds: far
# above eigensolver noise (~1e-12), far below physical values (~1e-2).
EPS_NONZERO = 1e-9

# Bisection stops at a bracket this narrow, relative to max(1, threshold).
THRESHOLD_RTOL = 1e-6

# Entries per stack: a sweep evaluates max(1, STACK_ENTRIES // (D + P)) points
# at once, P being a point's pair-state entries, so each temporary stays near
# 256 kB however long its axes are. Larger stacks of 8-site spectra, or of
# 4-site pair states (D = 36, P = 133), measurably raise peak RSS. The budget
# also sizes a batch of coupling groups.
STACK_ENTRIES = 1 << 15

SWEEPABLE = ("temperature", "field_b", "j2")

# Canonical representative sites for each pair kind on the alternating ring.
PAIR_SITES = {
    "half_one": (0, 1),
    "half_half": (0, 2),
    "one_one": (1, 3),
}


@dataclass(frozen=True)
class PairSelector:
    label: str
    site_a: int
    site_b: int


def available_pair_kinds(n: int) -> tuple[str, ...]:
    """Pair kinds that exist on an n-site ring, in canonical column order."""
    return tuple(kind for kind, (_, b) in PAIR_SITES.items() if b < n)


def resolve_pairs(n: int, kinds: Optional[Sequence[str]] = None) -> tuple[PairSelector, ...]:
    """Map symbolic pair kinds to canonical site pairs for an n-site ring."""
    if kinds is None:
        kinds = available_pair_kinds(n)
    selectors = []
    for i, kind in enumerate(kinds):
        if kind not in PAIR_SITES:
            raise ValueError(f"unknown pair kind {kind!r}; expected one of {sorted(PAIR_SITES)}")
        if kind in kinds[:i]:
            raise ValueError(f"pair kind {kind!r} given twice")
        a, b = PAIR_SITES[kind]
        if b >= n:
            raise ValueError(f"pair kind {kind!r} needs at least {b + 1} sites, ring has {n}")
        selectors.append(PairSelector(label=f"N_{kind}", site_a=a, site_b=b))
    return tuple(selectors)


@dataclass(frozen=True)
class Axis:
    parameter: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
        if self.steps < 2:
            raise ValueError("axis needs at least 2 steps")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("axis requires finite lo < hi")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepRequest:
    """Model template plus one or two sweep axes and the pair columns."""

    base: ModelSpec
    axis1: Axis
    axis2: Optional[Axis] = None
    pairs: tuple[PairSelector, ...] = ()
    temperature: Optional[float] = None    # fixed T, required exactly when no axis sweeps it

    def __post_init__(self):
        if not self.pairs:
            object.__setattr__(self, "pairs", resolve_pairs(self.base.n_sites))
        axes = filter(None, (self.axis1, self.axis2))
        _check_ranges(self.base, [(a.parameter, a.lo, a.hi) for a in axes], self.temperature)


def _check_ranges(base: ModelSpec, ranges: Sequence[tuple[str, float, float]],
                  temperature: Optional[float], search: bool = False) -> None:
    """Raise ValueError unless every point of the box that ranges span can run.

    The one range check of sweeps, threshold searches and boundary curves:
    ranges holds the (parameter, lo, hi) of each axis, search range or curve.
    Each model rule sees a coupling only through its sign or whether it is
    zero, so the corners of the box stand for every point inside it.
    """
    bounds = {p: (lo, hi) for p, lo, hi in ranges}
    if len(bounds) != len(ranges):
        raise ValueError("swept and searched parameters must be distinct")
    if ("temperature" in bounds) == (temperature is not None):
        raise ValueError("temperature: a fixed temperature is needed exactly when "
                         "no axis sweeps or searches temperature")
    coldest, hottest = bounds.get("temperature", (temperature, temperature))
    # 1/T must be finite, and only a search takes T = 0: a sweep's logZ is -E0/T
    if not (coldest >= sys.float_info.min or (search and coldest == 0.0)) or hottest == math.inf:
        raise ValueError(f"temperature must be finite and {'0 or ' if search else 'positive, '}"
                         f"at least {sys.float_info.min:.3g}, so that 1/T is finite")
    couplings = [[(p, lo), (p, hi)] for p, (lo, hi) in bounds.items() if p != "temperature"]
    for corner in itertools.product(*couplings):
        replace(base, **dict(corner))


def _couplings(spec: ModelSpec) -> ModelSpec:
    """The model without its field: every field shares its eigenvectors."""
    return replace(spec, field_b=0.0)


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    params: np.ndarray          # (npoints, naxes)
    negativities: np.ndarray    # (npoints, npairs)
    internal_energy: np.ndarray
    log_z: np.ndarray


@dataclass(frozen=True)
class ThresholdResult:
    parameter: str
    value: Optional[float]
    bracket: Optional[tuple[float, float]]
    status: str                 # "found" or "none-in-range"


class SpectralCache:
    """Memo of spectral decompositions, and so of their pair blocks, keyed by couplings.

    Private to the threshold searches: a temperature or field search and a
    boundary curve revisit couplings at many temperatures and fields. A
    sweep needs none, since it groups its points by couplings.
    """

    def __init__(self):
        self._store: dict[ModelSpec, SpectralDecomposition] = {}

    def get(self, spec: ModelSpec) -> SpectralDecomposition:
        """Zero-field decomposition of spec; apply spec.field_b through energies()."""
        key = _couplings(spec)
        if key not in self._store:
            self._store[key] = diagonalize(build_model(key))
        return self._store[key]


def pair_negativities(decomp: SpectralDecomposition, weights: np.ndarray,
                      pairs: Iterable[PairSelector]) -> np.ndarray:
    """Pair negativities of the mixture sum_i weights[i] |v_i><v_i|.

    Pass state_weights(decomp.energies(b), T) for the Gibbs state at T > 0
    or the ground-manifold mixture at T = 0. A (k, D) stack of weight rows
    gives a (k, npairs) array, and a (k, G, D) stack on a batch of G
    decompositions a (k, G, npairs) one: each pair's states come from the
    decomposition's pair blocks in one reduce_pair and go through the
    negativities kernel as one stack.
    """
    return np.stack([negativities(reduce_pair(decomp, weights, (p.site_a, p.site_b)))
                     for p in pairs], axis=-1)


def run_sweep(req: SweepRequest) -> SweepResult:
    """Evaluate the request on its full grid.

    Points are grouped by couplings so each group diagonalizes once, whatever
    its fields and temperatures. Groups are solved and evaluated in batches
    of G = max(1, STACK_ENTRIES // (D * (points per group + D))), each batch
    in stacks of about STACK_ENTRIES entries of weights and pair states; the
    batches run one after another, and each is let go before the next
    eigensolve. Output rows are axis1-major.
    """
    axes = [req.axis1] + ([req.axis2] if req.axis2 else [])
    params = np.stack(np.meshgrid(*(ax.values for ax in axes), indexing="ij"),
                      axis=-1).reshape(-1, len(axes))

    # each parameter at every point: its axis column, or its fixed value
    point = {"field_b": req.base.field_b, "temperature": req.temperature, "j2": req.base.j2}
    point.update((ax.parameter, params[:, i]) for i, ax in enumerate(axes))
    fields, temperatures, j2s = (np.broadcast_to(point[p], len(params))
                                 for p in ("field_b", "temperature", "j2"))
    # one row of point indices per coupling group: each j2 axis value, or all
    groups = np.arange(len(params)).reshape([ax.steps for ax in axes])
    names = [ax.parameter for ax in axes]
    groups = np.moveaxis(groups, names.index("j2"), 0) if "j2" in names else groups[None]
    groups = groups.reshape(len(groups), -1)

    layout = ring_layout(req.base.n_sites)
    dim = layout.total_dimension
    batch = min(len(groups), max(1, STACK_ENTRIES // (dim * (groups.shape[1] + dim))))
    # a stack's entries per point: its weights and its pair states
    width = dim + sum((layout.dims[p.site_a] * layout.dims[p.site_b]) ** 2 for p in req.pairs)
    chunk = max(1, STACK_ENTRIES // (width * batch))
    negativities = np.zeros((len(params), len(req.pairs)))
    energies = np.zeros(len(params))
    log_zs = np.zeros(len(params))
    for first in range(0, len(groups), batch):
        points = groups[first:first + batch].T          # (points, G)
        hs = [build_model(_couplings(replace(req.base, j2=j2))) for j2 in j2s[points[0]].tolist()]
        # a lone group skips the leading axis, whose stacking would copy its blocks
        decomp = diagonalize(hs if len(hs) > 1 else hs[0])
        del hs
        for start in range(0, len(points), chunk):
            rows = points[start:start + chunk]
            spectra = decomp.energies(fields[rows, None])
            weights = state_weights(spectra, temperatures[rows])
            negativities[rows] = pair_negativities(decomp, weights, req.pairs)
            # a batch of dot products: each row's sum runs as np.dot's would
            energies[rows] = np.matmul(spectra[..., None, :], weights[..., None])[..., 0, 0]
            log_zs[rows] = log_partition(spectra, 1.0 / temperatures[rows, None])
        del decomp

    columns = [ax.parameter for ax in axes] + [p.label for p in req.pairs] + ["U", "logZ"]
    return SweepResult(columns=tuple(columns), params=params,
                       negativities=negativities, internal_energy=energies,
                       log_z=log_zs)


def check_threshold(base: ModelSpec, parameter: str, search_range: tuple[float, float],
                    fixed_temperature: Optional[float] = None,
                    scan_points: int = 64) -> None:
    """Raise ValueError unless find_threshold can search this range; no eigensolve."""
    _scan_axis(base, parameter, search_range, fixed_temperature, scan_points)


def _scan_axis(base: ModelSpec, parameter: str, search_range: tuple[float, float],
               fixed_temperature: Optional[float], scan_points: int,
               curve: Sequence[tuple[str, float, float]] = ()) -> Axis:
    """The scan grid of a checked search; curve adds a boundary curve's (parameter, lo, hi)."""
    if scan_points < 2:
        raise ValueError(f"scan_points must be at least 2, got {scan_points}")
    scan = Axis(parameter, *search_range, scan_points)
    _check_ranges(base, [(parameter, *search_range), *curve], fixed_temperature, search=True)
    return scan


def find_threshold(base: ModelSpec, parameter: str, pair: PairSelector,
                   search_range: tuple[float, float],
                   fixed_temperature: Optional[float] = None,
                   scan_points: int = 64) -> ThresholdResult:
    """Locate the boundary where the pair negativity stops exceeding EPS_NONZERO.

    A coarse scan finds the first flip of the indicator inside search_range,
    then bisection narrows the bracket until its width is below
    THRESHOLD_RTOL * max(1, threshold). Returns status "none-in-range" when
    the indicator never flips. A temperature or field search diagonalizes
    once; a j2 search holds one decomposition at a time.
    """
    scan = _scan_axis(base, parameter, search_range, fixed_temperature, scan_points)
    # a j2 search never revisits couplings; the others stay on one model
    return _search(base, pair, scan, fixed_temperature,
                   None if parameter == "j2" else SpectralCache())


def _search(base: ModelSpec, pair: PairSelector, scan: Axis, fixed_temperature: Optional[float],
            memo: Optional[SpectralCache]) -> ThresholdResult:
    """find_threshold on a checked scan grid; a j2 search's midpoints bypass memo.

    A temperature or field search evaluates its scan as one stack on its one
    decomposition and each bisection midpoint as a stack of one.
    """
    def negativity_at(spec: ModelSpec, field_b: float | np.ndarray,
                      temperature: float | np.ndarray,
                      store: Optional[SpectralCache]) -> np.ndarray:
        decomp = (store.get(spec) if store is not None
                  else diagonalize(build_model(_couplings(spec))))
        weights = state_weights(decomp.energies(field_b), temperature)
        return pair_negativities(decomp, weights, [pair])[..., 0]

    def entangled(values: np.ndarray, store: Optional[SpectralCache]) -> np.ndarray:
        if scan.parameter == "j2":
            found = np.array([negativity_at(replace(base, j2=float(v)), base.field_b,
                                            fixed_temperature, store) for v in values])
        elif scan.parameter == "field_b":
            found = negativity_at(base, values[:, None], fixed_temperature, store)
        else:
            found = negativity_at(base, base.field_b, values, store)
        return found > EPS_NONZERO

    grid = scan.values
    flags = entangled(grid, memo)
    flip = next((i for i in range(1, len(grid)) if flags[i] != flags[i - 1]), None)
    if flip is None:
        return ThresholdResult(parameter=scan.parameter, value=None, bracket=None,
                               status="none-in-range")
    lo, hi = float(grid[flip - 1]), float(grid[flip])
    lo_flag = flags[flip - 1]
    while hi - lo > THRESHOLD_RTOL * max(1.0, 0.5 * abs(lo + hi)):
        mid = 0.5 * (lo + hi)
        if entangled(np.array([mid]), None if scan.parameter == "j2" else memo)[0] == lo_flag:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(parameter=scan.parameter, value=0.5 * (lo + hi),
                           bracket=(lo, hi), status="found")


def threshold_curve(base: ModelSpec, pair: PairSelector,
                    curve_parameter: str, curve_values: Sequence[float],
                    search_parameter: str, search_range: tuple[float, float],
                    scan_points: int = 64) -> list[tuple[float, Optional[float]]]:
    """Threshold of search_parameter at each value of curve_parameter.

    With curve_parameter="j2" and search_parameter="temperature" this yields
    the zero-negativity boundary T_th(J2); swapping the roles gives the
    transposed view J2_th(T). Every point is checked before the first search,
    and all share one memo of decompositions: a T_th(J2) curve diagonalizes
    once per curve value, a J2_th(T) curve once per scan-grid model plus the
    bisection midpoints.
    """
    values = np.asarray(curve_values, dtype=float)
    scan = _scan_axis(base, search_parameter, search_range, None, scan_points,
                      [(curve_parameter, values.min(), values.max())])
    memo = SpectralCache()
    out = []
    for v in values.tolist():
        fixed = {curve_parameter: v}
        temperature = fixed.pop("temperature", None)
        out.append((v, _search(replace(base, **fixed), pair, scan, temperature, memo).value))
    return out
