"""Parameter sweeps, threshold location, and boundary curves.

A sweep groups its points by exchange couplings, which only a j2 axis
changes: every field shares the zero-field decomposition (the field term
commutes with H; `SpectralDecomposition.energies` gives E + b*M), and a
temperature only changes the weights. A group builds its coupling
`ModelSpec` once, as coefficients of the ring's cached bond sums, and needs
one eigensolve (`diagonalize`) plus the pair blocks of its decomposition.
Groups go through in batches of G whose eigenvalues and pair blocks fit in
about BATCH_ENTRIES entries, whatever their points (234 groups at four
sites, 39 at six, 6 at eight): one stacked eigensolve per total spin and
one product per pair magnetization for all G, so rings pay the call
overhead once per batch. A batch is diagonalized for its points' fields
and temperatures: only the multiplets some point weighs (the Boltzmann
window, a few dozen of the 1,296 eight-site states at T = 0.02) are
back-transformed, laddered and paired, the rest weigh under e^-74 of the
ground level. Its points go through in stacks of about
STACK_ENTRIES entries: their spectra form a (k, G, D) array,
`state_weights` turns it into weights W (Boltzmann weights, or an equal
mixture of the ground manifold at T = 0), U and log Z follow in array
operations, each pair's states are W @ pair blocks, kept as their
total-Sz block entries (`pair_entries`: 9, 6 or 15 numbers for a (1/2,1),
(1/2,1/2) or (1,1) pair, not 36, 16 or 81), and the `entry_negativities`
kernel checks and evaluates the whole stack. No D x D matrix and no
d x d pair state is formed, and no Python runs per point. Batches run one
after another on one BLAS thread (unless a thread variable asks for more),
and one is alive at a time. Rows come out axis1-major.

Thresholds are found by bisecting the indicator "negativity > EPS_NONZERO",
not the value itself, so boundaries driven by level crossings (where the
value jumps) are handled the same way as smooth zeros. A search, or all
searches of a boundary curve, scan as one grid on the sweep's batches and
bisect together. A temperature search's midpoints lie below its hottest
scan point, in its window, and each j2 midpoint has a batch and a window
of its own; a field search's midpoints lie between its scan fields, where
another multiplet can be the ground level, so its decomposition keeps
every multiplet. One check, `_check_ranges`, rejects a bad sweep, search
or curve before any eigensolve; a field or coupling sweep may sit at T = 0,
a temperature axis starts above it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .models import ModelSpec, build_model, nn_bond_list, nnn_bond_list, ring_layout
from .negativity import entry_negativities, pair_entries
from .spin_ops import is_count, pair_basis
from .thermal import (SpectralDecomposition, diagonalize, ground_degeneracy, log_partition,
                      state_weights)

# Negativity above this counts as "nonzero" when locating thresholds: far
# above eigensolver noise (~1e-12), far below physical values (~1e-2).
EPS_NONZERO = 1e-9

# Bisection stops at a bracket this narrow, relative to max(1, threshold).
THRESHOLD_RTOL = 1e-6

# Entries per stack of points: a batch of G coupling groups evaluates
# max(1, STACK_ENTRIES // ((D + P) G)) points at once (`_batches`), so each
# temporary stays near 256 kB however long its axes are: about 70
# temperatures of 7, or 6 of 80, four-site couplings (D = 36, P = 30).
# Larger stacks of 8-site spectra measurably raise peak RSS.
STACK_ENTRIES = 1 << 15

# Entries per batch: a coupling group holds D eigenvalues and D pair-block
# rows of P entries (`_batches`), so a batch of
# max(1, BATCH_ENTRIES // ((1 + P) D)) groups takes about 2 MB: 234 at four
# sites, 39 at six, 6 at eight. It counts no sector vectors, so a batch whose
# window keeps every multiplet (T of order 1) also holds G full sets of them:
# a 200-point eight-site sweep at T = 1 peaks near 47 MB.
BATCH_ENTRIES = 1 << 18

# Points per sweep or search grid. Each point keeps its row of the output
# arrays and its CSV text, 122 bytes at two sites and 190 on a 4000 x 50
# four-site grid, so this many take about 3 GB; a larger grid would end in
# numpy's allocation error, or a traceback, instead of one message.
MAX_POINTS = 1 << 24

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
    if isinstance(kinds, str):
        raise ValueError(f"pair kinds must be a sequence of kind names, such as [{kinds!r}]")
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
        _check_parameter(self.parameter)
        if not is_count(self.steps, 2):
            raise ValueError(f"axis needs an integer of at least 2 steps, got {self.steps!r}")
        _check_points(self.steps)       # before values allocates them
        if not (isinstance(self.lo, numbers.Real) and isinstance(self.hi, numbers.Real)
                and -math.inf < self.lo < self.hi < math.inf):
            raise ValueError("axis requires real, finite lo < hi")

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
        axes = [a for a in (self.axis1, self.axis2) if a]
        _check_ranges(self.base, [(a.parameter, a.lo, a.hi) for a in axes], self.temperature,
                      self.pairs, math.prod(a.steps for a in axes))


def _check_parameter(parameter: str) -> None:
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")


def _check_points(points: int) -> None:
    if points > MAX_POINTS:
        raise ValueError(f"a grid of {points} points is more than the {MAX_POINTS} a run "
                         f"can hold")


def _energy_bound(spec: ModelSpec) -> float:
    """A bound on |E|: |b| times the total spin, plus each bond's |J| times
    s_min (s_max + 1), the largest |eigenvalue| of s_a . s_b (at pair spin |s_a - s_b|).
    """
    spins = [s.spin for s in ring_layout(spec.n_sites).spins]
    exchange = sum(abs(j) * min(spins[a], spins[b]) * (max(spins[a], spins[b]) + 1.0)
                   for j, bond_list in ((spec.j1, nn_bond_list), (spec.j2, nnn_bond_list))
                   for a, b in bond_list(spec.n_sites))
    return exchange + abs(spec.field_b) * sum(spins)


def _check_ranges(base: ModelSpec, ranges: Sequence[tuple[str, float, float]],
                  temperature: Optional[float], pairs: Sequence[PairSelector],
                  points: int, search: bool = False) -> None:
    """Raise ValueError unless every point of the box that ranges span can run.

    The one range check of sweeps, threshold searches and boundary curves:
    ranges holds the (parameter, lo, hi) of each axis, search range or curve,
    pairs the pairs whose negativities they take (their sites are checked by
    `SiteLayout.pair_order`), and points the grid's point count. Each model
    rule sees a coupling only through its sign or whether it is zero, and the
    energy bound grows with each |coupling|, so the corners of the box stand
    for every point inside it.
    """
    _check_points(points)
    for p in pairs:
        try:
            ring_layout(base.n_sites).pair_order((p.site_a, p.site_b))
        except ValueError as exc:
            raise ValueError(f"pair {p.label} needs two distinct sites of the "
                             f"{base.n_sites}-site ring, got {(p.site_a, p.site_b)}") from exc
    for parameter, _, _ in ranges:
        _check_parameter(parameter)
    bounds = {p: (lo, hi) for p, lo, hi in ranges}
    if len(bounds) != len(ranges):
        raise ValueError("swept and searched parameters must be distinct")
    if ("temperature" in bounds) == (temperature is not None):
        raise ValueError("temperature: a fixed temperature is needed exactly when "
                         "no axis sweeps or searches temperature")
    coldest, hottest = bounds.get("temperature", (temperature, temperature))
    # 1/T must be finite; T = 0 is taken except as a temperature axis's start,
    # whose logZ column would be -E0/T
    zero = search or "temperature" not in bounds
    if not isinstance(coldest, numbers.Real) or hottest == math.inf or not (
            coldest >= sys.float_info.min or (zero and coldest == 0.0)):
        raise ValueError(f"temperature must be finite and {'0 or ' if zero else 'positive, '}"
                         f"at least {sys.float_info.min:.3g}, so that 1/T is finite")
    couplings = [[(p, lo), (p, hi)] for p, (lo, hi) in bounds.items() if p != "temperature"]
    bound = max(_energy_bound(replace(base, **dict(corner)))
                for corner in itertools.product(*couplings))
    # Boltzmann factors take beta (E - E_min), up to 2 * bound / T
    if coldest > 0.0 and not math.isfinite(2.0 * bound / coldest):
        raise ValueError(f"temperature {coldest:.3g} is too cold for energies up to "
                         f"{bound:.3g}: 2 |E| / T must be finite")


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    params: np.ndarray          # (npoints, naxes)
    negativities: np.ndarray    # (npoints, npairs)
    internal_energy: np.ndarray
    log_z: np.ndarray           # the ground degeneracy instead at a fixed T = 0


@dataclass(frozen=True)
class ThresholdResult:
    parameter: str
    value: Optional[float]
    bracket: Optional[tuple[float, float]]
    status: str                 # "found" or "none-in-range"


# perfbench/tracer.py:96 reads this name without a guard; it stays until that patch goes
SpectralCache = None


def pair_negativities(decomp: SpectralDecomposition, weights: np.ndarray,
                      pairs: Iterable[PairSelector]) -> np.ndarray:
    """Pair negativities of the mixture sum_i weights[i] |v_i><v_i|.

    Pass state_weights(decomp.energies(b), T) for the Gibbs state at T > 0
    or the ground-manifold mixture at T = 0. A (k, D) stack of weight rows
    gives a (k, npairs) array, and a (k, G, D) stack on a batch of G
    decompositions a (k, G, npairs) one: each pair's states are W @ its
    pair blocks, block entries only, and go through entry_negativities as
    one stack; no d x d pair state is formed.
    """
    dims = decomp.layout.dims
    values = []
    for p in pairs:
        site_a, site_b = sorted((p.site_a, p.site_b))
        entries = pair_entries(decomp, weights, (site_a, site_b))
        values.append(entry_negativities(entries, dims[site_a], dims[site_b]))
    return np.stack(values, axis=-1)


def _grid(base: ModelSpec, axes: Sequence[tuple[str, np.ndarray]], temperature: Optional[float]):
    """The product of axes, (parameter, values) each, first axis major.

    Returns the points' axis values, each point's field, temperature and j2
    by name (an axis's is a writable column of them), and one row of point
    indices per coupling group: each j2 value, or all.
    """
    params = np.stack(np.meshgrid(*(values for _, values in axes), indexing="ij"),
                      axis=-1).reshape(-1, len(axes))
    point = {p: np.broadcast_to(value, len(params)) for p, value in
             (("field_b", base.field_b), ("temperature", temperature), ("j2", base.j2))}
    point.update((p, params[:, i]) for i, (p, _) in enumerate(axes))
    groups = np.arange(len(params)).reshape([len(values) for _, values in axes])
    names = [p for p, _ in axes]
    groups = np.moveaxis(groups, names.index("j2"), 0) if "j2" in names else groups[None]
    return params, point, groups.reshape(len(groups), -1)


def _batches(base: ModelSpec, point: dict, groups: np.ndarray, windowed: bool = True):
    """Yield each batch's point indices, (points, G), zero-field decomposition and stacks.

    P counts the block entries and zero column of each pair kind the ring
    has (`pair_basis`: 9 at two sites, 15 at three, 30 from four up),
    whatever pairs a run takes. A batch holds
    G = max(1, BATCH_ENTRIES // ((1 + P) D)) coupling groups, built without
    the field, which shares the eigenvectors, and its stacks of
    max(1, STACK_ENTRIES // ((D + P) G)) points split its (points, G) rows.
    G counts eigenvalues and pair blocks, not sector vectors, so a batch
    whose window keeps every multiplet holds G full sets of them.
    A windowed decomposition holds only the multiplets that its points'
    fields and temperatures weigh (`diagonalize`), so it serves those points
    and any at their fields and a lower temperature.
    Callers drop each decomposition before the next, so one batch is alive.
    """
    layout = ring_layout(base.n_sites)
    dim, dims = layout.total_dimension, layout.dims
    width = sum(pair_basis(dims[p.site_a], dims[p.site_b]).flip.shape[0]
                for p in resolve_pairs(base.n_sites))
    batch = min(len(groups), max(1, BATCH_ENTRIES // ((1 + width) * dim)))
    for first in range(0, len(groups), batch):
        points = groups[first:first + batch].T          # (points, G)
        hs = [build_model(replace(base, j2=j2, field_b=0.0))
              for j2 in point["j2"][points[0]].tolist()]
        window = (point["field_b"][points], point["temperature"][points]) if windowed else None
        decomp = diagonalize(hs, window)
        del hs
        chunk = max(1, STACK_ENTRIES // ((dim + width) * points.shape[1]))
        yield points, decomp, [points[start:start + chunk]
                               for start in range(0, len(points), chunk)]
        del decomp


def run_sweep(req: SweepRequest) -> SweepResult:
    """Evaluate the request on its full grid.

    Points are grouped by couplings so each group diagonalizes once, whatever
    its fields and temperatures; groups run in `_batches`, one at a time, and
    their points in its stacks. Output rows are axis1-major. At a fixed
    T = 0, U is the ground energy and the last column, "ground_degeneracy"
    in place of "logZ", counts the ground level.
    """
    axes = [req.axis1] + ([req.axis2] if req.axis2 else [])
    params, point, groups = _grid(req.base, [(ax.parameter, ax.values) for ax in axes],
                                  req.temperature)
    negativities = np.zeros((len(params), len(req.pairs)))
    energies, log_zs = np.zeros((2, len(params)))
    for _, decomp, stacks in _batches(req.base, point, groups):
        for rows in stacks:
            spectra = decomp.energies(point["field_b"][rows, None])
            weights = state_weights(spectra, point["temperature"][rows])
            negativities[rows] = pair_negativities(decomp, weights, req.pairs)
            # a batch of dot products: each row's sum runs as np.dot's would
            energies[rows] = np.matmul(spectra[..., None, :], weights[..., None])[..., 0, 0]
            log_zs[rows] = (ground_degeneracy(spectra) if req.temperature == 0.0 else
                            log_partition(spectra, 1.0 / point["temperature"][rows, None]))
        del decomp

    last = "ground_degeneracy" if req.temperature == 0.0 else "logZ"
    columns = [ax.parameter for ax in axes] + [p.label for p in req.pairs] + ["U", last]
    return SweepResult(columns=tuple(columns), params=params,
                       negativities=negativities, internal_energy=energies,
                       log_z=log_zs)


def check_threshold(base: ModelSpec, parameter: str, search_range: tuple[float, float],
                    fixed_temperature: Optional[float] = None,
                    scan_points: int = 64) -> None:
    """Raise ValueError unless find_threshold can search this range; no eigensolve."""
    _scan_axis(base, parameter, search_range, fixed_temperature, scan_points, ())


def _scan_axis(base: ModelSpec, parameter: str, search_range: tuple[float, float],
               fixed_temperature: Optional[float], scan_points: int,
               pairs: Sequence[PairSelector], curve: Sequence[tuple[str, float, float]] = (),
               curve_points: int = 1) -> Axis:
    """The scan grid of a checked search; curve adds a boundary curve's (parameter, lo, hi)
    and curve_points its number of values."""
    if not is_count(scan_points, 2):
        raise ValueError(f"scan_points must be at least 2 and an integer, got {scan_points!r}")
    scan = Axis(parameter, *search_range, scan_points)
    _check_ranges(base, [(parameter, *search_range), *curve], fixed_temperature, pairs,
                  curve_points * scan_points, search=True)
    return scan


def find_threshold(base: ModelSpec, parameter: str, pair: PairSelector,
                   search_range: tuple[float, float],
                   fixed_temperature: Optional[float] = None,
                   scan_points: int = 64) -> ThresholdResult:
    """Locate the boundary where the pair negativity stops exceeding EPS_NONZERO.

    A coarse scan finds the first flip of the indicator inside search_range,
    then bisection narrows the bracket until its width is below
    THRESHOLD_RTOL * max(1, threshold). Only that first flip is bisected:
    later flips of the scan (a re-entrant window) are not reported, and a
    window narrower than one scan cell is not seen at all. Returns status
    "none-in-range" when the indicator never flips. A temperature or field
    search diagonalizes once; a j2 search solves its scan and each round's
    midpoint in batches.
    """
    scan = _scan_axis(base, parameter, search_range, fixed_temperature, scan_points, [pair])
    return _search(base, pair, scan, fixed_temperature)[0]


def _search(base: ModelSpec, pair: PairSelector, scan: Axis, temperature: Optional[float],
            curve: Sequence[tuple[str, np.ndarray]] = ()) -> list[ThresholdResult]:
    """find_threshold on a checked scan grid, at each value of a curve's (parameter, values).

    The searches scan as one (curve x scan) grid on the sweep's batches and
    bisect together, one midpoint each per round in place of their first
    scan point: on the batch held, or, for j2, as one more run of batches.
    """
    k, grid = scan.steps, scan.values
    _, point, groups = _grid(base, [*curve, (scan.parameter, grid)], temperature)
    flags = np.zeros(groups.size, dtype=bool)
    lo, hi = np.zeros((2, groups.size // k))
    lo_flag, found = np.zeros((2, groups.size // k), dtype=bool)

    def evaluate(decomp, rows):
        weights = state_weights(decomp.energies(point["field_b"][rows, None]),
                                point["temperature"][rows])
        flags[rows] = pair_negativities(decomp, weights, [pair])[..., 0] > EPS_NONZERO

    def bisect(ids, solve):
        # bracket each search's first flip, then halve; solve(wide) flags the midpoints
        scanned = flags.reshape(-1, k)[ids]
        flips = scanned[..., 1:] != scanned[..., :-1]
        first = flips.argmax(axis=-1)
        found[ids], lo[ids], hi[ids] = flips.any(axis=-1), grid[first], grid[first + 1]
        lo_flag[ids] = scanned[..., 0]
        while (wide := found[ids] & (hi[ids] - lo[ids] > THRESHOLD_RTOL * np.maximum(
                1.0, 0.5 * np.abs(lo[ids] + hi[ids])))).any():
            point[scan.parameter][ids * k] = mid = 0.5 * (lo[ids] + hi[ids])
            solve(wide)
            same = flags[ids * k] == lo_flag[ids]
            lo[ids] = np.where(wide & same, mid, lo[ids])
            hi[ids] = np.where(wide & ~same, mid, hi[ids])

    # a field search bisects on the held decomposition at fields between its
    # scan points, where a multiplet that no scan point weighs can be ground
    for points, decomp, stacks in _batches(base, point, groups, scan.parameter != "field_b"):
        for rows in stacks:
            evaluate(decomp, rows)
        if scan.parameter != "j2":
            bisect(points[::k] // k, lambda wide: evaluate(decomp, points[::k]))
        del decomp

    def solve(wide):
        for _, decomp, stacks in _batches(base, point, np.flatnonzero(wide)[:, None] * k):
            for rows in stacks:
                evaluate(decomp, rows)
            del decomp

    if scan.parameter == "j2":
        bisect(np.arange(len(lo)), solve)
    return [ThresholdResult(scan.parameter, 0.5 * (a + b), (a, b), "found") if f else
            ThresholdResult(scan.parameter, None, None, "none-in-range")
            for a, b, f in zip(lo.tolist(), hi.tolist(), found.tolist())]


def threshold_curve(base: ModelSpec, pair: PairSelector,
                    curve_parameter: str, curve_values: Sequence[float],
                    search_parameter: str, search_range: tuple[float, float],
                    scan_points: int = 64) -> list[tuple[float, Optional[float]]]:
    """Threshold of search_parameter at each value of curve_parameter.

    With curve_parameter="j2" and search_parameter="temperature" this yields
    the zero-negativity boundary T_th(J2); swapping the roles gives the
    transposed view J2_th(T). Every point is checked before the first
    search, and each value is find_threshold's there. The searches share
    the sweep's batches, one at a time: a T_th(J2) curve diagonalizes once
    per distinct value, a field curve of temperature thresholds (or the
    reverse) once, a J2_th(T) curve once per scan-grid model and midpoint.
    """
    values = np.asarray(curve_values, dtype=float)
    if values.ndim != 1 or not len(values):
        raise ValueError(f"curve_values must be non-empty and 1-D, got shape {values.shape}")
    scan = _scan_axis(base, search_parameter, search_range, None, scan_points, [pair],
                      [(curve_parameter, values.min(), values.max())], len(values))
    distinct, back = np.unique(values, return_inverse=True)    # a repeat is searched once
    results = _search(base, pair, scan, None, [(curve_parameter, distinct)])
    return [(v, results[i].value) for v, i in zip(values.tolist(), back.tolist())]
