"""Parameter sweeps, threshold location, and boundary curves.

Every grid point goes one way: `_point` splits it into the model it runs on
and its temperature, and `pair_negativities` turns that model's spectral
decomposition into pair negativities (the ground-manifold mixture at T = 0).

A sweep groups its points by model and diagonalizes each model once (the
dominant cost is the O(D^3) eigensolve). Groups run one after another,
leaving the cores to the multithreaded BLAS inside each eigensolve, and each
group's decomposition is dropped before the next eigensolve, so a sweep
holds one at a time. Rows come out axis1-major.

Thresholds are found by bisecting the indicator "negativity > EPS_NONZERO",
not the value itself, so boundaries driven by level crossings (where the
value jumps) are handled the same way as smooth zeros. A temperature search
and a boundary curve revisit models, so they memo decompositions in a
SpectralCache; a coupling search holds one decomposition at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .models import ModelSpec, build_model
from .negativity import pair_negativity
from .thermal import (SpectralDecomposition, diagonalize, ground_manifold,
                      internal_energy, log_partition, thermal_state)

# Negativity above this counts as "nonzero" when locating thresholds: far
# above eigensolver noise (~1e-12), far below physical values (~1e-2).
EPS_NONZERO = 1e-9

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
    for kind in kinds:
        if kind not in PAIR_SITES:
            raise ValueError(f"unknown pair kind {kind!r}; expected one of {sorted(PAIR_SITES)}")
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
        if not self.lo < self.hi:
            raise ValueError("axis requires lo < hi")
        if self.parameter == "temperature" and self.lo <= 0.0:
            raise ValueError("temperature axis must stay positive")

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
    temperature: Optional[float] = None    # fixed T when no axis sweeps it

    def __post_init__(self):
        if not self.pairs:
            object.__setattr__(self, "pairs", resolve_pairs(self.base.n_sites))
        axes = [self.axis1.parameter] + ([self.axis2.parameter] if self.axis2 else [])
        if len(set(axes)) != len(axes):
            raise ValueError("axes must sweep distinct parameters")
        if "temperature" not in axes:
            if self.temperature is None or self.temperature <= 0.0:
                raise ValueError("a positive fixed temperature is required when no axis sweeps it")
        for ax in filter(None, (self.axis1, self.axis2)):
            _check_corners(self.base, ax.parameter, (ax.lo, ax.hi))


def _point(spec: ModelSpec, temperature: Optional[float], parameter: str,
           value: float) -> tuple[ModelSpec, Optional[float]]:
    """The (model, temperature) a point runs at once parameter takes value."""
    if parameter == "temperature":
        return spec, float(value)
    return replace(spec, **{parameter: float(value)}), temperature


def _check_corners(base: ModelSpec, parameter: str, bounds: Sequence[float]) -> None:
    """Raise ValueError unless base is a valid model at both ends of a coupling range.

    Each rule sees a coupling only through its sign or whether it is zero,
    so the two ends stand for every point between them; errors surface
    before any eigensolve.
    """
    for v in bounds:
        _point(base, None, parameter, v)


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
    """Memo of spectral decompositions keyed by model.

    Temperature searches and boundary curves revisit models at many
    temperatures; a sweep needs none, since it groups its points by model.
    """

    def __init__(self):
        self._store: dict[ModelSpec, SpectralDecomposition] = {}

    def get(self, spec: ModelSpec) -> SpectralDecomposition:
        if spec not in self._store:
            self._store[spec] = diagonalize(build_model(spec))
        return self._store[spec]


def pair_negativities(decomp: SpectralDecomposition, temperature: float,
                      pairs: Iterable[PairSelector]) -> np.ndarray:
    """Pair negativities of the Gibbs state, or of the ground-manifold mixture at T = 0."""
    if temperature == 0.0:
        state = ground_manifold(decomp)
    else:
        state = thermal_state(decomp, temperature)
    return np.array([pair_negativity(state, (p.site_a, p.site_b)) for p in pairs])


def run_sweep(req: SweepRequest) -> SweepResult:
    """Evaluate the request on its full grid.

    Points are grouped by model so each group diagonalizes once; the groups
    run one after another, and each decomposition is let go before the next
    eigensolve. Output rows are axis1-major.
    """
    axes = [req.axis1] + ([req.axis2] if req.axis2 else [])
    params = np.array(list(itertools.product(*(ax.values for ax in axes))))
    temperatures = []
    groups: dict[ModelSpec, list[int]] = {}
    for idx, row in enumerate(params):
        spec, temperature = req.base, req.temperature
        for ax, value in zip(axes, row):
            spec, temperature = _point(spec, temperature, ax.parameter, value)
        temperatures.append(temperature)
        groups.setdefault(spec, []).append(idx)

    negativities = np.zeros((len(params), len(req.pairs)))
    energies = np.zeros(len(params))
    log_zs = np.zeros(len(params))
    for spec, indices in groups.items():
        decomp = diagonalize(build_model(spec))
        for idx in indices:
            beta = 1.0 / temperatures[idx]
            negativities[idx] = pair_negativities(decomp, temperatures[idx], req.pairs)
            energies[idx] = internal_energy(decomp, beta)
            log_zs[idx] = log_partition(decomp.eigenvalues, beta)
        del decomp

    columns = [ax.parameter for ax in axes] + [p.label for p in req.pairs] + ["U", "logZ"]
    return SweepResult(columns=tuple(columns), params=params,
                       negativities=negativities, internal_energy=energies,
                       log_z=log_zs)


def check_threshold(base: ModelSpec, parameter: str, search_range: tuple[float, float],
                    fixed_temperature: Optional[float] = None) -> None:
    """Raise ValueError unless find_threshold can search this range; no eigensolve."""
    lo, hi = search_range
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}")
    if not lo < hi:
        raise ValueError("search range requires lo < hi")
    if parameter == "temperature":
        if lo < 0.0:
            raise ValueError("temperature search range must stay >= 0")
    elif fixed_temperature is None or fixed_temperature < 0.0:
        raise ValueError("coupling thresholds need a fixed temperature (>= 0)")
    _check_corners(base, parameter, search_range)


def find_threshold(base: ModelSpec, parameter: str, pair: PairSelector,
                   search_range: tuple[float, float],
                   fixed_temperature: Optional[float] = None,
                   scan_points: int = 64, rtol: float = 1e-6,
                   cache: Optional[SpectralCache] = None) -> ThresholdResult:
    """Locate the boundary where the pair negativity stops exceeding EPS_NONZERO.

    A coarse scan finds the first flip of the indicator inside search_range,
    then bisection narrows the bracket until its width is below
    rtol * max(1, threshold). Returns status "none-in-range" when the
    indicator never flips.
    """
    check_threshold(base, parameter, search_range, fixed_temperature)
    # A coupling search never revisits a model (scan points are distinct and
    # each midpoint is new), so only a temperature search needs a memo.
    if cache is None and parameter == "temperature":
        cache = SpectralCache()

    def entangled(v: float) -> bool:
        spec, temperature = _point(base, fixed_temperature, parameter, v)
        decomp = cache.get(spec) if cache is not None else diagonalize(build_model(spec))
        return pair_negativities(decomp, temperature, [pair])[0] > EPS_NONZERO

    grid = np.linspace(search_range[0], search_range[1], scan_points)
    flags = [entangled(v) for v in grid]
    flip = next((i for i in range(1, len(grid)) if flags[i] != flags[i - 1]), None)
    if flip is None:
        return ThresholdResult(parameter=parameter, value=None, bracket=None,
                               status="none-in-range")
    lo, hi = float(grid[flip - 1]), float(grid[flip])
    lo_flag = flags[flip - 1]
    while hi - lo > rtol * max(1.0, 0.5 * abs(lo + hi)):
        mid = 0.5 * (lo + hi)
        if entangled(mid) == lo_flag:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(parameter=parameter, value=0.5 * (lo + hi),
                           bracket=(lo, hi), status="found")


def threshold_curve(base: ModelSpec, pair: PairSelector,
                    curve_parameter: str, curve_values: Sequence[float],
                    search_parameter: str, search_range: tuple[float, float],
                    fixed_temperature: Optional[float] = None,
                    scan_points: int = 64,
                    cache: Optional[SpectralCache] = None) -> list[tuple[float, Optional[float]]]:
    """Threshold of search_parameter at each value of curve_parameter.

    With curve_parameter="j2" and search_parameter="temperature" this yields
    the zero-negativity boundary T_th(J2); swapping the roles gives the
    transposed view J2_th(T).
    """
    cache = cache if cache is not None else SpectralCache()
    out = []
    for v in curve_values:
        point_base, point_temp = _point(base, fixed_temperature, curve_parameter, v)
        res = find_threshold(point_base, search_parameter, pair, search_range,
                             fixed_temperature=point_temp, scan_points=scan_points,
                             cache=cache)
        out.append((float(v), res.value))
    return out
