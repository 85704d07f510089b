"""Self-check battery: closed forms against the numeric pipeline.

Each check compares an analytic expression (or a value quoted in the source
material) with the exact-diagonalization result and reports pass/fail at a
pinned tolerance. A handful of figure-derived constants from the source
prose cannot be reproduced by the source's own closed forms; those are
reported as informational lines (status "info") with the recomputed value,
and do not fail the battery.

The numeric side is the pipeline the sweeps run: a decomposition taken at
zero field, eigenvector weights from `state_weights` (the ground-manifold
mixture at T = 0), pair states from `reduce_pair`, log Z from
`log_partition` and U as the weighted sum of the energies. No check forms a
D x D state. The closed-form pair states come from `analytic` in the
package's Kronecker basis, the one `reduce_pair` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import analytic
from .models import MAX_SITES, ModelSpec, build_model
from .negativity import (PairKind, PairReducedState, correlator, negativities,
                         negativity, partial_transpose, reduce_pair, su2_signed)
from .sweeps import (EPS_NONZERO, Axis, SweepRequest, find_threshold,
                     pair_negativities, resolve_pairs, run_sweep, threshold_curve)
from .thermal import (SpectralDecomposition, diagonalize, ground_degeneracy,
                      log_partition, state_weights)

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str           # "pass", "fail", or "info"
    measured: float
    budget: float         # tolerance for pass/fail rows; printed reference for info rows
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _check(name: str, deviation: float, tol: float, detail: str = "") -> CheckResult:
    status = "pass" if deviation <= tol else "fail"
    return CheckResult(name=name, status=status, measured=float(deviation),
                       budget=tol, detail=detail)


def _info(name: str, measured: float, reference: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, status="info", measured=float(measured),
                       budget=reference, detail=detail)


def _pair(decomp: SpectralDecomposition, temperature: float | np.ndarray,
          keep: tuple[int, int], field_b: float = 0.0) -> PairReducedState:
    """Pair state at temperature (T = 0: the ground manifold), as a sweep forms it.

    An array of temperatures gives the stack of their pair states.
    """
    return reduce_pair(decomp, state_weights(decomp.energies(field_b), temperature), keep)


def _energy(decomp: SpectralDecomposition, temperature: float) -> float:
    """Internal energy U = sum_i E_i w_i at temperature, as a sweep computes it."""
    return float(np.dot(decomp.eigenvalues, state_weights(decomp.eigenvalues, temperature)))


def schmidt_negativity(coefficients: Sequence[float]) -> float:
    """Negativity of a bipartite pure state from its Schmidt coefficients."""
    c = np.asarray(coefficients, dtype=float)
    if (c < 0).any():
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(c * c)) - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must be normalized")
    total = float(np.sum(c))
    return (total * total - 1.0) / 2.0


def su2_negativity(corr: float, kind: PairKind) -> float:
    """Clamped version of su2_signed; equals the true negativity for rotation-invariant states."""
    return max(0.0, su2_signed(corr, kind))


# ---------------------------------------------------------------------------
# Two-site checks
# ---------------------------------------------------------------------------

def check_two_site() -> list[CheckResult]:
    out = []
    decomp = diagonalize(build_model(ModelSpec(2)))

    temps = np.linspace(0.05, 2.0, 200)
    numeric = negativities(_pair(decomp, temps, (0, 1)))
    worst = max(abs(value - analytic.two_spin_negativity(1.0 / t))
                for t, value in zip(temps, numeric))
    out.append(_check("two_site.negativity_closed_form_200pts", worst, 1e-10))

    out.append(_check("two_site.log_partition_T1",
                      abs(log_partition(decomp.eigenvalues, 1.0)
                          - math.log(2.0 * math.e + 4.0 * math.exp(-0.5))),
                      1e-12))

    betas = [0.3, 1.0, 4.0, 40.0]
    worst = max(abs(_energy(decomp, 1.0 / b) - analytic.two_spin_internal_energy(b))
                for b in betas)
    out.append(_check("two_site.internal_energy_closed_form", worst, 1e-10))

    worst = max(abs(analytic.negativity_from_internal_energy(
                        analytic.two_spin_internal_energy(b))
                    - analytic.two_spin_negativity(b)) for b in betas)
    out.append(_check("two_site.energy_relation_composition", worst, 1e-14))

    worst = 0.0
    for t in (0.2, 0.7, 1.5):
        reference = analytic.two_spin_elements(1.0 / t).matrix()
        worst = max(worst, float(np.abs(_pair(decomp, t, (0, 1)).matrix - reference).max()))
    out.append(_check("two_site.thermal_elements", worst, 1e-10))

    # spectrum of the partially transposed state against the block eigenvalues
    worst = 0.0
    for t in (0.3, 0.9):
        el = analytic.two_spin_elements(1.0 / t)
        blocks = []
        for da, db, off in ((el.a1, el.a2, el.b2), (el.a5, el.a6, el.b1)):
            mean, radius = 0.5 * (da + db), 0.5 * math.hypot(da - db, 2.0 * off)
            blocks += [mean - radius, mean + radius]
        reference = np.sort(np.array(blocks + [el.a3, el.a4]))
        pt = partial_transpose(_pair(decomp, t, (0, 1)))
        worst = max(worst, float(np.abs(np.sort(np.linalg.eigvalsh(pt)) - reference).max()))
    out.append(_check("two_site.partial_transpose_block_spectrum", worst, 1e-10))

    res = find_threshold(ModelSpec(2), "temperature", resolve_pairs(2)[0], (0.5, 2.0))
    out.append(_check("two_site.threshold_temperature",
                      abs(res.value - analytic.TWO_SPIN_T_THRESHOLD), 1e-4,
                      detail=f"found {res.value:.6f}"))

    out.append(_check("two_site.ground_degeneracy",
                      abs(ground_degeneracy(decomp.eigenvalues) - 2), 0))
    out.append(_check("two_site.ground_negativity",
                      abs(negativity(_pair(decomp, 0.0, (0, 1))).value - 1.0 / 3.0), 1e-9))
    return out


# ---------------------------------------------------------------------------
# Three-site checks
# ---------------------------------------------------------------------------

def check_three_site() -> list[CheckResult]:
    out = []
    decomp = diagonalize(build_model(ModelSpec(3)))

    worst12 = worst13 = worstneg = 0.0
    for t in (0.2, 0.5, 1.0, 3.0):
        beta = 1.0 / t
        ref12, ref13 = analytic.three_spin_elements(beta).matrices()
        pair12 = _pair(decomp, t, (0, 1))
        worst12 = max(worst12, float(np.abs(pair12.matrix - ref12).max()))
        worst13 = max(worst13, float(np.abs(_pair(decomp, t, (0, 2)).matrix - ref13).max()))

        worstneg = max(worstneg, abs(negativity(pair12).value
                                     - analytic.three_spin_negativity_12(beta)))
    out.append(_check("three_site.mixed_pair_elements", worst12, 1e-10))
    out.append(_check("three_site.half_pair_elements", worst13, 1e-10))
    out.append(_check("three_site.mixed_pair_negativity_closed_form", worstneg, 1e-10))

    worst = 0.0
    for t in (0.2, 0.6, 2.0):
        pt = partial_transpose(_pair(decomp, t, (0, 2)))
        numeric = np.sort(np.linalg.eigvalsh(pt))
        reference = np.sort(analytic.three_spin_rho13_spectrum(1.0 / t))
        worst = max(worst, float(np.abs(numeric - reference).max()))
    out.append(_check("three_site.half_pair_transposed_spectrum", worst, 1e-10))

    worst = float(negativities(_pair(decomp, np.linspace(0.05, 5.0, 60), (0, 2))).max())
    out.append(_check("three_site.half_pair_never_entangled", worst, EPS_NONZERO))

    res = find_threshold(ModelSpec(3), "temperature", resolve_pairs(3)[0], (0.3, 2.0))
    out.append(_check("three_site.threshold_temperature",
                      abs(res.value - 0.7609), 1e-3,
                      detail=f"found {res.value:.6f}, root-finding gives "
                             f"{analytic.three_spin_threshold():.6f}"))

    worst = 0.0
    for t in (0.2, 0.5, 1.0):
        n12 = su2_signed(correlator(_pair(decomp, t, (0, 1))), PairKind.HALF_ONE)
        n13 = su2_signed(correlator(_pair(decomp, t, (0, 2))), PairKind.HALF_HALF)
        u = _energy(decomp, t)
        worst = max(worst, abs(u - analytic.three_spin_energy_relation(n12, n13)))
    out.append(_check("three_site.energy_negativity_relation", worst, 1e-8))

    out.append(_check("three_site.ground_energy", abs(decomp.eigenvalues[0] + 1.75), 1e-10))
    out.append(_check("three_site.ground_negativity_mixed_pair",
                      abs(negativity(_pair(decomp, 0.0, (0, 1))).value - 1.0 / 3.0), 1e-9))
    n13_signed = su2_signed(correlator(_pair(decomp, 0.0, (0, 2))), PairKind.HALF_HALF)
    out.append(_check("three_site.ground_signed_half_pair", abs(n13_signed + 0.5), 1e-9))
    return out


# ---------------------------------------------------------------------------
# Even rings, nearest-neighbor only
# ---------------------------------------------------------------------------

def check_even_rings(max_n: int = MAX_SITES) -> list[CheckResult]:
    out = []
    decomp4 = diagonalize(build_model(ModelSpec(4)))
    for n in range(4, max_n + 1, 2):
        decomp = decomp4 if n == 4 else diagonalize(build_model(ModelSpec(n)))
        temps = np.linspace(0.1, 2.0, 20)
        numeric = negativities(_pair(decomp, temps, (0, 1)))
        relation = analytic.even_ring_negativity_from_energy
        worst = max(abs(value - relation(_energy(decomp, t) / n))
                    for t, value in zip(temps, numeric))
        out.append(_check(f"even_ring.energy_relation_n{n}", worst, 1e-8))

        u_per_site = _energy(decomp, 0.7) / n
        worst = max(abs(correlator(_pair(decomp, 0.7, (i, (i + 1) % n))) - u_per_site)
                    for i in range(n))
        out.append(_check(f"even_ring.uniform_bond_correlator_n{n}", worst, 1e-10))

    out.append(_check("even_ring.n4_ground_energy_per_site",
                      abs(decomp4.eigenvalues[0] / 4.0 + 0.75), 1e-10))
    out.append(_check("even_ring.n4_ground_negativity",
                      abs(negativity(_pair(decomp4, 0.0, (0, 1))).value - 1.0 / 6.0), 1e-9))
    return out


# ---------------------------------------------------------------------------
# Four-site ring with next-nearest couplings
# ---------------------------------------------------------------------------

def check_four_site_nnn() -> list[CheckResult]:
    out = []
    decomps = {j2: diagonalize(build_model(ModelSpec(4, 1.0, j2)))
               for j2 in (0.0, 0.1, 0.24, 0.3, 0.45, 0.7, 1.0)}
    worst_spec = 0.0
    for j2 in (0.1, 0.3, 0.7):
        ladder = analytic.four_spin_levels(1.0, j2).eigenvalue_multiset()
        worst_spec = max(worst_spec, float(np.abs(decomps[j2].eigenvalues - ladder).max()))
    out.append(_check("four_site.level_ladder", worst_spec, 1e-10))

    worst_z = worst_c = 0.0
    for beta in (0.5, 2.0, 10.0):
        for j2 in (0.1, 0.3, 0.7):
            decomp = decomps[j2]
            worst_z = max(worst_z, abs(log_partition(decomp.eigenvalues, beta)
                                       - analytic.four_spin_log_partition(beta, 1.0, j2)))
            worst_c = max(worst_c, abs(correlator(_pair(decomp, 1.0 / beta, (0, 1)))
                                       - analytic.four_spin_correlator(beta, 1.0, j2)))
    out.append(_check("four_site.log_partition", worst_z, 1e-10))
    out.append(_check("four_site.nearest_correlator", worst_c, 1e-10))

    worst = max(abs(decomp.eigenvalues[0] - analytic.four_spin_ground_energy(1.0, j2))
                for j2, decomp in decomps.items())
    out.append(_check("four_site.piecewise_ground_energy", worst, 1e-10))

    for j2, expected in ((0.1, 3), (0.3, 1), (0.7, 1)):
        out.append(_check(f"four_site.ground_degeneracy_j2_{j2}",
                          abs(ground_degeneracy(decomps[j2].eigenvalues) - expected), 0))
    return out


# ---------------------------------------------------------------------------
# Two-site ring in a field
# ---------------------------------------------------------------------------

def check_field_model() -> list[CheckResult]:
    out = []
    worst = 0.0
    # one zero-field decomposition serves every field, as in a field sweep
    decomp = diagonalize(build_model(ModelSpec(2)))
    for t, b in ((0.5, 0.8), (0.05, 1.0), (0.05, 2.0), (1.0, 0.3)):
        el = analytic.field_elements(1.0 / t, b)
        pair = _pair(decomp, t, (0, 1), field_b=b)
        worst = max(worst, float(np.abs(pair.matrix - el.matrix()).max()))
        worst = max(worst, abs(negativity(pair).value - analytic.field_negativity(1.0 / t, b)))
    out.append(_check("field.thermal_elements_and_negativity", worst, 1e-10))

    worst = 0.0
    for t in (0.2, 1.0):
        zero_field = analytic.field_elements(1.0 / t, 0.0)
        plain = analytic.two_spin_elements(1.0 / t)
        worst = max(worst, max(abs(zero_field.a1 - plain.a1),
                               abs(zero_field.a2 - plain.a2),
                               abs(zero_field.a3 - plain.a3),
                               abs(zero_field.b1 - plain.b1),
                               abs(zero_field.log_z - plain.log_z)))
    out.append(_check("field.zero_field_reduction", worst, 1e-12))

    out.append(_check("field.a2_element_constant",
                      max(abs(analytic.field_elements(1.0 / t, 0.0).a2 - 1.0 / 6.0)
                          for t in (0.1, 0.5, 2.0)), 1e-12))

    out.append(_check("field.plateau_value",
                      abs(analytic.field_negativity(20.0, 1.0) - math.sqrt(2.0) / 3.0),
                      1e-3))
    out.append(_check("field.strong_field_unentangled",
                      analytic.field_negativity(20.0, 2.0), EPS_NONZERO))

    schmidt = schmidt_negativity([math.sqrt(6.0) / 3.0, math.sqrt(3.0) / 3.0])
    out.append(_check("field.schmidt_ground_state",
                      abs(schmidt - math.sqrt(2.0) / 3.0), 1e-12))

    res = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (0.5, 2.5),
                         fixed_temperature=0.0)
    out.append(_check("field.level_crossing_threshold", abs(res.value - 1.5), 1e-4,
                      detail=f"ground-state crossing found at {res.value:.6f}"))
    return out


# ---------------------------------------------------------------------------
# Figure features for six and eight sites
# ---------------------------------------------------------------------------

def check_large_rings(max_n: int = MAX_SITES) -> list[CheckResult]:
    out = []
    if max_n >= 6:
        pairs = resolve_pairs(6)
        req = SweepRequest(base=ModelSpec(6), axis1=Axis("j2", 0.0, 1.0, 101),
                           pairs=pairs, temperature=0.02)
        res = run_sweep(req)
        n_ho = res.negativities[:, 0]
        jump_at = float(res.params[np.argmax(-np.diff(n_ho)), 0])
        out.append(_check("six_site.mixed_pair_jump_location", abs(jump_at - 0.275), 0.02,
                          detail=f"largest drop at j2 = {jump_at:.4f}"))
        out.append(_check("six_site.half_pair_never_entangled",
                          float(res.negativities[:, 1].max()), EPS_NONZERO))
        big_j2 = diagonalize(build_model(ModelSpec(6, 1.0, 20.0)))
        limit = pair_negativities(big_j2, state_weights(big_j2.eigenvalues, 0.0),
                                  [pairs[2]])[0]
        out.append(_check("six_site.one_pair_large_j2_limit", abs(limit - 1.0 / 3.0), 0.02,
                          detail=f"decoupled-triangle value {limit:.4f}"))

    if max_n >= 8:
        pairs = resolve_pairs(8)
        req = SweepRequest(base=ModelSpec(8), axis1=Axis("j2", 0.0, 1.0, 101),
                           pairs=pairs, temperature=0.02)
        res = run_sweep(req)
        n_ho, n_hh = res.negativities[:, 0], res.negativities[:, 1]
        j2s = res.params[:, 0]
        jump_at = float(j2s[np.argmax(-np.diff(n_ho))])
        out.append(_check("eight_site.mixed_pair_jump_location", abs(jump_at - 0.25), 0.02,
                          detail=f"largest drop at j2 = {jump_at:.4f}"))
        gone = j2s[(j2s > 0.3) & (n_ho <= EPS_NONZERO)]
        gone_at = float(gone[0]) if gone.size else float("nan")
        out.append(_check("eight_site.mixed_pair_vanishes", abs(gone_at - 0.55), 0.03,
                          detail=f"first zero grid point {gone_at:.4f}"))
        dep = j2s[n_hh > EPS_NONZERO]
        dep_at = float(dep[0]) if dep.size else float("nan")
        out.append(_check("eight_site.half_pair_departure", abs(dep_at - 0.67), 0.03,
                          detail=f"first nonzero grid point {dep_at:.4f}"))
    return out


def check_threshold_trends(max_n: int = MAX_SITES) -> list[CheckResult]:
    out = []
    found = {n: find_threshold(ModelSpec(n), "temperature", resolve_pairs(n)[0],
                               (0.05, 2.5), scan_points=48).value
             for n in range(3, max_n + 1)}
    even = [found[n] for n in range(4, max_n + 1, 2)]
    odd = [found[n] for n in range(3, max_n + 1, 2)]
    out.append(_check("trends.even_thresholds_decreasing",
                      0.0 if all(a > b for a, b in zip(even, even[1:])) else 1.0, 0.0,
                      detail=" > ".join(f"{v:.4f}" for v in even)))
    out.append(_check("trends.odd_thresholds_increasing",
                      0.0 if all(a < b for a, b in zip(odd, odd[1:])) else 1.0, 0.0,
                      detail=" < ".join(f"{v:.4f}" for v in odd)))

    decomp = diagonalize(build_model(ModelSpec(4)))
    values = negativities(_pair(decomp, np.linspace(0.05, 1.5, 80), (0, 1)))
    worst_rise = max(float(np.diff(values).max()), 0.0)
    out.append(_check("trends.negativity_monotone_in_temperature", worst_rise, 1e-9))
    return out


# ---------------------------------------------------------------------------
# Recomputed figure constants (informational)
# ---------------------------------------------------------------------------

def recomputed_constants(max_n: int = MAX_SITES) -> list[CheckResult]:
    """Figure-prose constants recomputed from the model's own closed forms.

    The quoted values cannot all be reproduced: thermal tails past level
    crossings keep the negativity above the nonzero cutoff far beyond the
    quoted points, and the four-site boundary extrema differ from the prose.
    """
    out = []
    if max_n >= 4:
        pair4 = resolve_pairs(4)[0]
        curve = threshold_curve(ModelSpec(4), pair4, "temperature",
                                np.linspace(0.01, 1.04, 104), "j2", (0.0, 1.0))
        points = [(t, j) for t, j in curve if j is not None]
        t_peak, j_peak = max(points, key=lambda p: p[1])
        out.append(_info("four_site.j2_boundary_peak_temperature", t_peak, 0.178))
        out.append(_info("four_site.j2_boundary_maximum", j_peak, 0.3758))

        res = find_threshold(ModelSpec(4), "temperature", pair4, (0.5, 2.0))
        out.append(_info("four_site.vanishing_temperature", res.value, 1.082,
                         detail="the quoted value is the two-site threshold"))

    res = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (1.0, 2.5),
                         fixed_temperature=0.05)
    out.append(_info("two_site.field_indicator_threshold_T0.05", res.value, 1.5,
                     detail="exact at T -> 0; the thermal tail moves the cutoff"))

    if max_n >= 6:
        pair6 = resolve_pairs(6)[0]
        curve = threshold_curve(ModelSpec(6), pair6, "j2", np.linspace(0.0, 0.45, 46),
                                "temperature", (0.02, 1.5))
        tmax = max(t for _, t in curve if t is not None)
        out.append(_info("six_site.region_temperature_bound", tmax, 0.925))
        curve = threshold_curve(ModelSpec(6), pair6, "temperature",
                                np.linspace(0.02, 0.8, 40), "j2", (0.0, 0.6),
                                scan_points=48)
        jmax = max(j for _, j in curve if j is not None)
        out.append(_info("six_site.region_j2_bound", jmax, 0.418))
    return out


# ---------------------------------------------------------------------------
# Structural property checks
# ---------------------------------------------------------------------------

def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def check_property_suite() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    out = []
    specs = [ModelSpec(2), ModelSpec(3), ModelSpec(4, j2=0.3), ModelSpec(5),
             ModelSpec(4, field_b=0.8), ModelSpec(6, j2=0.45)]

    worst_trace = worst_sym = worst_psd = 0.0
    worst_pt = worst_routes = worst_su2 = 0.0
    for spec in specs:
        decomp = diagonalize(build_model(replace(spec, field_b=0.0)))
        for t in (0.15, 0.8):
            for pair in resolve_pairs(spec.n_sites):
                sites = (pair.site_a, pair.site_b)
                reduced = _pair(decomp, t, sites, field_b=spec.field_b)
                m = reduced.matrix
                worst_trace = max(worst_trace, abs(float(np.trace(m)) - 1.0))
                worst_sym = max(worst_sym, float(np.abs(m - m.T).max()))
                worst_psd = max(worst_psd, -float(np.linalg.eigvalsh(m)[0]))
                spec_a = np.sort(np.linalg.eigvalsh(partial_transpose(reduced, "a")))
                spec_b = np.sort(np.linalg.eigvalsh(partial_transpose(reduced, "b")))
                worst_pt = max(worst_pt, float(np.abs(spec_a - spec_b).max()))
                res = negativity(reduced)
                trace_norm = 0.5 * (float(np.abs(spec_a).sum()) - 1.0)
                worst_routes = max(worst_routes, abs(res.value - max(0.0, trace_norm)))
                if spec.field_b == 0.0 and res.pair_kind != PairKind.ONE_ONE:
                    shortcut = su2_negativity(correlator(reduced), res.pair_kind)
                    worst_su2 = max(worst_su2, abs(res.value - shortcut))
    out.append(_check("properties.thermal_trace", worst_trace, 1e-10))
    out.append(_check("properties.thermal_symmetry", worst_sym, 1e-12))
    out.append(_check("properties.thermal_psd", worst_psd, 1e-12))
    out.append(_check("properties.pt_subsystem_spectra_equal", worst_pt, 1e-12))
    out.append(_check("properties.negativity_route_agreement", worst_routes, 1e-10))
    out.append(_check("properties.su2_shortcut", worst_su2, 1e-8))

    # local rotation invariance on a representative pair state
    decomp = diagonalize(build_model(ModelSpec(4, 1.0, 0.15)))
    reduced = _pair(decomp, 0.3, (0, 1))
    base_value = negativity(reduced).value
    worst = 0.0
    for _ in range(20):
        u = np.kron(_random_orthogonal(rng, reduced.dim_a),
                    _random_orthogonal(rng, reduced.dim_b))
        rotated = replace(reduced, matrix=u @ reduced.matrix @ u.T)
        eigs = np.linalg.eigvalsh(partial_transpose(rotated))
        worst = max(worst, abs(float(-eigs[eigs < 0].sum()) - base_value))
    out.append(_check("properties.local_rotation_invariance", worst, 1e-9))
    return out


def run_all(max_n: int = MAX_SITES) -> list[CheckResult]:
    """Full battery; max_n trims the most expensive ring sizes."""
    results = []
    results += check_two_site()
    results += check_three_site()
    results += check_even_rings(max_n)
    results += check_four_site_nnn()
    results += check_field_model()
    results += check_property_suite()
    results += check_large_rings(max_n)
    results += check_threshold_trends(max_n)
    results += recomputed_constants(max_n)
    return results
