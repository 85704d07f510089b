"""Acceptance suite: every stated criterion at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line for its criterion clause. A known
subset of quoted figure constants cannot be reproduced: the package's own
closed forms (which the numeric pipeline matches to 1e-10 and better) place
those features elsewhere, mostly because thermal tails past level crossings
decay to the 1e-9 "nonzero" cutoff far more slowly than the quoted numbers
assume. Those clause tests fail honestly; the neighbouring *_recomputed
tests pin the true values by two independent routes. The README lists the
affected clauses.
"""

import math
import time

import numpy as np
import pytest

from conftest import timed
from mixedspin import (EPS_NONZERO, ModelSpec, PairKind, SpectralCache,
                       build_model, correlator, diagonalize, find_threshold,
                       ground_manifold, internal_energy, log_partition,
                       pair_negativity, resolve_pairs, su2_signed,
                       thermal_state, threshold_curve)
from mixedspin import analytic, verify

SQRT2_3 = math.sqrt(2.0) / 3.0


def check(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


# --- criterion 1: two-site closed-form oracle --------------------------------

def test_c01_two_site_oracle_and_runtime():
    start = time.monotonic()
    decomp = diagonalize(build_model(ModelSpec(2)))
    temps = np.linspace(0.05, 2.0, 200)
    worst = max(abs(pair_negativity(thermal_state(decomp, t), (0, 1))
                    - analytic.two_spin_negativity(1.0 / t)) for t in temps)
    elapsed = time.monotonic() - start
    check("c01 two-site negativity vs closed form (200 pts)", worst <= 1e-10,
          f"max |diff| = {worst:.2e}")
    check("c01 runtime", elapsed < 1.0, f"{elapsed:.2f} s")


# --- criterion 2: two-site threshold temperature ------------------------------

def test_c02_two_site_threshold_bisection():
    res = find_threshold(ModelSpec(2), "temperature", resolve_pairs(2)[0], (0.5, 2.0))
    target = 3.0 / (4.0 * math.log(2.0))
    check("c02 threshold temperature (two sites)",
          abs(res.value - target) <= 1e-4,
          f"found {res.value:.6f}, exact {target:.6f}")


# --- criterion 3: three-site ring ---------------------------------------------

def test_c03a_ground_negativity(decomp_nn):
    value = pair_negativity(ground_manifold(decomp_nn[3]), (0, 1))
    check("c03a three-site ground mixed-pair negativity",
          abs(value - 1.0 / 3.0) <= 1e-9, f"{value:.12f}")


def test_c03b_half_pair_always_separable(decomp_nn):
    worst = max(pair_negativity(thermal_state(decomp_nn[3], t), (0, 2))
                for t in np.linspace(0.05, 5.0, 100))
    check("c03b three-site half-half pair negativity stays zero",
          worst <= EPS_NONZERO, f"max {worst:.2e}")


def test_c03c_threshold_temperature():
    res = find_threshold(ModelSpec(3), "temperature", resolve_pairs(3)[0], (0.3, 2.0))
    check("c03c three-site threshold temperature",
          abs(res.value - 0.7609) <= 1e-3,
          f"found {res.value:.6f}, root of the closed form "
          f"{analytic.three_spin_threshold():.6f}")


def test_c03d_signed_energy_relation(decomp_nn):
    worst = 0.0
    for t in (0.2, 0.5, 1.0):
        state = thermal_state(decomp_nn[3], t)
        n12 = su2_signed(correlator(state, 0, 1), PairKind.HALF_ONE)
        n13 = su2_signed(correlator(state, 0, 2), PairKind.HALF_HALF)
        u = internal_energy(decomp_nn[3], 1.0 / t)
        worst = max(worst, abs(u - analytic.three_spin_energy_relation(n12, n13)))
    check("c03d three-site signed energy relation", worst <= 1e-8,
          f"max |diff| = {worst:.2e}")


# --- criterion 4: even rings, nearest-neighbor only ---------------------------

def test_c04_even_rings_energy_relation():
    start = time.monotonic()
    decomp4 = diagonalize(build_model(ModelSpec(4)))
    value = pair_negativity(ground_manifold(decomp4), (0, 1))
    check("c04 four-site ground mixed-pair negativity",
          abs(value - 1.0 / 6.0) <= 1e-9, f"{value:.12f}")
    worst = 0.0
    for n in (4, 6, 8):
        decomp = diagonalize(build_model(ModelSpec(n)))
        for t in np.linspace(0.1, 2.0, 20):
            u = internal_energy(decomp, 1.0 / t) / n
            numeric = pair_negativity(thermal_state(decomp, t), (0, 1))
            worst = max(worst, abs(numeric
                                   - analytic.even_ring_negativity_from_energy(u)))
    elapsed = time.monotonic() - start
    check("c04 energy-per-site relation, n in {4,6,8} at 20 T", worst <= 1e-8,
          f"max |diff| = {worst:.2e}")
    check("c04 runtime", elapsed < 120.0, f"{elapsed:.1f} s")


# --- criterion 5: four-site level ladder and thermodynamics --------------------

def test_c05_four_site_ladder_partition_correlator():
    worst_ladder = 0.0
    for j2 in (0.1, 0.3, 0.7):
        decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
        ladder = analytic.four_spin_levels(1.0, j2)
        assert ladder.total_multiplicity == 36
        worst_ladder = max(worst_ladder, float(np.abs(
            decomp.eigenvalues - ladder.eigenvalue_multiset()).max()))
    check("c05 level ladder multiset (3 couplings)", worst_ladder <= 1e-10,
          f"max |diff| = {worst_ladder:.2e}")

    worst_z = worst_c = 0.0
    for beta in (0.5, 2.0, 10.0):
        for j2 in (0.1, 0.3, 0.7):
            decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
            worst_z = max(worst_z, abs(log_partition(decomp.eigenvalues, beta)
                                       - analytic.four_spin_log_partition(beta, 1.0, j2)))
            worst_c = max(worst_c, abs(correlator(thermal_state(decomp, 1.0 / beta), 0, 1)
                                       - analytic.four_spin_correlator(beta, 1.0, j2)))
    check("c05 log partition function", worst_z <= 1e-10, f"max |diff| = {worst_z:.2e}")
    check("c05 nearest-pair correlator", worst_c <= 1e-10, f"max |diff| = {worst_c:.2e}")


# --- criterion 6: four-site coupling sweep at T = 0.008 -----------------------

def test_c06a_mixed_pair_plateau(fig5_sweep):
    res, _ = fig5_sweep
    j2, n_ho = res.params[:, 0], res.negativities[:, 0]
    window = j2 <= 0.24
    worst = float(np.abs(n_ho[window] - 1.0 / 6.0).max())
    check("c06a mixed-pair plateau 1/6 on [0, 0.24]", worst <= 0.01,
          f"max |N - 1/6| = {worst:.2e}")


def test_c06b_mixed_pair_zero_window(fig5_sweep):
    res, _ = fig5_sweep
    j2, n_ho = res.params[:, 0], res.negativities[:, 0]
    window = j2 >= 0.26
    worst = float(n_ho[window].max())
    zeros = j2[window][n_ho[window] <= EPS_NONZERO]
    check("c06b mixed-pair negativity zero on [0.26, 1]", worst <= EPS_NONZERO,
          f"max = {worst:.2e}; zero only from j2 = {zeros[0]:.4f} "
          f"(thermal tail of the crossed level)")


def test_c06b_recomputed_zero_onset(fig5_sweep):
    # two routes: the sweep grid and the closed-form correlator locate the
    # true zero onset at j2 = 0.2901 for T = 0.008
    res, _ = fig5_sweep
    j2, n_ho = res.params[:, 0], res.negativities[:, 0]
    after = j2 >= 0.26
    zeros = j2[after][n_ho[after] <= EPS_NONZERO]
    lo, hi = 0.26, 0.35
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if analytic.four_spin_negativity_half_one(125.0, 1.0, mid) > EPS_NONZERO:
            lo = mid
        else:
            hi = mid
    onset = 0.5 * (lo + hi)
    check("c06b* recomputed zero onset at T = 0.008",
          abs(onset - 0.290060) <= 5e-4 and abs(zeros[0] - onset) <= 0.006,
          f"closed form {onset:.6f}, first zero grid point {zeros[0]:.4f}")


def test_c06c_one_one_plateaus(fig5_sweep):
    res, _ = fig5_sweep
    j2, n_oo = res.params[:, 0], res.negativities[:, 2]
    first = (j2 >= 0.30) & (j2 <= 0.45)
    second = (j2 >= 0.60) & (j2 <= 1.0)
    worst1 = float(np.abs(n_oo[first] - 1.0 / 3.0).max())
    worst2 = float(np.abs(n_oo[second] - 1.0).max())
    check("c06c one-one plateaus at 1/3 and 1", worst1 <= 0.02 and worst2 <= 0.02,
          f"|N - 1/3| <= {worst1:.2e} on [0.30, 0.45]; |N - 1| <= {worst2:.2e} on [0.60, 1]")


def test_c06d_half_half_plateau(fig5_sweep):
    res, elapsed = fig5_sweep
    j2, n_hh = res.params[:, 0], res.negativities[:, 1]
    window = (j2 >= 0.60) & (j2 <= 1.0)
    worst = float(np.abs(n_hh[window] - 0.5).max())
    check("c06d half-half pair reaches 1/2 beyond 0.55", worst <= 0.02,
          f"max |N - 1/2| = {worst:.2e}")
    check("c06 runtime", elapsed < 30.0, f"{elapsed:.1f} s")


# --- criterion 7: two-site field sweep at T = 0.05 ----------------------------

def test_c07a_field_plateau(fig4_sweep):
    res, _ = fig4_sweep
    b, n = res.params[:, 0], res.negativities[:, 0]
    window = (b >= 0.1) & (b <= 1.4)
    worst = float(np.abs(n[window] - SQRT2_3).max())
    inside = b[window][np.abs(n[window] - SQRT2_3) <= 1e-3]
    check("c07a field plateau sqrt(2)/3 on [0.1, 1.4]", worst <= 1e-3,
          f"max |N - sqrt(2)/3| = {worst:.2e}; within 1e-3 only on "
          f"[{inside[0]:.2f}, {inside[-1]:.2f}] (thermal mixing at the edges)")


def test_c07b_field_threshold():
    res = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (1.0, 2.5),
                         fixed_temperature=0.05)
    check("c07b field threshold 1.5 at T = 0.05", abs(res.value - 1.5) <= 0.01,
          f"indicator flips at {res.value:.4f}: the level-crossing value 3/2 is "
          f"a T -> 0 feature, the T = 0.05 tail keeps N > 1e-9 up to here")


def test_c07c_field_zero_beyond_155(fig4_sweep):
    res, _ = fig4_sweep
    b, n = res.params[:, 0], res.negativities[:, 0]
    window = b > 1.55
    worst = float(n[window].max())
    zeros = b[window][n[window] <= EPS_NONZERO]
    check("c07c negativity zero for B > 1.55", worst <= EPS_NONZERO,
          f"max = {worst:.2e}; zero only from B = {zeros[0]:.3f}")


def test_c07_recomputed_crossing_and_plateau(fig4_sweep):
    # ground-state route: the crossing is exactly 3/2; and the closed form
    # places the T = 0.05 indicator flip near 1.9805
    res = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (0.5, 2.5),
                         fixed_temperature=0.0)
    ok_crossing = abs(res.value - 1.5) <= 1e-4
    flip = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (1.0, 2.5),
                          fixed_temperature=0.05)
    ok_flip = abs(flip.value - 1.980478) <= 1e-3
    sweep, _ = fig4_sweep
    b, n = sweep.params[:, 0], sweep.negativities[:, 0]
    core = (b >= 0.35) & (b <= 1.15)
    ok_core = float(np.abs(n[core] - SQRT2_3).max()) <= 1e-3
    check("c07* recomputed: crossing 3/2 at T = 0, flip 1.9805 at T = 0.05, "
          "core plateau [0.35, 1.15]",
          ok_crossing and ok_flip and ok_core,
          f"crossing {res.value:.5f}, flip {flip.value:.5f}")


# --- criterion 8: four-site zero-negativity boundary --------------------------

@pytest.fixture(scope="module")
def boundary_curve():
    cache = SpectralCache()
    pair = resolve_pairs(4)[0]
    temps = np.linspace(0.01, 1.2, 80)
    curve, elapsed = timed(threshold_curve, ModelSpec(4), pair, "temperature",
                           temps, "j2", (0.0, 1.0), scan_points=80, cache=cache)
    return curve, cache, elapsed


def test_c08a_boundary_peak_temperature(boundary_curve):
    curve, _, _ = boundary_curve
    points = [(t, j) for t, j in curve if j is not None]
    t_peak, j_peak = max(points, key=lambda p: p[1])
    check("c08a temperature of maximal coupling threshold = 0.178",
          abs(t_peak - 0.178) <= 0.02,
          f"peak at T = {t_peak:.4f} (boundary maximum {j_peak:.5f})")


def test_c08b_global_vanishing_temperature(boundary_curve):
    _, cache, _ = boundary_curve
    pair = resolve_pairs(4)[0]
    curve = threshold_curve(ModelSpec(4), pair, "j2", np.linspace(0.0, 0.3, 31),
                            "temperature", (0.3, 2.0), cache=cache)
    t_max = max(t for _, t in curve if t is not None)
    check("c08b global vanishing temperature = 1.082",
          abs(t_max - 1.082) <= 0.005,
          f"max threshold temperature {t_max:.4f} (at zero coupling); the "
          f"quoted 1.082 is the two-site value")


def test_c08c_max_coupling_threshold(boundary_curve):
    curve, _, elapsed = boundary_curve
    j_max = max(j for _, j in curve if j is not None)
    check("c08c maximal coupling threshold = 0.376", abs(j_max - 0.376) <= 0.005,
          f"max j2 threshold {j_max:.5f}")
    check("c08 runtime", elapsed < 120.0, f"{elapsed:.1f} s")


def test_c08_recomputed_boundary_extrema(boundary_curve):
    # pin the recomputed boundary by two routes: the sweep-engine curve and
    # direct bisection on the closed-form negativity
    curve, _, _ = boundary_curve
    points = [(t, j) for t, j in curve if j is not None]
    t_peak, j_peak = max(points, key=lambda p: p[1])

    def closed_form_j2_threshold(t):
        lo, hi = 0.0, 1.0
        if analytic.four_spin_negativity_half_one(1.0 / t, 1.0, lo) <= EPS_NONZERO:
            return None
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if analytic.four_spin_negativity_half_one(1.0 / t, 1.0, mid) > EPS_NONZERO:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    fine = [(t, closed_form_j2_threshold(t)) for t in np.linspace(0.05, 0.4, 141)]
    t_fine, j_fine = max(fine, key=lambda p: p[1])
    ok = (abs(j_peak - 0.381112) <= 5e-4 and abs(j_fine - 0.381112) <= 1e-4
          and abs(t_fine - 0.1506) <= 5e-3 and abs(t_peak - t_fine) <= 0.02)
    check("c08* recomputed boundary extrema (two routes)", ok,
          f"engine ({t_peak:.4f}, {j_peak:.5f}), closed form ({t_fine:.4f}, {j_fine:.5f})")

    res = find_threshold(ModelSpec(4), "temperature", resolve_pairs(4)[0], (0.5, 2.0))
    check("c08* recomputed vanishing temperature",
          abs(res.value - 1.032665) <= 1e-3, f"{res.value:.6f}")


# --- criterion 9: six-site features at T = 0.02 -------------------------------

def test_c09a_mixed_pair_drop(fig9_sweep):
    res, _ = fig9_sweep
    j2, n_ho = res.params[:, 0], res.negativities[:, 0]
    after = j2 >= 0.22
    zeros = j2[after][n_ho[after] <= EPS_NONZERO]
    check("c09a mixed-pair negativity zero from 0.27",
          zeros.size > 0 and abs(zeros[0] - 0.27) <= 0.02,
          f"zero from j2 = {zeros[0]:.4f}; the level crossing at 0.275 only "
          f"drops the value, the crossed state stays weakly entangled")


def test_c09a_recomputed_drop_and_onset(fig9_sweep):
    res, _ = fig9_sweep
    j2, n_ho = res.params[:, 0], res.negativities[:, 0]
    drops = -np.diff(n_ho)
    k = int(np.argmax(drops))
    jump = 0.5 * (j2[k] + j2[k + 1])
    after = j2 >= 0.22
    zeros = j2[after][n_ho[after] <= EPS_NONZERO]
    check("c09a* drop located at the level crossing 0.275, zero onset near 0.41",
          abs(jump - 0.275) <= 0.02 and 0.38 <= zeros[0] <= 0.44,
          f"largest drop at {jump:.4f}, first zero grid point {zeros[0]:.4f}")


def test_c09b_half_pair_zero_everywhere(fig9_sweep):
    res, _ = fig9_sweep
    worst = float(res.negativities[:, 1].max())
    check("c09b half-half pair negativity zero for all couplings",
          worst <= EPS_NONZERO, f"max = {worst:.2e}")


def test_c09c_one_one_large_coupling_value():
    decomp = diagonalize(build_model(ModelSpec(6, 1.0, 20.0)))
    value = pair_negativity(thermal_state(decomp, 0.02), (1, 3))
    check("c09c one-one negativity approaches 0.33 at large coupling",
          abs(value - 0.33) <= 0.02,
          f"N(j2=20) = {value:.4f}; decoupled-triangle limit is 1/3")


def test_c09d_region_bounds():
    cache = SpectralCache()
    pair = resolve_pairs(6)[0]
    curve = threshold_curve(ModelSpec(6), pair, "j2", np.linspace(0.0, 0.4, 21),
                            "temperature", (0.02, 1.5), cache=cache)
    t_bound = max(t for _, t in curve if t is not None)
    check("c09d region temperature bound 0.925", abs(t_bound - 0.925) <= 0.01,
          f"max threshold temperature {t_bound:.4f}")
    curve = threshold_curve(ModelSpec(6), pair, "temperature",
                            np.linspace(0.06, 0.6, 28), "j2", (0.0, 0.6),
                            scan_points=48, cache=cache)
    j_bound = max(j for _, j in curve if j is not None)
    check("c09d region coupling bound 0.418", abs(j_bound - 0.418) <= 0.01,
          f"max coupling threshold {j_bound:.4f}")


# --- criterion 10: eight-site features at T = 0.02 ----------------------------

def test_c10_eight_site_features(fig10_sweep):
    res, elapsed = fig10_sweep
    j2 = res.params[:, 0]
    n_ho, n_hh = res.negativities[:, 0], res.negativities[:, 1]

    drops = -np.diff(n_ho)
    k = int(np.argmax(drops))
    jump = 0.5 * (j2[k] + j2[k + 1])
    check("c10 mixed-pair jump near 0.25", abs(jump - 0.25) <= 0.02,
          f"largest drop at j2 = {jump:.4f}")

    after = j2 > 0.3
    zeros = j2[after][n_ho[after] <= EPS_NONZERO]
    check("c10 mixed-pair negativity gone by 0.55",
          zeros.size > 0 and abs(zeros[0] - 0.55) <= 0.03,
          f"first zero grid point {zeros[0]:.4f}")

    departure = j2[n_hh > EPS_NONZERO]
    check("c10 half-half pair departs from zero at 0.67",
          departure.size > 0 and abs(departure[0] - 0.67) <= 0.03,
          f"first nonzero grid point {departure[0]:.4f}")
    check("c10 runtime", elapsed < 300.0, f"{elapsed:.1f} s")


# --- criterion 11: threshold trends --------------------------------------------

def test_c11_threshold_trends():
    thresholds = {}
    for n in range(2, 9):
        res = find_threshold(ModelSpec(n), "temperature", resolve_pairs(n)[0],
                             (0.05, 2.5), scan_points=48)
        thresholds[n] = res.value
    even = [thresholds[n] for n in (4, 6, 8)]
    odd = [thresholds[n] for n in (3, 5, 7)]
    check("c11 even-ring thresholds decrease with size",
          even[0] > even[1] > even[2],
          " > ".join(f"{v:.4f}" for v in even))
    check("c11 odd-ring thresholds increase with size",
          odd[0] < odd[1] < odd[2],
          " < ".join(f"{v:.4f}" for v in odd))

    worst_rise = 0.0
    for n in (2, 3, 4, 5, 6):
        decomp = diagonalize(build_model(ModelSpec(n)))
        values = [pair_negativity(thermal_state(decomp, t), (0, 1))
                  for t in np.linspace(0.05, 1.5, 60)]
        worst_rise = max(worst_rise, max(b - a for a, b in zip(values, values[1:])))
    check("c11 negativity non-increasing in temperature", worst_rise <= 1e-9,
          f"largest rise {worst_rise:.2e}")


# --- criterion 12: structural property battery --------------------------------

def test_c12_property_suite():
    results = verify.check_property_suite(seed=7)
    for res in results:
        check(f"c12 {res.name}", res.ok, f"deviation {res.measured:.2e} "
                                         f"(budget {res.budget:.0e})")
