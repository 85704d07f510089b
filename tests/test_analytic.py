import math

import numpy as np

from mixedspin import (ModelSpec, build_model, diagonalize, internal_energy, log_partition,
                       partial_trace, thermal_state)
from mixedspin import analytic
from mixedspin.negativity import correlator, partial_transpose
from oracle import pair_negativity

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# two-site ring
# ---------------------------------------------------------------------------

def test_two_spin_elements_are_normalized_and_consistent():
    for beta in (0.1, 1.0, 10.0, 1000.0):
        el = analytic.two_spin_elements(beta)
        assert abs(el.a1 + el.a2 + el.a3 + el.a4 + el.a5 + el.a6 - 1.0) <= 1e-12
        assert abs(el.a2 - 1.0 / 6.0) <= 1e-15
        assert abs(el.b1 - SQRT2 * (el.a1 - el.a2)) <= 1e-14
        assert np.isfinite(el.log_z)


def test_two_spin_elements_match_thermal_state(decomp_nn):
    for t in (0.1, 0.7, 3.0):
        el = analytic.two_spin_elements(1.0 / t)
        assert np.abs(thermal_state(decomp_nn[2], t).matrix - el.matrix()).max() <= 1e-12


def test_two_spin_negativity_limits_and_threshold():
    assert abs(analytic.two_spin_negativity(1000.0) - 1.0 / 3.0) <= 1e-10
    assert analytic.two_spin_negativity(1e-9) == 0.0
    beta_threshold = (4.0 / 3.0) * math.log(2.0)
    assert abs(analytic.two_spin_negativity(beta_threshold)) <= 1e-12
    assert analytic.two_spin_negativity(beta_threshold + 1e-6) > 0.0
    assert abs(1.0 / beta_threshold - analytic.TWO_SPIN_T_THRESHOLD) <= 1e-15


def test_two_spin_threshold_by_bisection_on_signed_value():
    lo, hi = 0.5, 2.0      # temperatures bracketing the sign change
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if analytic.two_spin_negativity_signed(1.0 / mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert hi - lo <= 1e-10 * max(1.0, lo)
    assert abs(0.5 * (lo + hi) - analytic.TWO_SPIN_T_THRESHOLD) <= 1e-9


def test_two_spin_internal_energy_value():
    expected = (-math.e + math.exp(-0.5)) / (math.e + 2.0 * math.exp(-0.5))
    assert abs(analytic.two_spin_internal_energy(1.0) - expected) <= 1e-14


def test_negativity_from_internal_energy():
    assert analytic.negativity_from_internal_energy(-0.5) == 0.0
    assert abs(analytic.negativity_from_internal_energy(-1.0) - 1.0 / 3.0) <= 1e-15
    for beta in (0.2, 1.0, 2.5, 30.0):
        composed = analytic.negativity_from_internal_energy(
            analytic.two_spin_internal_energy(beta))
        assert abs(composed - analytic.two_spin_negativity(beta)) <= 1e-14


def test_two_spin_negativity_matches_block_formula():
    for beta in (0.2, 1.0, 5.0):
        el = analytic.two_spin_elements(beta)
        assert abs(analytic.block_negativity(el)
                   - analytic.two_spin_negativity(beta)) <= 1e-14
        # identity specific to these elements: value = 2 max[0, a2 - 2 a1]
        assert abs(analytic.two_spin_negativity(beta)
                   - 2.0 * max(0.0, el.a2 - 2.0 * el.a1)) <= 1e-14


def test_two_spin_closed_form_vs_pipeline(decomp_nn):
    for t in np.linspace(0.05, 2.0, 40):
        numeric = pair_negativity(thermal_state(decomp_nn[2], t), (0, 1))
        assert abs(numeric - analytic.two_spin_negativity(1.0 / t)) <= 1e-10


# ---------------------------------------------------------------------------
# three-site ring
# ---------------------------------------------------------------------------

def test_three_spin_elements_trace_consistency():
    for beta in (0.2, 1.5, 40.0):
        el = analytic.three_spin_elements(beta)
        assert abs(2 * (el.a1 + el.a2 + el.a3) - 1.0) <= 1e-12
        assert abs(2 * (el.aa1 + el.aa2) - 1.0) <= 1e-12


def test_three_spin_elements_match_pipeline(decomp_nn):
    for t in (0.25, 0.8, 2.0):
        mixed, halves = analytic.three_spin_elements(1.0 / t).matrices()
        state = thermal_state(decomp_nn[3], t)
        assert np.abs(partial_trace(state, (0, 1)).matrix - mixed).max() <= 1e-10
        assert np.abs(partial_trace(state, (0, 2)).matrix - halves).max() <= 1e-10


def test_three_spin_negativity_closed_form(decomp_nn):
    for t in (0.2, 0.5, 0.76, 1.2):
        numeric = pair_negativity(thermal_state(decomp_nn[3], t), (0, 1))
        assert abs(numeric - analytic.three_spin_negativity_12(1.0 / t)) <= 1e-10
    assert abs(analytic.three_spin_negativity_12(1000.0) - 1.0 / 3.0) <= 1e-10


def test_three_spin_rho13_spectrum(decomp_nn):
    for t in (0.3, 1.0):
        spectrum = analytic.three_spin_rho13_spectrum(1.0 / t)
        assert abs(spectrum.sum() - 1.0) <= 1e-12
        assert spectrum.min() >= 0.0          # transposed state stays positive
        pt = partial_transpose(partial_trace(thermal_state(decomp_nn[3], t), (0, 2)))
        numeric = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(numeric - np.sort(spectrum)).max() <= 1e-10


def test_three_spin_threshold_root():
    t_th = analytic.three_spin_threshold()
    assert abs(t_th - 0.7609) <= 1e-3
    # the crossing is a zero of the signed closed form
    assert analytic.three_spin_negativity_12_signed(1.0 / (t_th - 1e-6)) > 0.0
    assert analytic.three_spin_negativity_12_signed(1.0 / (t_th + 1e-6)) < 0.0


def test_three_spin_energy_relation_values():
    assert abs(analytic.three_spin_energy_relation(1 / 3, -0.5) + 1.75) <= 1e-14
    assert abs(analytic.three_spin_energy_relation(0.0, 0.0) + 1.25) <= 1e-14


def test_three_spin_energy_relation_at_finite_temperature(decomp_nn):
    from mixedspin import PairKind
    from mixedspin.negativity import su2_signed
    for t in (0.2, 0.5, 1.0):
        state = thermal_state(decomp_nn[3], t)
        n12 = su2_signed(correlator(partial_trace(state, (0, 1))), PairKind.HALF_ONE)
        n13 = su2_signed(correlator(partial_trace(state, (0, 2))), PairKind.HALF_HALF)
        u = internal_energy(decomp_nn[3], 1.0 / t)
        assert abs(u - analytic.three_spin_energy_relation(n12, n13)) <= 1e-8


# ---------------------------------------------------------------------------
# even rings
# ---------------------------------------------------------------------------

def test_even_ring_energy_relation_values():
    assert abs(analytic.even_ring_negativity_from_energy(-0.75) - 1 / 6) <= 1e-15
    assert analytic.even_ring_negativity_from_energy(-0.5) == 0.0
    assert abs(analytic.even_ring_negativity_from_energy(-1.0) - 1 / 3) <= 1e-15


def test_even_ring_energy_relation_vs_pipeline(decomp_nn):
    for n in (4, 6):
        for t in (0.2, 0.9):
            state = thermal_state(decomp_nn[n], t)
            u = internal_energy(decomp_nn[n], 1.0 / t) / n
            assert abs(pair_negativity(state, (0, 1))
                       - analytic.even_ring_negativity_from_energy(u)) <= 1e-8


# ---------------------------------------------------------------------------
# four-site ring with next-nearest couplings
# ---------------------------------------------------------------------------

def test_four_spin_levels_structure():
    spectrum = analytic.four_spin_levels(1.0, 0.3)
    assert sum(m for _, m in spectrum.levels) == 36
    assert abs(math.exp(analytic.four_spin_log_partition(1e-12, 1.0, 0.3)) - 36.0) <= 1e-9


def test_four_spin_levels_match_numeric():
    for j2 in (0.1, 0.3, 0.7):
        decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
        ladder = analytic.four_spin_levels(1.0, j2).eigenvalue_multiset()
        assert np.abs(decomp.eigenvalues - ladder).max() <= 1e-10


def test_four_spin_ground_energy_branches():
    assert abs(analytic.four_spin_ground_energy(1.0, 0.1) + 2.75) <= 1e-15
    assert abs(analytic.four_spin_ground_energy(1.0, 0.3) + 2.45) <= 1e-15
    assert abs(analytic.four_spin_ground_energy(1.0, 1.0) + 5.5) <= 1e-15
    for kink in (0.25, 0.5):
        assert abs(analytic.four_spin_ground_energy(1.0, kink - 1e-12)
                   - analytic.four_spin_ground_energy(1.0, kink + 1e-12)) <= 1e-10
    # the ladder minimum agrees with the piecewise form
    for j2 in np.linspace(0.0, 1.2, 49):
        ladder_min = analytic.four_spin_levels(1.0, j2).eigenvalue_multiset()[0]
        assert abs(ladder_min - analytic.four_spin_ground_energy(1.0, j2)) <= 1e-12


def test_four_spin_partition_matches_numeric():
    for beta in (0.5, 2.0, 10.0):
        for j2 in (0.1, 0.3, 0.7):
            decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
            numeric = log_partition(decomp.eigenvalues, beta)
            closed = analytic.four_spin_log_partition(beta, 1.0, j2)
            assert abs(numeric - closed) <= 1e-10


def test_four_spin_partition_overflow_safe():
    assert np.isfinite(analytic.four_spin_log_partition(1000.0, 1.0, 0.8))


def test_four_spin_correlator_matches_numeric():
    for beta in (0.5, 2.0, 10.0):
        for j2 in (0.0, 0.3, 0.7):
            decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
            state = thermal_state(decomp, 1.0 / beta)
            assert abs(correlator(partial_trace(state, (0, 1)))
                       - analytic.four_spin_correlator(beta, 1.0, j2)) <= 1e-10


def test_four_spin_correlator_ground_limit():
    # below the first crossing the nearest correlator is -3/4
    assert abs(analytic.four_spin_correlator(2000.0, 1.0, 0.1) + 0.75) <= 1e-9
    assert abs(analytic.four_spin_negativity_half_one(2000.0, 1.0, 0.1) - 1 / 6) <= 1e-9


def test_four_spin_negativity_vs_pipeline():
    for j2 in (0.1, 0.35):
        decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
        for t in (0.1, 0.5, 1.2):
            numeric = pair_negativity(thermal_state(decomp, t), (0, 1))
            closed = analytic.four_spin_negativity_half_one(1.0 / t, 1.0, j2)
            assert abs(numeric - closed) <= 1e-8


# ---------------------------------------------------------------------------
# two-site ring with a field
# ---------------------------------------------------------------------------

def test_field_elements_reduce_to_plain_ring():
    for beta in (0.5, 2.0):
        with_field = analytic.field_elements(beta, 0.0)
        plain = analytic.two_spin_elements(beta)
        for name in ("a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "log_z"):
            assert abs(getattr(with_field, name) - getattr(plain, name)) <= 1e-12


def test_field_elements_match_pipeline():
    for t, b in ((0.5, 0.8), (0.05, 1.0), (0.05, 2.0), (1.0, 0.3), (0.2, 1.6)):
        decomp = diagonalize(build_model(ModelSpec(2, 1.0, field_b=b)))
        el = analytic.field_elements(1.0 / t, b)
        assert abs(el.a1 + el.a2 + el.a3 + el.a4 + el.a5 + el.a6 - 1.0) <= 1e-12
        assert np.abs(thermal_state(decomp, t).matrix - el.matrix()).max() <= 1e-12
        assert abs(el.log_z - thermal_state(decomp, t).log_z) <= 1e-10


def test_field_negativity_matches_pipeline():
    for t, b in ((0.5, 0.8), (0.05, 1.0), (0.05, 1.45), (0.05, 2.0), (0.3, 1.2)):
        decomp = diagonalize(build_model(ModelSpec(2, 1.0, field_b=b)))
        numeric = pair_negativity(thermal_state(decomp, t), (0, 1))
        assert abs(numeric - analytic.field_negativity(1.0 / t, b)) <= 1e-10


def test_field_negativity_landmarks():
    # low-temperature plateau and the strong-field collapse
    assert abs(analytic.field_negativity(20.0, 1.0) - SQRT2 / 3.0) <= 1e-3
    assert analytic.field_negativity(20.0, 2.0) <= 1e-9
    assert np.isfinite(analytic.field_negativity(1000.0, 1.0))


def test_exp_poly_ratio_overflow_safe():
    value = analytic.exp_poly_ratio([1.0], [2000.0], [2.0], [2000.0])
    assert abs(value - 0.5) <= 1e-14
