import sys
import weakref

import numpy as np
import pytest

from mixedspin import sweeps, thermal, verify
from mixedspin import negativity as negmod
from mixedspin import (EPS_NONZERO, Axis, Hamiltonian, ModelSpec, SweepRequest,
                       build_model, diagonalize, find_threshold, log_partition,
                       resolve_pairs, run_sweep, threshold_curve)
from mixedspin.analytic import (TWO_SPIN_T_THRESHOLD, two_spin_negativity)
from mixedspin.negativity import PairReducedState
from mixedspin.sweeps import available_pair_kinds, check_threshold, pair_negativities
from mixedspin.thermal import GROUND_DEGENERACY_RTOL, ground_degeneracy, state_weights
from oracle import dense_matrix


def test_available_pair_kinds():
    assert available_pair_kinds(2) == ("half_one",)
    assert available_pair_kinds(3) == ("half_one", "half_half")
    assert available_pair_kinds(4) == ("half_one", "half_half", "one_one")
    assert available_pair_kinds(7) == ("half_one", "half_half", "one_one")


def test_resolve_pairs_sites_and_labels():
    pairs = resolve_pairs(6)
    assert [(p.site_a, p.site_b) for p in pairs] == [(0, 1), (0, 2), (1, 3)]
    assert [p.label for p in pairs] == ["N_half_one", "N_half_half", "N_one_one"]
    with pytest.raises(ValueError, match="unknown pair kind"):
        resolve_pairs(4, ["half_two"])
    with pytest.raises(ValueError, match="sites"):
        resolve_pairs(2, ["one_one"])


def test_resolve_pairs_rejects_a_repeated_kind():
    # two columns of one label would make an ambiguous CSV header
    with pytest.raises(ValueError, match="pair kind 'one_one' given twice"):
        resolve_pairs(4, ["one_one", "half_one", "one_one"])


def test_axis_validation():
    with pytest.raises(ValueError, match="steps"):
        Axis("temperature", 0.1, 1.0, 1)
    for steps in (3.0, "3", None):
        with pytest.raises(ValueError, match="steps"):
            Axis("temperature", 0.1, 1.0, steps)
    # a step count beyond any grid is refused before values allocates it
    for steps in (10**18, sweeps.MAX_POINTS + 1):
        with pytest.raises(ValueError, match="points is more than"):
            Axis("temperature", 0.1, 1.0, steps)
    assert Axis("temperature", 0.1, 1.0, np.int64(3)).values.tolist() == [0.1, 0.55, 1.0]
    with pytest.raises(ValueError, match="lo < hi"):
        Axis("j2", 1.0, 0.5, 10)
    with pytest.raises(ValueError, match="finite"):
        Axis("temperature", 0.1, float("inf"), 10)
    with pytest.raises(ValueError, match="positive"):
        SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", 0.0, 1.0, 10))
    with pytest.raises(ValueError, match="parameter"):
        Axis("j3", 0.0, 1.0, 10)
    # an end that is not a real number is refused as such, not compared
    for lo, hi in (("0.1", 1.0), (0.1, "1"), (None, 1.0), (0.1, 1j)):
        with pytest.raises(ValueError, match="lo < hi"):
            Axis("temperature", lo, hi, 3)


def test_request_validation():
    with pytest.raises(ValueError, match="temperature"):
        SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5))
    with pytest.raises(ValueError, match="distinct"):
        SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5),
                     axis2=Axis("j2", 0.0, 0.5, 5), temperature=1.0)
    # coupling corners are validated up front: no next-nearest sweep on odd rings
    with pytest.raises(ValueError, match="even"):
        SweepRequest(base=ModelSpec(5), axis1=Axis("j2", 0.0, 1.0, 5),
                     temperature=1.0)
    # a fixed temperature next to a temperature axis or search would be ignored
    with pytest.raises(ValueError, match="temperature"):
        SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5),
                     axis2=Axis("temperature", 0.1, 1.0, 5), temperature=0.5)
    with pytest.raises(ValueError, match="temperature"):
        check_threshold(ModelSpec(2), "temperature", (0.5, 2.0), fixed_temperature=0.5)
    # a fixed temperature or search range that is not a real number is one ValueError
    for temperature in ("1", [0.5]):
        with pytest.raises(ValueError, match="temperature must be finite"):
            SweepRequest(ModelSpec(4), Axis("j2", 0.0, 1.0, 5), temperature=temperature)
    with pytest.raises(ValueError, match="temperature must be finite"):
        check_threshold(ModelSpec(4), "j2", (0.0, 1.0), fixed_temperature="0.1")
    pair = resolve_pairs(2)[0]
    for search_range in (("0.5", 2.0), (0.5, "2")):
        with pytest.raises(ValueError, match="lo < hi"):
            find_threshold(ModelSpec(2), "temperature", pair, search_range)
    # every corner of a two-axis grid is a model: j2 = 1 at b = 2 is not
    with pytest.raises(ValueError, match="studied separately"):
        SweepRequest(ModelSpec(4), Axis("j2", 0, 1, 7), Axis("field_b", -1, 2, 5),
                     temperature=0.05)


def test_temperature_sweep_matches_closed_form():
    req = SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", 0.05, 2.0, 50),
                       pairs=resolve_pairs(2))
    res = run_sweep(req)
    assert res.columns == ("temperature", "N_half_one", "U", "logZ")
    assert res.params.shape == (50, 1)
    expected = np.array([two_spin_negativity(1.0 / t) for t in res.params[:, 0]])
    assert np.abs(res.negativities[:, 0] - expected).max() <= 1e-10


def test_temperature_axis_up_to_the_largest_float():
    # the Boltzmann window's reach is 74 T, past the largest float from
    # T ~ 2.4e306; a sweep there warns of no overflow (pyproject.toml makes
    # a RuntimeWarning an error) and its hot rows are the uniform mixture
    res = run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("temperature", 0.1, 1e308, 3)))
    assert np.all(res.negativities[1:] == 0.0)
    assert np.abs(res.internal_energy[1:]).max() <= 1e-12
    assert np.abs(res.log_z[1:] - np.log(36.0)).max() <= 1e-12


def test_sweep_rows_are_axis1_major():
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 0.4, 3),
                       axis2=Axis("temperature", 0.1, 0.2, 2),
                       pairs=resolve_pairs(4))
    res = run_sweep(req)
    assert res.params.shape == (6, 2)
    assert np.allclose(res.params[:, 0], [0.0, 0.0, 0.2, 0.2, 0.4, 0.4])
    assert np.allclose(res.params[:, 1], [0.1, 0.2, 0.1, 0.2, 0.1, 0.2])


def test_sweep_deterministic():
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 0.8, 7),
                       axis2=Axis("temperature", 0.05, 1.0, 4),
                       pairs=resolve_pairs(4))
    first = run_sweep(req)
    again = run_sweep(req)
    assert np.array_equal(first.params, again.params)
    assert np.array_equal(first.negativities, again.negativities)
    assert np.array_equal(first.internal_energy, again.internal_energy)
    assert np.array_equal(first.log_z, again.log_z)


def _models(h):
    """The models of one diagonalize call: one Hamiltonian, or each of a batch."""
    return [h.spec] if isinstance(h, Hamiltonian) else [one.spec for one in h]


def test_temperature_axis_reuses_decomposition(monkeypatch):
    calls = []
    real = sweeps.diagonalize
    monkeypatch.setattr(sweeps, "diagonalize",
                        lambda h, points=None: calls.append(_models(h)) or real(h, points))
    req = SweepRequest(base=ModelSpec(3), axis1=Axis("temperature", 0.1, 2.0, 25),
                       pairs=resolve_pairs(3))
    run_sweep(req)
    assert calls == [[ModelSpec(3)]]
    req2 = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5),
                        axis2=Axis("temperature", 0.1, 1.0, 6),
                        pairs=resolve_pairs(4))
    calls.clear()
    run_sweep(req2)
    # five couplings, each diagonalized once, as one batch at four sites
    assert calls == [[ModelSpec(4, j2=float(v)) for v in np.linspace(0.0, 1.0, 5)]]


def test_sweep_lets_each_decomposition_go(monkeypatch):
    # a sweep holds one batch of decompositions at a time: when the next
    # batch's eigensolve starts, no earlier batch is still alive; the budget
    # makes batches of two groups of one point each (D = 36)
    monkeypatch.setattr(sweeps, "STACK_ENTRIES", 2 * 36 * (1 + 36))
    alive = []
    real = sweeps.diagonalize

    def tracked(h, points=None):
        assert [ref for ref in alive if ref() is not None] == []
        decomp = real(h, points)
        alive.append(weakref.ref(decomp))
        return decomp

    monkeypatch.setattr(sweeps, "diagonalize", tracked)
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 0.6, 4),
                       pairs=resolve_pairs(4), temperature=0.2)
    run_sweep(req)
    assert len(alive) == 2


def test_coupling_threshold_lets_each_decomposition_go(monkeypatch):
    # a coupling search or a boundary curve holds one batch of decompositions
    # at a time, so when the next eigensolve starts no earlier decomposition
    # is still alive; a temperature search diagonalizes its one model once
    alive = []
    real = sweeps.diagonalize

    def tracked(h, points=None):
        assert [ref for ref in alive if ref() is not None] == []
        decomp = real(h, points)
        alive.append(weakref.ref(decomp))
        return decomp

    monkeypatch.setattr(sweeps, "diagonalize", tracked)
    pair = resolve_pairs(4)[0]
    res = find_threshold(ModelSpec(4), "j2", pair, (0.0, 1.0),
                         fixed_temperature=0.02, scan_points=8)
    assert res.status == "found"
    assert len(alive) > 8
    # batches of two coupling groups of three points, or one of eight (D = 36):
    # a J2_th(T) curve runs four scan batches and two per bisection round, a
    # T_th(J2) curve three batches
    monkeypatch.setattr(sweeps, "STACK_ENTRIES", 2 * 36 * (3 + 36))
    for curve, batches in ((("temperature", [0.05, 0.15, 0.3], "j2", (0.0, 1.0)), 40),
                           (("j2", [0.0, 0.1, 0.2], "temperature", (0.05, 1.5)), 3)):
        alive.clear()
        found = threshold_curve(ModelSpec(4), pair, *curve, scan_points=8)
        assert all(value is not None for _, value in found)
        assert len(alive) >= batches
    calls = []
    monkeypatch.setattr(sweeps, "diagonalize",
                        lambda h, points=None: calls.extend(_models(h)) or real(h, points))
    find_threshold(ModelSpec(4), "temperature", pair, (0.05, 1.5), scan_points=8)
    assert calls == [ModelSpec(4)]


def test_coupling_curve_diagonalizes_each_scan_point_once(monkeypatch):
    # a J2_th(T) curve meets its scan-grid models again at every temperature
    # and diagonalizes each of them once
    calls = _count_eigensolves(monkeypatch)
    curve = threshold_curve(ModelSpec(4), resolve_pairs(4)[0], "temperature",
                            [0.05, 0.15, 0.3], "j2", (0.0, 1.0), scan_points=8)
    assert all(j is not None for _, j in curve)
    for v in np.linspace(0.0, 1.0, 8):
        assert calls.count(ModelSpec(4, j2=float(v))) == 1


def test_temperature_curve_diagonalizes_once_per_value(monkeypatch):
    # a repeated value is solved once and given twice
    calls = _count_eigensolves(monkeypatch)
    curve = threshold_curve(ModelSpec(4), resolve_pairs(4)[0], "j2", [0.1, 0.0, 0.2, 0.1],
                            "temperature", (0.05, 1.5), scan_points=8)
    assert all(t is not None for _, t in curve) and curve[0] == curve[3]
    assert calls == [ModelSpec(4, j2=v) for v in (0.0, 0.1, 0.2)]


@pytest.mark.parametrize("scan_points", [0, 1, 10.0, "10"])
def test_threshold_rejects_scan_below_two_points(monkeypatch, scan_points):
    # one point cannot bracket a flip and zero points have no indicator at
    # all; both entry points refuse before any eigensolve
    calls = _count_eigensolves(monkeypatch)
    pair = resolve_pairs(4)[0]
    with pytest.raises(ValueError, match="scan_points must be at least 2"):
        find_threshold(ModelSpec(4), "temperature", pair, (0.05, 2.0),
                       scan_points=scan_points)
    with pytest.raises(ValueError, match="scan_points must be at least 2"):
        threshold_curve(ModelSpec(4), pair, "j2", [0.0, 0.1], "temperature",
                        (0.05, 2.0), scan_points=scan_points)
    with pytest.raises(ValueError, match="scan_points must be at least 2"):
        check_threshold(ModelSpec(4), "temperature", (0.05, 2.0), scan_points=scan_points)
    assert calls == []
    # the smallest valid scan brackets the threshold that 64 points find
    two = find_threshold(ModelSpec(4), "temperature", pair, (0.05, 2.0), scan_points=2)
    assert two.status == "found" and abs(two.value - 1.0327) <= 1e-4


def test_curve_checks_every_point_before_the_first_search(monkeypatch):
    # a bad last curve value fails the curve before its first eigensolve
    calls = _count_eigensolves(monkeypatch)
    pair = resolve_pairs(4)[0]
    with pytest.raises(ValueError, match="temperature must be finite"):
        threshold_curve(ModelSpec(4), pair, "temperature", [0.05, -1.0], "j2", (0, 1))
    with pytest.raises(ValueError, match="even ring"):
        threshold_curve(ModelSpec(5), pair, "j2", [0.0, 0.2], "temperature", (0.05, 1.5))
    with pytest.raises(ValueError, match="finite"):
        threshold_curve(ModelSpec(4), pair, "temperature", [0.05, float("inf")], "j2",
                        (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        threshold_curve(ModelSpec(4), pair, "j2", [0.0, 0.2], "j2", (0, 1))
    # no values, or a table of them, has no curve to search along
    for values in ([], [[0.05, 0.1]], np.zeros((2, 0))):
        with pytest.raises(ValueError, match="curve_values must be non-empty and 1-D"):
            threshold_curve(ModelSpec(4), pair, "temperature", values, "j2", (0, 1))
    # only a SWEEPABLE parameter makes a curve, whether or not ModelSpec has it
    for parameter in ("j3", "j1"):
        with pytest.raises(ValueError, match="parameter must be one of"):
            threshold_curve(ModelSpec(4), pair, parameter, [0.5, 1.0], "temperature",
                            (0.05, 1.5))
    assert calls == []


@pytest.mark.parametrize("sites", [(0, 9), (1, 1), (-1, 2), (0, 1.0), (True, 2)])
def test_bad_pair_sites_are_refused_before_any_eigensolve(monkeypatch, sites):
    # a site off the ring, or one site twice, is refused by the one range
    # check of sweeps, searches and curves
    calls = _count_eigensolves(monkeypatch)
    pair = sweeps.PairSelector("N_bad", *sites)
    message = "needs two distinct sites of the 4-site ring"
    with pytest.raises(ValueError, match=message):
        run_sweep(SweepRequest(ModelSpec(4), Axis("temperature", 0.1, 1.0, 3), pairs=(pair,)))
    with pytest.raises(ValueError, match=message):
        find_threshold(ModelSpec(4), "temperature", pair, (0.05, 2.0))
    with pytest.raises(ValueError, match=message):
        threshold_curve(ModelSpec(4), pair, "j2", [0.0, 0.1], "temperature", (0.05, 2.0))
    assert calls == []


def test_grids_beyond_max_points_are_refused_before_any_allocation(monkeypatch):
    # a grid's size is checked from its step counts, before numpy allocates
    # an axis or a grid; the CI's 20,000-step axis and 4000 x 20 grid stay valid
    def no_allocation(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(sweeps.np, "linspace", no_allocation)
    calls = _count_eigensolves(monkeypatch)
    base, pair = ModelSpec(4), resolve_pairs(4)[0]
    for steps in (9223372036854775807, 10 ** 18, 99999999999999999999,
                  sweeps.MAX_POINTS + 1):
        with pytest.raises(ValueError, match="points is more than"):
            SweepRequest(base, Axis("temperature", 0.1, 1.0, steps))
    with pytest.raises(ValueError, match="points is more than"):
        SweepRequest(base, Axis("j2", 0.0, 1.0, 4097), Axis("temperature", 0.1, 1.0, 4096))
    with pytest.raises(ValueError, match="points is more than"):
        find_threshold(base, "temperature", pair, (0.05, 2.0), scan_points=10 ** 18)
    with pytest.raises(ValueError, match="points is more than"):
        threshold_curve(base, pair, "j2", [0.0, 0.5], "temperature", (0.05, 2.0),
                        scan_points=sweeps.MAX_POINTS // 2 + 1)
    SweepRequest(base, Axis("temperature", 0.1, 1.0, sweeps.MAX_POINTS))
    SweepRequest(ModelSpec(8), Axis("temperature", 0.01, 3.0, 20000))
    SweepRequest(base, Axis("j2", 0.005, 1.0, 4000), Axis("temperature", 0.01, 1.0, 20))
    assert calls == []


def test_zero_temperature_is_refused_only_on_a_temperature_axis(monkeypatch):
    # a search may start at or sit at T = 0 (the ground-manifold mixture), and
    # a field or coupling sweep may sit at it; a temperature axis may not start
    # there, since its logZ column is -E0/T
    pair = resolve_pairs(2)[0]
    check_threshold(ModelSpec(2), "temperature", (0.0, 2.0))
    check_threshold(ModelSpec(2), "field_b", (0.5, 2.5), fixed_temperature=0.0)
    assert find_threshold(ModelSpec(2), "temperature", pair, (0.0, 2.0)).status == "found"
    calls = _count_eigensolves(monkeypatch)
    with pytest.raises(ValueError, match="positive"):
        SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", 0.0, 1.0, 5))
    # below the smallest normal float 1/T overflows, for sweeps and searches alike
    tiny = sys.float_info.min / 2
    with pytest.raises(ValueError, match="at least"):
        SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", tiny, 1.0, 2))
    with pytest.raises(ValueError, match="at least"):
        SweepRequest(base=ModelSpec(2), axis1=Axis("field_b", 0.0, 1.0, 2), temperature=tiny)
    with pytest.raises(ValueError, match="at least"):
        check_threshold(ModelSpec(2), "temperature", (tiny, 1.0))
    with pytest.raises(ValueError, match="at least"):
        check_threshold(ModelSpec(4), "j2", (0.0, 1.0), fixed_temperature=tiny)
    assert calls == []
    SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", sys.float_info.min, 1.0, 2))
    for request in (dict(base=ModelSpec(2), axis1=Axis("field_b", 0.0, 1.0, 5)),
                    dict(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5))):
        result = run_sweep(SweepRequest(temperature=0.0, **request))
        assert result.columns[-2:] == ("U", "ground_degeneracy")
        assert np.isfinite(result.log_z).all() and (result.log_z >= 1).all()


def test_two_site_field_sweep_at_zero_temperature():
    # the ground level is the S = 1/2 doublet at b = 0, its M = -1/2 member
    # up to the crossing with the S = 3/2 member M = -3/2 at b = 3/2, that
    # one beyond: N = 1/3, sqrt(2)/3, (sqrt(17) - 3)/12 (the even mixture at
    # the crossing) and 0, U = E0
    result = run_sweep(SweepRequest(base=ModelSpec(2), axis1=Axis("field_b", 0.0, 3.0, 7),
                                    temperature=0.0))
    b = result.params[:, 0]
    assert result.columns == ("field_b", "N_half_one", "U", "ground_degeneracy")
    expected = np.where(b == 0.0, 1.0 / 3.0, np.where(b < 1.5, np.sqrt(2.0) / 3.0, 0.0))
    expected[b == 1.5] = (np.sqrt(17.0) - 3.0) / 12.0
    assert np.abs(result.negativities[:, 0] - expected).max() <= 1e-12
    assert np.abs(result.internal_energy - np.minimum(-1.0 - 0.5 * b, 0.5 - 1.5 * b)).max() <= 1e-12
    assert result.log_z.tolist() == [2, 1, 1, 2, 1, 1, 1]


def _forbid_dense(monkeypatch, message):
    """Make thermal_state, partial_trace and the dense eigenvector matrix raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(thermal, "thermal_state", forbidden)
    monkeypatch.setattr(negmod, "partial_trace", forbidden)
    monkeypatch.setattr(thermal.SpectralDecomposition, "eigenvectors", property(forbidden))


def test_sweeps_and_thresholds_never_form_a_dense_state(monkeypatch):
    # thermal_state and partial_trace are the oracle only, and ground_manifold
    # and the dense Hamiltonian live in the tests: sweeps.py binds none of
    # them, a Hamiltonian has no dense view, and every search and sweep of
    # the three families finishes with both package functions and the D x D
    # eigenvector assembly raising
    for name in ("thermal_state", "ground_manifold", "partial_trace"):
        assert not hasattr(sweeps, name)
    assert not hasattr(Hamiltonian, "matrix") and not hasattr(Hamiltonian, "blocks")
    _forbid_dense(monkeypatch, "dense oracle called on the fast path")
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 0.6, 3),
                       axis2=Axis("temperature", 0.1, 1.0, 3), pairs=resolve_pairs(4))
    assert run_sweep(req).negativities.shape == (9, 3)
    req = SweepRequest(base=ModelSpec(6), axis1=Axis("field_b", 0.0, 2.0, 3),
                       pairs=resolve_pairs(6), temperature=0.1)
    assert run_sweep(req).negativities.shape == (3, 3)
    req = SweepRequest(base=ModelSpec(5), axis1=Axis("temperature", 0.1, 1.0, 3),
                       pairs=resolve_pairs(5))
    assert run_sweep(req).negativities.shape == (3, 3)
    pair = resolve_pairs(4)[0]
    assert find_threshold(ModelSpec(4), "temperature", pair, (0.05, 1.5)).status == "found"
    assert find_threshold(ModelSpec(4), "j2", pair, (0.0, 1.0), fixed_temperature=0.0,
                          scan_points=8).status == "found"
    assert find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (0.5, 2.5),
                          fixed_temperature=0.0).status == "found"


def test_verify_never_forms_a_dense_state(monkeypatch):
    # the battery checks the pipeline the sweeps run: verify.py binds no dense
    # state or dense reduction, and every check runs, in the same order and
    # without a failure, with thermal_state, partial_trace and the D x D
    # eigenvector assembly raising
    for name in ("thermal_state", "ground_manifold", "partial_trace", "pair_negativity"):
        assert not hasattr(verify, name)
    names = [r.name for r in verify.run_all(max_n=4)]
    _forbid_dense(monkeypatch, "dense oracle called by verify")
    results = verify.run_all(max_n=4)
    assert [r for r in results if r.status == "fail"] == []
    assert [r.name for r in results] == names


def test_find_threshold_two_site_temperature():
    res = find_threshold(ModelSpec(2), "temperature", resolve_pairs(2)[0], (0.5, 2.0))
    assert res.status == "found"
    assert abs(res.value - TWO_SPIN_T_THRESHOLD) <= 1e-4
    lo, hi = res.bracket
    assert hi - lo <= 1e-6 * max(1.0, res.value)
    assert lo <= res.value <= hi


def test_find_threshold_none_in_range():
    res = find_threshold(ModelSpec(2), "temperature", resolve_pairs(2)[0], (1.5, 2.0))
    assert res.status == "none-in-range"
    assert res.value is None


def test_find_threshold_field_at_zero_temperature():
    # ground-state level crossing of the two-site ring sits exactly at 3/2
    res = find_threshold(ModelSpec(2), "field_b", resolve_pairs(2)[0], (0.5, 2.5),
                         fixed_temperature=0.0)
    assert res.status == "found"
    assert abs(res.value - 1.5) <= 1e-4


def test_find_threshold_requires_temperature_for_couplings():
    with pytest.raises(ValueError, match="temperature"):
        find_threshold(ModelSpec(4), "j2", resolve_pairs(4)[0], (0.0, 1.0))


def test_threshold_curve_both_orientations():
    pair = resolve_pairs(4)[0]
    # temperature thresholds along a short coupling axis
    curve = threshold_curve(ModelSpec(4), pair, "j2", [0.0, 0.2], "temperature",
                            (0.05, 1.5))
    assert len(curve) == 2
    (j0, t0), (j1, t1) = curve
    assert (j0, j1) == (0.0, 0.2)
    assert t0 > t1 > 0.0          # stronger frustration lowers the threshold
    # transposed view: coupling threshold at fixed temperatures
    curve = threshold_curve(ModelSpec(4), pair, "temperature", [0.05, t0 + 0.2],
                            "j2", (0.0, 1.0))
    assert curve[0][1] is not None
    assert curve[1][1] is None    # above the zero-coupling threshold: no boundary


@pytest.mark.parametrize("curve, values, search, search_range", [
    ("j2", [0.2, 0.0, 0.45, 0.1, 0.2], "temperature", (0.05, 1.5)),    # unsorted, a repeat
    ("temperature", [0.05, 0.3, 1.2, 0.15], "j2", (0.0, 1.0)),
    ("field_b", [0.0, 1.0, 2.5, 0.5], "temperature", (0.0, 2.0)),
    ("temperature", [0.0, 0.05, 0.3, 0.02], "field_b", (0.0, 6.0)),
])
def test_curve_values_are_find_threshold_values(curve, values, search, search_range):
    # each curve value is, bit for bit, the lone search's at that value,
    # and None where that search finds no threshold
    pair = resolve_pairs(4)[0]
    found = threshold_curve(ModelSpec(4), pair, curve, values, search, search_range,
                            scan_points=16)
    assert [v for v, _ in found] == values
    for value, threshold in found:
        fixed = {curve: value}
        temperature = fixed.pop("temperature", None)
        res = find_threshold(ModelSpec(4, **fixed), search, pair, search_range,
                             fixed_temperature=temperature, scan_points=16)
        assert threshold == res.value
    assert any(t is not None for _, t in found)


def test_threshold_curve_value_cross_check():
    # the coupling threshold at fixed T agrees with a direct scan of the
    # closed-form negativity of the four-site model
    from mixedspin.analytic import four_spin_negativity_half_one
    pair = resolve_pairs(4)[0]
    t_fixed = 0.3
    res = find_threshold(ModelSpec(4), "j2", pair, (0.0, 1.0),
                         fixed_temperature=t_fixed)
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if four_spin_negativity_half_one(1.0 / t_fixed, 1.0, mid) > EPS_NONZERO:
            lo = mid
        else:
            hi = mid
    assert abs(res.value - 0.5 * (lo + hi)) <= 1e-6


def _count_eigensolves(monkeypatch):
    """Every model diagonalized, those of a batch one by one."""
    calls = []
    real = sweeps.diagonalize
    monkeypatch.setattr(sweeps, "diagonalize",
                        lambda h, points=None: calls.extend(_models(h)) or real(h, points))
    return calls


def test_field_axis_and_field_search_diagonalize_once(monkeypatch):
    # H(b) = H(0) + b*Sz commutes with Sz, so one zero-field decomposition
    # serves every field; a j2 axis still needs one eigensolve per coupling
    calls = _count_eigensolves(monkeypatch)
    run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("field_b", 0.0, 3.0, 20),
                           pairs=resolve_pairs(4), temperature=0.1))
    assert calls == [ModelSpec(4)]
    calls.clear()
    run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("field_b", -1.0, 2.0, 5),
                           axis2=Axis("temperature", 0.1, 1.0, 4), pairs=resolve_pairs(4)))
    assert calls == [ModelSpec(4)]
    calls.clear()
    run_sweep(SweepRequest(base=ModelSpec(6), axis1=Axis("j2", 0.0, 1.0, 6),
                           pairs=resolve_pairs(6), temperature=0.02))
    assert calls == [ModelSpec(6, j2=float(v)) for v in np.linspace(0.0, 1.0, 6)]
    calls.clear()
    res = find_threshold(ModelSpec(4), "field_b", resolve_pairs(4)[0], (0.0, 6.0),
                         fixed_temperature=0.0)
    assert res.status == "found"
    assert calls == [ModelSpec(4)]
    calls.clear()
    find_threshold(ModelSpec(4, field_b=0.5), "temperature", resolve_pairs(4)[0], (0.05, 1.5))
    assert calls == [ModelSpec(4)]
    calls.clear()
    # every search of a field curve of temperature thresholds shares that one
    curve = threshold_curve(ModelSpec(4), resolve_pairs(4)[0], "field_b", [0.0, 2.5, 1.0],
                            "temperature", (0.0, 2.0))
    assert all(t is not None for _, t in curve)
    assert calls == [ModelSpec(4)]


def test_searches_window_their_decompositions_except_a_field_search(monkeypatch):
    # a j2 search solves its scan points and each midpoint for that point's
    # Boltzmann window; a field search bisects between its scan fields on
    # its one decomposition, where a multiplet that no scan field weighs can
    # be the ground level, so it keeps every multiplet
    windows = []
    real = sweeps.diagonalize

    def tracked(h, points=None):
        decomp = real(h, points)
        kept = sum(sector.columns.shape[-1] for sector in decomp.sectors)
        windows.append((points is not None, kept < decomp.dimension))
        return decomp

    monkeypatch.setattr(sweeps, "diagonalize", tracked)
    pair = resolve_pairs(6)[0]
    res = find_threshold(ModelSpec(6), "j2", pair, (0.0, 1.0), fixed_temperature=0.02,
                         scan_points=8)
    assert res.status == "found"
    assert len(windows) > 8 and windows == [(True, True)] * len(windows)
    windows.clear()
    res = find_threshold(ModelSpec(6), "field_b", pair, (0.0, 6.0), fixed_temperature=0.02)
    assert res.status == "found"
    assert windows == [(False, False)]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_field_reuse_matches_per_field_eigensolve(n):
    pairs = resolve_pairs(n)
    for temperature in (0.02, 0.5):
        req = SweepRequest(base=ModelSpec(n), axis1=Axis("field_b", -2.0, 3.0, 11),
                           pairs=pairs, temperature=temperature)
        res = run_sweep(req)
        for row, b in enumerate(res.params[:, 0]):
            decomp = diagonalize(build_model(ModelSpec(n, field_b=float(b))))
            weights = state_weights(decomp.eigenvalues, temperature)
            expected = pair_negativities(decomp, weights, pairs)
            assert np.abs(res.negativities[row] - expected).max() <= 1e-12
            u = float(np.dot(decomp.eigenvalues, weights))
            log_z = log_partition(decomp.eigenvalues, 1.0 / temperature)
            assert abs(res.internal_energy[row] - u) <= 1e-12 * max(1.0, abs(u))
            assert abs(res.log_z[row] - log_z) <= 1e-12 * max(1.0, abs(log_z))


def test_field_reuse_ground_manifold_spans_sectors_at_crossing():
    # at b = 3/2 the two-site M = -1/2 doublet level meets the M = -3/2
    # quartet level: the ground set taken from E + b*M on the zero-field
    # eigenvectors must count both, as the dense spectrum does
    zero_field = diagonalize(build_model(ModelSpec(2)))
    for b, expected in ((1.5, 2), (1.49, 1), (1.51, 1)):
        energies = zero_field.energies(b)
        dense = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(2, field_b=b))))
        e0 = dense[0]
        dense_count = int(np.sum(dense <= e0 + GROUND_DEGENERACY_RTOL * max(1.0, abs(e0))))
        assert ground_degeneracy(energies) == dense_count == expected
    ground = zero_field.magnetizations[state_weights(zero_field.energies(1.5), 0.0) > 0]
    assert sorted(ground) == [-1.5, -0.5]
    direct = diagonalize(build_model(ModelSpec(2, field_b=1.5)))
    reused = pair_negativities(zero_field, state_weights(zero_field.energies(1.5), 0.0),
                               resolve_pairs(2))
    fresh = pair_negativities(direct, state_weights(direct.eigenvalues, 0.0), resolve_pairs(2))
    assert np.abs(reused - fresh).max() <= 1e-12


def test_sweep_chunks_give_the_one_stack_result(monkeypatch):
    # a field x temperature grid is one group of 115 points, a j2 x temperature
    # grid five groups of 23: at four sites (D = 36, and 9 + 6 + 15 = 30
    # block entries per point for the three pairs) both span several stacks
    # of 7 points
    requests = [
        SweepRequest(base=ModelSpec(4), axis1=Axis("field_b", 0.0, 2.0, 5),
                     axis2=Axis("temperature", 0.02, 1.0, 23), pairs=resolve_pairs(4)),
        SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5),
                     axis2=Axis("temperature", 0.02, 1.0, 23), pairs=resolve_pairs(4)),
    ]
    monkeypatch.setattr(sweeps, "STACK_ENTRIES", 1000 * 36)
    whole = [run_sweep(req) for req in requests]
    stacks = []
    real = sweeps.log_partition
    monkeypatch.setattr(sweeps, "log_partition",
                        lambda e, beta: stacks.append(e.shape[0]) or real(e, beta))
    monkeypatch.setattr(sweeps, "STACK_ENTRIES", 7 * (36 + 30))
    chunked = [run_sweep(req) for req in requests]
    assert stacks == [7] * 16 + [3] + ([7, 7, 7, 2] * 5)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a.params, b.params)
        assert np.array_equal(a.negativities, b.negativities)
        assert np.array_equal(a.internal_energy, b.internal_energy)
        assert np.array_equal(a.log_z, b.log_z)


def test_sweep_batches_give_the_per_group_result(monkeypatch):
    # seven coupling groups of five points at four sites (D = 36), with j2 as
    # either axis: batches of one, three or (by default) all seven groups
    # give the same bits
    requests = [
        SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 7),
                     axis2=Axis("temperature", 0.02, 1.0, 5)),
        SweepRequest(base=ModelSpec(4), axis1=Axis("temperature", 0.02, 1.0, 5),
                     axis2=Axis("j2", 0.0, 1.0, 7)),
    ]
    batches = []
    real = sweeps.diagonalize
    monkeypatch.setattr(sweeps, "diagonalize",
                        lambda h, points=None: batches.append(len(_models(h))) or real(h, points))
    results = []
    for budget, sizes in ((36 * (5 + 36), [1] * 7), (3 * 36 * (5 + 36), [3, 3, 1]),
                          (sweeps.STACK_ENTRIES, [7])):
        monkeypatch.setattr(sweeps, "STACK_ENTRIES", budget)
        batches.clear()
        results.append([run_sweep(req) for req in requests])
        assert batches == sizes * len(requests)
    for batched in results[1:]:
        for a, b in zip(results[0], batched):
            assert np.array_equal(a.params, b.params)
            assert np.array_equal(a.negativities, b.negativities)
            assert np.array_equal(a.internal_energy, b.internal_energy)
            assert np.array_equal(a.log_z, b.log_z)


def test_sweep_builds_each_coupling_once(monkeypatch):
    built = []
    real = sweeps.build_model
    monkeypatch.setattr(sweeps, "build_model", lambda spec: built.append(spec) or real(spec))
    run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("temperature", 0.02, 1.0, 9),
                           axis2=Axis("j2", 0.0, 1.0, 11)))
    assert built == [ModelSpec(4, j2=float(v)) for v in np.linspace(0.0, 1.0, 11)]
    built.clear()
    run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("field_b", -1.0, 2.0, 9),
                           axis2=Axis("temperature", 0.02, 1.0, 9)))
    assert built == [ModelSpec(4)]


def test_grid_rows_match_the_single_point_path():
    # every row of a 20 x 40 grid against one weight vector, one pair state
    # and one negativity at a time
    j2_axis, t_axis = Axis("j2", 0.0, 1.0, 20), Axis("temperature", 0.01, 1.2, 40)
    pairs = resolve_pairs(4)
    res = run_sweep(SweepRequest(base=ModelSpec(4), axis1=j2_axis, axis2=t_axis,
                                 pairs=pairs))
    row = 0
    for j2 in j2_axis.values:
        decomp = diagonalize(build_model(ModelSpec(4, j2=float(j2))))
        for temperature in t_axis.values:
            weights = state_weights(decomp.eigenvalues, temperature)
            assert weights.shape == (decomp.dimension,)
            expected = pair_negativities(decomp, weights, pairs)
            u = float(np.dot(decomp.eigenvalues, weights))
            log_z = log_partition(decomp.eigenvalues, 1.0 / temperature)
            assert np.array_equal(res.params[row], [j2, temperature])
            assert np.abs(res.negativities[row] - expected).max() <= 1e-12
            assert abs(res.internal_energy[row] - u) <= 1e-12 * abs(u)
            assert abs(res.log_z[row] - log_z) <= 1e-12 * abs(log_z)
            row += 1
    assert row == res.params.shape[0] == 800


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("temperature", [0.02, 0.0])
def test_batches_of_one_group_are_the_lone_route(monkeypatch, n, temperature):
    # from six sites on a batch holds one coupling group, handed to
    # diagonalize as a list of one; each of its rows is, bit for bit, the
    # lone Hamiltonian's decomposition under the same window, its weights,
    # pair negativities, U and log Z (or the ground degeneracy at T = 0)
    batches = []
    real = sweeps.diagonalize
    monkeypatch.setattr(sweeps, "diagonalize",
                        lambda h, points=None: batches.append(len(_models(h))) or real(h, points))
    axis, pairs = Axis("j2", 0.0, 1.0, 6), resolve_pairs(n)
    res = run_sweep(SweepRequest(base=ModelSpec(n), axis1=axis, pairs=pairs,
                                 temperature=temperature))
    assert batches == [1] * axis.steps
    for row, j2 in enumerate(axis.values.tolist()):
        decomp = diagonalize(build_model(ModelSpec(n, j2=j2)),
                             (np.zeros(1), np.full(1, temperature)))
        spectrum = decomp.energies(0.0)
        weights = state_weights(spectrum, temperature)
        last = (ground_degeneracy(spectrum) if temperature == 0.0
                else log_partition(spectrum, 1.0 / temperature))
        assert np.array_equal(_int64(res.negativities[row]),
                              _int64(pair_negativities(decomp, weights, pairs)))
        assert np.array_equal(_int64(res.internal_energy[row]), _int64(np.dot(spectrum, weights)))
        assert np.array_equal(_int64(res.log_z[row]), _int64(last))


def test_temperature_and_field_searches_scan_as_one_stack(monkeypatch):
    # one scan stack, then stacks of one midpoint; a lone coupling group's
    # stacks carry its G axis of 1, as a sweep's do, and each state its 9
    # block entries of a (1/2,1) pair
    sizes = []
    real = sweeps.entry_negativities
    monkeypatch.setattr(sweeps, "entry_negativities",
                        lambda entries, *dims: sizes.append(entries.shape) or real(entries, *dims))
    pair = resolve_pairs(4)[0]
    assert find_threshold(ModelSpec(4), "temperature", pair, (0.05, 1.5)).status == "found"
    assert sizes[0] == (64, 1, 9) and set(sizes[1:]) == {(1, 1, 9)}
    sizes.clear()
    assert find_threshold(ModelSpec(4), "field_b", pair, (0.0, 6.0),
                          fixed_temperature=0.0).status == "found"
    assert sizes[0] == (64, 1, 9) and set(sizes[1:]) == {(1, 1, 9)}


def test_sweeps_and_searches_form_no_dense_pair_state(monkeypatch):
    # pair states travel as their block entries from the pair blocks to the
    # kernel: no d x d PairReducedState is made on the sweep or search path
    def refuse(self, *args, **kwargs):
        raise AssertionError("a dense pair state was formed")

    monkeypatch.setattr(PairReducedState, "__init__", refuse)
    with pytest.raises(AssertionError, match="dense pair state"):
        PairReducedState(np.eye(4) / 4, 2, 2, 0, 1)
    pairs = resolve_pairs(4)
    run_sweep(SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 3),
                           axis2=Axis("temperature", 0.02, 1.0, 4), pairs=pairs))
    run_sweep(SweepRequest(base=ModelSpec(6), axis1=Axis("field_b", 0.0, 3.0, 4),
                           temperature=0.0, pairs=resolve_pairs(6)))
    run_sweep(SweepRequest(base=ModelSpec(3), axis1=Axis("temperature", 0.05, 2.0, 5)))
    for parameter, search, temperature in (("temperature", (0.05, 1.5), None),
                                           ("field_b", (0.0, 6.0), 0.0),
                                           ("j2", (0.0, 1.0), 0.02)):
        find_threshold(ModelSpec(4), parameter, pairs[2], search, temperature, scan_points=8)
    threshold_curve(ModelSpec(4), pairs[0], "j2", [0.0, 0.2], "temperature", (0.05, 1.5),
                    scan_points=8)
