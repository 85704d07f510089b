import weakref

import numpy as np
import pytest

from mixedspin import sweeps
from mixedspin import (EPS_NONZERO, Axis, ModelSpec, SpectralCache, SweepRequest,
                       find_threshold, resolve_pairs, run_sweep, threshold_curve)
from mixedspin.analytic import (TWO_SPIN_T_THRESHOLD, two_spin_negativity)
from mixedspin.sweeps import available_pair_kinds


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


def test_axis_validation():
    with pytest.raises(ValueError, match="steps"):
        Axis("temperature", 0.1, 1.0, 1)
    with pytest.raises(ValueError, match="lo < hi"):
        Axis("j2", 1.0, 0.5, 10)
    with pytest.raises(ValueError, match="positive"):
        Axis("temperature", 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="parameter"):
        Axis("j3", 0.0, 1.0, 10)


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


def test_temperature_sweep_matches_closed_form():
    req = SweepRequest(base=ModelSpec(2), axis1=Axis("temperature", 0.05, 2.0, 50),
                       pairs=resolve_pairs(2))
    res = run_sweep(req)
    assert res.columns == ("temperature", "N_half_one", "U", "logZ")
    assert res.params.shape == (50, 1)
    expected = np.array([two_spin_negativity(1.0 / t) for t in res.params[:, 0]])
    assert np.abs(res.negativities[:, 0] - expected).max() <= 1e-10


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


def test_temperature_axis_reuses_decomposition(monkeypatch):
    calls = []
    real = sweeps.diagonalize
    monkeypatch.setattr(sweeps, "diagonalize", lambda h: calls.append(h.spec) or real(h))
    req = SweepRequest(base=ModelSpec(3), axis1=Axis("temperature", 0.1, 2.0, 25),
                       pairs=resolve_pairs(3))
    run_sweep(req)
    assert len(calls) == 1
    req2 = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 1.0, 5),
                        axis2=Axis("temperature", 0.1, 1.0, 6),
                        pairs=resolve_pairs(4))
    calls.clear()
    run_sweep(req2)
    assert len(calls) == 5


def test_sweep_lets_each_decomposition_go(monkeypatch):
    # a sweep holds one decomposition at a time: when the next group's
    # eigensolve starts, no earlier group's decomposition is still alive
    alive = []
    real = sweeps.diagonalize

    def tracked(h):
        assert [ref for ref in alive if ref() is not None] == []
        decomp = real(h)
        alive.append(weakref.ref(decomp))
        return decomp

    monkeypatch.setattr(sweeps, "diagonalize", tracked)
    req = SweepRequest(base=ModelSpec(4), axis1=Axis("j2", 0.0, 0.6, 4),
                       pairs=resolve_pairs(4), temperature=0.2)
    run_sweep(req)
    assert len(alive) == 4


def test_find_threshold_two_site_temperature():
    res = find_threshold(ModelSpec(2), "temperature", resolve_pairs(2)[0], (0.5, 2.0))
    assert res.status == "found"
    assert abs(res.value - TWO_SPIN_T_THRESHOLD) <= 1e-4
    lo, hi = res.bracket
    assert hi - lo <= 1e-6 * max(1.0, res.value)
    assert lo <= res.value <= hi


def test_find_threshold_refinement_is_stable():
    pair = resolve_pairs(2)[0]
    coarse = find_threshold(ModelSpec(2), "temperature", pair, (0.5, 2.0), rtol=1e-6)
    fine = find_threshold(ModelSpec(2), "temperature", pair, (0.5, 2.0), rtol=5e-7)
    assert abs(fine.value - coarse.value) <= coarse.bracket[1] - coarse.bracket[0]


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
    cache = SpectralCache()
    pair = resolve_pairs(4)[0]
    # temperature thresholds along a short coupling axis
    curve = threshold_curve(ModelSpec(4), pair, "j2", [0.0, 0.2], "temperature",
                            (0.05, 1.5), cache=cache)
    assert len(curve) == 2
    (j0, t0), (j1, t1) = curve
    assert (j0, j1) == (0.0, 0.2)
    assert t0 > t1 > 0.0          # stronger frustration lowers the threshold
    # transposed view: coupling threshold at fixed temperatures
    curve = threshold_curve(ModelSpec(4), pair, "temperature", [0.05, t0 + 0.2],
                            "j2", (0.0, 1.0), cache=cache)
    assert curve[0][1] is not None
    assert curve[1][1] is None    # above the zero-coupling threshold: no boundary


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
