import math

import numpy as np
import pytest

from mixedspin import (HALF, ONE, ModelSpec, PairKind, SiteLayout, ThermalState,
                       build_model, correlator, diagonalize, ground_manifold,
                       negativity, pair_negativity, partial_trace,
                       partial_transpose, resolve_pairs, schmidt_negativity,
                       su2_negativity, su2_signed, thermal_state)
from mixedspin.negativity import PairReducedState


def _pure_pair(vector, dim_a, dim_b, sites=(0, 1)):
    v = np.asarray(vector, dtype=float)
    v = v / np.linalg.norm(v)
    return PairReducedState(matrix=np.outer(v, v), dim_a=dim_a, dim_b=dim_b,
                            site_a=sites[0], site_b=sites[1])


def _uniform_state(layout):
    d = layout.total_dimension
    return ThermalState(matrix=np.eye(d) / d, beta=1.0, log_z=math.log(d),
                        layout=layout)


def test_partial_trace_of_maximally_mixed():
    layout = SiteLayout((HALF, ONE, HALF, ONE))
    pair = partial_trace(_uniform_state(layout), (1, 3))
    assert np.abs(pair.matrix - np.eye(9) / 9.0).max() <= 1e-14
    assert (pair.dim_a, pair.dim_b) == (3, 3)


def test_partial_trace_keeps_unit_trace():
    decomp = diagonalize(build_model(ModelSpec(5)))
    state = thermal_state(decomp, 0.4)
    for keep in [(0, 1), (0, 2), (1, 3), (2, 4)]:
        pair = partial_trace(state, keep)
        assert abs(np.trace(pair.matrix) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(pair.matrix)[0] >= -1e-12


def test_partial_trace_site_order_normalized():
    decomp = diagonalize(build_model(ModelSpec(4)))
    state = thermal_state(decomp, 0.5)
    a = partial_trace(state, (0, 3))
    b = partial_trace(state, (3, 0))
    assert np.array_equal(a.matrix, b.matrix)
    assert (a.site_a, a.site_b) == (0, 3)


def test_partial_trace_whole_system_is_identity_operation():
    decomp = diagonalize(build_model(ModelSpec(2)))
    state = thermal_state(decomp, 0.7)
    pair = partial_trace(state, (0, 1))
    assert np.abs(pair.matrix - state.matrix).max() <= 1e-14


def test_partial_trace_rejects_bad_sites():
    decomp = diagonalize(build_model(ModelSpec(3)))
    state = thermal_state(decomp, 1.0)
    with pytest.raises(ValueError):
        partial_trace(state, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(state, (0, 7))


def test_partial_transpose_diagonal_unchanged():
    pair = PairReducedState(matrix=np.diag([0.5, 0.2, 0.1, 0.1, 0.05, 0.05]),
                            dim_a=2, dim_b=3, site_a=0, site_b=1)
    assert np.array_equal(partial_transpose(pair), pair.matrix)


def test_partial_transpose_is_involution_and_trace_preserving():
    decomp = diagonalize(build_model(ModelSpec(3)))
    pair = partial_trace(thermal_state(decomp, 0.3), (0, 1))
    pt = partial_transpose(pair)
    assert abs(np.trace(pt) - 1.0) <= 1e-12
    again = PairReducedState(matrix=pt, dim_a=2, dim_b=3, site_a=0, site_b=1)
    assert np.abs(partial_transpose(again) - pair.matrix).max() <= 1e-14
    # transposing A then B equals the full transpose, i.e. the original here
    full = partial_transpose(PairReducedState(matrix=partial_transpose(pair, "a"),
                                              dim_a=2, dim_b=3, site_a=0, site_b=1), "b")
    assert np.abs(full - pair.matrix.T).max() <= 1e-14


def test_partial_transpose_subsystem_spectra_agree():
    decomp = diagonalize(build_model(ModelSpec(4, 1.0, 0.35)))
    state = thermal_state(decomp, 0.2)
    for keep in [(0, 1), (0, 2), (1, 3)]:
        pair = partial_trace(state, keep)
        spec_a = np.sort(np.linalg.eigvalsh(partial_transpose(pair, "a")))
        spec_b = np.sort(np.linalg.eigvalsh(partial_transpose(pair, "b")))
        assert np.abs(spec_a - spec_b).max() <= 1e-12


def test_negativity_of_two_qubit_singlet():
    singlet = _pure_pair([0.0, 1.0, -1.0, 0.0], 2, 2)
    res = negativity(singlet)
    assert abs(res.value - 0.5) <= 1e-12
    assert res.pair_kind == PairKind.HALF_HALF
    assert len(res.negative_eigenvalues) == 1


def test_negativity_of_spin_one_singlet():
    # (|1,-1> - |0,0> + |-1,1>)/sqrt(3): three equal Schmidt coefficients
    vec = np.zeros(9)
    vec[2], vec[4], vec[6] = 1.0, -1.0, 1.0
    res = negativity(_pure_pair(vec, 3, 3))
    assert abs(res.value - 1.0) <= 1e-12
    assert res.pair_kind == PairKind.ONE_ONE


def test_negativity_matches_schmidt_formula_for_pure_states():
    rng = np.random.default_rng(3)
    for _ in range(10):
        coeffs = np.abs(rng.standard_normal(2))
        coeffs /= np.linalg.norm(coeffs)
        vec = np.zeros(6)
        vec[0], vec[4] = coeffs          # |+1/2,+1> and |-1/2,0>: orthogonal pairs
        res = negativity(_pure_pair(vec, 2, 3))
        assert abs(res.value - schmidt_negativity(coeffs)) <= 1e-12


def test_negativity_zero_for_separable_mixture():
    rho = 0.5 * np.diag([1.0, 0, 0, 0, 0, 0]) + 0.5 * np.diag([0, 0, 0, 0, 0, 1.0])
    pair = PairReducedState(matrix=rho, dim_a=2, dim_b=3, site_a=0, site_b=1)
    res = negativity(pair)
    assert res.value == 0.0
    assert res.negative_eigenvalues == ()


def test_negativity_rejects_broken_states():
    pair = PairReducedState(matrix=np.eye(6) / 3.0, dim_a=2, dim_b=3,
                            site_a=0, site_b=1)
    with pytest.raises(ValueError, match="trace"):
        negativity(pair)
    flipped = np.diag([0.6, 0.6, 0.1, 0.1, 0.1, -0.5])
    pair = PairReducedState(matrix=flipped, dim_a=2, dim_b=3, site_a=0, site_b=1)
    with pytest.raises(ValueError, match="positive semidefinite"):
        negativity(pair)


def test_ground_state_negativities(decomp_nn):
    assert abs(pair_negativity(ground_manifold(decomp_nn[2]), (0, 1)) - 1 / 3) <= 1e-9
    assert abs(pair_negativity(ground_manifold(decomp_nn[4]), (0, 1)) - 1 / 6) <= 1e-9


def test_three_site_half_pair_never_entangled(decomp_nn):
    for t in np.linspace(0.05, 5.0, 25):
        state = thermal_state(decomp_nn[3], t)
        assert pair_negativity(state, (0, 2)) <= 1e-9


def test_schmidt_negativity_examples():
    assert abs(schmidt_negativity([math.sqrt(6) / 3, math.sqrt(3) / 3])
               - math.sqrt(2) / 3) <= 1e-12
    assert schmidt_negativity([1.0]) == 0.0
    assert abs(schmidt_negativity([1 / math.sqrt(2)] * 2) - 0.5) <= 1e-12
    with pytest.raises(ValueError, match="normalized"):
        schmidt_negativity([0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        schmidt_negativity([-1.0])


def test_su2_formulas():
    assert abs(su2_negativity(-0.75, PairKind.HALF_ONE) - 1 / 6) <= 1e-12
    assert abs(su2_negativity(-1.0, PairKind.HALF_ONE) - 1 / 3) <= 1e-12
    assert su2_negativity(0.0, PairKind.HALF_ONE) == 0.0
    assert su2_negativity(0.0, PairKind.HALF_HALF) == 0.0
    assert abs(su2_negativity(-0.75, PairKind.HALF_HALF) - 0.5) <= 1e-12
    assert abs(su2_signed(0.25, PairKind.HALF_HALF) + 0.5) <= 1e-12
    with pytest.raises(ValueError, match="1,1"):
        su2_negativity(-1.0, PairKind.ONE_ONE)


def test_su2_shortcut_matches_pipeline_on_field_free_models(decomp_nn):
    specs = [ModelSpec(2), ModelSpec(3), ModelSpec(5), ModelSpec(4, j2=0.3),
             ModelSpec(6, j2=0.5)]
    for spec in specs:
        decomp = diagonalize(build_model(spec))
        for t in (0.1, 0.6, 1.5):
            state = thermal_state(decomp, t)
            for sel in resolve_pairs(spec.n_sites):
                sites = (sel.site_a, sel.site_b)
                pair = partial_trace(state, sites)
                if pair.kind == PairKind.ONE_ONE:
                    continue
                shortcut = su2_negativity(correlator(state, *sites), pair.kind)
                assert abs(negativity(pair).value - shortcut) <= 1e-8


def test_local_rotation_invariance():
    rng = np.random.default_rng(11)
    decomp = diagonalize(build_model(ModelSpec(4, 1.0, 0.15)))
    pair = partial_trace(thermal_state(decomp, 0.25), (0, 1))
    base = negativity(pair).value
    assert base > 0.01
    for _ in range(20):
        qa, ra = np.linalg.qr(rng.standard_normal((2, 2)))
        qb, rb = np.linalg.qr(rng.standard_normal((3, 3)))
        u = np.kron(qa * np.sign(np.diag(ra)), qb * np.sign(np.diag(rb)))
        rotated = PairReducedState(matrix=u @ pair.matrix @ u.T, dim_a=2, dim_b=3,
                                   site_a=0, site_b=1)
        assert abs(negativity(rotated).value - base) <= 1e-9


def test_degenerate_manifold_mixture_vs_components(decomp_nn):
    # the two-site ground doublet: the equal mixture gives 1/3, while each
    # z-resolved component is a two-term Schmidt state with value sqrt(2)/3
    decomp = decomp_nn[2]
    manifold = ground_manifold(decomp)
    assert manifold.degeneracy == 2
    assert abs(pair_negativity(manifold, (0, 1)) - 1 / 3) <= 1e-9
    down = np.zeros(6)
    down[2], down[4] = math.sqrt(2 / 3), -math.sqrt(1 / 3)   # |1/2,-1>, |-1/2,0>
    up = np.zeros(6)
    up[1], up[3] = -math.sqrt(1 / 3), math.sqrt(2 / 3)       # |1/2,0>, |-1/2,1>
    for vec in (down, up):
        h = build_model(ModelSpec(2))
        assert np.abs(h.matrix @ vec - (-1.0) * vec).max() <= 1e-12
        component = ThermalState(matrix=np.outer(vec, vec), beta=float("inf"),
                                 log_z=0.0, layout=decomp.layout)
        value = pair_negativity(component, (0, 1))
        assert abs(value - math.sqrt(2) / 3) <= 1e-12
        assert abs(value - schmidt_negativity([math.sqrt(2 / 3), math.sqrt(1 / 3)])) <= 1e-12
