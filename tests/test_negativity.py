import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import mixedspin
from mixedspin import (HALF, ONE, ModelSpec, PairKind, SiteLayout, ThermalState,
                       build_model, diagonalize, partial_trace, resolve_pairs, thermal_state)
from mixedspin import negativity as negmod
from mixedspin.negativity import (PairReducedState, correlator, entry_negativities,
                                  negativities, negativity, pair_entries, partial_transpose,
                                  reduce_pair, su2_signed)
from mixedspin.spin_ops import pair_basis
from mixedspin.sweeps import pair_negativities
from mixedspin.thermal import state_weights
from mixedspin.verify import schmidt_negativity, su2_negativity
from oracle import dense_matrix, ground_manifold, heisenberg_bond, pair_negativity


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
    with pytest.raises(ValueError, match="subsystem must be 'a' or 'b'"):
        partial_transpose(pair, "c")


def test_package_attribute_negativity_is_the_submodule():
    # the package re-exports no function of the submodule's name, which
    # would shadow it; the function is mixedspin.negativity.negativity. The
    # pair-state names that only verify, the tests and the benchmark's
    # oracle use live in the submodule alone
    assert mixedspin.negativity is sys.modules["mixedspin.negativity"]
    assert "negativity" not in mixedspin.__all__
    assert mixedspin.negativity.negativity is negativity
    for name in ("reduce_pair", "partial_transpose", "correlator", "su2_signed",
                 "PairReducedState", "NegativityResult"):
        assert name not in mixedspin.__all__ and not hasattr(mixedspin, name)
        assert hasattr(negmod, name)


def test_negativity_of_two_qubit_singlet():
    singlet = _pure_pair([0.0, 1.0, -1.0, 0.0], 2, 2)
    res = negativity(singlet)
    assert abs(res.value - 0.5) <= 1e-12
    assert res.pair_kind == PairKind.HALF_HALF
    assert (np.linalg.eigvalsh(partial_transpose(singlet)) < 0.0).sum() == 1


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


def test_pair_state_refuses_a_matrix_of_another_size():
    # a (1/2,1/2) pair is 4 x 4: a 6 x 6 matrix would fail later inside a
    # reshape of negativity or partial_transpose, so the state refuses it
    for shape in ((6, 6), (3, 6, 6), (4, 6), (16,), ()):
        with pytest.raises(ValueError, match=r"\(2, 2\) pair state is 4 x 4"):
            PairReducedState(np.zeros(shape), 2, 2, 0, 1)


def test_negativity_rejects_broken_states():
    pair = PairReducedState(matrix=np.eye(6) / 3.0, dim_a=2, dim_b=3,
                            site_a=0, site_b=1)
    with pytest.raises(ValueError, match="trace"):
        negativity(pair)
    flipped = np.diag([0.6, 0.6, 0.1, 0.1, 0.1, -0.5])
    pair = PairReducedState(matrix=flipped, dim_a=2, dim_b=3, site_a=0, site_b=1)
    with pytest.raises(ValueError, match="positive semidefinite"):
        negativity(pair)
    # NaN fails the checks, inside a block or between two blocks
    with pytest.raises(ValueError, match="trace nan"):
        negativity(replace(pair, matrix=np.diag([np.nan, 0.5, 0.5, 0, 0, 0])))
    between = np.diag([0.5, 0.5, 0, 0, 0, 0])
    between[0, 5] = between[5, 0] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        negativity(replace(pair, matrix=between))


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
                shortcut = su2_negativity(correlator(partial_trace(state, sites)), pair.kind)
                assert abs(negativity(pair).value - shortcut) <= 1e-8


def _correlator_cases():
    for n in range(2, 9):
        yield ModelSpec(n)
    for n in (2, 4, 6, 8):
        yield ModelSpec(n, field_b=0.7)
    for n in (4, 6, 8):
        yield ModelSpec(n, j2=0.3)


@pytest.mark.parametrize("spec", list(_correlator_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_pair_correlator_matches_dense_bond(spec):
    # Tr(rho_pair s_a.s_b) on the pair state of the zero-field decomposition
    # against the bond embedded in the full space, traced with the dense
    # Gibbs or ground-manifold state of the Hamiltonian with its field
    n = spec.n_sites
    decomp = diagonalize(build_model(replace(spec, field_b=0.0)))
    full = diagonalize(build_model(spec))
    temperatures = (0.15, 0.8, 0.0)
    weights = [state_weights(decomp.energies(spec.field_b), t) for t in temperatures]
    dense = [ground_manifold(full) if t == 0.0 else thermal_state(full, t)
             for t in temperatures]
    bonds = {(p.site_a, p.site_b) for p in resolve_pairs(n)} | {(0, n - 1)}
    for a, b in sorted(bonds):
        for keep in ((a, b), (b, a)):
            bond = heisenberg_bond(*keep, full.layout)
            for w, state in zip(weights, dense):
                fast = correlator(reduce_pair(decomp, w, keep))
                assert abs(fast - float(np.sum(state.matrix * bond))) <= 1e-12


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
        assert np.abs(dense_matrix(h) @ vec - (-1.0) * vec).max() <= 1e-12
        component = ThermalState(matrix=np.outer(vec, vec), beta=float("inf"),
                                 log_z=0.0, layout=decomp.layout)
        value = pair_negativity(component, (0, 1))
        assert abs(value - math.sqrt(2) / 3) <= 1e-12
        assert abs(value - schmidt_negativity([math.sqrt(2 / 3), math.sqrt(1 / 3)])) <= 1e-12


def _oracle_cases():
    for n in range(2, 9):
        yield ModelSpec(n)
    for n in (2, 4, 6, 8):
        for b in (0.7, 1.5):
            yield ModelSpec(n, field_b=b)
    for n in (4, 6, 8):
        for j2 in (0.3, 1.0):
            yield ModelSpec(n, j2=j2)


@pytest.mark.parametrize("spec", list(_oracle_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_pair_states_from_blocks_match_dense_oracle(spec):
    # the eigenvector route (pair blocks weighted by state_weights) against the
    # dense Gibbs or ground-manifold matrix reduced by partial_trace
    decomp = diagonalize(build_model(spec))
    for temperature in (0.0, 0.02, 0.5, 3.0):
        dense = ground_manifold(decomp) if temperature == 0.0 else thermal_state(decomp, temperature)
        weights = state_weights(decomp.eigenvalues, temperature)
        for pair in resolve_pairs(spec.n_sites):
            keep = (pair.site_a, pair.site_b)
            fast = reduce_pair(decomp, weights, keep)
            oracle = partial_trace(dense, keep)
            assert (fast.dim_a, fast.dim_b, fast.site_a, fast.site_b) == \
                (oracle.dim_a, oracle.dim_b, oracle.site_a, oracle.site_b)
            assert np.abs(fast.matrix - oracle.matrix).max() <= 1e-12


@pytest.mark.parametrize("specs", [
    [ModelSpec(5)],
    [ModelSpec(6, j2=0.3)],         # an even ring: rest sites lie between pairs such as (0, 3)
    [ModelSpec(6, j2=0.3), ModelSpec(6, j1=0.5, j2=0.9)],
], ids=["n5", "n6-j2", "n6-batch"])
def test_pair_blocks_cover_every_site_pair_in_either_order(specs):
    # every ordered site pair against the dense partial trace, and a batch's
    # rows hold each lone decomposition's pair blocks bit for bit
    n = specs[0].n_sites
    batch = diagonalize([build_model(spec) for spec in specs])
    for row, spec in enumerate(specs):
        decomp = diagonalize(build_model(spec))
        weights = state_weights(decomp.eigenvalues, 0.4)
        dense = thermal_state(decomp, 0.4)
        for a, b in itertools.permutations(range(n), 2):
            assert np.array_equal(batch.pair_blocks((a, b))[row], decomp.pair_blocks((a, b)))
            fast = reduce_pair(decomp, weights, (a, b))
            oracle = partial_trace(dense, (a, b))
            assert (fast.site_a, fast.site_b) == (min(a, b), max(a, b))
            assert np.abs(fast.matrix - oracle.matrix).max() <= 1e-12
    # built once per pair, whichever order the sites come in
    assert decomp.pair_blocks((3, 1)) is decomp.pair_blocks((1, 3))
    with pytest.raises(ValueError, match="distinct"):
        decomp.pair_blocks((2, 2))
    with pytest.raises(ValueError, match="out of range"):
        decomp.pair_blocks((0, n))


# temperatures of one stack: ground-manifold rows at T = 0 among Gibbs rows
STACK_TEMPERATURES = np.array([0.0, 0.02, 0.5, 0.0, 3.0])


@pytest.mark.parametrize("spec", list(_oracle_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_negativity_stack_matches_per_state_and_dense_oracle(spec):
    # one stack of weight rows through reduce_pair and the negativities kernel
    # against each row on its own and against the dense state's partial trace
    decomp = diagonalize(build_model(spec))
    spectra = np.tile(decomp.eigenvalues, (len(STACK_TEMPERATURES), 1))
    weights = state_weights(spectra, STACK_TEMPERATURES)
    dense = [ground_manifold(decomp) if t == 0.0 else thermal_state(decomp, t)
             for t in STACK_TEMPERATURES]
    for pair in resolve_pairs(spec.n_sites):
        keep = (pair.site_a, pair.site_b)
        stack = reduce_pair(decomp, weights, keep)
        assert stack.matrix.shape[0] == len(STACK_TEMPERATURES)
        values = negativities(stack)
        per_state = [negativity(reduce_pair(decomp, w, keep)).value for w in weights]
        oracle = [negativity(partial_trace(state, keep)).value for state in dense]
        assert values.shape == (len(STACK_TEMPERATURES),)
        assert np.abs(values - per_state).max() <= 1e-12
        assert np.abs(values - oracle).max() <= 1e-12


def test_negativity_stack_checks_every_matrix(monkeypatch):
    # one bad matrix in the middle of an otherwise valid stack still raises
    decomp = diagonalize(build_model(ModelSpec(2)))
    temperatures = np.array([2.0, 2.5, 0.05, 3.0, 4.0])    # only 0.05 is entangled
    good = reduce_pair(decomp, state_weights(np.tile(decomp.eigenvalues, (5, 1)),
                                             temperatures), (0, 1))
    values = negativities(good)
    assert values[2] > 0.3 and not values[[0, 1, 3, 4]].any()

    def middle(matrix):
        stack = good.matrix.copy()
        stack[2] = matrix
        return replace(good, matrix=stack)

    with pytest.raises(ValueError, match="trace"):
        negativities(middle(1.5 * good.matrix[2]))
    asymmetric = good.matrix[2].copy()
    asymmetric[0, 1] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        negativities(middle(asymmetric))
    with pytest.raises(ValueError, match="positive semidefinite"):
        negativities(middle(np.diag([0.6, 0.6, 0.1, 0.1, 0.1, -0.5])))
    # the routes can only part through a bug in one of them: a cut-off that
    # drops the entangled state's negative eigenvalues from the eigenvalue
    # sum but not from the trace norm must be caught on that state alone
    monkeypatch.setattr(negmod, "EPS_NEGATIVE", 0.5)
    assert negativities(replace(good, matrix=good.matrix[[0, 1, 3, 4]])).max() == 0.0
    with pytest.raises(RuntimeError, match="disagree"):
        negativities(good)


# the block kernel against np.linalg.eigvalsh of each full matrix

PAIR_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _sz_conserving_states(rng, dim_a, dim_b, count):
    """Random PSD unit-trace states with no entry between two values of m_a + m_b."""
    a, b = np.divmod(np.arange(dim_a * dim_b), dim_b)
    states = np.zeros((count, dim_a * dim_b, dim_a * dim_b))
    for total in range(dim_a + dim_b - 1):
        rows = np.flatnonzero(a + b == total)
        x = rng.standard_normal((count, len(rows), len(rows)))
        states[:, rows[:, None], rows] = x @ x.swapaxes(1, 2)
    return states / np.trace(states, axis1=1, axis2=2)[:, None, None]


def _locally_rotated(rng, states, dim_a, dim_b):
    out = []
    for rho in states:
        qa = np.linalg.qr(rng.standard_normal((dim_a, dim_a)))[0]
        qb = np.linalg.qr(rng.standard_normal((dim_b, dim_b)))[0]
        u = np.kron(qa, qb)
        rotated = u @ rho @ u.T
        out.append(0.5 * (rotated + rotated.T))
    return np.array(out)


def _entries(states, basis):
    """The block entries of a stack of symmetric states, and a zero column."""
    entries = np.zeros((len(states), basis.places.shape[0] + 1))
    entries[:, :-1] = states.reshape(len(states), -1)[:, basis.places]
    return entries


def _check_against_full_eigvalsh(states, dim_a, dim_b):
    """Block eigenvalues and negativities against eigvalsh of every full matrix."""
    pairs = PairReducedState(matrix=states, dim_a=dim_a, dim_b=dim_b, site_a=0, site_b=1)
    transposed = partial_transpose(pairs)
    full_state, full_transpose = np.linalg.eigvalsh(states), np.linalg.eigvalsh(transposed)
    basis = pair_basis(dim_a, dim_b)
    if not states.reshape(len(states), -1)[:, basis.entry == basis.places.shape[0]].any():
        both = negmod._block_eigvalsh(_entries(states, basis), basis.plan)
        assert both.shape == (len(states), 2, dim_a * dim_b)
        assert np.abs(both[:, 0] - full_state).max() <= 1e-14
        assert np.abs(both[:, 1] - full_transpose).max() <= 1e-14
    expected = -np.where(full_transpose < -negmod.EPS_NEGATIVE, full_transpose, 0.0).sum(axis=1)
    values = negativities(pairs)
    assert values.shape == (len(states),)
    assert np.abs(values - expected).max() <= 1e-14
    return values


@pytest.mark.parametrize("dim_a, dim_b", PAIR_DIMS)
@pytest.mark.parametrize("count", [1, 50])
def test_block_kernel_matches_full_eigvalsh(dim_a, dim_b, count):
    rng = np.random.default_rng(100 * dim_a + 10 * dim_b + count)
    states = _sz_conserving_states(rng, dim_a, dim_b, count)
    values = _check_against_full_eigvalsh(states, dim_a, dim_b)
    if count > 1:
        assert (values > 1e-3).any()      # the random states include entangled ones


@pytest.mark.parametrize("dim_a, dim_b", PAIR_DIMS)
def test_block_kernel_whole_matrix_fallback(dim_a, dim_b):
    # locally rotated states have entries between blocks and go through one
    # whole-matrix eigvalsh each, alone or mixed into a stack of block states;
    # that is the full-matrix call itself, so the values agree bit for bit
    rng = np.random.default_rng(7 * dim_a + dim_b)
    states = _sz_conserving_states(rng, dim_a, dim_b, 20)
    rotated = _locally_rotated(rng, states[:10], dim_a, dim_b)
    mixed = np.concatenate([states[10:15], rotated[:5], states[15:]])
    for stack in (rotated, mixed):
        values = _check_against_full_eigvalsh(stack, dim_a, dim_b)
        transposed = partial_transpose(PairReducedState(stack, dim_a, dim_b, 0, 1))
        eigs = np.linalg.eigvalsh(transposed)
        assert np.array_equal(
            values, -np.cumsum(np.where(eigs < -1e-12, eigs, 0.0), axis=1)[:, -1] + 0.0)
    # a local rotation keeps the negativity of each state
    assert np.abs(negativities(PairReducedState(rotated, dim_a, dim_b, 0, 1))
                  - negativities(PairReducedState(states[:10], dim_a, dim_b, 0, 1))).max() <= 1e-12


def test_block_kernel_degenerate_blocks_and_exact_zeros():
    singlet_half = _pure_pair([0.0, 1.0, -1.0, 0.0], 2, 2).matrix
    vec = np.zeros(9)
    vec[2], vec[4], vec[6] = 1.0, -1.0, 1.0
    singlet_one = _pure_pair(vec, 3, 3).matrix
    separable = 0.5 * np.diag([1.0, 0, 0, 0, 0, 1.0])
    for states, dims in [(np.array([singlet_half, np.eye(4) / 4]), (2, 2)),
                         (np.array([separable, np.eye(6) / 6]), (2, 3)),
                         (np.array([singlet_one, np.eye(9) / 9]), (3, 3))]:
        _check_against_full_eigvalsh(states, *dims)
    # maximally mixed: every 2 x 2 block degenerate with a zero off-diagonal,
    # in the state and in its partial transpose
    for d_a, d_b in PAIR_DIMS:
        mixed = np.eye(d_a * d_b)[None] / (d_a * d_b)
        basis = pair_basis(d_a, d_b)
        assert np.array_equal(negmod._block_eigvalsh(_entries(mixed, basis), basis.plan),
                              np.full((1, 2, d_a * d_b), 1.0 / (d_a * d_b)))
    # a singlet's zero eigenvalues and a separable diagonal state come out exact
    basis = pair_basis(2, 2)
    eigs = negmod._block_eigvalsh(_entries(singlet_half[None], basis), basis.plan)
    assert np.array_equal(eigs[0, 0, :3], [0.0, 0.0, 0.0]) and abs(eigs[0, 0, 3] - 1.0) <= 1e-15
    assert np.abs(eigs[0, 1] - [-0.5, 0.5, 0.5, 0.5]).max() <= 1e-15
    basis = pair_basis(2, 3)
    eigs = negmod._block_eigvalsh(_entries(separable[None], basis), basis.plan)
    assert np.array_equal(eigs, [[[0.0, 0.0, 0.0, 0.0, 0.5, 0.5]] * 2])
    assert abs(negativities(PairReducedState(singlet_half, 2, 2, 0, 1)) - 0.5) <= 1e-15


@pytest.mark.parametrize("dim_a, dim_b", PAIR_DIMS)
def test_both_kernels_take_empty_stacks(dim_a, dim_b):
    # no state in, no value out: an array shaped like the leading axes
    d, width = dim_a * dim_b, pair_basis(dim_a, dim_b).places.shape[0] + 1
    for lead in [(0,), (3, 0)]:
        dense = PairReducedState(np.zeros(lead + (d, d)), dim_a, dim_b, 0, 1)
        assert negativities(dense).shape == lead
        assert entry_negativities(np.zeros(lead + (width,)), dim_a, dim_b).shape == lead


# pair states as their total-Sz block entries, the sweep path's form

@pytest.mark.parametrize("dim_a, dim_b, width", [(2, 3, 9), (3, 2, 9), (2, 2, 6), (3, 3, 15)])
def test_pair_entries_hold_each_block_entry_once(dim_a, dim_b, width):
    # E entries and a zero column: a symmetric state that conserves total Sz
    # goes to its entries and back unchanged, and the flip of the entries is
    # the flip m -> -m of both sites
    basis = pair_basis(dim_a, dim_b)
    places, flip, entry = basis.places, basis.flip, basis.entry
    assert places.shape[0] + 1 == flip.shape[0] == width
    assert np.array_equal(flip[flip], np.arange(width)) and flip[-1] == width - 1
    states = _sz_conserving_states(np.random.default_rng(width), dim_a, dim_b, 5)
    states = 0.5 * (states + states.swapaxes(1, 2))
    entries, flipped = _entries(states, basis), _entries(states[:, ::-1, ::-1], basis)
    assert np.array_equal(entries[:, entry].reshape(states.shape), states)
    assert np.array_equal(entries[:, flip], flipped)


def _entry_cases():
    for n in range(2, 9):
        yield [ModelSpec(n)]
        yield [ModelSpec(n, j1) for j1 in (1.0, -0.5, 2.0)]


@pytest.mark.parametrize("specs", list(_entry_cases()),
                         ids=lambda specs: f"n{specs[0].n_sites}-G{len(specs)}")
def test_entry_kernel_equals_the_dense_route_bit_for_bit(specs):
    # the sweep path, pair_entries into entry_negativities, against the dense
    # contract, reduce_pair into negativities, for every pair kind of the
    # ring: a stack of temperatures (T = 0 included) at zero field and at a
    # field, on a lone decomposition or a batch of three
    hs = [build_model(spec) for spec in specs]
    decomp = diagonalize(hs if len(hs) > 1 else hs[0])
    fields, temperatures = (np.repeat([0.0, 0.7], 4), np.tile([0.0, 0.02, 0.5, 3.0], 2))
    lead = (8,) + decomp.eigenvalues.shape[:-1]
    spectra = decomp.energies(fields.reshape(8, *[1] * len(lead)))
    weights = state_weights(spectra, np.broadcast_to(
        temperatures.reshape(8, *[1] * (len(lead) - 1)), lead))
    pairs = resolve_pairs(specs[0].n_sites)
    together = pair_negativities(decomp, weights, pairs)
    for column, pair in enumerate(pairs):
        keep = (pair.site_a, pair.site_b)
        entries = pair_entries(decomp, weights, keep)
        dense = reduce_pair(decomp, weights, keep)
        assert entries.shape == lead + (
            {(2, 3): 9, (2, 2): 6, (3, 3): 15}[(dense.dim_a, dense.dim_b)],)
        assert np.array_equal(dense.matrix, dense.matrix.swapaxes(-1, -2))
        fast = entry_negativities(entries, dense.dim_a, dense.dim_b)
        assert fast.shape == lead
        assert np.array_equal(fast.view(np.int64), negativities(dense).view(np.int64))
        assert np.array_equal(fast.view(np.int64), together[..., column].view(np.int64))
