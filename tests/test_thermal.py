import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mixedspin import (Axis, ModelSpec, SweepRequest, ThermalState, build_model, correlator,
                       diagonalize, internal_energy, log_partition, models, resolve_pairs,
                       ring_layout, run_sweep, spin_matrices, thermal, thermal_state)
from mixedspin.analytic import (four_spin_log_partition, two_spin_internal_energy)
from mixedspin.models import nn_bond_list, nnn_bond_list
from mixedspin.negativity import pair_entries, partial_trace, reduce_pair
from mixedspin.spin_ops import product_basis
from mixedspin.sweeps import pair_negativities
from mixedspin.thermal import (BOLTZMANN_WINDOW, GROUND_DEGENERACY_RTOL, SpectralDecomposition,
                               _ground_mask, _su2_plan, boltzmann_weights, ground_degeneracy, state_weights)
from oracle import (GroundManifoldState, dense_hamiltonian, dense_matrix, embed,
                    ground_manifold, sector_hamiltonian, spectral_residuals,
                    total_spin_defect, total_spin_squared, total_sz)


def test_diagonalize_residuals(decomp_nn):
    for n in (2, 4, 6):
        h = build_model(ModelSpec(n))
        resid, ortho = spectral_residuals(h, decomp_nn[n])
        assert resid <= 1e-9
        assert ortho <= 1e-9
        assert np.all(np.diff(decomp_nn[n].eigenvalues) >= -1e-12)


def test_diagonalize_scaled_identity():
    layout = build_model(ModelSpec(2)).layout
    h = sector_hamiltonian(3.5 * np.eye(6), layout, ModelSpec(2))
    decomp = diagonalize(h)
    assert np.allclose(decomp.eigenvalues, 3.5, atol=1e-14)


def test_diagonalize_rejects_non_finite():
    layout = build_model(ModelSpec(2)).layout
    bad = np.eye(6)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        diagonalize(sector_hamiltonian(bad, layout, ModelSpec(2)))


def test_infinite_temperature_limit(decomp_nn):
    state = thermal_state(decomp_nn[2], 1e6)
    assert np.abs(state.matrix - np.eye(6) / 6.0).max() <= 1e-5


def test_two_site_log_partition(decomp_nn):
    state = thermal_state(decomp_nn[2], 1.0)
    assert abs(state.log_z - math.log(2 * math.e + 4 * math.exp(-0.5))) < 1e-12


def test_four_site_nnn_partition_matches_closed_form():
    for j2 in (0.1, 0.7):
        decomp = diagonalize(build_model(ModelSpec(4, 1.0, j2)))
        for beta in (0.5, 2.0, 10.0, 500.0):
            numeric = log_partition(decomp.eigenvalues, beta)
            assert abs(numeric - four_spin_log_partition(beta, 1.0, j2)) <= 1e-10


def test_thermal_state_rejects_nonpositive_temperature(decomp_nn):
    with pytest.raises(ValueError, match="positive"):
        thermal_state(decomp_nn[2], 0.0)
    with pytest.raises(ValueError, match="positive"):
        thermal_state(decomp_nn[2], -1.0)


def test_internal_energy_rejects_nonpositive_beta(decomp_nn):
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="beta must be positive"):
            internal_energy(decomp_nn[2], beta)


def test_thermal_state_invariants(decomp_nn):
    for n in (2, 3, 4):
        for t in (0.05, 0.5, 2.0):
            state = thermal_state(decomp_nn[n], t)
            assert abs(np.trace(state.matrix) - 1.0) <= 1e-10
            assert np.abs(state.matrix - state.matrix.T).max() == 0.0
            assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-12


def test_large_beta_does_not_overflow(decomp_nn):
    state = thermal_state(decomp_nn[4], 1e-3)       # beta = 1000
    assert np.isfinite(state.matrix).all()
    assert np.isfinite(state.log_z)
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-10


def test_internal_energy_closed_form(decomp_nn):
    for beta in (0.25, 1.0, 5.0):
        assert abs(internal_energy(decomp_nn[2], beta)
                   - two_spin_internal_energy(beta)) <= 1e-12


def test_internal_energy_limits(decomp_nn):
    # beta -> infinity: ground-state dominance (three-site gap is 1)
    assert abs(internal_energy(decomp_nn[3], 50.0) + 1.75) <= 1e-10
    # beta -> 0: traceless Hamiltonian averages to zero
    assert abs(internal_energy(decomp_nn[3], 1e-9)) <= 1e-7


def internal_energy_from_log_z(eigenvalues: np.ndarray, beta: float,
                               step: float = 1e-5) -> float:
    """Central finite difference -d(log Z)/d(beta); cross-check for internal_energy."""
    up = log_partition(eigenvalues, beta + step)
    down = log_partition(eigenvalues, beta - step)
    return -(up - down) / (2.0 * step)


def test_internal_energy_is_log_z_derivative(decomp_nn):
    for n in (2, 4):
        for beta in (0.5, 2.0):
            direct = internal_energy(decomp_nn[n], beta)
            finite = internal_energy_from_log_z(decomp_nn[n].eigenvalues, beta)
            assert abs(direct - finite) <= 1e-6 * max(1.0, abs(direct))


def test_energy_shift_invariance(decomp_nn):
    h = build_model(ModelSpec(3))
    shift = 2.7
    shifted = diagonalize(sector_hamiltonian(dense_matrix(h) + shift * np.eye(12), h.layout,
                                             h.spec))
    for t in (0.2, 1.0):
        a = thermal_state(decomp_nn[3], t)
        b = thermal_state(shifted, t)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12
        assert abs(b.log_z - (a.log_z - shift / t)) <= 1e-9


def test_boltzmann_weights_normalized():
    w = boltzmann_weights(np.array([-2.0, -1.0, 0.0]), 3.0)
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all(np.diff(w) < 0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_gibbs_weights_tend_to_the_ground_mixture(decomp_nn, n):
    # the plain rings' ground levels are degenerate, and eigensolver noise of
    # ~1e-15 inside a level must not pick one of its states once beta * 1e-15
    # exceeds 1
    decomp = decomp_nn[n]
    pairs = resolve_pairs(n)
    ground = pair_negativities(decomp, state_weights(decomp.eigenvalues, 0.0), pairs)
    assert ground_degeneracy(decomp.eigenvalues) > 1
    for temperature in (1e-16, 1e-300):
        cold = pair_negativities(decomp, state_weights(decomp.eigenvalues, temperature), pairs)
        assert np.abs(cold - ground).max() <= 1e-12


def test_ground_manifold_degeneracies(decomp_nn):
    assert ground_manifold(decomp_nn[2]).degeneracy == 2
    # the three-site ground level is a total-spin singlet
    assert ground_manifold(decomp_nn[3]).degeneracy == 1
    # the four-site ground is a spin-1 level below the first crossing,
    # a singlet between the crossings
    assert ground_manifold(diagonalize(build_model(ModelSpec(4, 1.0, 0.1)))).degeneracy == 3
    assert ground_manifold(diagonalize(build_model(ModelSpec(4, 1.0, 0.3)))).degeneracy == 1


def test_ground_manifold_state_shape(decomp_nn):
    manifold = ground_manifold(decomp_nn[2])
    assert abs(np.trace(manifold.matrix) - 1.0) <= 1e-12
    assert np.linalg.matrix_rank(manifold.matrix, tol=1e-10) == manifold.degeneracy
    assert abs(manifold.energy + 1.0) <= 1e-12


def test_ground_correlator_below_first_crossing():
    manifold = ground_manifold(diagonalize(build_model(ModelSpec(4, 1.0, 0.1))))
    assert abs(correlator(partial_trace(manifold, (0, 1))) + 0.75) <= 1e-10


def test_correlator_vanishes_at_infinite_temperature(decomp_nn):
    state = thermal_state(decomp_nn[4], 1e7)
    assert abs(correlator(partial_trace(state, (0, 1)))) <= 1e-7


def test_even_ring_bond_correlators_uniform(decomp_nn):
    for n in (4, 6):
        state = thermal_state(decomp_nn[n], 0.6)
        values = [correlator(partial_trace(state, (i, (i + 1) % n))) for i in range(n)]
        assert max(values) - min(values) <= 1e-10


def test_energy_per_site_equals_bond_correlator(decomp_nn):
    for n in (4, 6):
        for t in (0.3, 1.1):
            state = thermal_state(decomp_nn[n], t)
            u_per_site = internal_energy(decomp_nn[n], 1.0 / t) / n
            assert abs(correlator(partial_trace(state, (0, 1))) - u_per_site) <= 1e-10


def test_ground_degeneracy_at_field_level_crossing():
    # at b = 3/2 the two-site doublet level M = -1/2 meets the quartet level
    # M = -3/2, so the ground set spans two Sz sectors; the T = 0 weights and
    # ground_manifold count it through the same rule
    decomp = diagonalize(build_model(ModelSpec(2, field_b=1.5)))
    assert ground_degeneracy(decomp.eigenvalues) == 2
    manifold = ground_manifold(decomp)
    assert manifold.degeneracy == 2
    weights = state_weights(decomp.eigenvalues, 0.0)
    assert np.array_equal(weights, [0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    sz = np.diag(total_sz(decomp.layout))
    ground = decomp.eigenvectors[:, :2]
    magnetizations = sorted(float(v @ (sz * v)) for v in ground.T)
    assert np.allclose(magnetizations, [-1.5, -0.5], atol=1e-12)
    dense = partial_trace(manifold, (0, 1)).matrix
    fast = reduce_pair(decomp, weights, (0, 1)).matrix
    assert np.abs(fast - dense).max() <= 1e-12
    # just off the crossing one level is lowest on either side
    for b in (1.49, 1.51):
        decomp = diagonalize(build_model(ModelSpec(2, field_b=b)))
        assert ground_degeneracy(decomp.eigenvalues) == 1
        assert ground_manifold(decomp).degeneracy == 1


def test_diagonalize_rejects_coupling_between_sectors():
    # a Hamiltonian of sector blocks cannot hold such an entry, so the
    # dense matrix is refused on its way into one
    h = build_model(ModelSpec(2))
    leaky = dense_matrix(h)
    leaky[0, 1] = leaky[1, 0] = 1e-3       # |+1/2,+1> and |+1/2,0> differ in M
    with pytest.raises(ValueError, match="conserve total Sz"):
        diagonalize(sector_hamiltonian(leaky, h.layout, h.spec))


def test_weights_and_ground_manifold_take_energies_in_any_order():
    # E + b*M on zero-field eigenvectors is not ascending; the T = 0 weights,
    # the degeneracy and the ground manifold must follow the values, not
    # the positions
    decomp = diagonalize(build_model(ModelSpec(4, 1.0, 0.1)))    # 3-fold ground
    perm = np.random.default_rng(5).permutation(decomp.dimension)
    place = np.argsort(perm)        # the shuffled position of each eigenvector
    shuffled = SpectralDecomposition(eigenvalues=decomp.eigenvalues[perm],
                                     magnetizations=decomp.magnetizations[perm],
                                     sectors=tuple(s._replace(columns=place[s.columns])
                                                   for s in decomp.sectors),
                                     layout=decomp.layout)
    assert np.array_equal(shuffled.eigenvectors, decomp.eigenvectors[:, perm])
    assert shuffled.eigenvalues[0] > shuffled.eigenvalues.min()
    assert ground_degeneracy(shuffled.eigenvalues) == 3
    assert np.array_equal(state_weights(shuffled.eigenvalues, 0.0),
                          state_weights(decomp.eigenvalues, 0.0)[perm])
    for t in (0.05, 0.7):
        assert np.abs(state_weights(shuffled.eigenvalues, t)
                      - state_weights(decomp.eigenvalues, t)[perm]).max() <= 1e-15
    ordered, mixed = ground_manifold(decomp), ground_manifold(shuffled)
    assert mixed.degeneracy == ordered.degeneracy == 3
    assert mixed.energy == ordered.energy
    assert np.abs(mixed.matrix - ordered.matrix).max() <= 1e-14
    for t in (0.0, 0.3):
        fast = reduce_pair(shuffled, state_weights(shuffled.eigenvalues, t), (0, 1))
        reference = reduce_pair(decomp, state_weights(decomp.eigenvalues, t), (0, 1))
        assert np.abs(fast.matrix - reference.matrix).max() <= 1e-14


def _sector_cases():
    for n in range(2, 9):
        yield ModelSpec(n)
    for n in (2, 4, 6, 8):
        yield ModelSpec(n, field_b=0.7)
    for n in (4, 6, 8):
        yield ModelSpec(n, j2=0.3)


@pytest.mark.parametrize("spec", list(_sector_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_sector_blocks_are_slices_of_the_dense_hamiltonian(spec):
    # the blocks built from the bond action on each sector's product states,
    # summed over the terms, are the same floats, bit for bit, as the sector
    # slices of the sum of Kronecker-embedded bonds, which has no entry
    # between two sectors; the terms hold no field, and dense_matrix adds it
    # as the dense oracle does
    h = build_model(spec)
    dense = dense_hamiltonian(spec)
    exchange = replace(h, spec=replace(spec, field_b=0.0))
    rows_by_sector = product_basis(h.layout).rows
    assert all(len(term.blocks) == len(rows_by_sector) for _, term in h.terms)
    assert sum(np.count_nonzero(dense[np.ix_(rows, rows)]) for rows in rows_by_sector) \
        == np.count_nonzero(dense)
    assert dense_matrix(exchange).tobytes() == dense_hamiltonian(exchange.spec).tobytes()
    assert dense_matrix(h).tobytes() == dense.tobytes()


@pytest.mark.parametrize("n, b", [(2, 1.5), (4, 0.7), (6, 0.3), (8, 2.9)])
def test_field_hamiltonian_solves_as_the_zero_field_one(n, b):
    # the field is b*M on sector M and never enters the blocks, so a field
    # Hamiltonian's decomposition is the zero-field one with b*M on its
    # energies: the same floats and the same eigenvectors, bit for bit
    field = diagonalize(build_model(ModelSpec(n, field_b=b)))
    zero = diagonalize(build_model(ModelSpec(n)))
    assert field.eigenvalues.tobytes() == np.sort(zero.energies(b)).tobytes()
    rows_by_sector = product_basis(field.layout).rows
    assert len(field.sectors) == len(zero.sectors) == len(rows_by_sector)
    for rows, ours, theirs in zip(rows_by_sector, field.sectors, zero.sectors):
        assert ours.vectors.shape == theirs.vectors.shape == (len(rows), ours.columns.size)
        assert ours.vectors.tobytes() == theirs.vectors.tobytes()
        assert ours.mirror_of == theirs.mirror_of


def _dense_state(values, vectors, layout, temperature):
    """The Gibbs state (T > 0) or ground mixture (T = 0) of dense eigenpairs."""
    e_min = values.min()
    if temperature == 0.0:
        ground = vectors[:, values <= e_min + GROUND_DEGENERACY_RTOL * max(1.0, abs(e_min))]
        rho = ground @ ground.T / ground.shape[1]
        return GroundManifoldState(matrix=rho, degeneracy=ground.shape[1],
                                   energy=float(e_min), layout=layout)
    w = np.exp(-(values - e_min) / temperature)
    rho = (vectors * (w / w.sum())) @ vectors.T
    return ThermalState(matrix=rho, beta=1.0 / temperature, log_z=0.0, layout=layout)


def _dense_pair_oracle(values, vectors, layout, temperature, keep):
    """partial_trace of the Gibbs state (T > 0) or ground mixture (T = 0) of dense eigenpairs."""
    return partial_trace(_dense_state(values, vectors, layout, temperature), keep).matrix


@pytest.mark.parametrize("spec", list(_sector_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_sector_diagonalize_matches_dense_eigh(spec):
    # the dense eigensolve of the full matrix, called here and nowhere in the
    # package, is the oracle for the sector split
    h = build_model(spec)
    dense_values, dense_vectors = np.linalg.eigh(dense_matrix(h))
    decomp = diagonalize(h)
    assert np.abs(decomp.eigenvalues - dense_values).max() <= 1e-10
    resid, ortho = spectral_residuals(h, decomp)
    assert resid <= 1e-12
    assert ortho <= 1e-12
    sz = np.diag(total_sz(h.layout))
    expectation = np.einsum("ij,i,ij->j", decomp.eigenvectors, sz, decomp.eigenvectors)
    assert np.abs(decomp.magnetizations - expectation).max() <= 1e-12
    assert max(total_spin_defect(decomp)) <= 1e-10
    assert ground_degeneracy(decomp.eigenvalues) == ground_degeneracy(dense_values)
    for temperature in (0.0, 0.02, 0.5):
        weights = state_weights(decomp.eigenvalues, temperature)
        for pair in resolve_pairs(spec.n_sites):
            keep = (pair.site_a, pair.site_b)
            oracle = _dense_pair_oracle(dense_values, dense_vectors, h.layout,
                                        temperature, keep)
            fast = reduce_pair(decomp, weights, keep).matrix
            assert np.abs(fast - oracle).max() <= 1e-12


@pytest.mark.parametrize("spec", list(_sector_cases()),
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_mirror_sectors_share_spectra_and_flip_pair_blocks(spec):
    # flipping m -> -m on every site maps sector M onto -M: at b = 0 that is
    # an exact symmetry, so sector -M takes sector M's eigenpairs and its
    # spectrum is the same numbers; the field's b*Sz is not in the blocks,
    # so sector -M mirrors M at every field and lies 2bM below it
    h = build_model(spec)
    decomp = diagonalize(h)
    b, m, energies = spec.field_b, decomp.magnetizations, decomp.eigenvalues
    for sector in decomp.sectors:
        assert (sector.mirror_of is not None) == (m[sector.columns[0]] < 0)
    for value in set(m[m > 0].tolist()):
        if b == 0.0:
            assert np.array_equal(energies[m == -value], energies[m == value])
        else:
            shifted = energies[m == value] - 2.0 * b * value
            assert np.abs(energies[m == -value] - shifted).max() <= 1e-12
    # the pair blocks of the -M eigenvectors against the dense partial trace
    # of a random mixture of them
    negative = np.flatnonzero(m < 0)
    weights = np.zeros(decomp.dimension)
    weights[negative] = np.random.default_rng(spec.n_sites).random(negative.shape[0])
    weights /= weights.sum()
    vectors = decomp.eigenvectors[:, negative]
    rho = (vectors * weights[negative]) @ vectors.T
    state = ThermalState(matrix=rho, beta=1.0, log_z=0.0, layout=h.layout)
    for pair in resolve_pairs(spec.n_sites):
        keep = (pair.site_a, pair.site_b)
        fast = reduce_pair(decomp, weights, keep).matrix
        assert np.abs(fast - partial_trace(state, keep).matrix).max() <= 1e-12


def _batch_cases():
    # ferromagnetic rows reverse the plain ring's level order and j2 moves
    # level crossings, so each row of a batch sorts its spectrum its own way
    for n in range(2, 9):
        yield [ModelSpec(n, j1) for j1 in (1.0, -0.5, 2.0)]
    for n in (4, 6, 8):
        yield [ModelSpec(n, j2=j2) for j2 in (0.1, 0.4, 0.9)]
    for n in (2, 4, 6):     # a field row next to zero-field rows
        yield [ModelSpec(n), ModelSpec(n, field_b=0.7), ModelSpec(n, 1.5)]


def _row(batch: SpectralDecomposition, row: int) -> SpectralDecomposition:
    """One row of a batch as a lone decomposition."""
    return SpectralDecomposition(
        eigenvalues=batch.eigenvalues[row], magnetizations=batch.magnetizations[row],
        sectors=tuple(s._replace(vectors=s.vectors[row], columns=s.columns[row])
                      for s in batch.sectors), layout=batch.layout)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("specs", list(_batch_cases()),
                         ids=lambda specs: "-".join(
                             f"n{s.n_sites}_j1_{s.j1}_j2_{s.j2}_b_{s.field_b}" for s in specs))
def test_batch_diagonalize_matches_single_decompositions(specs):
    # a batch is G single decompositions side by side, bit for bit: spectra,
    # magnetizations, sector vectors and places, and every pair's blocks
    hs = [build_model(spec) for spec in specs]
    batch = diagonalize(hs)
    singles = [diagonalize(h) for h in hs]
    assert batch.eigenvalues.shape == (len(specs), hs[0].layout.total_dimension)
    pairs = [(p.site_a, p.site_b) for p in resolve_pairs(specs[0].n_sites)]
    rows_by_sector = product_basis(batch.layout).rows
    for row, (spec, single) in enumerate(zip(specs, singles)):
        assert len(batch.sectors) == len(single.sectors) == len(rows_by_sector)
        for rows, sector, alone in zip(rows_by_sector, batch.sectors, single.sectors):
            assert sector.vectors.shape[-2] == alone.vectors.shape[-2] == len(rows)
            assert sector.mirror_of == alone.mirror_of
            assert np.array_equal(_bits(sector.vectors[row]), _bits(alone.vectors))
            assert np.array_equal(sector.columns[row], alone.columns)
        assert np.array_equal(_bits(batch.eigenvalues[row]), _bits(single.eigenvalues))
        assert np.array_equal(_bits(batch.magnetizations[row]), _bits(single.magnetizations))
        for keep in pairs:
            assert np.array_equal(_bits(batch.pair_blocks(keep)[row]),
                                  _bits(single.pair_blocks(keep)))
        # the batch row on its own, against the dense S^2 and, with a field in
        # the batch, against the dense eigensolve
        alone = _row(batch, row)
        assert max(total_spin_defect(alone)) <= 1e-10
        if not any(other.field_b for other in specs):
            continue
        dense_values, dense_vectors = np.linalg.eigh(dense_matrix(hs[row]))
        assert np.abs(alone.eigenvalues - dense_values).max() <= 1e-10
        for temperature in (0.0, 0.02, 0.5):
            weights = state_weights(batch.eigenvalues, temperature)
            for keep in pairs:
                oracle = _dense_pair_oracle(dense_values, dense_vectors, batch.layout,
                                            temperature, keep)
                fast = reduce_pair(batch, weights, keep).matrix[row]
                assert np.abs(fast - oracle).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_diagonalize_rejects_anisotropic_exchange(n):
    # sz sz bonds alone conserve total Sz but not total S: no eigensolve by
    # total spin holds for them, alone, at a 1e-6 share, or as one row of a
    # batch; nor for a shift of the all-down state alone, which breaks only
    # the mirror of the all-up one. The check runs on each term, on every
    # sector, so a window of the ground multiplet alone (T = 0, no field)
    # refuses them too
    layout = ring_layout(n)
    sz = [spin_matrices(s).sz for s in layout.spins]
    ising = sum(embed(np.kron(sz[a], sz[b]), (a, b), layout) for a, b in nn_bond_list(n))
    isotropic = build_model(ModelSpec(n))
    all_down = dense_matrix(isotropic)
    all_down[-1, -1] += 1e-3
    for lone, batch in ((None, None),
                        ((np.zeros(1), np.zeros(1)), (np.zeros((1, 2)), np.zeros((1, 2))))):
        for matrix in (ising, dense_matrix(isotropic) + 1e-6 * ising, all_down):
            with pytest.raises(ValueError, match="not isotropic"):
                diagonalize(sector_hamiltonian(matrix, layout, ModelSpec(n)), lone)
        with pytest.raises(ValueError, match="not isotropic"):
            diagonalize([isotropic, sector_hamiltonian(ising, layout, ModelSpec(n))], batch)


@pytest.mark.parametrize("n", range(2, 9))
def test_total_spin_basis_against_the_dense_s2(n):
    # the lowest-|M| sector's basis, coupled from the two sublattices, is
    # orthonormal, each row an S^2 eigenvector of its S, and S has as many
    # rows as multiplets: the size of sector M = S less that of M = S + 1
    layout = ring_layout(n)
    low, m_low, basis, spins, groups, _, _ = _su2_plan(layout)
    ring = product_basis(layout)
    rows, sector_m = ring.rows, ring.sector_m
    s2 = total_spin_squared(layout)[np.ix_(rows[low], rows[low])]
    assert basis.shape == (rows[low].shape[0],) * 2
    assert np.abs(basis @ basis.T - np.eye(basis.shape[0])).max() <= 1e-13
    exact = (spins * (spins + 1.0))[:, None]
    assert np.linalg.norm(basis @ s2 - exact * basis, axis=1).max() <= 1e-12
    sizes = {float(m): len(r) for m, r in zip(np.unique(sector_m), rows)}
    group_spins = [float(spins[g.start]) for g in groups]
    assert all((spins[g] == s).all() for s, g in zip(group_spins, groups))
    assert group_spins == [m_low + k for k in range(len(groups))]
    assert [g.stop - g.start for g in groups] == [sizes[s] - sizes.get(s + 1.0, 0)
                                                  for s in group_spins]
    assert groups[0].start == 0 and groups[-1].stop == len(spins)


@pytest.mark.parametrize("n", range(2, 9))
def test_raise_index_arrays_match_a_site_by_site_build(n):
    # S+ from each sector to the next, built site by site: upper row r takes
    # splus[d, d + 1] times the lower row with that site's digit d + 1
    layout = ring_layout(n)
    low, _, _, _, _, raises, _ = _su2_plan(layout)
    ring = product_basis(layout)
    rows_by_sector, place = ring.rows, ring.place
    digits = np.unravel_index(np.arange(layout.total_dimension), layout.dims)
    strides = np.cumprod((1,) + layout.dims[:0:-1])[::-1]
    assert len(raises) == len(rows_by_sector) - low - 1
    for rows, (source, coef) in zip(rows_by_sector[low + 1:], raises):
        expected_source = np.zeros((n, rows.shape[0]), dtype=np.intp)
        expected_coef = np.zeros(expected_source.shape)
        for site, spin in enumerate(layout.spins):
            up = np.flatnonzero(digits[site][rows] < layout.dims[site] - 1)
            d = digits[site][rows[up]]
            expected_source[site, up] = place[rows[up] + strides[site]]
            expected_coef[site, up] = spin_matrices(spin).splus[d, d + 1]
        assert source.dtype == expected_source.dtype
        assert np.array_equal(source, expected_source) and np.array_equal(coef, expected_coef)


def _kept(decomp: SpectralDecomposition) -> np.ndarray:
    """Which places of one decomposition's spectrum its sectors hold eigenvectors for."""
    kept = np.zeros(decomp.dimension, dtype=bool)
    for sector in decomp.sectors:
        kept[sector.columns] = True
    return kept


def _window_cases():
    # the plain ring at two couplings, next-nearest coupling on even rings
    # from four sites, and a field model (b built into H) on even rings
    for n in range(2, 9):
        specs = [ModelSpec(n), ModelSpec(n, j1=2.0)]
        if n % 2 == 0 and n >= 4:
            specs.append(ModelSpec(n, j2=0.4))
        if n % 2 == 0:
            specs.append(ModelSpec(n, field_b=0.6))
        yield specs


@pytest.mark.parametrize("specs", list(_window_cases()),
                         ids=lambda specs: f"n{specs[0].n_sites}")
def test_windowed_pair_entries_match_the_full_route(specs):
    # a decomposition diagonalized for some points holds only the multiplets
    # those points weigh: its pair entries at the points are the full route's,
    # for each Hamiltonian alone and for all of them as one batch, at fields
    # that add to the model's own
    hs = [build_model(spec) for spec in specs]
    fields = np.array([0.0, 0.35, -1.2])
    pairs = [(p.site_a, p.site_b) for p in resolve_pairs(specs[0].n_sites)]
    for h in (*hs, hs):
        full = diagonalize(h)
        b = fields if full.eigenvalues.ndim == 1 else np.repeat(fields[:, None], len(hs), axis=1)
        for temperature in (0.0, 0.02, 0.1):
            t = np.full(b.shape, temperature)
            windowed = diagonalize(h, (b, t))
            weights = state_weights(full.energies(b[..., None]), t)
            for keep in pairs:
                fast, oracle = pair_entries(windowed, weights, keep), pair_entries(full, weights, keep)
                assert np.abs(fast - oracle).max() <= 1e-12
            if specs[0].n_sites == 8 and temperature == 0.02:
                # the window is the point: 1,296 states, a few dozen weighed
                assert np.count_nonzero(_kept(windowed)) < full.dimension // 4


@pytest.mark.parametrize("n", [4, 8])
def test_a_window_of_every_multiplet_is_the_full_route(n):
    # points hot enough to weigh every multiplet give the windowless
    # decomposition's bits, alone and in a batch
    hs = [build_model(ModelSpec(n, j2=j2)) for j2 in (0.0, 0.5)]
    pairs = [(p.site_a, p.site_b) for p in resolve_pairs(n)]
    for h in (hs[0], hs):
        full = diagonalize(h)
        width = (full.eigenvalues.max(axis=-1) - full.eigenvalues.min(axis=-1)).max()
        temperature = 2.0 * width / BOLTZMANN_WINDOW
        shape = (3,) + full.eigenvalues.shape[:-1]
        windowed = diagonalize(h, (np.zeros(shape), np.full(shape, temperature)))
        assert np.array_equal(windowed.eigenvalues, full.eigenvalues)
        assert np.array_equal(windowed.magnetizations, full.magnetizations)
        rows_by_sector = product_basis(full.layout).rows
        assert len(windowed.sectors) == len(full.sectors) == len(rows_by_sector)
        for rows, sector, whole in zip(rows_by_sector, windowed.sectors, full.sectors):
            assert sector.vectors.shape[-2] == len(rows)
            assert sector.mirror_of == whole.mirror_of
            assert np.array_equal(sector.vectors, whole.vectors)
            assert np.array_equal(sector.columns, whole.columns)
        for keep in pairs:
            assert np.array_equal(windowed.pair_blocks(keep), full.pair_blocks(keep))


@pytest.mark.parametrize("spec", [ModelSpec(n) for n in range(2, 9)]
                         + [ModelSpec(n, j2=0.4) for n in (4, 6, 8)]
                         + [ModelSpec(n, field_b=b) for n in (2, 4, 8) for b in (0.6, 3.0)],
                         ids=lambda s: f"n{s.n_sites}-j2_{s.j2}-b_{s.field_b}")
def test_a_zero_temperature_window_holds_the_ground_level(spec):
    # at T = 0 the window's rows are the ground level: exactly, without a
    # field, where a multiplet is one level; with one, the ground level and
    # the other members of its multiplets, which pair_blocks fills too
    decomp = diagonalize(build_model(spec), (np.zeros(1), np.zeros(1)))
    kept, ground = _kept(decomp), _ground_mask(decomp.eigenvalues)
    if spec.field_b == 0.0:
        assert np.array_equal(kept, ground)
    else:
        assert np.all(kept[ground]) and np.count_nonzero(kept) < decomp.dimension
    rows = np.zeros(decomp.dimension, dtype=bool)
    for pair in resolve_pairs(spec.n_sites):
        rows |= np.any(decomp.pair_blocks((pair.site_a, pair.site_b)) != 0.0, axis=-1)
    assert np.array_equal(rows, kept)


def test_a_windowed_decomposition_has_no_dense_eigenvectors():
    # its dropped eigenvectors are not zero columns: asking for them fails
    decomp = diagonalize(build_model(ModelSpec(6)), (np.zeros(1), np.full(1, 0.02)))
    assert np.count_nonzero(_kept(decomp)) < decomp.dimension
    with pytest.raises(ValueError, match="window"):
        decomp.eigenvectors
    assert diagonalize(build_model(ModelSpec(6))).eigenvectors.shape == (216, 216)


def _family_cases():
    # every ring from two sites: the plain ring at two couplings on odd rings;
    # on even ones the plain ring (j2 = 0), next-nearest coupling from four
    # sites and the field model, which one batch mixes
    for n in range(2, 9):
        if n % 2:
            yield [ModelSpec(n), ModelSpec(n, j1=2.0)]
        elif n == 2:
            yield [ModelSpec(n), ModelSpec(n, field_b=0.7)]
        else:
            yield [ModelSpec(n), ModelSpec(n, j2=0.3), ModelSpec(n, field_b=0.7)]


@pytest.mark.parametrize("specs", list(_family_cases()), ids=lambda specs: f"n{specs[0].n_sites}")
def test_coupling_terms_match_the_dense_hamiltonian(specs):
    # the sum of coupling times projected term, alone and as one row of a
    # batch mixing j2 = 0 and j2 > 0 and a field row, against numpy's eigh
    # of the Kronecker-built Hamiltonian: spectra to 1e-10, pair states at
    # T = 0, 0.02 and 0.5 to 1e-12, and every eigenvector's residual,
    # orthonormality and S^2
    hs = [build_model(spec) for spec in specs]
    batch = diagonalize(hs)
    layout = hs[0].layout
    pairs = [(p.site_a, p.site_b) for p in resolve_pairs(specs[0].n_sites)]
    for row, (spec, h) in enumerate(zip(specs, hs)):
        values, vectors = np.linalg.eigh(dense_hamiltonian(spec))
        decomps = (diagonalize(h), _row(batch, row))
        for decomp in decomps:
            assert np.abs(decomp.eigenvalues - values).max() <= 1e-10
            resid, ortho = spectral_residuals(h, decomp)
            assert resid <= 1e-12 and ortho <= 1e-12
            assert max(total_spin_defect(decomp)) <= 1e-10
        for temperature in (0.0, 0.02, 0.5):
            state = _dense_state(values, vectors, layout, temperature)
            for keep in pairs:
                oracle = partial_trace(state, keep).matrix
                for decomp in decomps:
                    weights = state_weights(decomp.eigenvalues, temperature)
                    fast = reduce_pair(decomp, weights, keep).matrix
                    assert np.abs(fast - oracle).max() <= 1e-12


def test_each_term_is_checked_and_projected_once(monkeypatch):
    # bond sums built afresh for this test, which this process has not yet
    # projected: a six-point eight-site j2 sweep checks and projects the
    # nearest-neighbour term, at j2 = 0, and the next-nearest one, at the
    # next point, once each; a second sweep reuses both projections
    monkeypatch.setattr(models, "_bond_sum", functools.lru_cache(models._bond_sum.__wrapped__))
    projected, real = [], thermal._project
    monkeypatch.setattr(thermal, "_project",
                        lambda term, layout: projected.append(term) or real(term, layout))
    req = SweepRequest(base=ModelSpec(8), axis1=Axis("j2", 0.0, 1.0, 6), temperature=0.02)
    first = run_sweep(req)
    terms = [models._bond_sum(8, bonds) for bonds in (nn_bond_list, nnn_bond_list)]
    assert projected == terms
    kept = [block for term in terms for block in term.projected]
    again = run_sweep(req)
    assert projected == terms
    assert all(a is b for a, b in zip(kept, (block for term in terms for block in term.projected)))
    assert np.array_equal(first.negativities, again.negativities)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_an_anisotropic_term_is_refused_at_any_coefficient(n):
    # sz sz bonds as a term beside the isotropic bond sum are refused at a
    # coefficient of 1 or of 1e-6, alone or as one row of a batch whose other
    # row does not name them, and no projection of them is kept
    layout = ring_layout(n)
    sz = [spin_matrices(s).sz for s in layout.spins]
    ising = sum(embed(np.kron(sz[a], sz[b]), (a, b), layout) for a, b in nn_bond_list(n))
    (_, term), = sector_hamiltonian(ising, layout, ModelSpec(n)).terms
    isotropic = build_model(ModelSpec(n))
    for coefficient in (1.0, 1e-6):
        mixed = replace(isotropic, terms=isotropic.terms + ((coefficient, term),))
        for h, points in ((mixed, None), ([isotropic, mixed], None),
                          ([isotropic, mixed], (np.zeros((1, 2)), np.zeros((1, 2))))):
            with pytest.raises(ValueError, match="not isotropic"):
                diagonalize(h, points)
    assert term.projected == []


def test_couplings_that_overflow_finite_terms_are_refused():
    # every term is finite and passes its check, but 1e308 times the
    # nearest-neighbour bond sum overflows on some S-space: the sum is
    # refused, as the term would be, rather than solved into NaN, alone or
    # as one row of a batch, and with every warning an error the caller
    # gets that ValueError and no overflow warning first
    finite = build_model(ModelSpec(4))
    for j1 in (1e308, -1e308):
        h = build_model(ModelSpec(4, j1=j1))
        for hs in (h, [h], [finite, h]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    diagonalize(hs)


def test_an_empty_or_mixed_batch_is_refused_before_any_eigensolve(monkeypatch):
    # a batch is one or more Hamiltonians on one ring layout; an empty list
    # or a list mixing rings is refused with one message, before any term is
    # checked or any eigensolve runs
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve run for a bad batch")

    monkeypatch.setattr(thermal, "_project", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    for batch in ([], [build_model(ModelSpec(4)), build_model(ModelSpec(6))],
                  [build_model(ModelSpec(3)), build_model(ModelSpec(2))]):
        with pytest.raises(ValueError, match="all on one ring layout"):
            diagonalize(batch)
