import math

import numpy as np
import pytest

from mixedspin import (Hamiltonian, ModelSpec, build_model, correlator,
                       diagonalize, ground_manifold, internal_energy,
                       log_partition, thermal_state)
from mixedspin.analytic import (four_spin_log_partition, two_spin_internal_energy)
from mixedspin.thermal import boltzmann_weights, spectral_residuals


def test_diagonalize_residuals(decomp_nn):
    for n in (2, 4, 6):
        h = build_model(ModelSpec(n))
        resid, ortho = spectral_residuals(h, decomp_nn[n])
        assert resid <= 1e-9
        assert ortho <= 1e-9
        assert np.all(np.diff(decomp_nn[n].eigenvalues) >= -1e-12)


def test_diagonalize_scaled_identity():
    layout = build_model(ModelSpec(2)).layout
    h = Hamiltonian(matrix=3.5 * np.eye(6), layout=layout, spec=ModelSpec(2))
    decomp = diagonalize(h)
    assert np.allclose(decomp.eigenvalues, 3.5, atol=1e-14)


def test_diagonalize_rejects_non_finite():
    layout = build_model(ModelSpec(2)).layout
    bad = np.eye(6)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        diagonalize(Hamiltonian(matrix=bad, layout=layout, spec=ModelSpec(2)))


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
    shifted = diagonalize(Hamiltonian(matrix=h.matrix + shift * np.eye(12),
                                      layout=h.layout, spec=h.spec))
    for t in (0.2, 1.0):
        a = thermal_state(decomp_nn[3], t)
        b = thermal_state(shifted, t)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12
        assert abs(b.log_z - (a.log_z - shift / t)) <= 1e-9


def test_boltzmann_weights_normalized():
    w = boltzmann_weights(np.array([-2.0, -1.0, 0.0]), 3.0)
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all(np.diff(w) < 0)


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
    assert abs(correlator(manifold, 0, 1) + 0.75) <= 1e-10


def test_correlator_vanishes_at_infinite_temperature(decomp_nn):
    state = thermal_state(decomp_nn[4], 1e7)
    assert abs(correlator(state, 0, 1)) <= 1e-7


def test_even_ring_bond_correlators_uniform(decomp_nn):
    for n in (4, 6):
        state = thermal_state(decomp_nn[n], 0.6)
        values = [correlator(state, i, (i + 1) % n) for i in range(n)]
        assert max(values) - min(values) <= 1e-10


def test_energy_per_site_equals_bond_correlator(decomp_nn):
    for n in (4, 6):
        for t in (0.3, 1.1):
            state = thermal_state(decomp_nn[n], t)
            u_per_site = internal_energy(decomp_nn[n], 1.0 / t) / n
            assert abs(correlator(state, 0, 1) - u_per_site) <= 1e-10
