import numpy as np
import pytest

from mixedspin import (HALF, ONE, Hamiltonian, ModelSpec, Term, build_model, diagonalize, models,
                       ring_layout, spin_matrices)
from mixedspin.analytic import four_spin_ground_energy, four_spin_levels
from mixedspin.models import nn_bond_list, nnn_bond_list
from oracle import dense_hamiltonian, dense_matrix, embed, total_sz


def test_ring_layout_even_alternates():
    layout = ring_layout(6)
    assert layout.spins == (HALF, ONE, HALF, ONE, HALF, ONE)
    assert layout.total_dimension == 6 ** 3


def test_ring_layout_odd_closes_with_half():
    layout = ring_layout(5)
    assert layout.spins == (HALF, ONE, HALF, ONE, HALF)
    assert layout.total_dimension == 2 ** 3 * 3 ** 2


def test_bond_lists():
    assert nn_bond_list(2) == [(0, 1)]
    assert nn_bond_list(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert nn_bond_list(3) == [(0, 1), (1, 2), (2, 0)]
    # the 4-site wrap visits each sublattice pair twice
    assert nnn_bond_list(4) == [(0, 2), (1, 3), (2, 0), (3, 1)]
    assert nnn_bond_list(6) == [(0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1)]


@pytest.mark.parametrize("kwargs", [
    dict(n_sites=1),
    dict(n_sites=3, j2=0.5),
    dict(n_sites=2, j2=0.5),
    dict(n_sites=4, j2=0.5, field_b=1.0),
    dict(n_sites=5, field_b=1.0),
    dict(n_sites=4, j2=-0.1),
    dict(n_sites=models.MAX_SITES + 1),
    dict(n_sites=4, j1=-1.0, j2=0.3),
    dict(n_sites=4, j2=float("nan")),
    dict(n_sites=4, j2=float("inf")),
    dict(n_sites=2, j1=float("inf")),
    dict(n_sites=2, j1=float("nan")),
    dict(n_sites=2, field_b=float("nan")),
    dict(n_sites=2, field_b=float("-inf")),
    dict(n_sites=4.0),
    dict(n_sites="4"),
    dict(n_sites=4, j1="1"),
    dict(n_sites=4, j2=0.5j),
])
def test_model_spec_rejections(kwargs):
    with pytest.raises(ValueError):
        ModelSpec(**kwargs)


def test_model_spec_takes_numpy_numbers():
    spec = ModelSpec(np.int64(4), j1=np.float64(1.0), j2=np.float32(0.5))
    assert np.array_equal(dense_matrix(build_model(spec)),
                          dense_matrix(build_model(ModelSpec(4, j2=0.5))))


def test_two_site_spectrum():
    eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(2))))
    assert np.allclose(np.sort(eigs), [-1, -1, 0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_three_site_ground_energy():
    eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(3))))
    assert abs(eigs.min() + 1.75) < 1e-12


def test_four_site_ground_energy_per_site():
    eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(4))))
    assert abs(eigs.min() / 4.0 + 0.75) < 1e-12


def test_field_zero_matches_plain_ring():
    plain = dense_matrix(build_model(ModelSpec(4)))
    with_field = dense_matrix(build_model(ModelSpec(4, 1.0, field_b=0.0)))
    assert np.array_equal(plain, with_field)


def test_field_rejects_odd_ring():
    with pytest.raises(ValueError, match="even"):
        build_model(ModelSpec(3, 1.0, field_b=0.5))


def test_two_site_field_level_crossing():
    # the two lowest levels become degenerate exactly at b = 3/2
    eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(2, 1.0, field_b=1.5))))
    assert abs(eigs[1] - eigs[0]) < 1e-12
    below = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(2, 1.0, field_b=1.4))))
    above = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(2, 1.0, field_b=1.6))))
    assert below[1] - below[0] > 1e-3
    assert above[1] - above[0] > 1e-3


def test_two_site_strong_field_product_ground_state():
    eigs, vecs = np.linalg.eigh(dense_matrix(build_model(ModelSpec(2, 1.0, field_b=2.0))))
    assert abs(eigs[0] - (0.5 - 3.0)) < 1e-12
    assert eigs[1] - eigs[0] > 1e-3
    # the ground vector is a single product basis state
    assert abs(np.abs(vecs[:, 0]).max() - 1.0) < 1e-12


@pytest.mark.parametrize("j2,expected", [
    (0.0, -3.0), (0.1, -2.75), (0.3, -2.45), (1.0, -5.5),
])
def test_four_site_nnn_ground_energies(j2, expected):
    eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(4, 1.0, j2))))
    assert abs(eigs.min() - expected) < 1e-12


def test_nnn_rejections():
    with pytest.raises(ValueError):
        build_model(ModelSpec(3, 1.0, 0.5))
    with pytest.raises(ValueError):
        build_model(ModelSpec(2, 1.0, 0.5))
    with pytest.raises(ValueError):
        build_model(ModelSpec(4, 1.0, -0.5))


@pytest.mark.parametrize("spec", [
    ModelSpec(2), ModelSpec(3), ModelSpec(5), ModelSpec(4, j2=0.4),
    ModelSpec(6, j2=0.7), ModelSpec(4, field_b=0.9),
])
def test_hamiltonians_conserve_total_sz(spec):
    h = build_model(spec)
    sz, matrix = total_sz(h.layout), dense_matrix(h)
    assert np.abs(sz @ matrix - matrix @ sz).max() <= 1e-12


@pytest.mark.parametrize("spec", [
    ModelSpec(2), ModelSpec(3), ModelSpec(4, j2=0.4), ModelSpec(5),
])
def test_field_free_hamiltonians_conserve_total_spin(spec):
    # S^2 = Sz^2 + (S+S- + S-S+)/2 with total ladder operators stays real
    h = build_model(spec)
    layout = h.layout
    dim = layout.total_dimension
    splus = np.zeros((dim, dim))
    for site, s in enumerate(layout.spins):
        splus += embed(spin_matrices(s).splus, (site,), layout)
    sz = total_sz(layout)
    s_squared = sz @ sz + 0.5 * (splus @ splus.T + splus.T @ splus)
    matrix = dense_matrix(h)
    assert np.abs(s_squared @ matrix - matrix @ s_squared).max() <= 1e-12


def test_four_site_exchange_symmetry():
    # swapping the two spin-halves (sites 0, 2) or the two spin-ones (1, 3)
    # permutes the bond set onto itself, so the matrix is exactly invariant
    for spec in (ModelSpec(4), ModelSpec(4, j2=0.6), ModelSpec(4, field_b=0.5)):
        h = dense_matrix(build_model(spec))
        dims = (2, 3, 2, 3)
        idx_half = np.arange(36).reshape(dims).transpose(2, 1, 0, 3).ravel()
        idx_one = np.arange(36).reshape(dims).transpose(0, 3, 2, 1).ravel()
        for idx in (idx_half, idx_one):
            swapped = h[np.ix_(idx, idx)]
            assert np.abs(swapped - h).max() <= 1e-10


def test_four_site_spectrum_matches_level_ladder():
    for j2 in (0.0, 0.2, 0.45, 0.9):
        eigs = np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(4, 1.0, j2))))
        ladder = four_spin_levels(1.0, j2).eigenvalue_multiset()
        assert ladder.size == 36
        assert np.abs(np.sort(eigs) - ladder).max() <= 1e-10


def test_ground_energy_piecewise_linear_with_kinks():
    j2s = np.linspace(0.0, 1.0, 401)
    grounds = np.array([np.linalg.eigvalsh(dense_matrix(build_model(ModelSpec(4, 1.0, j))))
                        .min() for j in j2s])
    expected = np.array([four_spin_ground_energy(1.0, j) for j in j2s])
    assert np.abs(grounds - expected).max() <= 1e-10
    # continuity across the level crossings
    for kink in (0.25, 0.5):
        left = four_spin_ground_energy(1.0, kink - 1e-9)
        right = four_spin_ground_energy(1.0, kink + 1e-9)
        assert abs(left - right) < 1e-7


def test_build_model_dispatch():
    assert dense_matrix(build_model(ModelSpec(2))).shape == (6, 6)
    assert np.array_equal(dense_matrix(build_model(ModelSpec(4, j2=0.3))),
                          dense_matrix(build_model(ModelSpec(4, 1.0, 0.3))))
    assert np.array_equal(dense_matrix(build_model(ModelSpec(4, field_b=0.7))),
                          dense_matrix(build_model(ModelSpec(4, 1.0, field_b=0.7))))


def test_an_eight_site_bond_sum_holds_no_dense_block():
    # a term is its (D,) diagonal and one (state, flipped, value) hop list
    # per bond: under 0.2 MB at eight sites, where the total-Sz sector
    # blocks of one bond sum take 1.95 MB
    for bonds in (nn_bond_list, nnn_bond_list):
        term = models._bond_sum(8, bonds)
        arrays = [term.diagonal, *(array for hop in term.hops for array in hop)]
        assert len(term.hops) == len(bonds(8))
        assert all(array.ndim == 1 for array in arrays)
        assert sum(array.nbytes for array in arrays) < 0.2e6


@pytest.mark.parametrize("n", [3, 6, 8])
def test_a_term_with_repeated_hops_adds_each_one(n):
    # every bond's hops in one list, each twice at half its value: a pair
    # that repeats adds once per appearance, in diagonalize as in the
    # oracle, so the term is the bond sum and solves to the dense spectrum
    bond_sum = models._bond_sum(n, nn_bond_list)
    state, flipped, value = (np.concatenate([hop[i] for hop in bond_sum.hops] * 2)
                             for i in range(3))
    term = Term(bond_sum.diagonal, ((state, flipped, 0.5 * value),))
    h = Hamiltonian(terms=((1.0, term),), layout=ring_layout(n), spec=ModelSpec(n))
    dense = dense_hamiltonian(ModelSpec(n))
    assert np.array_equal(dense_matrix(h), dense)
    assert np.abs(diagonalize(h).eigenvalues - np.linalg.eigvalsh(dense)).max() <= 1e-10
