import numpy as np

from mixedspin import (Hamiltonian, ModelSpec, diagonalize, log_partition,
                       ring_layout)
from mixedspin.analytic import four_spin_log_partition
from mixedspin.models import _bond_sum, nn_bond_list, nnn_bond_list
from mixedspin import verify


def test_run_all_small_battery_passes():
    results = verify.run_all(max_n=3)
    assert results
    failures = [r for r in results if r.status == "fail"]
    assert failures == []
    infos = [r for r in results if r.status == "info"]
    assert infos          # recomputed constants are reported, not failed
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_check_results_have_details_where_quoted():
    results = verify.recomputed_constants(max_n=4)
    assert all(r.status == "info" for r in results)
    assert any("quoted" in r.detail for r in results)


def test_property_suite_is_deterministic():
    a = verify.check_property_suite(seed=7)
    b = verify.check_property_suite(seed=7)
    assert [(r.name, r.measured) for r in a] == [(r.name, r.measured) for r in b]


def test_fault_injection_halved_coupling_is_caught():
    # a wrong next-nearest convention (coefficient halved) must trip the
    # partition-function comparison by a wide margin, not slip under it
    j1, j2, beta = 1.0, 0.4, 2.0
    broken = j1 * _bond_sum(4, nn_bond_list) + 0.5 * j2 * _bond_sum(4, nnn_bond_list)
    decomp = diagonalize(Hamiltonian(matrix=broken, layout=ring_layout(4),
                                     spec=ModelSpec(4, j1=j1, j2=j2)))
    numeric = log_partition(decomp.eigenvalues, beta)
    closed = four_spin_log_partition(beta, j1, j2)
    assert abs(numeric - closed) > 1e-2        # fails the 1e-10 check loudly
    # and the correct construction passes the same comparison
    from mixedspin import build_model
    good = diagonalize(build_model(ModelSpec(4, j1, j2)))
    assert abs(log_partition(good.eigenvalues, beta) - closed) <= 1e-10


def test_fault_injection_wrong_ladder_multiplicity():
    # the level-ladder multiset comparison distinguishes the correct 2S+1
    # multiplicities from a flat assignment
    from mixedspin import build_model
    from mixedspin.analytic import four_spin_levels
    decomp = diagonalize(build_model(ModelSpec(4, 1.0, 0.3)))
    ladder = four_spin_levels(1.0, 0.3)
    flat = np.sort(np.repeat([e for e, _ in ladder.levels], 36 // 10 + 1)[:36])
    correct = ladder.eigenvalue_multiset()
    assert np.abs(np.sort(decomp.eigenvalues) - correct).max() <= 1e-10
    assert np.abs(np.sort(decomp.eigenvalues) - flat).max() > 1e-2
