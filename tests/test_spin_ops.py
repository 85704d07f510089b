import numpy as np
import pytest

from mixedspin import HALF, ONE, SiteLayout, embed, heisenberg_bond, \
    spin_matrices, total_sz
from mixedspin.models import nn_bond_list, nnn_bond_list, ring_layout


def test_spin_half_matrices():
    ops = spin_matrices(HALF)
    assert np.array_equal(ops.sz, np.diag([0.5, -0.5]))
    assert np.array_equal(ops.splus, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(ops.sminus, ops.splus.T)


def test_spin_one_matrices():
    ops = spin_matrices(ONE)
    assert np.array_equal(ops.sz, np.diag([1.0, 0.0, -1.0]))
    # ladder coefficients sqrt(s(s+1) - M(M+1)): |0> -> sqrt(2)|1>, |-1> -> sqrt(2)|0>
    root2 = np.sqrt(2.0)
    assert np.allclose(ops.splus, [[0, root2, 0], [0, 0, root2], [0, 0, 0]])
    assert np.array_equal(ops.sminus, ops.splus.T)


@pytest.mark.parametrize("s", [HALF, ONE])
def test_ladder_algebra(s):
    ops = spin_matrices(s)
    sx = 0.5 * (ops.splus + ops.sminus)
    # [s+, s-] = 2 sz and [sz, s+] = s+
    assert np.allclose(ops.splus @ ops.sminus - ops.sminus @ ops.splus, 2.0 * ops.sz)
    assert np.allclose(ops.sz @ ops.splus - ops.splus @ ops.sz, ops.splus)
    casimir = ops.sz @ ops.sz + sx @ sx + 0.25 * (
        (ops.splus - ops.sminus) @ (ops.sminus - ops.splus))
    expected = s.spin * (s.spin + 1.0) * np.eye(s.dimension)
    assert np.allclose(casimir, expected, atol=1e-14)


def test_dimension_matches_spin():
    assert HALF.dimension == 2
    assert ONE.dimension == 3
    for s in (HALF, ONE):
        assert s.dimension == round(2 * s.spin + 1)


def test_embed_identity_is_identity():
    layout = SiteLayout((HALF, ONE, HALF))
    out = embed(np.eye(3), (1,), layout)
    assert np.array_equal(out, np.eye(layout.total_dimension))


def test_embed_sz_site0():
    layout = SiteLayout((HALF, ONE))
    out = embed(spin_matrices(HALF).sz, (0,), layout)
    assert np.array_equal(out, np.diag([0.5, 0.5, 0.5, -0.5, -0.5, -0.5]))


def test_embed_traceless():
    layout = SiteLayout((HALF, ONE))
    out = embed(spin_matrices(ONE).sz, (1,), layout)
    assert abs(np.trace(out)) == 0.0


def test_embed_trace_scaling():
    layout = SiteLayout((HALF, ONE, HALF, ONE))
    op = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = embed(op, (2,), layout)
    assert np.isclose(np.trace(out), np.trace(op) * layout.total_dimension / 2)


def test_embed_dimension_mismatch():
    layout = SiteLayout((HALF, ONE))
    with pytest.raises(ValueError, match="dimension"):
        embed(np.eye(3), (0,), layout)
    with pytest.raises(ValueError, match="out of range"):
        embed(np.eye(2), (5,), layout)


def test_bond_half_one_spectrum():
    # coupling 1/2 with 1 gives j in {1/2, 3/2} at E = (j(j+1) - 3/4 - 2)/2
    layout = SiteLayout((HALF, ONE))
    eigs = np.linalg.eigvalsh(heisenberg_bond(0, 1, layout))
    assert np.allclose(np.sort(eigs), [-1, -1, 0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_bond_half_half_spectrum():
    layout = SiteLayout((HALF, HALF))
    eigs = np.linalg.eigvalsh(heisenberg_bond(0, 1, layout))
    assert np.allclose(np.sort(eigs), [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_bond_is_symmetric_and_order_free():
    layout = SiteLayout((HALF, ONE, HALF))
    b01 = heisenberg_bond(0, 1, layout)
    assert np.abs(b01 - b01.T).max() == 0.0
    assert np.array_equal(b01, heisenberg_bond(1, 0, layout))
    assert abs(np.trace(b01)) < 1e-14


def test_bond_rejects_out_of_range_sites():
    layout = SiteLayout((HALF, ONE))
    for sites in [(0, 5), (5, 0)]:
        with pytest.raises(ValueError, match="out of range"):
            heisenberg_bond(*sites, layout)


def test_bond_conserves_total_sz():
    layout = SiteLayout((HALF, ONE, HALF, ONE))
    sz = total_sz(layout)
    for a, b in [(0, 1), (1, 2), (0, 3)]:
        bond = heisenberg_bond(a, b, layout)
        assert np.abs(sz @ bond - bond @ sz).max() <= 1e-12


def test_embedded_operators_on_distinct_sites_commute():
    layout = SiteLayout((HALF, ONE, HALF))
    a = embed(spin_matrices(HALF).splus, (0,), layout)
    b = embed(spin_matrices(ONE).sz, (1,), layout)
    assert np.abs(a @ b - b @ a).max() <= 1e-12


def test_bond_equals_vector_dot_product():
    # ladder form must equal sx sx + sy sy + sz sz built with complex sy
    layout = SiteLayout((HALF, ONE))
    za, pa, ma = spin_matrices(HALF)
    zb, pb, mb = spin_matrices(ONE)
    sxa, sya = 0.5 * (pa + ma), -0.5j * (pa - ma)
    sxb, syb = 0.5 * (pb + mb), -0.5j * (pb - mb)
    dot = np.kron(sxa, sxb) + np.kron(sya, syb) + np.kron(za, zb)
    assert np.abs(heisenberg_bond(0, 1, layout) - dot).max() < 1e-14


def test_embed_rejects_same_site():
    layout = SiteLayout((HALF, ONE))
    with pytest.raises(ValueError, match="distinct"):
        embed(np.kron(np.eye(2), np.eye(2)), (0, 0), layout)


def _chain(factors, layout):
    """Reference embedding: Kronecker chain of one factor per site, identity elsewhere."""
    out = np.eye(1)
    for site, dim in enumerate(layout.dims):
        out = np.kron(out, factors.get(site, np.eye(dim)))
    return out


def test_embed_matches_kronecker_chain():
    layout = SiteLayout((HALF, ONE, HALF, ONE, HALF))
    rng = np.random.default_rng(7)
    ops = {site: rng.standard_normal((d, d)) for site, d in enumerate(layout.dims)}
    for sites in [(0,), (4,), (1, 3), (3, 1), (4, 0), (0, 2, 4)]:
        local = np.eye(1)
        for site in sites:
            local = np.kron(local, ops[site])
        reference = _chain({site: ops[site] for site in sites}, layout)
        assert np.array_equal(embed(local, sites, layout), reference)
    # a non-product two-site operator, given in either site order; the
    # reference places each matrix unit |ia ib><ja jb| as a product chain
    a, b = 1, 4
    pair = rng.standard_normal((6, 6))
    swapped = pair.reshape(3, 2, 3, 2).transpose(1, 0, 3, 2).reshape(6, 6)
    reference = np.zeros((layout.total_dimension,) * 2)
    for row in range(6):
        for col in range(6):
            (ia, ib), (ja, jb) = divmod(row, 2), divmod(col, 2)
            reference += pair[row, col] * _chain(
                {a: np.outer(np.eye(3)[ia], np.eye(3)[ja]),
                 b: np.outer(np.eye(2)[ib], np.eye(2)[jb])}, layout)
    assert np.array_equal(embed(pair, (a, b), layout), reference)
    assert np.array_equal(embed(swapped, (b, a), layout), reference)
    # every ring bond is its three-term product-chain sum; total Sz is the
    # sum of the embedded one-site sz
    for n in range(2, 7):
        layout = ring_layout(n)
        bonds = nn_bond_list(n) + (nnn_bond_list(n) if n % 2 == 0 and n >= 4 else [])
        for a, b in bonds:
            za, pa, ma = spin_matrices(layout.spins[a])
            zb, pb, mb = spin_matrices(layout.spins[b])
            reference = _chain({a: za, b: zb}, layout) + 0.5 * _chain({a: pa, b: mb}, layout) \
                + 0.5 * _chain({a: ma, b: pb}, layout)
            assert np.array_equal(heisenberg_bond(a, b, layout), reference)
        sz = sum(embed(spin_matrices(s).sz, (site,), layout)
                 for site, s in enumerate(layout.spins))
        assert np.array_equal(total_sz(layout), sz)
