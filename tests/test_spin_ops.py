import numpy as np
import pytest

from mixedspin import HALF, ONE, SiteLayout, spin_matrices
from mixedspin.models import nn_bond_list, nnn_bond_list, ring_layout
from mixedspin.negativity import PairReducedState, partial_transpose
from mixedspin.spin_ops import pair_basis, product_basis
from oracle import embed, heisenberg_bond, total_sz


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


def test_layout_needs_a_site():
    with pytest.raises(ValueError, match="at least one site"):
        SiteLayout(())


@pytest.mark.parametrize("keep", [(0, 1.0), (True, 2), (0, 4), (-1, 2)])
def test_pair_order_takes_integer_sites_only(keep):
    # a float or a bool is no site index, even where it equals one
    with pytest.raises(ValueError, match="out of range"):
        ring_layout(4).pair_order(keep)


def test_pair_order_takes_numpy_integers():
    assert ring_layout(4).pair_order((np.int64(2), np.int64(0))) == (0, 2, 1, 3)


@pytest.mark.parametrize("dim_a, dim_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_pair_basis_against_brute_force(dim_a, dim_b):
    basis = pair_basis(dim_a, dim_b)
    assert pair_basis(dim_a, dim_b) is basis
    d, size = dim_a * dim_b, basis.places.shape[0]
    ab = [divmod(p, dim_b) for p in range(d)]
    assert np.array_equal(basis.label, [a + b for a, b in ab])
    # the direct partial-transpose map is partial_transpose of an index matrix
    index = np.arange(d * d).reshape(d, d)
    transpose = partial_transpose(PairReducedState(index, dim_a, dim_b, 0, 1))
    assert np.array_equal(basis.whole[0], np.stack((index, transpose))[:, None])
    # the zero column marks exactly the places of unequal a + b
    unequal = [sum(ab[p]) != sum(ab[q]) for p in range(d) for q in range(d)]
    assert np.array_equal(basis.entry == size, unequal)
    assert np.array_equal(basis.places[basis.diagonal], np.arange(d) * (d + 1))
    # each plan block holds exactly the entries of one a + b (the state) or
    # of one a - b (its partial transpose), and never the zero column
    for k, (matrix, value) in enumerate([(index, lambda a, b: a + b),
                                         (transpose, lambda a, b: a - b)]):
        rows = [[p for p in range(d) if value(*ab[p]) == v] for v in {value(*x) for x in ab}]
        expected = sorted(basis.entry[matrix[np.ix_(r, r)]].tolist() for r in rows)
        assert sorted(block.tolist() for places in basis.plan for block in places[k]) == expected
    assert all((places < size).all() for places in basis.plan)
    assert not any(array.flags.writeable for array in
                   (*basis[:4], *basis.plan, basis.diagonal, *basis.whole))


def _product_layouts():
    for n in range(2, 9):
        yield ring_layout(n)
    for kind in (HALF, ONE):
        for count in range(1, 5):
            yield SiteLayout((kind,) * count)


@pytest.mark.parametrize("layout", list(_product_layouts()),
                         ids=lambda layout: "".join(map(str, layout.dims)))
def test_product_basis_against_brute_force(layout):
    basis = product_basis(layout)
    assert product_basis(layout) is basis
    size = layout.total_dimension
    state = np.arange(size)
    assert np.array_equal(basis.digits, np.unravel_index(state, layout.dims))
    assert np.array_equal(basis.strides @ basis.digits, state)
    # the total m of the Kronecker product, one site's sz diagonal at a time
    m = np.zeros(1)
    for s in layout.spins:
        m = np.add.outer(m, np.diag(spin_matrices(s).sz)).ravel()
    assert np.array_equal(basis.m, m)
    values = np.unique(m)
    assert len(basis.rows) == len(values)
    for k, (value, rows) in enumerate(zip(values, basis.rows)):
        side = rows.shape[0]
        assert np.array_equal(rows, np.flatnonzero(m == value))
        assert np.array_equal(np.sort(size - 1 - rows), basis.rows[len(values) - 1 - k])
        assert np.array_equal(basis.place[rows], np.arange(side))
    assert np.array_equal(basis.sector_m, np.repeat(values, [len(r) for r in basis.rows]))
    assert not any(array.flags.writeable for array in
                   (basis.digits, basis.strides, basis.m, *basis.rows, basis.sector_m,
                    basis.place))
