"""Dense full-matrix oracles for the tests.

The package builds Hamiltonians one way, as a diagonal and hop lists from
the bond action on product states (`models.Term`), and computes pair states
one way: eigenvector weights (`state_weights`) times pair blocks
(`reduce_pair`). The helpers here reach the same quantities through D x D
matrices instead, for the tests to compare against: any local operator
embedded in the full space by a Kronecker product (`embed`), the
Hamiltonian as a sum of such embedded bonds, the ground-manifold projector
mixture, the negativity of a reduced dense state, and the eigenpair
residuals of a decomposition, and the Gibbs state or ground mixture of
dense eigenpairs (`dense_state`). `eigenvectors` assembles a decomposition's
D x D eigenvector matrix from its sectors, `term_matrix` a term's hops as a
D x D matrix, `dense_matrix` a package Hamiltonian's terms and field, and
`sector_hamiltonian` turns any dense matrix into the package's
Hamiltonian, as one term; every dense view of a term is built here.
The dense Gibbs matrix (`thermal_state`, built sector by sector) and
`partial_trace` stay in the package, where the benchmark's own oracle uses
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mixedspin import (Hamiltonian, ModelSpec, SiteLayout, Term, ThermalState, partial_trace,
                       ring_layout, spin_matrices)
from mixedspin.models import nn_bond_list, nnn_bond_list
from mixedspin.negativity import negativity
from mixedspin.spin_ops import product_basis
from mixedspin.thermal import GROUND_DEGENERACY_RTOL, SpectralDecomposition


def embed(op: np.ndarray, sites: tuple[int, ...], layout: SiteLayout) -> np.ndarray:
    """Embed an operator on the ordered sites (a product or not) in the full space.

    op acts on the Kronecker product of the sites in the order given, so
    embed(kron(a, b), (i, j)) and embed(kron(b, a), (j, i)) are the same.
    """
    for site in sites:
        layout.check_site(site)
    if len(set(sites)) != len(sites):
        raise ValueError(f"sites must be distinct, got {sites}")
    dims = layout.dims
    d_op = int(np.prod([dims[s] for s in sites]))
    if op.shape != (d_op, d_op):
        raise ValueError(f"operator is {op.shape} but sites {sites} have dimension {d_op}")
    # kron(op, I) orders the factors sites + rest; one transpose puts them back.
    order = list(sites) + [i for i in range(len(dims)) if i not in sites]
    back = list(np.argsort(order))
    shape = [dims[i] for i in order] * 2
    full = np.kron(op, np.eye(layout.total_dimension // d_op)).reshape(shape)
    full = full.transpose(back + [len(dims) + i for i in back])
    return full.reshape(layout.total_dimension, layout.total_dimension)


def heisenberg_bond(site_a: int, site_b: int, layout: SiteLayout) -> np.ndarray:
    """Isotropic exchange s_a . s_b embedded in the full space.

    Assembled as sz sz + (s+ s- + s- s+)/2, which equals the vector dot
    product and is exactly real symmetric.
    """
    layout.check_site(site_a)
    layout.check_site(site_b)
    a = spin_matrices(layout.spins[site_a])
    b = spin_matrices(layout.spins[site_b])
    bond = np.kron(a.sz, b.sz) + 0.5 * np.kron(a.splus, b.sminus) \
        + 0.5 * np.kron(a.sminus, b.splus)
    return embed(bond, (site_a, site_b), layout)


def total_sz(layout: SiteLayout) -> np.ndarray:
    """Sum of all embedded z operators: the diagonal of each product state's total m."""
    return np.diag(product_basis(layout).m)


@lru_cache(maxsize=None)
def dense_bond_sum(n: int, bond_list) -> np.ndarray:
    """Sum of the embedded unit Heisenberg bonds over bond_list(n), as a D x D matrix."""
    layout = ring_layout(n)
    h = sum(heisenberg_bond(a, b, layout) for a, b in bond_list(n))
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def total_spin_squared(layout: SiteLayout) -> np.ndarray:
    """S^2 = sum over all site pairs a, b of s_a . s_b, from the embedded bonds, as a D x D matrix."""
    n = len(layout.spins)
    pairs = sum(heisenberg_bond(a, b, layout) for a in range(n) for b in range(a + 1, n))
    s2 = 2.0 * pairs + sum(s.spin * (s.spin + 1.0) for s in layout.spins) * np.eye(pairs.shape[0])
    s2.setflags(write=False)
    return s2


def eigenvectors(spec: SpectralDecomposition) -> np.ndarray:
    """A decomposition's orthonormal eigenvectors as D x D columns, from its sectors.

    Raises ValueError on a decomposition diagonalized for a window of
    points, which holds only the window's eigenvectors.
    """
    if sum(sector.columns.shape[-1] for sector in spec.sectors) != spec.dimension:
        raise ValueError("a windowed decomposition holds only its window's eigenvectors")
    vectors = np.zeros((spec.dimension, spec.dimension))
    for rows, sector in zip(product_basis(spec.layout).rows, spec.sectors):
        vectors[np.ix_(rows, sector.columns)] = sector.vectors
    return vectors


def total_spin_defect(spec: SpectralDecomposition) -> tuple[float, float]:
    """How far each eigenvector is from a total-spin eigenvector.

    Returns the largest distance of <v|S^2|v> from the nearest S(S+1), and
    the largest ||S^2 v - S(S+1) v|| for that S.
    """
    vectors = eigenvectors(spec)
    s2v = total_spin_squared(spec.layout) @ vectors
    expectation = np.einsum("ij,ij->j", vectors, s2v)
    spin = 0.5 * np.rint(np.sqrt(4.0 * expectation + 1.0) - 1.0)
    exact = spin * (spin + 1.0)
    return (float(np.abs(expectation - exact).max()),
            float(np.linalg.norm(s2v - vectors * exact, axis=0).max()))


def dense_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """The model's D x D matrix from the embedded bonds and, with a field, the embedded total Sz."""
    n = spec.n_sites
    h = spec.j1 * dense_bond_sum(n, nn_bond_list)
    if spec.field_b != 0.0:
        h = h + spec.field_b * total_sz(ring_layout(n))
    elif spec.j2 != 0.0:
        h = h + spec.j2 * dense_bond_sum(n, nnn_bond_list)
    return h


def term_matrix(term: Term) -> np.ndarray:
    """A term as a D x D matrix: its diagonal, plus each hop at (state, flipped) and
    (flipped, state), added in hop-list order, a repeated pair once per appearance."""
    matrix = np.diag(term.diagonal)
    for state, flipped, value in term.hops:
        np.add.at(matrix, (state, flipped), value)
        np.add.at(matrix, (flipped, state), value)
    return matrix


def dense_matrix(h: Hamiltonian) -> np.ndarray:
    """H with its field as a D x D matrix: the sum of coefficient times term matrix."""
    (c0, t0), *rest = h.terms
    matrix = sum((c * term_matrix(t) for c, t in rest), c0 * term_matrix(t0))
    if h.spec.field_b != 0.0:
        matrix += h.spec.field_b * np.diag(product_basis(h.layout).m)
    return matrix


def sector_hamiltonian(matrix: np.ndarray, layout: SiteLayout, spec: ModelSpec) -> Hamiltonian:
    """A symmetric dense exchange matrix as a Hamiltonian of one term, coefficient 1.

    The term holds the diagonal, and one hop per nonzero entry below it;
    spec.field_b adds b*Sz. `diagonalize` refuses an entry that couples two
    total-Sz sectors.
    """
    state, flipped = np.nonzero(np.tril(matrix, -1))
    term = Term(np.diag(matrix).copy(), ((state, flipped, matrix[state, flipped]),))
    return Hamiltonian(terms=((1.0, term),), layout=layout, spec=spec)


@dataclass(frozen=True)
class GroundManifoldState:
    """Equal-weight mixture over the (possibly degenerate) ground eigenspace."""

    matrix: np.ndarray
    degeneracy: int
    energy: float
    layout: SiteLayout


def ground_manifold(spec: SpectralDecomposition) -> GroundManifoldState:
    """Projector mixture over all eigenvectors within tolerance of E_min."""
    return dense_state(spec.eigenvalues, eigenvectors(spec), spec.layout, 0.0)


def dense_state(values: np.ndarray, vectors: np.ndarray, layout: SiteLayout,
                temperature: float) -> ThermalState | GroundManifoldState:
    """The Gibbs state (T > 0) or ground mixture (T = 0) of dense eigenpairs (numpy's eigh)."""
    e_min = values.min()
    if temperature == 0.0:
        ground = vectors[:, values <= e_min + GROUND_DEGENERACY_RTOL * max(1.0, abs(e_min))]
        rho = ground @ ground.T / ground.shape[1]
        return GroundManifoldState(matrix=rho, degeneracy=ground.shape[1],
                                   energy=float(e_min), layout=layout)
    w = np.exp(-(values - e_min) / temperature)
    rho = (vectors * (w / w.sum())) @ vectors.T
    return ThermalState(matrix=rho, beta=1.0 / temperature, log_z=0.0, layout=layout)


def pair_negativity(state, keep: tuple[int, int]) -> float:
    """Negativity of a dense state's pair, through partial_trace."""
    return negativity(partial_trace(state, keep)).value


def spectral_residuals(h: Hamiltonian, spec: SpectralDecomposition) -> tuple[float, float]:
    """Max relative eigenpair residual and orthonormality defect.

    Returns (max_i ||H v_i - E_i v_i|| / (max(1,|E_i|) sqrt(D)), ||V^T V - I||_inf).
    """
    vectors = eigenvectors(spec)
    resid = dense_matrix(h) @ vectors - vectors * spec.eigenvalues
    norms = np.linalg.norm(resid, axis=0)
    scale = np.maximum(1.0, np.abs(spec.eigenvalues)) * math.sqrt(spec.dimension)
    ortho = vectors.T @ vectors - np.eye(spec.dimension)
    return float((norms / scale).max()), float(np.abs(ortho).max())
