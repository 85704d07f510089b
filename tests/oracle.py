"""Dense full-matrix oracles for the tests.

The package builds Hamiltonians one way, as total-Sz sector blocks from the
bond action on product states, and computes pair states one way:
eigenvector weights (`state_weights`) times pair blocks (`reduce_pair`).
The helpers here reach the same quantities through D x D matrices instead,
for the tests to compare against: any local operator embedded in the full
space by a Kronecker product (`embed`), the Hamiltonian as a sum of such
embedded bonds, the ground-manifold projector mixture, the negativity
of a reduced dense state, and the eigenpair residuals of a decomposition.
`dense_matrix` assembles a package Hamiltonian's terms and field as one
D x D matrix, and `sector_hamiltonian` turns any dense matrix into the
package's Hamiltonian, as one term.
The dense Gibbs matrix (`thermal_state`) and `partial_trace` stay in the
package, where the benchmark's own oracle uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mixedspin import (Hamiltonian, ModelSpec, SiteLayout, Term, partial_trace, ring_layout,
                       spin_matrices)
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


def total_spin_defect(spec: SpectralDecomposition) -> tuple[float, float]:
    """How far each eigenvector is from a total-spin eigenvector.

    Returns the largest distance of <v|S^2|v> from the nearest S(S+1), and
    the largest ||S^2 v - S(S+1) v|| for that S.
    """
    vectors = spec.eigenvectors
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


def dense_matrix(h: Hamiltonian) -> np.ndarray:
    """H with its field as a D x D matrix: per sector, the sum of coefficient times term block."""
    basis = product_basis(h.layout)
    matrix = np.zeros((h.layout.total_dimension,) * 2)
    (c0, t0), *rest = h.terms
    for k, rows in enumerate(basis.rows):
        matrix[np.ix_(rows, rows)] = sum((c * t.blocks[k] for c, t in rest), c0 * t0.blocks[k])
    if h.spec.field_b != 0.0:
        matrix += h.spec.field_b * np.diag(basis.m)
    return matrix


def sector_hamiltonian(matrix: np.ndarray, layout: SiteLayout, spec: ModelSpec) -> Hamiltonian:
    """A dense exchange matrix as a Hamiltonian of one term, coefficient 1; spec.field_b adds b*Sz.

    Raises ValueError if any entry couples two total-Sz sectors, which the
    term's sector blocks cannot hold.
    """
    blocks = tuple(matrix[np.ix_(rows, rows)] for rows in product_basis(layout).rows)
    if sum(np.count_nonzero(b) for b in blocks) != np.count_nonzero(matrix):
        raise ValueError("Hamiltonian does not conserve total Sz")
    return Hamiltonian(terms=((1.0, Term(blocks)),), layout=layout, spec=spec)


@dataclass(frozen=True)
class GroundManifoldState:
    """Equal-weight mixture over the (possibly degenerate) ground eigenspace."""

    matrix: np.ndarray
    degeneracy: int
    energy: float
    layout: SiteLayout


def ground_manifold(spec: SpectralDecomposition) -> GroundManifoldState:
    """Projector mixture over all eigenvectors within tolerance of E_min."""
    e_min = float(spec.eigenvalues.min())
    ground = spec.eigenvalues <= e_min + GROUND_DEGENERACY_RTOL * max(1.0, abs(e_min))
    v = spec.eigenvectors[:, ground]
    degeneracy = v.shape[1]
    rho = (v @ v.T) / degeneracy
    rho = 0.5 * (rho + rho.T)
    return GroundManifoldState(matrix=rho, degeneracy=degeneracy, energy=e_min,
                               layout=spec.layout)


def pair_negativity(state, keep: tuple[int, int]) -> float:
    """Negativity of a dense state's pair, through partial_trace."""
    return negativity(partial_trace(state, keep)).value


def spectral_residuals(h: Hamiltonian, spec: SpectralDecomposition) -> tuple[float, float]:
    """Max relative eigenpair residual and orthonormality defect.

    Returns (max_i ||H v_i - E_i v_i|| / (max(1,|E_i|) sqrt(D)), ||V^T V - I||_inf).
    """
    hv = dense_matrix(h) @ spec.eigenvectors
    resid = hv - spec.eigenvectors * spec.eigenvalues
    norms = np.linalg.norm(resid, axis=0)
    scale = np.maximum(1.0, np.abs(spec.eigenvalues)) * math.sqrt(spec.dimension)
    ortho = spec.eigenvectors.T @ spec.eigenvectors - np.eye(spec.dimension)
    return float((norms / scale).max()), float(np.abs(ortho).max())
