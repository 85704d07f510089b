"""Spectral decomposition, Gibbs states, and thermal observables.

Every ring Hamiltonian conserves total Sz, so `diagonalize` solves it one
magnetization sector at a time and records each eigenvector's M. The field
term b*Sz is constant on a sector, so at field b the energies are E_i + b*M_i
on the same eigenvectors: one diagonalization serves every temperature and
every field for fixed exchange couplings. Boltzmann weights are computed
relative to the lowest energy so that inverse temperatures up to ~1e3 never
overflow, and nothing assumes the energies are sorted. A state at
temperature T is a weight vector over the eigenvectors (`state_weights`), and
its pair states come from the decomposition's pair blocks without forming a
D x D matrix. Many points on one decomposition are one stack: `energies`,
`state_weights` and `log_partition` take a (k, D) stack of spectra, one row
per point, and give each row what a single spectrum would get, bit for bit.

The dense Gibbs matrix (`ThermalState`, `thermal_state`) and
`internal_energy` run in no sweep, threshold or `verify` check. They stay
because `perfbench/oracles.py` recomputes sampled benchmark rows through
that independent D x D route, and the tests use it as the oracle of the
weights route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import Hamiltonian
from .spin_ops import SiteLayout, basis_magnetization

# Eigenvectors within this relative distance of the minimum energy count as
# part of the ground manifold (eigensolver accuracy budget).
GROUND_DEGENERACY_RTOL = 1e-9

# Eigenvectors per matmul when building pair blocks: the temporaries stay a
# few MB instead of D x D.
PAIR_BLOCK_CHUNK = 128


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, orthonormal eigenvectors (columns) and their total Sz."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    magnetizations: np.ndarray
    layout: SiteLayout
    _pair_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def energies(self, field_b: float | np.ndarray) -> np.ndarray:
        """Eigenvalues once field_b * Sz is added: same eigenvectors, not sorted.

        A (k, 1) array of fields gives a (k, D) stack, one spectrum per row.
        """
        return self.eigenvalues + field_b * self.magnetizations

    def pair_blocks(self, keep: tuple[int, int]) -> np.ndarray:
        """Row i is Tr_rest |v_i><v_i| on the two kept sites, flattened.

        The kept sites come first in ascending order, as in partial_trace.
        Built once per pair and kept on this decomposition, so the blocks
        live exactly as long as it does.
        """
        order = self.layout.pair_order(keep)
        key = order[:2]
        if key not in self._pair_blocks:
            dims = self.layout.dims
            d_keep = dims[key[0]] * dims[key[1]]
            blocks = np.empty((self.dimension, d_keep * d_keep))
            axes = (0, *(1 + i for i in order))
            for start in range(0, self.dimension, PAIR_BLOCK_CHUNK):
                vecs = self.eigenvectors[:, start:start + PAIR_BLOCK_CHUNK].T
                k = vecs.shape[0]
                m = vecs.reshape(k, *dims).transpose(axes).reshape(k, d_keep, -1)
                blocks[start:start + k] = (m @ m.transpose(0, 2, 1)).reshape(k, -1)
            self._pair_blocks[key] = blocks
        return self._pair_blocks[key]


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state exp(-beta H)/Z as a dense real symmetric matrix."""

    matrix: np.ndarray
    beta: float
    log_z: float
    layout: SiteLayout


def diagonalize(h: Hamiltonian) -> SpectralDecomposition:
    """Symmetric eigensolve one total-Sz sector at a time.

    Each sector's block is sliced out of the dense matrix by index and solved
    on its own; its eigenvectors go back into the full basis on the sector's
    rows, in the columns that put all eigenvalues in ascending order. Raises
    ValueError if the matrix couples two sectors, LinAlgError if LAPACK fails
    to converge.
    """
    if not np.isfinite(h.matrix).all():
        raise ValueError("Hamiltonian contains non-finite entries")
    m = basis_magnetization(h.layout)
    sectors = [np.flatnonzero(m == value) for value in sorted(set(m.tolist()))]
    blocks = [h.matrix[np.ix_(rows, rows)] for rows in sectors]
    if sum(np.count_nonzero(b) for b in blocks) != np.count_nonzero(h.matrix):
        raise ValueError("Hamiltonian does not conserve total Sz")
    solved = [np.linalg.eigh(b) for b in blocks]
    eigenvalues = np.concatenate([e for e, _ in solved])
    order = np.argsort(eigenvalues, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.shape[0])
    eigenvectors = np.zeros_like(h.matrix)
    start = 0
    for rows, (_, vecs) in zip(sectors, solved):
        eigenvectors[np.ix_(rows, column[start:start + rows.shape[0]])] = vecs
        start += rows.shape[0]
    magnetizations = np.concatenate([m[rows] for rows in sectors])
    return SpectralDecomposition(eigenvalues=eigenvalues[order], eigenvectors=eigenvectors,
                                 magnetizations=magnetizations[order], layout=h.layout)


def boltzmann_weights(eigenvalues: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    """Normalized weights exp(-beta(E - E_min)) / sum, safe for large beta.

    For a (k, D) stack each row is shifted and normalized on its own; beta is
    a number or a (k, 1) column.
    """
    weights = -beta * (eigenvalues - eigenvalues.min(axis=-1, keepdims=True))
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _ground_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Which eigenvalues, in any order, lie within GROUND_DEGENERACY_RTOL of their row's lowest."""
    e_min = eigenvalues.min(axis=-1, keepdims=True)
    return eigenvalues <= e_min + GROUND_DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))


def ground_degeneracy(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues within GROUND_DEGENERACY_RTOL of the lowest."""
    return int(np.count_nonzero(_ground_mask(eigenvalues)))


def state_weights(eigenvalues: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    """Eigenvector weights of the Gibbs state, or of the ground-manifold mixture at T = 0.

    Takes one spectrum and a temperature, or a (k, D) stack of spectra and
    one temperature per row; rows at T = 0 and T > 0 may share a stack.
    """
    t = np.asarray(temperature, dtype=float)[..., None]
    zero = t == 0.0
    weights = boltzmann_weights(eigenvalues, 1.0 / np.where(zero, 1.0, t))
    if zero.any():
        ground = _ground_mask(eigenvalues)
        weights = np.where(zero, ground / np.count_nonzero(ground, axis=-1, keepdims=True),
                           weights)
    return weights


def log_partition(eigenvalues: np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """log Z computed with the ground-energy shift.

    A float for one spectrum; for a (k, D) stack and a (k, 1) column of
    beta, one value per row.
    """
    e_min = eigenvalues.min(axis=-1, keepdims=True)
    terms = -beta * (eigenvalues - e_min)
    z = np.sum(np.exp(terms, out=terms), axis=-1, keepdims=True)
    log_z = (np.log(z) - beta * e_min)[..., 0]
    return float(log_z) if log_z.ndim == 0 else log_z


def thermal_state(spec: SpectralDecomposition, temperature: float) -> ThermalState:
    """Gibbs state at temperature > 0 (k_B = 1).

    Zero temperature is rejected; state_weights(E, 0.0) gives the T = 0
    ground-manifold mixture, so that degenerate level crossings stay well
    defined.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive; use state_weights for T = 0")
    beta = 1.0 / temperature
    w = boltzmann_weights(spec.eigenvalues, beta)
    rho = (spec.eigenvectors * w) @ spec.eigenvectors.T
    rho = 0.5 * (rho + rho.T)
    return ThermalState(matrix=rho, beta=beta,
                        log_z=log_partition(spec.eigenvalues, beta),
                        layout=spec.layout)


def internal_energy(spec: SpectralDecomposition, beta: float) -> float:
    """Thermal expectation of the Hamiltonian, sum_i E_i w_i."""
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return float(np.dot(spec.eigenvalues, boltzmann_weights(spec.eigenvalues, beta)))
