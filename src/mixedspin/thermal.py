"""Spectral decomposition, Gibbs states, and thermal observables.

One diagonalization serves every temperature for fixed couplings; all
Boltzmann weights are computed relative to the ground energy so that
inverse temperatures up to ~1e3 never overflow. A state at temperature T is
a weight vector over the eigenvectors (`state_weights`), and its pair states
come from the decomposition's pair blocks without forming a D x D matrix.
The dense `thermal_state` and `ground_manifold` matrices are the oracle for
that route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import Hamiltonian
from .spin_ops import SiteLayout, heisenberg_bond

# Eigenvectors within this relative distance of the minimum energy count as
# part of the ground manifold (eigensolver accuracy budget).
GROUND_DEGENERACY_RTOL = 1e-9

# Eigenvectors per matmul when building pair blocks: the temporaries stay a
# few MB instead of D x D.
PAIR_BLOCK_CHUNK = 128


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    layout: SiteLayout
    _pair_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

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


@dataclass(frozen=True)
class GroundManifoldState:
    """Equal-weight mixture over the (possibly degenerate) ground eigenspace."""

    matrix: np.ndarray
    degeneracy: int
    energy: float
    layout: SiteLayout


def diagonalize(h: Hamiltonian) -> SpectralDecomposition:
    """Dense symmetric eigensolve; raises LinAlgError if LAPACK fails to converge."""
    if not np.isfinite(h.matrix).all():
        raise ValueError("Hamiltonian contains non-finite entries")
    eigenvalues, eigenvectors = np.linalg.eigh(h.matrix)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors,
                                 layout=h.layout)


def boltzmann_weights(eigenvalues: np.ndarray, beta: float) -> np.ndarray:
    """Normalized weights exp(-beta(E - E_min)) / sum, safe for large beta."""
    shifted = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    return shifted / shifted.sum()


def ground_degeneracy(eigenvalues: np.ndarray) -> int:
    """Number of ascending eigenvalues within GROUND_DEGENERACY_RTOL of the lowest."""
    e_min = float(eigenvalues[0])
    tol = GROUND_DEGENERACY_RTOL * max(1.0, abs(e_min))
    return int(np.sum(eigenvalues <= e_min + tol))


def state_weights(eigenvalues: np.ndarray, temperature: float) -> np.ndarray:
    """Eigenvector weights of the Gibbs state, or of the ground-manifold mixture at T = 0."""
    if temperature == 0.0:
        weights = np.zeros(eigenvalues.shape[0])
        degeneracy = ground_degeneracy(eigenvalues)
        weights[:degeneracy] = 1.0 / degeneracy
        return weights
    return boltzmann_weights(eigenvalues, 1.0 / temperature)


def log_partition(eigenvalues: np.ndarray, beta: float) -> float:
    """log Z computed with the ground-energy shift."""
    e_min = eigenvalues.min()
    return float(np.log(np.sum(np.exp(-beta * (eigenvalues - e_min)))) - beta * e_min)


def thermal_state(spec: SpectralDecomposition, temperature: float) -> ThermalState:
    """Gibbs state at temperature > 0 (k_B = 1).

    Zero temperature is rejected; use ground_manifold for T = 0 queries so that
    degenerate level crossings stay well defined.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive; use ground_manifold for T = 0")
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


def ground_manifold(spec: SpectralDecomposition) -> GroundManifoldState:
    """Projector mixture over all eigenvectors within tolerance of E_min."""
    degeneracy = ground_degeneracy(spec.eigenvalues)
    v = spec.eigenvectors[:, :degeneracy]
    rho = (v @ v.T) / degeneracy
    rho = 0.5 * (rho + rho.T)
    return GroundManifoldState(matrix=rho, degeneracy=degeneracy,
                               energy=float(spec.eigenvalues[0]), layout=spec.layout)


def correlator(state: ThermalState | GroundManifoldState, site_a: int, site_b: int) -> float:
    """Expectation of the exchange operator s_a . s_b in the given state."""
    bond = heisenberg_bond(site_a, site_b, state.layout)
    return float(np.sum(state.matrix * bond))


def spectral_residuals(h: Hamiltonian, spec: SpectralDecomposition) -> tuple[float, float]:
    """Max relative eigenpair residual and orthonormality defect.

    Returns (max_i ||H v_i - E_i v_i|| / (max(1,|E_i|) sqrt(D)), ||V^T V - I||_inf).
    """
    hv = h.matrix @ spec.eigenvectors
    resid = hv - spec.eigenvectors * spec.eigenvalues
    norms = np.linalg.norm(resid, axis=0)
    scale = np.maximum(1.0, np.abs(spec.eigenvalues)) * math.sqrt(spec.dimension)
    ortho = spec.eigenvectors.T @ spec.eigenvectors - np.eye(spec.dimension)
    return float((norms / scale).max()), float(np.abs(ortho).max())
