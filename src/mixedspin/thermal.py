"""Spectral decomposition, Gibbs states, and thermal observables.

One diagonalization serves every temperature for fixed couplings; all
Boltzmann weights are computed relative to the ground energy so that
inverse temperatures up to ~1e3 never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Hamiltonian
from .spin_ops import SiteLayout, heisenberg_bond

# Eigenvectors within this relative distance of the minimum energy count as
# part of the ground manifold (eigensolver accuracy budget).
GROUND_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    layout: SiteLayout

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


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
    e_min = float(spec.eigenvalues[0])
    tol = GROUND_DEGENERACY_RTOL * max(1.0, abs(e_min))
    degeneracy = int(np.sum(spec.eigenvalues <= e_min + tol))
    v = spec.eigenvectors[:, :degeneracy]
    rho = (v @ v.T) / degeneracy
    rho = 0.5 * (rho + rho.T)
    return GroundManifoldState(matrix=rho, degeneracy=degeneracy, energy=e_min,
                               layout=spec.layout)


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
