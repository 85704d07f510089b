"""Dense full-matrix oracles for the tests.

The package computes pair states one way: eigenvector weights
(`state_weights`) times pair blocks (`reduce_pair`). The helpers here
reach the same quantities through D x D matrices instead, for the tests to
compare against: the ground-manifold projector mixture, the negativity of a
reduced dense state, and the eigenpair residuals of a decomposition. The
dense Gibbs matrix (`thermal_state`) and `partial_trace` stay in the package,
where the benchmark's own oracle uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mixedspin import Hamiltonian, SiteLayout, negativity, partial_trace
from mixedspin.thermal import GROUND_DEGENERACY_RTOL, SpectralDecomposition


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
    hv = h.matrix @ spec.eigenvectors
    resid = hv - spec.eigenvectors * spec.eigenvalues
    norms = np.linalg.norm(resid, axis=0)
    scale = np.maximum(1.0, np.abs(spec.eigenvalues)) * math.sqrt(spec.dimension)
    ortho = spec.eigenvectors.T @ spec.eigenvectors - np.eye(spec.dimension)
    return float((norms / scale).max()), float(np.abs(ortho).max())
