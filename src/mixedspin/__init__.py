"""Exact diagonalization and thermal negativity for (1/2,1) Heisenberg rings."""

__version__ = "0.1.0"

from .models import Hamiltonian, ModelSpec, build_model, ring_layout
from .negativity import (NegativityResult, PairKind, PairReducedState,
                         negativity, pair_negativity, partial_trace,
                         partial_transpose, schmidt_negativity, su2_negativity,
                         su2_signed)
from .spin_ops import (HALF, ONE, SiteLayout, SpinMagnitude, embed,
                       heisenberg_bond, spin_matrices, total_sz)
from .sweeps import (EPS_NONZERO, Axis, PairSelector, SpectralCache,
                     SweepRequest, SweepResult, ThresholdResult, find_threshold,
                     resolve_pairs, run_sweep, threshold_curve)
from .thermal import (GroundManifoldState, SpectralDecomposition, ThermalState,
                      correlator, diagonalize, ground_manifold, internal_energy,
                      log_partition, thermal_state)

__all__ = [
    "__version__",
    "HALF", "ONE", "SpinMagnitude", "SiteLayout", "spin_matrices", "embed",
    "heisenberg_bond", "total_sz",
    "ModelSpec", "Hamiltonian", "ring_layout", "build_model",
    "SpectralDecomposition", "ThermalState", "GroundManifoldState", "diagonalize",
    "thermal_state", "internal_energy", "ground_manifold", "correlator",
    "log_partition",
    "PairKind", "PairReducedState", "NegativityResult", "partial_trace",
    "partial_transpose", "negativity", "pair_negativity", "schmidt_negativity",
    "su2_negativity", "su2_signed",
    "Axis", "SweepRequest", "SweepResult", "ThresholdResult", "PairSelector",
    "SpectralCache", "EPS_NONZERO", "run_sweep", "find_threshold",
    "threshold_curve", "resolve_pairs",
]
