"""Exact diagonalization and thermal negativity for (1/2,1) Heisenberg rings."""

__version__ = "0.1.0"

from .models import Hamiltonian, ModelSpec, build_model, ring_layout
from .negativity import (NegativityResult, PairKind, PairReducedState,
                         correlator, negativity, partial_trace, partial_transpose,
                         reduce_pair, schmidt_negativity, su2_negativity,
                         su2_signed)
from .spin_ops import HALF, ONE, SiteLayout, SpinMagnitude, spin_matrices
from .sweeps import (EPS_NONZERO, Axis, PairSelector, SweepRequest, SweepResult,
                     ThresholdResult, find_threshold, resolve_pairs, run_sweep,
                     threshold_curve)
from .thermal import (SpectralDecomposition, ThermalState, diagonalize,
                      internal_energy, log_partition, state_weights, thermal_state)

__all__ = [
    "__version__",
    "HALF", "ONE", "SpinMagnitude", "SiteLayout", "spin_matrices",
    "ModelSpec", "Hamiltonian", "ring_layout", "build_model",
    "SpectralDecomposition", "ThermalState", "diagonalize", "state_weights",
    "thermal_state", "internal_energy", "log_partition",
    "PairKind", "PairReducedState", "NegativityResult", "reduce_pair",
    "partial_trace", "partial_transpose", "negativity", "schmidt_negativity",
    "correlator", "su2_negativity", "su2_signed",
    "Axis", "SweepRequest", "SweepResult", "ThresholdResult", "PairSelector",
    "EPS_NONZERO", "run_sweep", "find_threshold", "threshold_curve",
    "resolve_pairs",
]
