"""Exact diagonalization and thermal negativity for (1/2,1) Heisenberg rings."""

import os
import sys

__version__ = "0.1.0"

# Every eigensolve here is small (76 x 76 at most up to eight sites), and a
# BLAS pool of one thread per core buys no wall time on it while its idle
# threads spin and the thread count changes the last bits of a result. So
# the BLAS runs one thread unless the user set a thread count, or numpy was
# loaded before this package and its pool is already sized.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in THREAD_VARIABLES):
    os.environ["OMP_NUM_THREADS"] = "1"

from .models import Hamiltonian, ModelSpec, build_model, ring_layout
# `mixedspin.negativity` is the submodule; its function of that name is
# `mixedspin.negativity.negativity`
from .negativity import (NegativityResult, PairKind, PairReducedState, correlator,
                         partial_trace, partial_transpose, reduce_pair, su2_signed)
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
    "partial_trace", "partial_transpose", "correlator", "su2_signed",
    "Axis", "SweepRequest", "SweepResult", "ThresholdResult", "PairSelector",
    "EPS_NONZERO", "run_sweep", "find_threshold", "threshold_curve",
    "resolve_pairs",
]
