"""Two-site reduction, partial transpose, and negativity.

`reduce_pair` takes pair states straight from a decomposition's pair blocks
and eigenvector weights: one weight vector gives one pair state, a (k, D)
stack of weight rows gives a (k, d, d) stack of them. It is the only
reduction that sweeps, thresholds and `verify` run. `partial_trace` of a
dense D x D state stays because `perfbench/oracles.py` reduces its dense
Gibbs matrices with it, an independent route against which the benchmark
checks sampled rows; the tests use it as the oracle of `reduce_pair`.

Negativity is the sum of the absolute values of the negative eigenvalues of
the partially transposed pair state, equivalently (||rho^T_A||_1 - 1)/2.
`negativities` is the one kernel: it checks every matrix of a stack (unit
trace, symmetry, positive semidefiniteness), computes both routes for each
and demands that they agree; `negativity` hands it a stack of one. For
(1/2,1) and (1/2,1/2) pairs a positive partial transpose is also sufficient
for separability, so a zero value decides; for (1,1) pairs zero is
inconclusive. At zero field the pair state is SU(2)-invariant and its
negativity also follows from the exchange correlator alone (`correlator`,
`su2_signed`; J. Schliemann, PRA 68, 012309 (2003)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .spin_ops import SiteLayout, SpinMagnitude, heisenberg_bond
from .thermal import SpectralDecomposition, ThermalState

# Partial-transpose eigenvalues above -EPS_NEGATIVE are eigensolver noise,
# not entanglement.
EPS_NEGATIVE = 1e-12


class PairKind(Enum):
    HALF_ONE = "half_one"
    HALF_HALF = "half_half"
    ONE_ONE = "one_one"

    @staticmethod
    def from_dims(dim_a: int, dim_b: int) -> "PairKind":
        pair = tuple(sorted((dim_a, dim_b)))
        return {(2, 2): PairKind.HALF_HALF,
                (2, 3): PairKind.HALF_ONE,
                (3, 3): PairKind.ONE_ONE}[pair]


@dataclass(frozen=True)
class PairReducedState:
    """Reduced state of two retained sites; basis is a-index major.

    matrix is one d x d state or a stack of them along leading axes.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int
    site_a: int
    site_b: int

    @property
    def kind(self) -> PairKind:
        return PairKind.from_dims(self.dim_a, self.dim_b)


@dataclass(frozen=True)
class NegativityResult:
    value: float
    pair_kind: PairKind


def partial_trace(state: ThermalState, keep: tuple[int, int]) -> PairReducedState:
    """Trace out every site except the two in `keep` (given in any order)."""
    order = state.layout.pair_order(keep)
    dims = state.layout.dims
    n = len(dims)
    perm = [*order, *(n + i for i in order)]
    d_keep = dims[order[0]] * dims[order[1]]
    d_rest = state.matrix.shape[0] // d_keep
    tensor = state.matrix.reshape(dims + dims).transpose(perm)
    reduced = np.einsum("arbr->ab", tensor.reshape(d_keep, d_rest, d_keep, d_rest))
    return PairReducedState(matrix=0.5 * (reduced + reduced.T), dim_a=dims[order[0]],
                            dim_b=dims[order[1]], site_a=order[0], site_b=order[1])


def reduce_pair(decomp: SpectralDecomposition, weights: np.ndarray,
                keep: tuple[int, int]) -> PairReducedState:
    """Pair state of the mixture sum_i weights[i] |v_i><v_i|, from the pair blocks.

    A (k, D) stack of weight rows gives the k pair states as one stack. Each
    row is one vector-matrix product over the decomposition's pair blocks,
    the same product, bit for bit, whether the row comes alone or in a
    stack; with state_weights it equals partial_trace of the Gibbs state
    (T > 0) or of the ground manifold (T = 0).
    """
    blocks = decomp.pair_blocks(keep)
    site_a, site_b = sorted(keep)
    dims = decomp.layout.dims
    d_keep = dims[site_a] * dims[site_b]
    reduced = np.matmul(weights[..., None, :], blocks).reshape(*weights.shape[:-1],
                                                               d_keep, d_keep)
    return PairReducedState(matrix=0.5 * (reduced + reduced.swapaxes(-1, -2)),
                            dim_a=dims[site_a], dim_b=dims[site_b],
                            site_a=site_a, site_b=site_b)


def partial_transpose(pair: PairReducedState, subsystem: str = "a") -> np.ndarray:
    """Transpose the indices of one subsystem only, of every state in a stack.

    Defaults to the lower-indexed site; the resulting spectrum is the same
    either way for a symmetric input.
    """
    da, db = pair.dim_a, pair.dim_b
    lead = pair.matrix.shape[:-2]
    blocks = pair.matrix.reshape(*lead, da, db, da, db)
    if subsystem == "a":
        swapped = blocks.swapaxes(-4, -2)
    elif subsystem == "b":
        swapped = blocks.swapaxes(-3, -1)
    else:
        raise ValueError("subsystem must be 'a' or 'b'")
    return swapped.reshape(*lead, da * db, da * db)


def negativities(pairs: PairReducedState) -> np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose, for each state of a stack.

    Every matrix must have unit trace and be symmetric and positive
    semidefinite (ValueError names the first that is not). Each value is
    also evaluated in the trace-norm form (||rho^T||_1 - 1)/2, and the two
    must agree to 1e-10; a mismatch signals an upstream bug (RuntimeError).
    Returns an array shaped like the stack's leading axes.
    """
    d = pairs.dim_a * pairs.dim_b
    m = pairs.matrix.reshape(-1, d, d)
    traces = np.trace(m, axis1=1, axis2=2)
    bad = np.abs(traces - 1.0) > 1e-10
    if bad.any():
        raise ValueError(f"pair state trace {traces[bad][0]} is not 1")
    if np.abs(m - m.swapaxes(1, 2)).max() > 1e-10:
        raise ValueError("pair state is not symmetric")
    min_eigs = np.linalg.eigvalsh(m)[:, 0]
    if (min_eigs < -1e-12).any():
        raise ValueError("pair state not positive semidefinite "
                         f"(min eigenvalue {min_eigs[min_eigs < -1e-12][0]})")
    eigs = np.linalg.eigvalsh(partial_transpose(replace(pairs, matrix=m)))
    # eigenvalues ascend, so the negative ones lead each row and a running sum
    # adds them one by one, as a sum of the selection alone does; a row sum
    # pairs up the terms of a 9-entry (1,1) row and changes the last bits
    values = -np.cumsum(np.where(eigs < -EPS_NEGATIVE, eigs, 0.0), axis=1)[:, -1] + 0.0
    trace_norm_values = 0.5 * (np.abs(eigs).sum(axis=1) - 1.0)
    gap = np.abs(values - trace_norm_values) > 1e-10
    if gap.any():
        raise RuntimeError("negativity routes disagree: "
                           f"{values[gap][0]} vs {trace_norm_values[gap][0]}")
    return values.reshape(pairs.matrix.shape[:-2])


def negativity(pair: PairReducedState) -> NegativityResult:
    """Negativity of one pair state: the kernel negativities on a stack of one."""
    return NegativityResult(value=float(negativities(pair)), pair_kind=pair.kind)


def schmidt_negativity(coefficients: Sequence[float]) -> float:
    """Negativity of a bipartite pure state from its Schmidt coefficients."""
    c = np.asarray(coefficients, dtype=float)
    if (c < 0).any():
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(c * c)) - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must be normalized")
    total = float(np.sum(c))
    return (total * total - 1.0) / 2.0


def correlator(pair: PairReducedState) -> float:
    """Exchange correlator Tr(rho_pair s_a . s_b) of one pair state."""
    spins = SiteLayout(tuple(SpinMagnitude((d - 1) / 2) for d in (pair.dim_a, pair.dim_b)))
    return float(np.sum(pair.matrix * heisenberg_bond(0, 1, spins)))


def su2_signed(corr: float, kind: PairKind) -> float:
    """Signed negativity of an SU(2)-invariant pair from its exchange correlator.

    Negative output means the pair is separable by that margin; no closed form
    exists for (1,1) pairs.
    """
    if kind == PairKind.HALF_ONE:
        return -1.0 / 3.0 - (2.0 / 3.0) * corr
    if kind == PairKind.HALF_HALF:
        return -0.25 - corr
    raise ValueError("no correlator formula for a (1,1) pair")


def su2_negativity(corr: float, kind: PairKind) -> float:
    """Clamped version of su2_signed; equals the true negativity for rotation-invariant states."""
    return max(0.0, su2_signed(corr, kind))
