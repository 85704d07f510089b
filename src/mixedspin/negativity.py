"""Two-site reduction, partial transpose, and negativity.

`reduce_pair` takes a pair state straight from a decomposition's pair blocks
and eigenvector weights; `partial_trace` of a dense state is its oracle.

Negativity is the sum of the absolute values of the negative eigenvalues of
the partially transposed pair state, equivalently (||rho^T_A||_1 - 1)/2; both
routes are computed and must agree. For (1/2,1) and (1/2,1/2) pairs a
positive partial transpose is also sufficient for separability, so a zero
value decides; for (1,1) pairs zero is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .thermal import GroundManifoldState, SpectralDecomposition, ThermalState

# Partial-transpose eigenvalues above -EPS_NEGATIVE are eigensolver noise,
# not entanglement.
EPS_NEGATIVE = 1e-12

State = Union[ThermalState, GroundManifoldState]


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
    """Reduced state of two retained sites; basis is a-index major."""

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


def _pair_state(reduced: np.ndarray, dims: tuple[int, ...], site_a: int,
                site_b: int) -> PairReducedState:
    return PairReducedState(matrix=0.5 * (reduced + reduced.T), dim_a=dims[site_a],
                            dim_b=dims[site_b], site_a=site_a, site_b=site_b)


def partial_trace(state: State, keep: tuple[int, int]) -> PairReducedState:
    """Trace out every site except the two in `keep` (given in any order)."""
    order = state.layout.pair_order(keep)
    dims = state.layout.dims
    n = len(dims)
    perm = [*order, *(n + i for i in order)]
    d_keep = dims[order[0]] * dims[order[1]]
    d_rest = state.matrix.shape[0] // d_keep
    tensor = state.matrix.reshape(dims + dims).transpose(perm)
    reduced = np.einsum("arbr->ab", tensor.reshape(d_keep, d_rest, d_keep, d_rest))
    return _pair_state(reduced, dims, order[0], order[1])


def reduce_pair(decomp: SpectralDecomposition, weights: np.ndarray,
                keep: tuple[int, int]) -> PairReducedState:
    """Pair state of the mixture sum_i weights[i] |v_i><v_i|, from the pair blocks.

    One mat-vec over the decomposition's pair blocks; with state_weights it
    equals partial_trace of the Gibbs state (T > 0) or of the ground
    manifold (T = 0).
    """
    blocks = decomp.pair_blocks(keep)
    site_a, site_b = sorted(keep)
    d_keep = decomp.layout.dims[site_a] * decomp.layout.dims[site_b]
    reduced = (weights @ blocks).reshape(d_keep, d_keep)
    return _pair_state(reduced, decomp.layout.dims, site_a, site_b)


def partial_transpose(pair: PairReducedState, subsystem: str = "a") -> np.ndarray:
    """Transpose the indices of one subsystem only.

    Defaults to the lower-indexed site; the resulting spectrum is the same
    either way for a symmetric input.
    """
    da, db = pair.dim_a, pair.dim_b
    blocks = pair.matrix.reshape(da, db, da, db)
    if subsystem == "a":
        swapped = blocks.transpose(2, 1, 0, 3)
    elif subsystem == "b":
        swapped = blocks.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 'a' or 'b'")
    return swapped.reshape(da * db, da * db)


def _validate_pair(pair: PairReducedState) -> None:
    m = pair.matrix
    if abs(np.trace(m) - 1.0) > 1e-10:
        raise ValueError(f"pair state trace {np.trace(m)} is not 1")
    if np.abs(m - m.T).max() > 1e-10:
        raise ValueError("pair state is not symmetric")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -1e-12:
        raise ValueError(f"pair state not positive semidefinite (min eigenvalue {min_eig})")


def negativity(pair: PairReducedState) -> NegativityResult:
    """Sum of |negative eigenvalues| of the partial transpose.

    Also evaluates the trace-norm form (||rho^T||_1 - 1)/2 and demands
    agreement to 1e-10; a mismatch signals an upstream bug.
    """
    _validate_pair(pair)
    eigs = np.linalg.eigvalsh(partial_transpose(pair))
    value = float(-eigs[eigs < -EPS_NEGATIVE].sum()) + 0.0    # avoid -0.0 for empty sums
    trace_norm_value = 0.5 * (float(np.abs(eigs).sum()) - 1.0)
    if abs(value - trace_norm_value) > 1e-10:
        raise RuntimeError(
            f"negativity routes disagree: {value} vs {trace_norm_value}")
    return NegativityResult(value=value, pair_kind=pair.kind)


def pair_negativity(state: State, keep: tuple[int, int]) -> float:
    """Convenience: reduce to a pair and return the negativity value."""
    return negativity(partial_trace(state, keep)).value


def schmidt_negativity(coefficients: Sequence[float]) -> float:
    """Negativity of a bipartite pure state from its Schmidt coefficients."""
    c = np.asarray(coefficients, dtype=float)
    if (c < 0).any():
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(c * c)) - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must be normalized")
    total = float(np.sum(c))
    return (total * total - 1.0) / 2.0


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
