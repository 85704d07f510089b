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
and demands that they agree; `negativity` hands it a stack of one. Every
pair state a sweep builds conserves total Sz, so the kernel takes its
eigenvalues block by block: the state splits by m_a + m_b and its partial
transpose by m_a - m_b, into blocks of at most 2 for (1/2,1) and (1/2,1/2)
pairs and at most 3 for (1,1) pairs. A stack with any nonzero entry between
two blocks falls back to one whole-matrix eigvalsh per state. For
(1/2,1) and (1/2,1/2) pairs a positive partial transpose is also sufficient
for separability, so a zero value decides; for (1,1) pairs zero is
inconclusive. At zero field the pair state is SU(2)-invariant and its
negativity also follows from the exchange correlator alone (`correlator`,
`su2_signed`; J. Schliemann, PRA 68, 012309 (2003)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .spin_ops import SpinMagnitude, spin_matrices
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


@lru_cache(maxsize=None)
def _magnetization_blocks(dim_a: int, dim_b: int):
    """Block plans that take a (dim_a, dim_b) pair state and its partial transpose.

    Basis state (a, b) has m_a + m_b = s_a + s_b - (a + b). A state that
    conserves total Sz couples only equal a + b; its partial transpose then
    couples only equal a - b, i.e. equal m_a - m_b, in blocks of the same
    sizes (b -> dim_b - 1 - b maps one labelling onto the other). A plan
    lists the blocks by ascending size, one (2, number of blocks, size, size)
    array per size that holds the place of each block entry in the flattened
    pair state, first for the state and then for its partial transpose.
    Returns the plan by magnetization, the plan with the whole matrix as one
    block, and the flat places of the entries between two blocks of the state.
    """
    d = dim_a * dim_b
    a, b = np.divmod(np.arange(d), dim_b)
    state = np.arange(d * d).reshape(d, d)
    transpose = partial_transpose(PairReducedState(state, dim_a, dim_b, 0, 1))

    def places(label: np.ndarray, matrix: np.ndarray) -> list[np.ndarray]:
        # labels are consecutive integers; no np.unique, whose first call is slow
        blocks = [np.flatnonzero(label == v) for v in range(label.min(), label.max() + 1)]
        sizes = sorted({len(block) for block in blocks})
        rows = [np.array([block for block in blocks if len(block) == size]) for size in sizes]
        return [matrix[r[:, :, None], r[:, None, :]] for r in rows]

    def plan(state_label: np.ndarray, transpose_label: np.ndarray) -> tuple[np.ndarray, ...]:
        out = tuple(np.stack(pair) for pair in zip(places(state_label, state),
                                                   places(transpose_label, transpose)))
        for shared in out:
            shared.setflags(write=False)
        return out

    whole = np.zeros(d, dtype=int)
    return (plan(a + b, a - b), plan(whole, whole),
            np.flatnonzero((a + b)[:, None] != (a + b)[None, :]))


def _block_eigvalsh(m: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """Ascending eigenvalues of the matrices a plan takes from each state of a (k, d, d) stack.

    Returns a (k, 2, d) array: the eigenvalues of each state and of its
    partial transpose. Every entry that the plan's blocks leave out must be
    zero. A 1 x 1 block is its entry, a 2 x 2 block [[a, b], [b, c]] has the
    eigenvalues (a + c)/2 -+ hypot((a - c)/2, b), and larger blocks go
    through one eigvalsh per block size.
    """
    flat = m.reshape(len(m), -1)
    parts = []
    for places in plan:
        blocks = flat[:, places]
        if places.shape[-1] == 1:
            parts.append(blocks[..., 0, 0])
        elif places.shape[-1] == 2:
            a, b, c = blocks[..., 0, 0], blocks[..., 1, 0], blocks[..., 1, 1]
            mean, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
            parts += [mean - radius, mean + radius]
        else:
            parts.append(np.linalg.eigvalsh(blocks).reshape(len(m), 2, -1))
    # sorted in place: np.sort, which sorts a copy, raised the peak RSS of an
    # 80 x 80 grid run by about 0.25 MB
    eigs = np.concatenate(parts, axis=-1)
    eigs.sort(axis=-1)
    return eigs


def negativities(pairs: PairReducedState) -> np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose, for each state of a stack.

    Every matrix must have unit trace and be symmetric and positive
    semidefinite (ValueError names the first that is not). Each value is
    also evaluated in the trace-norm form (||rho^T||_1 - 1)/2, and the two
    must agree to 1e-10; a mismatch signals an upstream bug (RuntimeError).
    Returns an array shaped like the stack's leading axes.

    The eigenvalues come block by block: a pair state splits by m_a + m_b
    and its partial transpose by m_a - m_b, into blocks of at most 2 for a
    (1/2,1) or (1/2,1/2) pair and at most 3 for a (1,1) pair. If any matrix
    of the stack has a nonzero entry between two blocks (a state that does
    not conserve total Sz, such as a locally rotated one), the whole stack
    goes through as one block per matrix instead.
    """
    d = pairs.dim_a * pairs.dim_b
    m = pairs.matrix.reshape(-1, d, d)
    traces = np.trace(m, axis1=1, axis2=2)
    # both checks fail on NaN, which the closed-form blocks would turn into
    # a zero negativity
    bad = ~(np.abs(traces - 1.0) <= 1e-10)
    if bad.any():
        raise ValueError(f"pair state trace {traces[bad][0]} is not 1")
    if not np.abs(m - m.swapaxes(1, 2)).max() <= 1e-10:
        raise ValueError("pair state is not symmetric")
    blocks, whole, between = _magnetization_blocks(pairs.dim_a, pairs.dim_b)
    both = _block_eigvalsh(m, whole if m.reshape(len(m), -1)[:, between].any() else blocks)
    min_eigs = both[:, 0, 0]
    if (min_eigs < -1e-12).any():
        raise ValueError("pair state not positive semidefinite "
                         f"(min eigenvalue {min_eigs[min_eigs < -1e-12][0]})")
    eigs = both[:, 1]
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


def correlator(pair: PairReducedState) -> float:
    """Exchange correlator Tr(rho_pair s_a . s_b) of one pair state."""
    a, b = (spin_matrices(SpinMagnitude((d - 1) / 2)) for d in (pair.dim_a, pair.dim_b))
    bond = np.kron(a.sz, b.sz) + 0.5 * np.kron(a.splus, b.sminus) \
        + 0.5 * np.kron(a.sminus, b.splus)
    return float(np.sum(pair.matrix * bond))


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
