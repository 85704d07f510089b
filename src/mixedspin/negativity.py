"""Two-site reduction, partial transpose, and negativity.

Every pair state a sweep builds conserves total Sz, so it is carried as its
block entries: the entries (p, q), p >= q, of equal m_a + m_b, one zero
column after them (`spin_ops.pair_basis`; 9, 6 and 15 numbers for a
(1/2,1), (1/2,1/2) and (1,1) pair against d^2 = 36, 16 and 81).
`pair_entries` takes them straight from a decomposition's pair blocks and
eigenvector weights: one weight vector gives one pair state, a (k, D) stack
of weight rows a (k, E + 1) stack. `reduce_pair` puts them in their places
of the dense d x d state, for `verify` and the tests. `partial_trace` of a
dense D x D state stays because `perfbench/oracles.py` reduces its dense
Gibbs matrices with it, an independent route against which the benchmark
checks sampled rows; the tests use it as the oracle of `reduce_pair`.

Negativity is the sum of the absolute values of the negative eigenvalues of
the partially transposed pair state, equivalently (||rho^T_A||_1 - 1)/2.
One kernel computes it: for every state of a stack it checks the trace
and positive semidefiniteness, computes both routes and demands that they
agree. It takes its eigenvalues block by block: the state splits by
m_a + m_b and its partial transpose by m_a - m_b, into blocks of at most 2
for (1/2,1) and (1/2,1/2) pairs and at most 3 for (1,1) pairs, all read
from the block entries by the plans of `pair_basis`. `entry_negativities`
runs it on the entries of the sweep path. `negativities` takes dense
states, checks their symmetry too, gathers a stack that conserves total Sz
into its entries, and sends any other stack through the kernel as one
whole-matrix eigvalsh per state (the basis' one-block plan);
`negativity` hands it a stack of one. For (1/2,1) and (1/2,1/2) pairs a
positive partial transpose is also sufficient for separability, so a zero
value decides; for (1,1) pairs zero is inconclusive. At zero field the
pair state is SU(2)-invariant and its negativity also follows from the
exchange correlator alone (`correlator`, `su2_signed`; J. Schliemann, PRA
68, 012309 (2003)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spin_ops import SpinMagnitude, pair_basis, spin_matrices
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

    matrix is one d x d state or a stack of them along leading axes, with
    d = dim_a * dim_b (ValueError otherwise).
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int
    site_a: int
    site_b: int

    def __post_init__(self):
        d = self.dim_a * self.dim_b
        if np.shape(self.matrix)[-2:] != (d, d):
            raise ValueError(f"a ({self.dim_a}, {self.dim_b}) pair state is {d} x {d}, "
                             f"got shape {np.shape(self.matrix)}")

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


def pair_entries(decomp: SpectralDecomposition, weights: np.ndarray,
                 keep: tuple[int, int]) -> np.ndarray:
    """Block entries of the pair state of the mixture sum_i weights[i] |v_i><v_i|.

    A (k, D) stack of weight rows gives a (k, E + 1) stack, one row of the
    pair's `pair_basis` entries and a zero per state. Each row is one
    vector-matrix product over the decomposition's pair blocks, the same
    product, bit for bit, whether the row comes alone or in a stack.
    """
    return np.matmul(weights[..., None, :], decomp.pair_blocks(keep))[..., 0, :]


def reduce_pair(decomp: SpectralDecomposition, weights: np.ndarray,
                keep: tuple[int, int]) -> PairReducedState:
    """Pair state of the mixture sum_i weights[i] |v_i><v_i|, from the pair blocks.

    A (k, D) stack of weight rows gives the k pair states as one stack, each
    its pair_entries put in their places, so exactly symmetric; with
    state_weights it equals partial_trace of the Gibbs state (T > 0) or of
    the ground manifold (T = 0). Sweeps and searches skip this dense form
    and hand pair_entries to entry_negativities.
    """
    entries = pair_entries(decomp, weights, keep)
    site_a, site_b = sorted(keep)
    dims = decomp.layout.dims
    d_keep = dims[site_a] * dims[site_b]
    matrix = entries[..., pair_basis(dims[site_a], dims[site_b]).entry]
    return PairReducedState(matrix=matrix.reshape(*entries.shape[:-1], d_keep, d_keep),
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


def _block_eigvalsh(flat: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """Ascending eigenvalues of the matrices a plan takes from each state of a stack.

    flat holds one state per row, as its d^2 places or its block entries,
    and the plan's places index a row. Returns a (k, 2, d) array: the
    eigenvalues of each state and of its partial transpose. Every entry
    that the plan's blocks leave out must be zero. A 1 x 1 block is its
    entry, a 2 x 2 block [[a, b], [b, c]] has the eigenvalues
    (a + c)/2 -+ hypot((a - c)/2, b), and larger blocks go through one
    eigvalsh per block size.
    """
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
            # the count, not -1: an empty stack leaves -1 undetermined
            parts.append(np.linalg.eigvalsh(blocks).reshape(len(flat), 2,
                                                             places.shape[1] * places.shape[2]))
    # sorted in place: np.sort, which sorts a copy, raised the peak RSS of an
    # 80 x 80 grid run by about 0.25 MB
    eigs = np.concatenate(parts, axis=-1)
    eigs.sort(axis=-1)
    return eigs


def _check_traces(traces: np.ndarray) -> None:
    # fails on NaN too, which the closed-form blocks would turn into a zero
    # negativity
    bad = ~(np.abs(traces - 1.0) <= 1e-10)
    if bad.any():
        raise ValueError(f"pair state trace {traces[bad][0]} is not 1")


def _kernel(flat: np.ndarray, plan: tuple[np.ndarray, ...], diagonal: np.ndarray) -> np.ndarray:
    """Negativities of a (k, n) stack of pair states, read at a plan's places.

    The states are the rows of flat: block entries, or whole matrices; the
    plan and the diagonal's d places index them. Checks each state's trace
    and positive semidefiniteness, and that its eigenvalue sum and trace
    norm agree.
    """
    _check_traces(flat[:, diagonal].sum(axis=1))
    both = _block_eigvalsh(flat, plan)
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
    return values


def entry_negativities(entries: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """The negativities kernel on pair states given as their block entries.

    entries is a stack of pair_entries rows of a (dim_a, dim_b) pair, along
    any leading axes; returns an array shaped like those axes. The states
    conserve total Sz by construction and are exactly symmetric, so only
    the trace, positive semidefiniteness and the two routes are checked.
    """
    basis = pair_basis(dim_a, dim_b)
    values = _kernel(entries.reshape(-1, entries.shape[-1]), basis.plan, basis.diagonal)
    return values.reshape(entries.shape[:-1])


def negativities(pairs: PairReducedState) -> np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose, for each state of a stack.

    Every matrix must have unit trace and be symmetric and positive
    semidefinite (ValueError names the first that is not). Each value is
    also evaluated in the trace-norm form (||rho^T||_1 - 1)/2, and the two
    must agree to 1e-10; a mismatch signals an upstream bug (RuntimeError).
    Returns an array shaped like the stack's leading axes.

    A stack whose matrices all conserve total Sz (no nonzero entry between
    two different values of m_a + m_b) is gathered into its block entries
    and goes through the kernel as entry_negativities sends them. Otherwise
    (a state that does not conserve total Sz, such as a locally rotated
    one) the whole stack goes through as one block per matrix instead.
    """
    d = pairs.dim_a * pairs.dim_b
    m = pairs.matrix.reshape(-1, d, d)
    # the trace first, so that NaN on a diagonal is named as a trace
    _check_traces(np.trace(m, axis1=1, axis2=2))
    if not (np.abs(m - m.swapaxes(1, 2)) <= 1e-10).all():
        raise ValueError("pair state is not symmetric")
    basis = pair_basis(pairs.dim_a, pairs.dim_b)
    flat = m.reshape(-1, d * d)
    if flat[:, basis.entry == basis.places.shape[0]].any():
        values = _kernel(flat, basis.whole, np.arange(d) * (d + 1))
    else:
        entries = np.zeros((len(m), basis.places.shape[0] + 1))
        entries[:, :-1] = flat[:, basis.places]
        values = _kernel(entries, basis.plan, basis.diagonal)
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
