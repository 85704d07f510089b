"""Spectral decomposition, Gibbs states, and thermal observables.

Every ring Hamiltonian is couplings times terms (`models.Term`), each an
isotropic exchange conserving total Sz, so H commutes with total Sz, S^2
and S+. `diagonalize` therefore solves only the lowest-|M| sector (M = 0,
or 1/2), one small eigh per total spin S on a total-spin basis of that
sector, coupled from the multiplets of the spin-1/2 and the spin-1
sublattices with Clebsch-Gordan coefficients, and ladders the rest:
sector M+1 takes S+ of the vectors with S >= M+1, and sector -M takes
sector M's eigenpairs, rows reversed (spin inversion). Every eigenvector
so has an exact S. Each term is checked on fixed probe vectors, refused if
it would break this, and projected on every S-space once; a coupling
point sums the projections. The field term b*Sz is constant on a sector,
so at field b the energies are E_i + b*M_i on the same eigenvectors: one
diagonalization serves every temperature and every field for fixed
exchange couplings; `diagonalize` puts the spec's b*M on the energies.

Given the (field, temperature) points it will serve, `diagonalize` keeps a
Boltzmann window: the multiplets whose lowest member lies within
BOLTZMANN_WINDOW * T of some point's lowest energy (at T = 0, the ground
level). Only those are laddered and only their rows of the pair blocks are
filled; the rest stay zero, where the points' weights are below e^-74 of the
ground level's. Energies, magnetizations and weights still cover all D
states. Without points the window holds every multiplet, on the same route.

Boltzmann weights are computed relative to the lowest energy so that
inverse temperatures up to ~1e3 never overflow, and nothing assumes the
energies are sorted. A state at temperature T is a weight vector over the
eigenvectors (`state_weights`), and its pair states come from the
decomposition's pair blocks, built from the sectors as the block entries
that `spin_ops.pair_basis` lays out. Many points on one decomposition are
one stack: `energies`, `state_weights` and `log_partition` take a (k, D)
stack of spectra, one row per point, and
give each row what a single spectrum would get, bit for bit.

G Hamiltonians on one layout are one batch: a (G,) column of coefficients
per term, one eigh per total spin, and every array of the decomposition a
leading axis of G whose rows hold, bit for bit, what lone ones hold.

The D x D eigenvector matrix (`SpectralDecomposition.eigenvectors`, built on
demand), the dense Gibbs matrix (`ThermalState`, `thermal_state`) and
`internal_energy` run in no sweep, threshold or `verify` check. They stay
because `perfbench/oracles.py` recomputes sampled benchmark rows through
that independent D x D route, and the tests use it as the oracle of the
weights route; a windowed decomposition refuses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .models import Hamiltonian, Term
from .spin_ops import (HALF, ONE, SiteLayout, SpinMagnitude, pair_basis, product_basis,
                       spin_matrices)

# Eigenvectors within this relative distance of the minimum energy count as
# part of the ground manifold (eigensolver accuracy budget).
GROUND_DEGENERACY_RTOL = 1e-9

# A state more than this many temperatures above a point's lowest energy
# weighs under e^-74 ~ 7e-33 of a ground state there, so even the 7,776
# states of ten sites add under 1e-28 to a pair entry: `diagonalize` ladders
# and pairs only the multiplets that some point it serves holds below that.
BOLTZMANN_WINDOW = 74.0


class Sector(NamedTuple):
    """A total-Sz sector's eigenvectors (columns over its `product_basis` rows) and their places.

    `columns` places them in the ascending spectrum. Every sector M < 0 has
    `mirror_of` set, at every field: its vectors are sector -M's with the
    rows reversed (spin inversion). In a batch, `vectors` and `columns`
    carry the batch's leading axis. A windowed decomposition's sectors hold
    only the members of the window's multiplets.
    """

    vectors: np.ndarray
    columns: np.ndarray
    mirror_of: int | None = None


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues (per row, in a batch) and their total Sz, eigenvectors by sector."""

    eigenvalues: np.ndarray
    magnetizations: np.ndarray
    sectors: tuple[Sector, ...]
    layout: SiteLayout
    _pair_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def eigenvectors(self) -> np.ndarray:
        """One decomposition's orthonormal eigenvectors as D x D columns, on every access.

        Raises ValueError on a decomposition diagonalized for a window of
        points, which holds only the window's eigenvectors.
        """
        if sum(sector.columns.shape[-1] for sector in self.sectors) != self.dimension:
            raise ValueError("a windowed decomposition holds only its window's eigenvectors")
        vectors = np.zeros((self.dimension, self.dimension))
        for rows, sector in zip(product_basis(self.layout).rows, self.sectors):
            vectors[np.ix_(rows, sector.columns)] = sector.vectors
        return vectors

    def energies(self, field_b: float | np.ndarray) -> np.ndarray:
        """Eigenvalues once field_b * Sz is added: same eigenvectors, not sorted.

        A (k, 1) array of fields gives a (k, D) stack, one spectrum per row;
        on a batch of G, a (k, G, 1) array gives a (k, G, D) stack.
        """
        return self.eigenvalues + field_b * self.magnetizations

    def pair_blocks(self, keep: tuple[int, int]) -> np.ndarray:
        """Row i is Tr_rest |v_i><v_i| on the two kept sites, as its block entries.

        The kept sites come first in ascending order, as in partial_trace.
        Every eigenvector has one total Sz, so its pair state conserves
        m_a + m_b and is fixed by its E entries within the blocks of equal
        m_a + m_b (`pair_basis`); a row holds them and one zero column.
        Per sector and a + b, g holds the amplitudes on a P x R grid of pair
        by rest states (`_pair_plan`), and the lower triangle of g @ g.T is
        that a + b's entries, for every decomposition of a batch at once; a
        mirrored sector's entries are its source's, spin-flipped.
        A batch of G gives (G, D, E + 1). On a windowed decomposition only
        the window's rows are filled and the others are zero. Built once per
        pair and kept on this decomposition, so the blocks live exactly as
        long as it does.
        """
        key = self.layout.pair_order(keep)[:2]
        if key not in self._pair_blocks:
            flip, plans = _pair_plan(self.layout, key)
            lead, dim = self.eigenvalues.shape[:-1], self.dimension
            # the blocks of a batch's row r start at r * D
            start = dim * np.arange(math.prod(lead)).reshape(*lead, 1)
            # column-major: W @ blocks then sums each entry as one dot product
            # over D contiguous numbers; a row-major copy makes BLAS sum in
            # another order and moves CSV cells in their last digits
            blocks = np.zeros((flip.shape[0], start.size * dim)).T
            for sector, grids in reversed(tuple(zip(self.sectors, plans))):
                if not sector.columns.shape[-1]:        # outside a window
                    continue
                places = start + sector.columns
                if sector.mirror_of is not None:      # its source, M > 0, came first
                    source = start + self.sectors[sector.mirror_of].columns
                    blocks[places] = blocks[source[..., None], flip]
                    continue
                vectors = sector.vectors.swapaxes(-1, -2)
                for grid, (p, q), span in grids:
                    g = vectors[..., grid]
                    if g.size == grid.size:
                        # numpy's matmul gives BLAS a grid with a unit stride, as one
                        # column's is, and sums wider sectors' strided grids in its
                        # own loop, in another order; a strided copy keeps a window's
                        # one-column sector in that loop, bit for bit the full route
                        g = np.repeat(g, 2, axis=-1)[..., ::2]
                    blocks[places, span] = (g @ g.swapaxes(-1, -2))[..., p, q]
            self._pair_blocks[key] = blocks.reshape(*lead, dim, -1)
        return self._pair_blocks[key]


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state exp(-beta H)/Z as a dense real symmetric matrix."""

    matrix: np.ndarray
    beta: float
    log_z: float
    layout: SiteLayout


# Like the bond sums in models.py, this depends only on the layout and the
# pair, so every decomposition of one ring size shares it.

@lru_cache(maxsize=None)
def _pair_plan(layout: SiteLayout, keep: tuple[int, int]):
    """The spin flip of the entries and, per sector, the grids pair_blocks multiplies.

    A sector that meets an a + b holds all P pair states of it, each with
    the same R rest states. One stable sort of all rows by (sector, a + b,
    pair state) lays each a + b present in a sector out as a P x R grid of
    sector places, its pair states ascending down the rows. Per sector, a
    (grid, tril, span) per grid: g @ g.T over the grid is that a + b's
    P x P block, and its lower triangle row by row (tril) is the span of
    entries that pair_basis gives that a + b.
    """
    site_a, site_b = keep
    dims = layout.dims
    pair_label, _, _, flip = pair_basis(dims[site_a], dims[site_b])[:4]
    size = np.bincount(pair_label).tolist()         # P of each a + b
    triangle = [p * (p + 1) // 2 for p in size]
    # tril is np.tril_indices(P), a few times faster: a P x P lower triangle, row by row
    entries = [(np.nonzero(np.tri(p, dtype=bool)), slice(stop - t, stop))
               for p, t, stop in zip(size, triangle, np.cumsum(triangle).tolist())]
    # every row's pair state and (sector, a + b) cell, the sectors one after another
    ring, labels = product_basis(layout), len(size)
    rows = np.concatenate(ring.rows)
    pair = ring.digits[site_a, rows] * dims[site_b] + ring.digits[site_b, rows]
    sector = np.repeat(np.arange(len(ring.rows)), [len(r) for r in ring.rows])
    cell = sector * labels + pair_label[pair]
    order = np.argsort(cell * pair_label.shape[0] + pair, kind="stable")
    place = ring.place[rows[order]]
    count = np.bincount(cell, minlength=len(ring.rows) * labels).reshape(-1, labels)
    end = np.cumsum(count).reshape(count.shape)
    return flip, tuple(tuple((place[e - n:e].reshape(size[j], -1), *entries[j])
                             for j, (n, e) in enumerate(zip(counts, ends)) if n)
                       for counts, ends in zip(count.tolist(), end.tolist()))


def _multiplets(kind: SpinMagnitude, strides: np.ndarray):
    """The multiplets of a sublattice of kind, from an S^2 eigh on its lowest-|M| sector.

    strides are its sites' strides in the ring's basis. Returns each
    multiplet's S, and by sublattice M, ascending, that M's states as
    offsets in the ring's basis and the members over them, one column per
    multiplet (zero where S < |M|), each S+- of the last over
    sqrt(S(S+1) - M(M+-1)).
    """
    ops, sub = spin_matrices(kind), product_basis(SiteLayout((kind,) * len(strides)))
    m, offset, splus = sub.m, strides @ sub.digits, np.zeros((sub.m.size,) * 2)
    for d, step in zip(sub.digits, sub.strides):
        up = np.flatnonzero(d)      # S+ takes digit d to d - 1, one step back
        splus[up - step, up] = ops.splus[d[up] - 1, d[up]]
    top = m.max()
    level, low = top % 1.0, np.flatnonzero(m == top % 1.0)
    # S^2 = S-S+ + M(M+1), with S- = (S+)^T; its S(S+1) lie at least 2 apart
    s2, vectors = np.linalg.eigh(splus[:, low].T @ splus[:, low]
                                 + level * (level + 1.0) * np.eye(len(low)))
    spin = 0.5 * np.rint(np.sqrt(4.0 * s2 + 1.0) - 1.0)
    members = {level: np.zeros((m.size, spin.size))}
    members[level][low] = vectors
    for op, step in ((splus, 1.0), (splus.T, -1.0)):
        at, v = level, members[level]
        while abs(at + step) <= top:
            norm = np.maximum(spin * (spin + 1.0) - at * (at + step), 0.0)
            v = op @ v
            v *= np.divide(1.0, np.sqrt(norm), out=np.zeros_like(norm), where=norm > 0.0)
            at += step
            members[at] = v
    return spin, {at: (offset[m == at], members[at][m == at]) for at in sorted(members)}


@lru_cache(maxsize=None)
def _su2_plan(layout: SiteLayout):
    """The lowest-|M| sector's total-spin basis, the S+ action up from it, and isotropy probes.

    That sector (M = 0, or 1/2 on rings with an odd number of spin-1/2
    sites) holds one member of every multiplet. Its basis couples the
    spin-1/2 and the spin-1 sublattices: a pair of their multiplets
    (`_multiplets`) with spins (S_A, S_B) couples to each total S by one
    column of a Clebsch-Gordan matrix, the S^2 eigenvectors on the pair's
    at most 2 min(S_A, S_B) + 1 states (M_A, M - M_A), which every pair
    with those spins shares. The basis fills one sublattice magnetization
    M_A at a time; no eigh is larger than a sublattice's lowest sector.
    Returns that sector's index and M; its basis as rows in ascending S,
    sliced by S (`groups`), and each one's S; per step up to the top
    sector, S+ as index arrays (source, coef) of shape (sites, upper
    size): upper row r takes coef[i, r] times lower row source[i, r] from
    site i (coef 0 where none); and one fixed probe vector per sector from
    low up, each S+ of the last.
    """
    ring = product_basis(layout)
    low = len(ring.rows) // 2
    m_low, place, strides = float(ring.m[ring.rows[low][0]]), ring.place, ring.strides
    (spin_a, members_a), (spin_b, members_b) = (
        _multiplets(kind, strides[[s is kind for s in layout.spins]]) for kind in (HALF, ONE))
    # spins (S_A, S_B) couple to each of their K total S by one column of a
    # K x K Clebsch-Gordan matrix: cg[2 S_A, 2 S_B, k] holds the k-th lowest
    # S's coefficients by M_A + top_a
    top_a = max(members_a)
    cg = np.zeros((int(2 * spin_a.max()) + 1, int(2 * spin_b.max()) + 1,
                   len(members_a), len(members_a)))
    for s_a, s_b in itertools.product(set(spin_a.tolist()), set(spin_b.tolist())):
        m_a = np.arange(max(-s_a, m_low - s_b), min(s_a, m_low + s_b) + 0.5)
        m_b = m_low - m_a
        hop = np.sqrt(          # S+_A S-_B, from M_A to M_A + 1
            (s_a * (s_a + 1.0) - m_a[:-1] * (m_a[:-1] + 1.0))
            * (s_b * (s_b + 1.0) - m_b[:-1] * (m_b[:-1] - 1.0)))
        s2 = np.diag(s_a * (s_a + 1.0) + s_b * (s_b + 1.0) + 2.0 * m_a * m_b)
        cg[int(2 * s_a), int(2 * s_b)][:len(m_a), (m_a + top_a).astype(np.intp)] = np.linalg.eigh(
            s2 + np.diag(hop, 1) + np.diag(hop, -1))[1].T       # S ascending
    # one column per multiplet pair (a, b) and total S, sorted by S
    a, b = (x.ravel() for x in np.indices((len(spin_a), len(spin_b))))
    s_min = np.abs(spin_a[a] - spin_b[b])
    count = (spin_a[a] + spin_b[b] - s_min + 1.0).astype(np.intp)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    spins = np.repeat(s_min, count) + k
    order = np.argsort(spins, kind="stable")
    spins, k, col_a, col_b = spins[order], k[order], *(np.repeat(x, count)[order] for x in (a, b))
    cg = cg[(2 * spin_a[col_a]).astype(np.intp), (2 * spin_b[col_b]).astype(np.intp), k]
    basis = np.zeros((len(spins), ring.rows[low].shape[0]))
    for j, (m_a, (offset_a, vectors_a)) in enumerate(members_a.items()):
        if m_low - m_a in members_b:
            offset_b, vectors_b = members_b[m_low - m_a]
            block = (vectors_a[:, col_a] * cg[:, j]).T[:, :, None] \
                * vectors_b[:, col_b].T[:, None, :]
            basis[:, place[np.add.outer(offset_a, offset_b).ravel()]] = \
                block.reshape(len(spins), -1)
    edges = np.flatnonzero(np.diff(spins, prepend=-1.0, append=np.inf))
    groups = tuple(slice(a, b) for a, b in zip(edges[:-1], edges[1:]))
    s = np.array([[spin.spin] for spin in layout.spins])
    raises = []
    for rows in ring.rows[low + 1:]:
        m = s - ring.digits[:, rows]    # each site's m in the upper state
        coef = np.sqrt(s * (s + 1.0) - m * (m - 1.0))       # 0 where m = -s
        # the state with a site one m lower is the next one along its digit
        source = place[np.where(coef > 0.0, rows + strides[:, None], 0)] * (coef > 0.0)
        raises.append((source, coef))
    probes = [np.sin(1.0 + np.arange(basis.shape[0]))]
    for source, coef in raises:
        probes.append(_raise(probes[-1][:, None], source, coef)[:, 0])
    return low, m_low, basis, spins, groups, tuple(raises), tuple(probes)


def _raise(vectors: np.ndarray, source: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """S+ on the columns of (..., k, c) vectors of one sector, by _su2_plan's index arrays."""
    out = coef[0][:, None] * vectors[..., source[0], :]
    for site in range(1, source.shape[0]):
        term = vectors[..., source[site], :]
        term *= coef[site][:, None]
        out += term
    return out


def _window(values: np.ndarray, spins: np.ndarray, field_b: float | np.ndarray,
            fields: np.ndarray, temperatures: np.ndarray) -> np.ndarray:
    """The lowest-sector multiplets that some point weighs, ascending.

    values and spins are the multiplets' zero-field energies, (n,) or (G, n)
    in a batch, and their S; fields and temperatures give each point, (k,) or
    (k, G), and the fields add to field_b. At field b a multiplet's lowest
    member lies at E - |b| S, and it is kept if that lies within
    BOLTZMANN_WINDOW * T (compared as gap / BOLTZMANN_WINDOW <= T, which no
    finite T overflows), widened by twice the ground level's tolerance, of
    the point's lowest energy: at T = 0, every point's ground level (`_ground_mask`).
    """
    b = np.abs(field_b + np.asarray(fields, dtype=float))[..., None]
    t = np.asarray(temperatures, dtype=float)[..., None]
    keep = np.zeros(len(spins), dtype=bool)
    chunk = max(1, (1 << 15) // values.size)    # points at a time, a few hundred kB each
    for first in range(0, len(b), chunk):
        lowest = values - b[first:first + chunk] * spins
        e_min = lowest.min(axis=-1, keepdims=True)
        tolerance = 2.0 * GROUND_DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))
        keep |= ((lowest - e_min - tolerance) / BOLTZMANN_WINDOW <= t[first:first + chunk]) \
            .reshape(-1, len(spins)).any(axis=0)
    return np.flatnonzero(keep)


def _project(term: Term, layout: SiteLayout) -> list[np.ndarray]:
    """Check a term, then keep on it its lowest-sector block on each S-space, in ascending S.

    Raises ValueError on a non-finite entry, or unless H_{M+1} S+ x = S+ H_M x and
    H_{-M} Rx = R H_M x (R the flip) on fixed probes x, as every isotropic sum does.
    """
    blocks = term.blocks
    if not all(np.isfinite(block).all() for block in blocks):
        raise ValueError("Hamiltonian contains non-finite entries")
    low, _, basis, _, groups, raises, probes = _su2_plan(layout)
    images = [blocks[k] @ probe for k, probe in enumerate(probes, low)]
    # each sector below the lowest-|M| one mirrors one above it, nearest first
    found = np.concatenate(images[1:] + [blocks[low - 1 - i] @ probe[::-1]
                                         for i, probe in enumerate(probes[-low:])])
    expected = np.concatenate([_raise(x[:, None], *up)[:, 0] for x, up in zip(images, raises)]
                              + [x[::-1] for x in images[-low:]])
    if np.abs(found - expected).max() > 1e-9 * max(np.abs(found).max(), np.abs(expected).max()):
        raise ValueError("Hamiltonian is not isotropic")
    term.projected.extend([basis[g] @ blocks[low] @ basis[g].T for g in groups])
    return term.projected


def diagonalize(h: Hamiltonian | Sequence[Hamiltonian],
                points: tuple[np.ndarray, np.ndarray] | None = None) -> SpectralDecomposition:
    """Symmetric eigensolve of an isotropic Hamiltonian by total spin.

    Only the lowest-|M| sector is solved, one small eigh per S on the sum of
    coefficient times term projected on that S-space (`_project`, once per
    term). Sector M+1 takes the vectors with S >= M+1 as
    S+ v / sqrt(S(S+1) - M(M+1)) on the same eigenvalues, and sector -M
    takes sector M's, rows reversed (m -> -m on every site). So sector M's
    zero-field energies are the lowest sector's tail of S >= |M|; one pass
    puts the tails end to end and adds the spec's b*M. The terms hold no
    field, so -M mirrors M at every field. G Hamiltonians on one layout are
    one batch, a (G,) coefficient column per term, whose rows hold, bit for
    bit, what lone decompositions hold.

    points, if given, are the (fields, temperatures) of every point the
    decomposition will serve, (k,) arrays, or (k, G) for a batch, the fields
    on top of each spec's. The ladder raises only the window's multiplets
    (`_window`; for a batch, those of any row), every one without points,
    and the sectors hold only their members, so the decomposition serves
    those points, and any at their fields and a lower temperature, as the
    full one would. Raises ValueError for an empty batch or one that mixes
    layouts, a term that fails `_project`'s check or a sum that overflows,
    and LinAlgError if LAPACK fails to converge.
    """
    hs = [h] if isinstance(h, Hamiltonian) else list(h)
    if not hs or any(one.layout != hs[0].layout for one in hs):
        raise ValueError("a batch needs one or more Hamiltonians, all on one ring layout")
    layout, terms = hs[0].layout, list(dict.fromkeys(t for one in hs for _, t in one.terms))
    coefs = np.array([[sum(c for c, t in one.terms if t is term) for one in hs] for term in terms])
    field_b = np.array([one.spec.field_b for one in hs])
    if isinstance(h, Hamiltonian):
        coefs, field_b = coefs[:, 0], field_b[0]
    projected = [term.projected or _project(term, layout) for term in terms]
    low, m_low, basis, spins, groups, raises, _ = _su2_plan(layout)
    ring = product_basis(layout)
    m = m_low + np.arange(len(ring.rows)) - low        # each sector's M
    values, vectors = [], []
    for g, group in enumerate(groups):
        with np.errstate(over="ignore", invalid="ignore"):
            block = sum((c[..., None, None] * p[g] for c, p in zip(coefs[1:], projected[1:])),
                        coefs[0][..., None, None] * projected[0][g])
        if not np.isfinite(block).all():        # finite terms, overflowing couplings
            raise ValueError("Hamiltonian contains non-finite entries")
        values_s, vectors_s = np.linalg.eigh(block)
        values.append(values_s)
        vectors.append(basis[group].T @ vectors_s)
    values = np.concatenate(values, axis=-1)
    window = np.arange(len(spins)) if points is None else _window(values, spins, field_b, *points)
    vectors = [np.concatenate(vectors, axis=-1)[..., window]]
    for k, (source, coef) in enumerate(raises, low + 1):
        take = np.count_nonzero(window >= len(spins) - len(ring.rows[k]))
        s, below = spins[window[len(window) - take:]], vectors[-1]
        vectors.append(_raise(below[..., below.shape[-1] - take:], source, coef)
                       / np.sqrt(s * (s + 1.0) - m[k - 1] * m[k]))
    last = len(ring.rows) - 1
    eigenvalues = np.concatenate([values[..., -rows.shape[0]:] for rows in ring.rows], axis=-1) \
        + field_b[..., None] * ring.sector_m
    order = np.argsort(eigenvalues, axis=-1, kind="stable")
    columns = np.split(np.argsort(order, axis=-1),
                       np.cumsum([len(rows) for rows in ring.rows[:-1]]), axis=-1)
    columns = [c[..., window[window >= first] - first]     # a sector's are those S >= |M|
               for c, first in zip(columns, [len(spins) - len(rows) for rows in ring.rows])]
    sectors = tuple(Sector(vectors[k - low], place) if k >= low
                    else Sector(vectors[last - k - low][..., ::-1, :], place, last - k)
                    for k, place in enumerate(columns))
    return SpectralDecomposition(eigenvalues=np.take_along_axis(eigenvalues, order, axis=-1),
                                 magnetizations=ring.sector_m[order], sectors=sectors,
                                 layout=layout)


def boltzmann_weights(eigenvalues: np.ndarray, beta: float | np.ndarray) -> np.ndarray:
    """Normalized weights exp(-beta(E - E_min)) / sum, safe for large beta.

    For a (k, D) stack each row is shifted and normalized on its own; beta is
    a number or a (k, 1) column. Every eigenvalue of the ground level
    (GROUND_DEGENERACY_RTOL) counts as E_min, so eigensolver noise never
    splits that level, and as beta grows the weights tend to the T = 0 ones.
    """
    shifted = eigenvalues - eigenvalues.min(axis=-1, keepdims=True)
    shifted[_ground_mask(eigenvalues)] = 0.0
    weights = -beta * shifted
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _ground_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Which eigenvalues, in any order, lie within GROUND_DEGENERACY_RTOL of their row's lowest."""
    e_min = eigenvalues.min(axis=-1, keepdims=True)
    return eigenvalues <= e_min + GROUND_DEGENERACY_RTOL * np.maximum(1.0, np.abs(e_min))


def ground_degeneracy(eigenvalues: np.ndarray) -> int | np.ndarray:
    """Number of eigenvalues within GROUND_DEGENERACY_RTOL of the lowest, per row of a stack."""
    count = np.count_nonzero(_ground_mask(eigenvalues), axis=-1)
    return int(count) if count.ndim == 0 else count


def state_weights(eigenvalues: np.ndarray, temperature: float | np.ndarray) -> np.ndarray:
    """Eigenvector weights of the Gibbs state, or of the ground-manifold mixture at T = 0.

    Takes one spectrum and a temperature, or a (k, D) stack of spectra and
    one temperature per row; rows at T = 0 and T > 0 may share a stack.
    """
    t = np.asarray(temperature, dtype=float)[..., None]
    zero = t == 0.0
    weights = boltzmann_weights(eigenvalues, 1.0 / np.where(zero, 1.0, t))
    if zero.any():
        ground = _ground_mask(eigenvalues)
        weights = np.where(zero, ground / np.count_nonzero(ground, axis=-1, keepdims=True),
                           weights)
    return weights


def log_partition(eigenvalues: np.ndarray, beta: float | np.ndarray) -> float | np.ndarray:
    """log Z computed with the ground-energy shift.

    A float for one spectrum; for a (k, D) stack and a (k, 1) column of
    beta, one value per row.
    """
    e_min = eigenvalues.min(axis=-1, keepdims=True)
    terms = -beta * (eigenvalues - e_min)
    z = np.sum(np.exp(terms, out=terms), axis=-1, keepdims=True)
    log_z = (np.log(z) - beta * e_min)[..., 0]
    return float(log_z) if log_z.ndim == 0 else log_z


def thermal_state(spec: SpectralDecomposition, temperature: float) -> ThermalState:
    """Gibbs state at temperature > 0 (k_B = 1).

    Zero temperature is rejected; state_weights(E, 0.0) gives the T = 0
    ground-manifold mixture, so that degenerate level crossings stay well
    defined.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive; use state_weights for T = 0")
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
