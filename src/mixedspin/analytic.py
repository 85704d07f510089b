"""Closed-form thermodynamics and negativities for the small rings.

These expressions are the independent oracles for the numeric pipeline: the
two-site ring (with and without a field), the three-site ring, and the
four-site ring with next-nearest couplings. Every exponential is evaluated
relative to the largest exponent in its expression so that inverse
temperatures up to ~1e3 are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# Temperature above which the two-site thermal state loses its entanglement.
TWO_SPIN_T_THRESHOLD = 3.0 / (4.0 * math.log(2.0))


def _shifted_terms(coeffs, exponents, shift):
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(exponents, dtype=float)
    return float(np.dot(c, np.exp(x - shift)))


def exp_poly_ratio(num_coeffs, num_exps, den_coeffs, den_exps) -> float:
    """(sum c_i e^{x_i}) / (sum d_j e^{y_j}) with a common overflow shift."""
    shift = max(np.max(num_exps), np.max(den_exps))
    return (_shifted_terms(num_coeffs, num_exps, shift)
            / _shifted_terms(den_coeffs, den_exps, shift))


# ---------------------------------------------------------------------------
# Two-site ring (1/2, 1), no field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoSpinElements:
    """Normalized thermal matrix elements of the two-site ring.

    In the basis ordered by total-z blocks the state is block diagonal with
    diagonal (a1, a2, a3, a4, a5, a6) and off-diagonal b1 (coupling a2/a3)
    and b2 (coupling a4/a5). log_z is the log partition function.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float
    b1: float
    b2: float
    log_z: float

    @property
    def diagonal_sum(self) -> float:
        return self.a1 + self.a2 + self.a3 + self.a4 + self.a5 + self.a6


def two_spin_elements(beta: float) -> TwoSpinElements:
    """Field-free elements: a1=a6, a2=a5=1/6, a3=a4, b1=b2=sqrt(2)(a1-a2)."""
    exps = np.array([beta, -0.5 * beta])
    shift = exps.max()
    e_hi, e_lo = np.exp(exps - shift)
    z = 2.0 * e_hi + 4.0 * e_lo
    a1 = e_lo / z
    a2 = 1.0 / 6.0
    a3 = (2.0 * e_hi + e_lo) / (3.0 * z)
    b1 = SQRT2 * (a1 - a2)
    log_z = shift + math.log(z)
    return TwoSpinElements(a1=a1, a2=a2, a3=a3, a4=a3, a5=a2, a6=a1,
                           b1=b1, b2=b1, log_z=log_z)


def block_negativity(el: TwoSpinElements) -> float:
    """Negativity of the two-site state from its partially transposed blocks."""
    first = math.hypot(el.a1 - el.a2, 2.0 * el.b2) - (el.a1 + el.a2)
    second = math.hypot(el.a5 - el.a6, 2.0 * el.b1) - (el.a5 + el.a6)
    return 0.5 * max(0.0, first) + 0.5 * max(0.0, second)


def two_spin_negativity(beta: float) -> float:
    """(1/3) max[0, (e^b - 4e^{-b/2}) / (e^b + 2e^{-b/2})]."""
    return max(0.0, two_spin_negativity_signed(beta))


def two_spin_negativity_signed(beta: float) -> float:
    """Unclamped argument of two_spin_negativity; negative means separable."""
    return exp_poly_ratio([1.0, -4.0], [beta, -0.5 * beta],
                          [1.0, 2.0], [beta, -0.5 * beta]) / 3.0


def two_spin_internal_energy(beta: float) -> float:
    """U = (-e^b + e^{-b/2}) / (e^b + 2e^{-b/2})."""
    return exp_poly_ratio([-1.0, 1.0], [beta, -0.5 * beta],
                          [1.0, 2.0], [beta, -0.5 * beta])


def negativity_from_internal_energy(u: float) -> float:
    """(1/3) max[0, -1 - 2U]: internal energy alone fixes the negativity."""
    return max(0.0, -1.0 - 2.0 * u) / 3.0


# ---------------------------------------------------------------------------
# Three-site ring (1/2, 1, 1/2)
# ---------------------------------------------------------------------------

_THREE_EXPS = (-1.25, 0.75, 1.75)          # energy exponents E = (5/4, -3/4, -7/4)
_THREE_Z = (5.0, 6.0, 1.0)


@dataclass(frozen=True)
class ThreeSpinElements:
    """Normalized elements of both pair reductions of the three-site ring.

    (a1, a2, a3, b1) describe the mixed (1/2,1) pair in the same block layout
    as TwoSpinElements (with a4=a3, a5=a2, a6=a1, b2=b1); (aa1, aa2, bb)
    describe the half-half pair: diagonal (aa1, aa2, aa2, aa1) with bb
    coupling the two middle states.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    aa1: float
    aa2: float
    bb: float
    log_z: float


def _three_ratio(coeffs, beta: float) -> float:
    exps = [e * beta for e in _THREE_EXPS]
    return exp_poly_ratio(coeffs, exps, _THREE_Z, exps)


def three_spin_elements(beta: float) -> ThreeSpinElements:
    a1 = _three_ratio([1.25, 0.75, 0.0], beta)
    a2 = _three_ratio([5.0 / 6.0, 1.0, 1.0 / 6.0], beta)
    a3 = _three_ratio([5.0 / 12.0, 1.25, 1.0 / 3.0], beta)
    b1 = _three_ratio([5.0 * SQRT2 / 12.0, -SQRT2 / 4.0, -SQRT2 / 6.0], beta)
    aa1 = _three_ratio([5.0 / 3.0, 1.0, 1.0 / 3.0], beta)
    aa2 = _three_ratio([5.0 / 6.0, 2.0, 1.0 / 6.0], beta)
    bb = _three_ratio([5.0 / 6.0, -1.0, 1.0 / 6.0], beta)
    exps = np.array([e * beta for e in _THREE_EXPS])
    shift = exps.max()
    log_z = float(shift + math.log(np.dot(_THREE_Z, np.exp(exps - shift))))
    return ThreeSpinElements(a1=a1, a2=a2, a3=a3, b1=b1,
                             aa1=aa1, aa2=aa2, bb=bb, log_z=log_z)


def three_spin_negativity_12(beta: float) -> float:
    """Negativity of the mixed pair: max[0, -10/3 x1 - x2 + 1/3 x3] / Z."""
    return max(0.0, three_spin_negativity_12_signed(beta))


def three_spin_negativity_12_signed(beta: float) -> float:
    return _three_ratio([-10.0 / 3.0, -1.0, 1.0 / 3.0], beta)


def three_spin_rho13_spectrum(beta: float) -> np.ndarray:
    """Eigenvalues of the partially transposed half-half pair (all nonnegative)."""
    el = three_spin_elements(beta)
    lam1 = el.aa1 + el.bb
    lam2 = el.aa1 - el.bb
    return np.array([lam1, lam2, el.aa2, el.aa2])


def three_spin_energy_relation(n12: float, n13: float) -> float:
    """Internal energy from the two signed pair negativities: -5/4 - n13 - 3 n12."""
    return -1.25 - n13 - 3.0 * n12


def three_spin_threshold() -> float:
    """Temperature where the mixed-pair negativity vanishes.

    Root of y^3 - 3y^2 - 10 = 0 in y = e^(1/T), bracketed by bisection; the
    crossing sits near T = 0.7609.
    """
    def f(y: float) -> float:
        return y * y * y - 3.0 * y * y - 10.0

    lo, hi = 3.0, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / math.log(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Even rings: energy-per-site relation
# ---------------------------------------------------------------------------

def even_ring_negativity_from_energy(u_per_site: float) -> float:
    """Nearest-pair negativity of an even ring (n >= 4) from U/N."""
    return max(0.0, -1.0 / 3.0 - (2.0 / 3.0) * u_per_site)


# ---------------------------------------------------------------------------
# Four-site ring with next-nearest couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourSpinSpectrum:
    """Complete level ladder (energy, multiplicity) of the four-site model."""

    levels: tuple[tuple[float, int], ...]

    def eigenvalue_multiset(self) -> np.ndarray:
        values = np.concatenate([[e] * m for e, m in self.levels])
        return np.sort(values)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.levels)


def four_spin_levels(j1: float, j2: float) -> FourSpinSpectrum:
    """All 10 levels of the four-site ring; multiplicities are 2S+1 per level.

    The four families come from coupling the two spin-halves (j in {0,1}) and
    the two spin-ones (J in {0,1,2}) and then the total spin.
    """
    levels = []
    for n in (0, 1, 2):
        levels.append((j2 * n * (n + 1) - 5.5 * j2, 2 * n + 1))
        levels.append((n * j1 + n * (n + 1) * j2 - 3.5 * j2, 2 * n + 3))
    for n in (1, 2):
        levels.append((-j1 + n * (n + 1) * j2 - 3.5 * j2, 2 * n + 1))
        levels.append((-(n + 1) * j1 + n * (n + 1) * j2 - 3.5 * j2, 2 * n - 1))
    return FourSpinSpectrum(levels=tuple(levels))


def four_spin_ground_energy(j1: float, j2: float) -> float:
    """Piecewise ground energy with level crossings at j2 = j1/4 and j1/2."""
    if j2 <= 0.25 * j1:
        return -3.0 * j1 + 2.5 * j2
    if j2 <= 0.5 * j1:
        return -2.0 * j1 - 1.5 * j2
    return -5.5 * j2


# Partition terms: (multiplicity, j2 exponent rate, j1 exponent rate) so that
# Z = sum m * exp(beta*(r2*j2 + r1*j1)).
_FOUR_TERMS = (
    (5.0, -0.5, 0.0), (6.0, 3.5, 0.0), (1.0, 5.5, 0.0),
    (7.0, -2.5, -2.0), (5.0, -2.5, 1.0), (3.0, -2.5, 3.0),
    (5.0, 1.5, -1.0), (3.0, 1.5, 1.0), (1.0, 1.5, 2.0),
)

# d(term)/d(j1) rates divided by beta, matching _FOUR_TERMS order.
_FOUR_DJ1 = (0.0, 0.0, 0.0, -14.0, 5.0, 9.0, -5.0, 3.0, 2.0)


def four_spin_log_partition(beta: float, j1: float, j2: float) -> float:
    exps = np.array([beta * (r2 * j2 + r1 * j1) for _, r2, r1 in _FOUR_TERMS])
    coeffs = np.array([m for m, _, _ in _FOUR_TERMS])
    shift = exps.max()
    return float(shift + math.log(np.dot(coeffs, np.exp(exps - shift))))


def four_spin_partition(beta: float, j1: float, j2: float) -> float:
    return math.exp(four_spin_log_partition(beta, j1, j2))


def four_spin_correlator(beta: float, j1: float, j2: float) -> float:
    """Nearest-pair correlator <s.S> = -(1/(4 beta Z)) dZ/dJ1, evaluated in closed form."""
    exps = np.array([beta * (r2 * j2 + r1 * j1) for _, r2, r1 in _FOUR_TERMS])
    z_coeffs = np.array([m for m, _, _ in _FOUR_TERMS])
    num_coeffs = np.array(_FOUR_DJ1)
    shift = exps.max()
    weights = np.exp(exps - shift)
    return float(-np.dot(num_coeffs, weights) / (4.0 * np.dot(z_coeffs, weights)))


def four_spin_negativity_half_one(beta: float, j1: float, j2: float) -> float:
    """Thermal nearest-pair negativity of the four-site model."""
    return max(0.0, -1.0 / 3.0 - (2.0 / 3.0) * four_spin_correlator(beta, j1, j2))


# ---------------------------------------------------------------------------
# Two-site ring with a z field
# ---------------------------------------------------------------------------

def field_elements(beta: float, b: float) -> TwoSpinElements:
    """Thermal elements of the two-site ring in a field, trace-normalized.

    Each element is a short sum of Boltzmann terms; the printed partition
    function in the source material is inconsistent with the level content,
    so the normalization here is the recomputed trace (see the tests, which
    pin the elements against the full numeric state).
    """
    half_bb = 0.5 * beta * b
    terms = {
        "a1": ([1.0], [0.5 * beta * (3.0 * b - 1.0)]),
        "a6": ([1.0], [-0.5 * beta * (3.0 * b + 1.0)]),
        "a5": ([1.0 / 3.0, 2.0 / 3.0], [half_bb + beta, half_bb - 0.5 * beta]),
        "a2": ([1.0 / 3.0, 2.0 / 3.0], [-half_bb + beta, -half_bb - 0.5 * beta]),
        "a4": ([2.0 / 3.0, 1.0 / 3.0], [half_bb + beta, half_bb - 0.5 * beta]),
        "a3": ([2.0 / 3.0, 1.0 / 3.0], [-half_bb + beta, -half_bb - 0.5 * beta]),
        "b2": ([-SQRT2 / 3.0, SQRT2 / 3.0], [half_bb + beta, half_bb - 0.5 * beta]),
        "b1": ([-SQRT2 / 3.0, SQRT2 / 3.0], [-half_bb + beta, -half_bb - 0.5 * beta]),
    }
    shift = max(max(exps) for _, exps in terms.values())
    raw = {name: _shifted_terms(c, x, shift) for name, (c, x) in terms.items()}
    z = raw["a1"] + raw["a2"] + raw["a3"] + raw["a4"] + raw["a5"] + raw["a6"]
    log_z = shift + math.log(z)
    return TwoSpinElements(a1=raw["a1"] / z, a2=raw["a2"] / z, a3=raw["a3"] / z,
                           a4=raw["a4"] / z, a5=raw["a5"] / z, a6=raw["a6"] / z,
                           b1=raw["b1"] / z, b2=raw["b2"] / z, log_z=log_z)


def field_negativity(beta: float, b: float) -> float:
    """Thermal negativity of the two-site ring in a z field."""
    return block_negativity(field_elements(beta, b))
