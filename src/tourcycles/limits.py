"""Step tournamentons, the carousel limit object and executable lemma checks.

A step tournamenton is a k x k grid W of values in [0, 1] with
W_ij + W_ji = 1: the kernel is constant on the cells of the uniform k-grid
of [0,1]^2.  Its scaled matrix A = W/k is complementary, and the cycle
density of length l is exactly 2^l * Trace(A^l).

The carousel kernel sends each point to beat the half circle after it; its
grids are circulant, so their densities come from the FFT of one row, and
they converge to the conjectured maxima for lengths divisible by four.
Those maxima are the series 1 + 2 * sum_i (2 / ((2i-1) pi))^l, which equals
1 + T/(l-1)! for the tangent number T; they are computed here exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import (
    ComplementaryMatrix,
    SkewMatrix,
    _max_pair_error,
    _require_square,
    circulant_spectrum,
    eigenvalues,
    format_matrix,
    make_dominant,
    parse_matrix,
    skew_spectrum,
    trace_power,
)

__all__ = [
    "StepTournamenton",
    "ConjectureValue",
    "MidtermsReport",
    "SumsqExtremal",
    "DominanceReport",
    "carousel_tournamenton",
    "random_step_tournamenton",
    "step_approximation",
    "cycle_density_W",
    "conjectured_c",
    "lower_bound_c",
    "check_midterms",
    "sumsq_extremal",
    "antisym_dominance",
    "regular_second_eigenvalue",
    "parse_step_tournamenton",
    "format_step_tournamenton",
]

GRID_TOL = 1e-12


@dataclass(frozen=True)
class StepTournamenton:
    """k x k grid of values in [0,1] with W_ij + W_ji = 1 and diagonal 1/2.

    ``values`` is a read-only float64 copy of the grid it is given, and that
    copy is the only k x k array the checks allocate; NaN fails every one.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        _require_square(v, "step tournamenton grid")
        if not (v.min() >= -GRID_TOL and v.max() <= 1 + GRID_TOL):
            raise ValueError("grid values must lie in [0, 1]")
        if not (_max_pair_error(v, 1.0) <= GRID_TOL):
            raise ValueError("W_ij + W_ji must equal 1")

    @property
    def k(self) -> int:
        return self.values.shape[0]


def carousel_tournamenton(k: int) -> StepTournamenton:
    """Cell averages of the carousel kernel on the uniform k-grid (k even).

    The kernel wins exactly on 0 < (y - x) mod 1 <= 1/2, so a cell at cyclic
    offset d = (j - i) mod k averages to 1 for 0 < d < k/2, to 0 for
    d > k/2, and to 1/2 on the diagonal and on the antipodal boundary
    d = k/2.  Odd k would leave cells straddling the boundary, hence the
    parity requirement.

    Only the first row is built.  Row i is that row shifted i places right,
    which is window k - i of the doubled row, so the grid is handed to
    StepTournamenton as a strided view of those windows and its one copy
    there is the grid's only k x k allocation.
    """
    if k < 2 or k % 2:
        raise ValueError(f"carousel grid needs even k >= 2, got {k}")
    first = np.zeros(k)
    first[1 : k // 2] = 1.0
    first[0] = first[k // 2] = 0.5
    doubled = np.concatenate((first, first))
    return StepTournamenton(np.lib.stride_tricks.sliding_window_view(doubled, k)[k:0:-1])


def random_step_tournamenton(k: int, seed: int) -> StepTournamenton:
    """Uniformly random grid: independent U(0,1) above the diagonal."""
    rng = np.random.default_rng(seed)
    w = np.full((k, k), 0.5)
    upper = np.triu_indices(k, 1)
    vals = rng.random(len(upper[0]))
    w[upper] = vals
    w[(upper[1], upper[0])] = 1.0 - vals
    return StepTournamenton(w)


def step_approximation(w: StepTournamenton, coarse_k: int) -> ComplementaryMatrix:
    """Block-averaged complementary matrix of order ``coarse_k`` (must divide k)."""
    k = w.k
    if coarse_k < 1 or k % coarse_k:
        raise ValueError(f"coarse resolution {coarse_k} must divide {k}")
    r = k // coarse_k
    blocks = w.values.reshape(coarse_k, r, coarse_k, r).mean(axis=(1, 3))
    return ComplementaryMatrix(blocks / coarse_k)


def cycle_density_W(w: StepTournamenton, length: int) -> float:
    """Exact cycle density of the step tournamenton: 2^l * Trace((W/k)^l).

    Computed as (2/k)^l * Trace(W^l), so the grid is never copied.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    return float((2 / w.k) ** length * trace_power(w.values, length))


@dataclass(frozen=True)
class ConjectureValue:
    """Value of 1 + 2 * sum_i (2 / ((2i-1) pi))^l, exactly and as floats.

    ``exact`` is the rational value 1 + T/(l-1)!.  ``excess`` is
    ``exact - 1`` rounded once to a float; for large l it carries the full
    relative precision that ``value - 1.0`` would lose to rounding, and
    ``value`` is ``1.0 + excess``.  Nothing is truncated, so ``terms_used``
    and ``truncation_bound`` are always 0; they remain for the columns of
    the conjecture table.
    """

    length: int
    value: float
    excess: float
    terms_used: int
    truncation_bound: float
    exact: Fraction


# math.pi is below pi; the next float up is above it
_PI_ABOVE = Fraction(math.nextafter(math.pi, 4.0))


def lower_bound_c(length: int) -> float:
    """First series term alone, 2 * (2/pi)^l, rounded down so it stays a lower bound.

    The power is taken exactly with a rational just above pi, and the result
    is rounded to the float at or below it.
    """
    bound = 2 * (2 / _PI_ABOVE) ** length
    low = float(bound)
    return low if Fraction(low) <= bound else math.nextafter(low, 0.0)


def _tangent_number(m: int) -> int:
    """T = (2m-1)! [x^(2m-1)] tan x: 1, 2, 16, 272, ... for m = 1, 2, 3, 4, ...

    Integer recurrence of Knuth and Buckholtz (Math. Comp. 21, 1967), O(m^2)
    operations on exact integers.
    """
    t = [0, 1] + [0] * (m - 1)
    for j in range(2, m + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[m]


def conjectured_c(length: int) -> ConjectureValue:
    """Conjectured maximum cycle density for lengths divisible by four.

    By lambda(l) = (2^l - 1) |B_l| pi^l / (2 * l!) for the Dirichlet lambda
    function, the series 1 + 2 * sum_i (2 / ((2i-1) pi))^l equals
    1 + T/(l-1)! with T the tangent number of index l-1; the value is exact.
    """
    if length < 4 or length % 4:
        raise ValueError(f"length must be a positive multiple of 4, got {length}")
    exact = 1 + Fraction(_tangent_number(length // 2), math.factorial(length - 1))
    excess = float(exact - 1)
    return ConjectureValue(
        length=length,
        value=1.0 + excess,
        excess=excess,
        terms_used=0,
        truncation_bound=0.0,
        exact=exact,
    )


@dataclass(frozen=True)
class MidtermsReport:
    """Residual and slack of the trace identities for J + B.

    residual4 is |Trace(J+B)^4 - (Trace J^4 + Trace B^4 - 4n ||Bj||^2)|,
    slack8 is Trace J^8 + Trace B^8 - 2 n^5 ||Bj||^2 - Trace(J+B)^8 (the
    eighth-power inequality, non-negative up to rounding), and row_sum_norm
    is ||Bj|| with j the all-ones vector; both sides become equal exactly
    when every row of B sums to zero.
    """

    residual4: float
    slack8: float
    row_sum_norm: float


def check_midterms(b) -> MidtermsReport:
    """Evaluate the fourth- and eighth-power trace identities."""
    a = np.asarray(getattr(b, "values", b), dtype=float)
    if not isinstance(b, SkewMatrix):
        SkewMatrix(a)  # validate skewness
    if np.any(np.abs(a) > 1 + GRID_TOL):
        raise ValueError("entries must lie in [-1, 1]")
    n = a.shape[0]
    j = np.ones((n, n))
    bj = a.sum(axis=1)
    norm2 = float(bj @ bj)
    lhs4 = trace_power(j + a, 4)
    rhs4 = trace_power(j, 4) + trace_power(a, 4) - 4 * n * norm2
    lhs8 = trace_power(j + a, 8)
    slack8 = trace_power(j, 8) + trace_power(a, 8) - 2 * n**5 * norm2 - lhs8
    return MidtermsReport(
        residual4=abs(lhs4 - rhs4),
        slack8=slack8,
        row_sum_norm=math.sqrt(norm2),
    )


@dataclass(frozen=True)
class SumsqExtremal:
    """Maximizer of sum x_i^2 under the nested partial-sum constraints."""

    x: tuple[float, ...]
    max_value: float


def sumsq_extremal(s) -> SumsqExtremal:
    """Extremal point of the majorization system.

    Given positive s_1..s_k, the vector x_i = s_i + s_{i+1} + ... + s_k meets
    every constraint sum_{i<=m} x_i <= sum_{i<=k} min(i, m) s_i with equality
    and maximizes sum x_i^2 among admissible non-increasing vectors.
    """
    s = [float(v) for v in s]
    if not s or any(v <= 0 for v in s):
        raise ValueError("weights must be positive")
    suffix = [float(v) for v in np.cumsum(s[::-1])[::-1]]
    return SumsqExtremal(
        x=tuple(suffix),
        max_value=float(sum(v * v for v in suffix)),
    )


@dataclass(frozen=True)
class DominanceReport:
    rho_a: float
    rho_d: float
    ok: bool


def antisym_dominance(a) -> DominanceReport:
    """Spectral radius of a [-1,1] skew matrix against the dominant matrix of its order."""
    arr = np.asarray(getattr(a, "values", a), dtype=float)
    if not isinstance(a, SkewMatrix):
        SkewMatrix(arr)
    if np.any(np.abs(arr) > 1 + GRID_TOL):
        raise ValueError("entries must lie in [-1, 1]")
    n = arr.shape[0]
    rho_a = float(np.max(np.abs(skew_spectrum(arr))))
    rho_d = float(np.max(np.abs(skew_spectrum(make_dominant(n)))))
    return DominanceReport(rho_a=rho_a, rho_d=rho_d, ok=rho_a <= rho_d + 1e-9)


def regular_second_eigenvalue(w: StepTournamenton) -> float:
    """Largest eigenvalue modulus of a regular grid besides the 1/2 eigenvalue."""
    k = w.k
    row_sums = w.values.sum(axis=1)
    if np.max(np.abs(row_sums - k / 2)) > 1e-9:
        raise ValueError("grid is not regular: row sums must all equal k/2")
    vals = circulant_spectrum(w.values)
    if vals is None:
        vals = eigenvalues(step_approximation(w, k)).eigenvalues
    else:
        vals = vals / k
    half_pos = int(np.argmin(np.abs(vals - 0.5)))
    if abs(vals[half_pos] - 0.5) > 1e-6:
        raise ValueError("regular grid is missing its 1/2 eigenvalue")
    rest = np.delete(vals, half_pos)
    return float(np.max(np.abs(rest))) if rest.size else 0.0


def format_step_tournamenton(w: StepTournamenton) -> str:
    """Text form of ``spectral.format_matrix``: first line k, then k whitespace-separated rows."""
    return format_matrix(w)


def parse_step_tournamenton(text: str) -> StepTournamenton:
    return StepTournamenton(parse_matrix(text))
