"""Step tournamentons, the carousel limit object and executable lemma checks.

A step tournamenton is a k x k grid W of values in [0, 1] with
W_ij + W_ji = 1: the kernel is constant on the cells of the uniform k-grid
of [0,1]^2.  Its scaled matrix A = W/k is complementary, and the cycle
density of length l is exactly 2^l * Trace(A^l).

The carousel kernel sends each point to beat the half circle after it; its
grids are circulant, so they are held as their first row alone (the grid is
a strided view of it, O(k) memory), and they converge to the conjectured
maxima for lengths divisible by four.  ``StepTournamenton.first_row`` is the
only record of circulance: a grid that has one takes its densities and
spectrum from the FFT of that row, and every other grid, circulant or not,
goes through dense matrix algebra.
Those maxima are the series 1 + 2 * sum_i (2 / ((2i-1) pi))^l, which equals
1 + T/(l-1)! for the tangent number T; they are computed here exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral import (
    ComplementaryMatrix,
    SkewMatrix,
    _max_pair_error,
    _require_square,
    eigenvalues,
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
]

GRID_TOL = 1e-12


@dataclass(frozen=True)
class StepTournamenton:
    """k x k grid of values in [0,1] with W_ij + W_ji = 1 and diagonal 1/2.

    Built from a grid, ``values`` is a read-only float64 copy of it, the only
    k x k array the checks allocate, and ``first_row`` is None.  Built with
    ``from_first_row``, the grid is circulant: ``first_row`` is a read-only
    copy of the row and ``values`` a read-only strided view of it, so nothing
    of size k x k is allocated.  NaN fails every check.
    """

    values: np.ndarray
    first_row: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        _require_square(v, "step tournamenton grid")
        _require_unit_range(v)
        if not (_max_pair_error(v, 1.0) <= GRID_TOL):
            raise ValueError("W_ij + W_ji must equal 1")

    @classmethod
    def from_first_row(cls, row) -> StepTournamenton:
        """Circulant grid whose row i is ``row`` shifted i places right.

        W_ij + W_ji = row[(j-i) % k] + row[(i-j) % k], so the pair check of
        the whole grid is row[d] + row[(k-d) % k] = 1 for every offset d,
        which is O(k); d = 0 is the diagonal 1/2.  Row i is window k - i of
        the doubled row, and ``values`` is the (k, k) view of those windows.
        """
        r = np.asarray(row, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError(f"first row must be 1-D and non-empty, got shape {r.shape}")
        _require_unit_range(r)
        if not (np.max(np.abs(r + np.roll(r[::-1], 1) - 1.0)) <= GRID_TOL):
            raise ValueError("W_ij + W_ji must equal 1")
        k = r.size
        doubled = np.concatenate((r, r))
        doubled.flags.writeable = False
        windows = np.lib.stride_tricks.sliding_window_view(doubled, k)
        w = object.__new__(cls)
        object.__setattr__(w, "values", windows[k:0:-1])
        object.__setattr__(w, "first_row", doubled[:k])
        return w

    @property
    def k(self) -> int:
        return self.values.shape[0]


def _require_unit_range(v: np.ndarray) -> None:
    if not (v.min() >= -GRID_TOL and v.max() <= 1 + GRID_TOL):
        raise ValueError("grid values must lie in [0, 1]")


def carousel_tournamenton(k: int) -> StepTournamenton:
    """Cell averages of the carousel kernel on the uniform k-grid (k even).

    The kernel wins exactly on 0 < (y - x) mod 1 <= 1/2, so a cell at cyclic
    offset d = (j - i) mod k averages to 1 for 0 < d < k/2, to 0 for
    d > k/2, and to 1/2 on the diagonal and on the antipodal boundary
    d = k/2.  Odd k would leave cells straddling the boundary, hence the
    parity requirement.

    The grid is circulant, so only its first row is built and kept; see
    ``StepTournamenton.from_first_row``.
    """
    if k < 2 or k % 2:
        raise ValueError(f"carousel grid needs even k >= 2, got {k}")
    first = np.zeros(k)
    first[1 : k // 2] = 1.0
    first[0] = first[k // 2] = 0.5
    return StepTournamenton.from_first_row(first)


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

    Computed as (2/k)^l * Trace(W^l), so the grid is never copied.  A grid
    held as its first row takes Trace(W^l) as the power sum of that row's FFT.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if w.first_row is None:
        trace = trace_power(w.values, length)
    else:
        trace = float(np.sum(np.fft.fft(w.first_row) ** length).real)
    return float((2 / w.k) ** length * trace)


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
    bj = a.sum(axis=1)
    norm2 = float(bj @ bj)
    jb = a + 1.0  # J + B; J = jj^T, so Trace J^p = n^p exactly
    lhs4 = trace_power(jb, 4)
    rhs4 = n**4 + trace_power(a, 4) - 4 * n * norm2
    lhs8 = trace_power(jb, 8)
    slack8 = n**8 + trace_power(a, 8) - 2 * n**5 * norm2 - lhs8
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
    """Spectral radius of a [-1,1] skew matrix against the dominant matrix of its order.

    D_n is skew-circulant, so the twisted DFT diagonalises it (Davis,
    *Circulant Matrices*, 1979): its eigenvalues are i cot(pi (2m+1) / 2n)
    and rho(D_n) = cot(pi / 2n), taken in closed form.
    """
    arr = np.asarray(getattr(a, "values", a), dtype=float)
    if not isinstance(a, SkewMatrix):
        SkewMatrix(arr)
    if np.any(np.abs(arr) > 1 + GRID_TOL):
        raise ValueError("entries must lie in [-1, 1]")
    n = arr.shape[0]
    rho_a = float(np.max(np.abs(skew_spectrum(arr))))
    rho_d = 1 / math.tan(math.pi / (2 * n))
    return DominanceReport(rho_a=rho_a, rho_d=rho_d, ok=rho_a <= rho_d + 1e-9)


def regular_second_eigenvalue(w: StepTournamenton) -> float:
    """Largest eigenvalue modulus of a regular grid besides the 1/2 eigenvalue.

    The spectrum of W/k is the FFT of the first row over k for a grid held
    as its first row, and comes from the dense eigensolver otherwise.
    """
    k = w.k
    # every row of a circulant grid holds the entries of its first row
    rows = w.values if w.first_row is None else w.first_row[None, :]
    if np.max(np.abs(rows.sum(axis=1) - k / 2)) > 1e-9:
        raise ValueError("grid is not regular: row sums must all equal k/2")
    if w.first_row is None:
        vals = eigenvalues(w.values / k).eigenvalues
    else:
        vals = np.fft.fft(w.first_row) / k
    half_pos = int(np.argmin(np.abs(vals - 0.5)))
    if abs(vals[half_pos] - 0.5) > 1e-6:
        raise ValueError("regular grid is missing its 1/2 eigenvalue")
    rest = np.delete(vals, half_pos)
    return float(np.max(np.abs(rest))) if rest.size else 0.0

