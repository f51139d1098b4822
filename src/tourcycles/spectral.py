"""Dense spectral machinery for tournament and skew-symmetric matrices.

The tournament matrix of an n-vertex tournament is the adjacency matrix with
diagonal 1/2, divided by n; it is complementary (A_ij + A_ji = 1/n) and its
eigenvalues sum to 1/2, have non-negative real part, and the spectral radius
is attained by a positive real eigenvalue.  Cycle densities are approximated
by 2^l * Trace(A^l) up to O(1/n).

A circulant matrix (every row the cyclic shift of the one above) is
diagonalized by the Fourier basis: its eigenvalues are the FFT of its first
row, so its trace powers cost O(n log n) once the O(n^2) circulant check
has passed.

Eigenvalues are computed with LAPACK via numpy (Hessenberg reduction plus
shifted QR with deflation for general matrices; for a skew matrix B the
spectrum is recovered from the symmetric negative-semidefinite matrix B^2,
whose eigenvalues are -a^2 in pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tournaments import Tournament

__all__ = [
    "ComplementaryMatrix",
    "SkewMatrix",
    "SpectrumReport",
    "EigensolverError",
    "tournament_matrix",
    "skew_part",
    "make_dominant",
    "circulant_spectrum",
    "trace_power",
    "trace_density",
    "eigenvalues",
    "skew_spectrum",
    "parse_matrix",
    "format_matrix",
]

PAIR_TOL = 1e-12


class EigensolverError(RuntimeError):
    """Raised when the eigensolver fails to converge; never silent."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ComplementaryMatrix:
    """Non-negative square matrix with A_ij + A_ji = 1/n (hence diagonal 1/(2n))."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        a = self.values
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("complementary matrix must be square")
        n = a.shape[0]
        if np.any(a < -PAIR_TOL):
            raise ValueError("complementary matrix must be non-negative")
        if np.max(np.abs(a + a.T - 1.0 / n)) > PAIR_TOL:
            raise ValueError("A_ij + A_ji must equal 1/n")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SkewMatrix:
    """Real matrix with A = -A^T and zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        a = self.values
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("skew matrix must be square")
        if np.max(np.abs(a + a.T)) > PAIR_TOL:
            raise ValueError("matrix is not skew-symmetric")
        if np.max(np.abs(np.diag(a))) > 0:
            raise ValueError("skew matrix must have an exactly zero diagonal")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    """Full complex spectrum plus the statistics used by the invariant checks.

    ``rho`` is the largest (numerically) real eigenvalue, or None if the
    spectrum contains no real eigenvalue; ``radius`` is max |lambda|.
    """

    eigenvalues: np.ndarray
    rho: float | None
    radius: float
    eig_sum: complex
    vectors: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "rho": None if self.rho is None else float(self.rho),
            "radius": float(self.radius),
            "eig_sum": [float(self.eig_sum.real), float(self.eig_sum.imag)],
        }


def tournament_matrix(t: Tournament) -> ComplementaryMatrix:
    """Adjacency with 1/2 diagonal, divided by n."""
    a = t.adjacency().astype(float)
    np.fill_diagonal(a, 0.5)
    return ComplementaryMatrix(a / t.n)


def skew_part(t: Tournament) -> SkewMatrix:
    """Sign matrix of the tournament: B_ij = +1 iff i beats j, 0 diagonal."""
    a = t.adjacency().astype(float)
    return SkewMatrix(a - a.T)


def make_dominant(n: int) -> SkewMatrix:
    """The skew matrix with +1 above and -1 below the diagonal (transitive pattern)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    idx = np.arange(n)
    d = np.sign(np.subtract.outer(idx, idx)) * -1.0
    return SkewMatrix(d)


def _dense(m) -> np.ndarray:
    return np.asarray(getattr(m, "values", m), dtype=float)


def circulant_spectrum(m) -> np.ndarray | None:
    """Eigenvalues of M as the FFT of its first row, or None unless M is exactly circulant.

    M is circulant when every row i equals the first row cyclically shifted
    i places right.  Rows are compared one at a time against views of the
    doubled first row, so the check builds no n x n temporary and stops at
    the first row that differs.
    """
    a = _dense(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        return None
    n = a.shape[0]
    first = a[0]
    # shifts[n - i] is the first row shifted i places right
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((first, first)), n)
    for i in range(1, n):
        if (a[i] != shifts[n - i]).any():
            return None
    return np.fft.fft(first)


def trace_power(m, power: int) -> float:
    """Trace(M^power): sum of eigenvalue powers if M is circulant, else binary powering."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    a = _dense(m)
    lam = circulant_spectrum(a)
    if lam is not None:
        return float(np.sum(lam**power).real)
    return float(np.trace(np.linalg.matrix_power(a, power)))


def trace_density(t: Tournament, length: int) -> float:
    """2^l * Trace(A^l) for the tournament matrix A; within O(1/n) of the cycle density."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    return 2**length * trace_power(tournament_matrix(t), length)


def eigenvalues(m, with_vectors: bool = False) -> SpectrumReport:
    """Full complex spectrum of a general real square matrix.

    Eigenvalues are sorted by (-re, -im); with ``with_vectors`` the columns
    of ``vectors`` follow the same order, so pair i satisfies
    ||M v_i - lambda_i v_i|| <= 1e-8 ||M||_F.  The eigenvalue sum is checked
    against the trace; a LAPACK convergence failure is reported as
    EigensolverError with the matrix order in the message.
    """
    a = _dense(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues need a square matrix")
    n = a.shape[0]
    try:
        if with_vectors:
            vals, vecs = np.linalg.eig(a)
        else:
            vals = np.linalg.eigvals(a)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed to converge on order-{n} matrix: {exc}"
        ) from exc
    s = complex(np.sum(vals))
    if abs(s - np.trace(a)) > 1e-9 * max(1.0, float(np.linalg.norm(a, "fro"))) * n:
        raise EigensolverError(
            f"eigenvalue sum {s} inconsistent with trace {np.trace(a)} at order {n}"
        )
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    real_mask = np.abs(vals.imag) <= 1e-8 * scale
    rho = float(np.max(vals.real[real_mask])) if np.any(real_mask) else None
    order = np.lexsort((-vals.imag, -vals.real))
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return SpectrumReport(
        eigenvalues=vals,
        rho=rho,
        radius=float(np.max(np.abs(vals))) if n else 0.0,
        eig_sum=s,
        vectors=vecs,
    )


def skew_spectrum(b) -> np.ndarray:
    """Eigenvalues of a skew matrix as exactly-imaginary values.

    B^2 is symmetric negative semidefinite with each eigenvalue -a^2 doubled;
    the spectrum of B is the paired +/- i*a plus zeros, so it is recovered
    from the symmetric eigendecomposition of -B^2.
    """
    a = _dense(b)
    if not isinstance(b, SkewMatrix):
        SkewMatrix(a)  # validate skewness
    n = a.shape[0]
    try:
        mu = np.linalg.eigvalsh(-(a @ a))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"symmetric eigensolver failed on order-{n} matrix: {exc}"
        ) from exc
    mods = np.sqrt(np.clip(mu, 0.0, None))[::-1]  # descending, each a twice
    vals = np.zeros(n, dtype=complex)
    for i in range(0, n - 1, 2):
        vals[i] = 1j * mods[i]
        vals[i + 1] = -1j * mods[i]
    return vals


def format_matrix(m) -> str:
    """Text form: first line n, then n whitespace-separated rows of reals."""
    a = _dense(m)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [float(x) for x in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    return np.array(rows)
