"""Cyclic index of skew sign matrices, sign-equivalence, exhaustive maxima.

The cyclic index of a square matrix A of order n is

    Cycl A = sum over permutations pi of prod_i A[pi(i), pi(i+1)]   (pi(n+1)=pi(1)),

i.e. the signed count of closed tours through all vertices.  For skew
matrices with +/-1 off-diagonal entries the maximum of Cycl over a fixed
order is found by exhausting all matrices whose first row is +1 (every
sign-equivalence class has such representatives), which leaves 2^binom(n-1,2)
candidates: 8 at order 4 and 2 097 152 at order 8.

The search does not evaluate those candidates one by one.  A tour uses
each vertex pair at most once, so Cycl is a multilinear polynomial in the
free signs with at most (n-1)! nonzero +/-1 coefficients, one per tour
anchored at vertex 0; its values at all 2^k sign patterns are one
Walsh-Hadamard transform of that vector, stored for the masks whose top
free bit is 0 (flipping every free sign multiplies Cycl by (-1)^n), one
2^16-mask block at a time, as int8 multiples of one unit (1 MiB at order
8); the report reads that half alone, once per process (its max, min,
achiever count and classes are cached beside it), and a checkpoint is a
checked copy.
``cyclic_index_fast`` keeps the subset DP of ``tournaments.cycle_sum`` and
``cyclic_index_def`` the literal permutation sum; both re-check the
search's answers independently.

Sign-equivalence means symmetric row/column permutation combined with
flipping the signs of a set of rows and the same set of columns; the cyclic
index is invariant under it.  Flipping a root p's row to +1 leaves the
switch M_p[u, v] = A[p,u] A[p,v] A[u,v] on the other vertices (the
switching-class reduction of Babai and Cameron, 2000), and the n!
relabellings of the n switches are the first-row-+1 members of the class.
M_p is skew, so each relabelling's packed code is linear in M_p's 0/1
upper triangle: one cached weight matrix per order packs all n! of them
by one float32 matrix product, exact because every weight is a signed
power of two and each column sums below 2^24.  An enumeration mask is
the low bits of ``SkewSignMatrix.bits``, the free pairs being the last in
row-major order, so the codes are the slice masks that classify the
achievers, and the smallest, read with a -1 first row, is the canonical
form, whose equality decides ``sign_equivalent``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tournaments import Tournament, _dp_dtype, cycle_sum

__all__ = [
    "SkewSignMatrix",
    "SearchReport",
    "Fixtures",
    "cyclic_index_def",
    "cyclic_index_fast",
    "sign_equivalent",
    "canonical_form",
    "transform_sign_matrix",
    "search_max_cyclic_index",
    "dominant_sign",
    "fixtures",
    "CERTIFIED",
]

MAX_ORDER = 12
ORACLE_MAX_ORDER = 8
CHECKPOINT_SCHEMA = "cyclic-index-search/v1"
# The certified maxima: order -> (max cyclic index, canonical bits of the
# achiever classes, the dominant class D_n first).
CERTIFIED = {4: (8, (0,)), 8: (2176, (0, 1152))}


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached read-only ``np.triu_indices(n, 1)``: the pairs i < j, row-major, as two arrays."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@dataclass(frozen=True)
class SkewSignMatrix:
    """Skew matrix with +/-1 off-diagonal entries, upper triangle packed as bits.

    Pair (i, j), i < j, in row-major order occupies bit M-1-t (M = binom(n,2),
    t the pair's rank), so comparing ``bits`` as integers compares the sign
    patterns lexicographically; bit 1 means entry +1.
    """

    n: int
    bits: int

    def __post_init__(self):
        if not 2 <= self.n <= MAX_ORDER:
            raise ValueError(f"order must be in [2, {MAX_ORDER}], got {self.n}")
        m = self.n * (self.n - 1) // 2
        if not 0 <= self.bits < (1 << m):
            raise ValueError(f"bit packing needs exactly {m} bits")

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def entry(self, i: int, j: int) -> int:
        return int(self.to_array()[i, j])

    def to_array(self) -> np.ndarray:
        m = self.num_pairs
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[_triu(self.n)] = [(self.bits >> (m - 1 - t) & 1) * 2 - 1 for t in range(m)]
        return a - a.T

    @classmethod
    def from_array(cls, a) -> "SkewSignMatrix":
        a = np.asarray(a)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("sign matrix must be square")
        if np.any(a != -a.T) or np.any(np.diag(a) != 0):
            raise ValueError("matrix is not skew-symmetric with zero diagonal")
        off = a[~np.eye(n, dtype=bool)]
        if np.any(np.abs(off) != 1):
            raise ValueError("off-diagonal entries must be +1 or -1")
        plus = a[_triu(n)][::-1] > 0
        return cls(n, sum(1 << t for t in np.flatnonzero(plus).tolist()))

    @classmethod
    def from_rows(cls, rows: list[str]) -> "SkewSignMatrix":
        """Rows as strings over {0, +, -}, e.g. '0++-'."""
        lookup = {"0": 0, "+": 1, "-": -1}
        a = [[lookup[c] for c in row] for row in rows]
        return cls.from_array(np.array(a))


def dominant_sign(n: int) -> SkewSignMatrix:
    """All entries above the diagonal +1 (sign matrix of the transitive tournament)."""
    m = n * (n - 1) // 2
    return SkewSignMatrix(n, (1 << m) - 1)


def cyclic_index_def(b: SkewSignMatrix) -> int:
    """Cyclic index by the literal sum over all n! permutations (oracle, n <= 8).

    Row k of the cached step table (``_tour_steps``) holds, for every
    permutation, the flat index of the entry its k-th step reads, so
    ``take`` from the int8 matrix by row k gives the k-th factor of all n!
    terms.  ``take`` copies a non-writeable index array (into intp), so the
    rows are gathered one at a time: a call copies one row, never the whole
    table.  Each row is multiplied into the first in place in int8, exact
    because every factor is +/-1, and that row is summed in int64.
    """
    if b.n > ORACLE_MAX_ORDER:
        raise ValueError(f"permutation-sum oracle limited to order {ORACLE_MAX_ORDER}")
    a = b.to_array().astype(np.int8).ravel()
    steps = _tour_steps(b.n)
    terms = a.take(steps[0])
    for row in steps[1:]:
        terms *= a.take(row)
    return int(terms.sum(dtype=np.int64))


@lru_cache(maxsize=None)
def _tour_steps(n: int) -> np.ndarray:
    """Cached read-only uint8 table of shape (n, n!): the steps of every permutation.

    Row k holds perm[k] * n + perm[(k + 1) % n], the index in A.ravel() of
    the k-th factor of each permutation's term, in ``_all_perms`` order.
    Every index is below n * n <= 64, so uint8 holds it: 322 560 B at
    order 8, against 2 580 480 B as intp.  NumPy's ``take`` copies a
    non-writeable index array, so readers gather one row at a time.  The
    table is filled one row at a time from an uncached permutation array,
    so no other permutation-sized array outlives it.
    """
    if n * n - 1 > np.iinfo(np.uint8).max:
        raise ValueError(f"order-{n} tour steps do not fit uint8")
    perms = _all_perms.__wrapped__(n).view(np.uint8)
    steps = np.empty((n, len(perms)), dtype=np.uint8)
    for k in range(n):
        steps[k] = perms[:, k]
        steps[k] *= n
        steps[k] += perms[:, (k + 1) % n]
    steps.flags.writeable = False
    return steps


def cyclic_index_fast(b: SkewSignMatrix) -> int:
    """Cyclic index via the subset DP of ``cycle_sum``.

    ``cycle_sum`` sums the signed tours anchored at vertex 0, one per cyclic
    order; each of the n rotations of a cyclic sequence is a distinct
    permutation in the defining sum, hence the factor n.
    """
    return b.n * int(cycle_sum(b.to_array()[:, :, None])[0])


# ---------------------------------------------------------------------------
# sign-equivalence and canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _all_perms(n: int) -> np.ndarray:
    """The n! permutations of range(n) in lexicographic order, read-only int8 of shape (n!, n)."""
    values = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(values, dtype=np.int8, count=n * math.factorial(n)).reshape(-1, n)
    perms.flags.writeable = False
    return perms


@lru_cache(maxsize=None)
def _switch_packing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached read-only weights that pack every relabelled root switch by one product.

    Returns (u, v, w, const).  Row p of u and v lists the pairs u < v of the
    n - 1 vertices other than p, in ``np.triu_indices`` order, so
    x[p, t] = M_p[u, v] > 0 is the 0/1 upper triangle of root switch p.  M_p
    is skew, so relabelling q reads pair t = (i, j) at (q(i), q(j)) as x at
    that pair when q(i) < q(j) and as 1 - x at the mirrored pair otherwise.
    Pair t weighs 1 << (k-1-t), k = binom(n-1, 2), its slice-mask bit, so
    that mask is const[q] + x[p] @ w[:, q]: w is (21, 5 040) float32 at
    order 8.  Every weight is +/-2^t and each column's |w| sums to
    2^k - 1 < 2^24, so every partial sum of a float32 product is an exact
    integer whatever order it is summed in.  w is filled one pair at a
    time, so no (P, k) temporary exists.
    """
    iu, ju = _triu(n - 1)
    rank = np.zeros((n - 1, n - 1), dtype=np.int64)
    rank[iu, ju] = rank[ju, iu] = np.arange(len(iu))
    perms = _all_perms(n - 1)
    cols = np.arange(len(perms))
    w = np.zeros((len(iu), len(perms)), dtype=np.float32)
    const = np.zeros(len(perms), dtype=np.float32)
    for t, (i, j) in enumerate(zip(iu, ju)):
        qi, qj = perms[:, i], perms[:, j]
        flip = qi > qj
        weight = 1 << (len(iu) - 1 - t)
        w[rank[qi, qj], cols] = np.where(flip, -weight, weight)
        const += flip * weight
    k = np.arange(n - 1)
    rest = k + (k >= np.arange(n)[:, None])  # rest[p]: the vertices other than p
    u, v = rest[:, iu], rest[:, ju]
    for arr in (u, v, w, const):
        arr.flags.writeable = False
    return u, v, w, const


def _switch_codes(b: SkewSignMatrix) -> np.ndarray:
    """Packed codes of every relabelled root switch, int32 of shape (n, (n-1)!).

    Root p's switch M_p[u, v] = A[p, u] A[p, v] A[u, v] lives on the n - 1
    vertices other than p; column q of row p holds the slice mask of M_p
    relabelled by the q-th permutation (the first is the identity).  One
    float32 product of the n upper triangles with
    ``_switch_packing``'s weights (8 x 21 x 5 040), by ``einsum``'s
    single-threaded loop: a threaded BLAS sgemm of twice that width waited
    about 8 ms for its second thread in most fresh processes on a 2-vCPU
    x86_64 VM, against about 0.15 ms here.
    """
    u, v, w, const = _switch_packing(b.n)
    a = b.to_array()
    p = np.arange(b.n)[:, None]
    x = (a[p, u] * a[p, v] * a[u, v] > 0).astype(np.float32)
    codes = np.einsum("pt,tc->pc", x, w)
    codes += const
    return codes.astype(np.int32)


def transform_sign_matrix(b: SkewSignMatrix, perm, flips) -> SkewSignMatrix:
    """Apply a sign-equivalence transformation.

    ``perm`` relabels vertices (entry (i, j) is taken from (perm[i], perm[j]))
    and ``flips`` is the set of positions whose row and column change sign.
    ValueError unless perm permutes range(n) and flips is a subset of it.
    """
    perm, flips = list(perm), list(flips)
    if sorted(perm) != list(range(b.n)):
        raise ValueError(f"perm must be a permutation of range({b.n}), got {perm}")
    if not set(flips) <= set(range(b.n)):
        raise ValueError(f"flips must be a subset of range({b.n}), got {flips}")
    s = np.ones(b.n, dtype=np.int64)
    s[flips] = -1
    return SkewSignMatrix.from_array(b.to_array()[np.ix_(perm, perm)] * s[None, :] * s[:, None])


def sign_equivalent(b1: SkewSignMatrix, b2: SkewSignMatrix) -> bool:
    """Whether some symmetric permutation plus sign flips maps b1 to b2.

    The canonical form picks one member of each class, so b1 and b2 are
    equivalent exactly when their canonical forms are equal.
    """
    if b1.n != b2.n:
        raise ValueError(f"order mismatch: {b1.n} vs {b2.n}")
    return canonical_form(b1) == canonical_form(b2)


def canonical_form(b: SkewSignMatrix) -> SkewSignMatrix:
    """Lexicographically smallest packed encoding over the sign-equivalence orbit.

    The smallest slice mask of ``_switch_codes`` (see ``_orbit``): one
    float32 product, 8 x 21 x 5 040 at order 8.
    """
    if b.n > ORACLE_MAX_ORDER:
        raise ValueError(f"canonicalization limited to order {ORACLE_MAX_ORDER}")
    return SkewSignMatrix(b.n, int(_switch_codes(b).min()))


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def mask_to_matrix(n: int, mask: int, restrict: bool = True) -> SkewSignMatrix:
    """Matrix whose bits are the enumeration mask below a +1 first row.

    The free pairs (off the first row when ``restrict``, else all) are the
    last k = binom(n - restrict, 2) in row-major order, so the mask is the
    low k bits; a mask outside [0, 2^k) or an order above ``MAX_ORDER``
    raises ValueError.
    """
    if n > MAX_ORDER:
        raise ValueError(f"mask packing limited to order {MAX_ORDER}")
    k = math.comb(n - restrict, 2)
    if not 0 <= mask < 1 << k:
        raise ValueError(f"mask {mask} is outside the order-{n} enumeration")
    return SkewSignMatrix(n, int((1 << math.comb(n, 2)) - (1 << k) | mask))


def matrix_to_mask(b: SkewSignMatrix, restrict: bool = True) -> int:
    """The low k = binom(n - restrict, 2) bits of b; ValueError if a first-row pair is -1."""
    k = math.comb(b.n - restrict, 2)
    if b.bits >> k != (1 << (b.num_pairs - k)) - 1:
        raise ValueError("matrix is outside the first-row +1 slice")
    return b.bits & ((1 << k) - 1)


def _orbit(b: SkewSignMatrix) -> tuple[int, np.ndarray]:
    """Canonical bits and sorted slice masks of b's class, from one packing product.

    A class member with a +1 first row maps some root p to vertex 0, which
    forces its flips up to a global sign, so its free pairs are the root
    switch M_p relabelled, whose codes (``_switch_codes``) are the slice
    masks.  The smallest packing forces the first row to -1 instead, which
    changes no free pair (each is s_i s_j A_ij with the same sign product),
    so the smallest mask is the canonical bits.  The codes are sorted in
    place and deduplicated by one compare.
    """
    masks = _switch_codes(b).ravel()
    masks.sort()
    keep = np.ones(masks.size, dtype=bool)
    np.not_equal(masks[1:], masks[:-1], out=keep[1:])
    # compress, not a boolean index: about 3x faster on the 40 320 order-8 masks
    return int(masks[0]), masks.compress(keep)


@lru_cache(maxsize=None)
def _cycle_sum_table(n: int, restrict: bool) -> tuple[np.ndarray, int]:
    """(table, unit): Cycl = unit * table at the 2^(k-1) masks whose top free bit is 0.

    A tour uses each vertex pair at most once (n >= 3), so the signed sum
    over the (n-1)! tours anchored at vertex 0 is a multilinear polynomial
    in the k free signs x_e = -(-1)^bit_e:

        Cycl/n = sum over tours T of s_T * prod_{e in S_T} x_e
               = sum over T of s_T (-1)^|S_T| (-1)^popcount(S_T & mask),

    where S_T is the mask of the free pairs T uses and s_T the product of
    its fixed first-row entries and of -1 for each free pair walked from
    the larger vertex to the smaller.  Flipping every sign multiplies Cycl
    by (-1)^n and switching vertex 0 restores the first row, so
    T(m) = (-1)^n T(m ^ (2^k - 1)): readers take the upper half from the
    complements.  Below 2^(k-1) the top bit drops out, so the half table is
    the Walsh-Hadamard transform of c_T = s_T (-1)^|S_T| added at
    S_T mod 2^(k-1).  It is built one block of up to 2^16 masks at a time:
    block j, the masks j * 2^16 + l, is the ``_walsh_hadamard`` of the
    coefficients folded onto their low 16 bits with the sign
    (-1)^popcount(high & j), exact in the subset DP's ``_dp_dtype(n)``
    (int16 at order 8) as |c| sums to (n-1)!.  Each block is stored as
    int8 quotients by 2^s, s the 2-adic valuation of the first block, so
    unit = n * 2^s (128 at order 8, where the 21 values are multiples of
    16 with quotients -63 ... 17); a block off that lattice or outside
    int8 fails the build (AssertionError), as does the Parseval closed
    form summed over the blocks, before the table is cached, read-only.
    At odd n the Parseval sum forces the table to zero, so the sign
    (-1)^n is never applied.  Orders below 3 and over 2^21 masks are
    refused up front.
    """
    if n < 3:
        raise ValueError(f"cyclic-index table needs order >= 3, got {n}")
    k = math.comb(n - restrict, 2)
    if k > 21:
        raise ValueError(f"cyclic-index table over 2^{k} masks exceeds 2^21")
    bit = np.zeros((n, n), dtype=np.int32)  # each pair's mask bit, 0 on a fixed first row
    bit[_triu(n)] = (1 << np.arange(math.comb(n, 2) - 1, -1, -1)) & ((1 << k) - 1)
    bit += bit.T
    # free pair i < j: A[i, j] = x_e = -(-1)^bit, A[j, i] = (-1)^bit; fixed
    # first-row entries (bit 0): A[0, j] = +1, A[j, 0] = -1
    sign = np.where((bit != 0) == np.tri(n, k=-1, dtype=bool), np.int8(1), np.int8(-1))
    tours = np.pad(_all_perms(n - 1) + 1, ((0, 0), (1, 0)))  # 0 -> p1 -> ... -> p_{n-1}
    # each tour's free-pair mask (distinct bits, so the int32 sum is their OR)
    # and its sign, accumulated one step of every tour at a time
    mask = np.zeros(len(tours), dtype=np.int32)
    coef = np.ones(len(tours), dtype=np.int8)
    for tail, head in zip(tours.T, np.roll(tours, -1, axis=1).T):
        mask += bit[tail, head]
        coef *= sign[tail, head]
    table = np.empty(1 << (k - 1), dtype=np.int8)
    size = min(len(table), 1 << 16)
    blocks = table.reshape(-1, size)
    mask %= len(table)
    low = mask & (size - 1)
    order = np.argsort(low)
    low, high, coef = low[order], mask[order] >> (size.bit_length() - 1), coef[order]
    starts = np.flatnonzero(np.diff(low, prepend=-1))  # one run per distinct low part
    low = low[starts]
    signs = np.array([1 - 2 * (bin(j).count("1") & 1) for j in range(len(blocks))], dtype=np.int8)
    block = np.empty(size, dtype=_dp_dtype(n))
    squares, shift = 0, None
    for j, out in enumerate(blocks):
        fold = signs[high & j]  # (-1)^popcount(high & j)
        fold *= coef
        block.fill(0)
        block[low] = np.add.reduceat(fold, starts, dtype=block.dtype)
        squares += _walsh_hadamard(block)
        bits = int(np.bitwise_or.reduce(block))
        if shift is None:
            shift = (bits & -bits).bit_length() - 1 if bits else 0
        if bits & ((1 << shift) - 1):
            raise AssertionError(f"order-{n} cyclic-index block is not a multiple of 2^{shift}")
        block >>= shift
        if block.min() < -128 or block.max() > 127:
            raise AssertionError(f"order-{n} cyclic-index block / 2^{shift} exceeds int8")
        out[...] = block
    # a tour and its reverse share a mask and, at even n, a sign (at odd n they
    # cancel); every mask has n - 2 bits (n if unrestricted), so none collide
    # mod 2^(k-1)
    if squares != (len(table) * 2 * math.factorial(n - 1) if n % 2 == 0 else 0):
        raise AssertionError(f"order-{n} cyclic-index table fails its Parseval check")
    table.flags.writeable = False
    return table, n << shift


def _walsh_hadamard(c: np.ndarray) -> int:
    """Unnormalised Walsh-Hadamard transform of c (length 2^k) in place; returns sum out^2.

    out[m] = sum over S of c[S] (-1)^popcount(S & m), exact if c's dtype
    holds sum |c|.  The stages commute: those across bits 5 and up run on
    c, the five lowest on a transposed copy (long inner loops).  Checked
    (AssertionError): sum(out) = 2^k c[0] and sum out^2 = 2^k sum c^2.
    """
    c0, squares = int(c[0]), len(c) * np.einsum("i,i->", c, c, dtype=np.int64)  # no int64 copy
    low = min(bits := len(c).bit_length() - 1, 5)
    for h in range(low, bits):
        _butterfly(c, h)
    t = c.reshape(-1, 1 << low).T.copy()  # bit h < low of c is bit h of t's rows
    for h in range(low):
        _butterfly(t, h)
    c.reshape(-1, 1 << low)[...] = t.T
    if c.sum(dtype=np.int64) != len(c) * c0 or np.einsum("i,i->", c, c, dtype=np.int64) != squares:
        raise AssertionError(f"length-{len(c)} Walsh-Hadamard transform fails its Parseval check")
    return int(squares)


def _butterfly(x: np.ndarray, h: int) -> None:
    """One in-place transform stage across bit h of x's first axis: (lo, hi) -> (lo+hi, lo-hi)."""
    pairs = x.reshape(-1, 2, 1 << h, *x.shape[1:])
    lo, hi = pairs[:, 0], pairs[:, 1]
    diff = lo - hi
    lo += hi
    hi[...] = diff


def batch_cyclic_index(n: int, masks: np.ndarray, restrict: bool = True) -> np.ndarray:
    """Cyclic indices for a batch of enumeration masks, as int64.

    Cycl is multilinear in the free signs, so one Walsh-Hadamard transform
    of its (n-1)! tour coefficients (``_cycle_sum_table``, int8 quotients
    times its unit) holds the value at every mask; a batch is one gather
    from that half table at the smaller of each mask and its complement.
    A mask array that is not of an integer dtype (floats, NaN) or holds a
    mask outside [0, 2^k) raises ValueError.
    """
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu":
        raise ValueError(f"masks must be integers, got dtype {masks.dtype}")
    table, unit = _cycle_sum_table(n, restrict)
    full = 2 * len(table) - 1
    masks = masks.astype(np.int64, copy=False)
    if masks.size and not 0 <= masks.min() <= masks.max() <= full:
        raise ValueError(f"masks must lie in [0, {full + 1})")
    idx = masks ^ full  # the one batch-sized index: each mask's complement, then the smaller
    np.minimum(idx, masks, out=idx)
    vals = table[idx]
    del idx
    return np.multiply(vals, unit, dtype=np.int64)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive cyclic-index search over one matrix order.

    Every report is checked when built (ValueError): each representative's
    cyclic index, by the subset DP, is the maximum, and the
    representatives' canonical forms are distinct.
    """

    order: int
    max_cyclic_index: int
    min_cyclic_index: int
    achiever_count: int
    achiever_classes: tuple[SkewSignMatrix, ...]
    matrices_scanned: int
    elapsed_seconds: float
    restricted_first_row: bool = True

    def __post_init__(self):
        reps = self.achiever_classes
        for a in reps:
            if cyclic_index_fast(a) != self.max_cyclic_index:
                raise ValueError("achiever class representative misses the maximum")
        if len({canonical_form(a) for a in reps}) < len(reps):
            raise ValueError("achiever class representatives must be inequivalent")

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        d = {
            "order": self.order,
            "max_cyclic_index": self.max_cyclic_index,
            "min_cyclic_index": self.min_cyclic_index,
            "achiever_count": self.achiever_count,
            "achiever_classes": [
                {"order": c.n, "bits": c.bits, "rows": c.to_array().tolist()}
                for c in self.achiever_classes
            ],
            "matrices_scanned": self.matrices_scanned,
            "restricted_first_row": self.restricted_first_row,
        }
        if include_elapsed:
            d["elapsed_seconds"] = self.elapsed_seconds
        return d


def _scan_chunk(n: int, restrict: bool, lo: int, hi: int) -> dict:
    """Checkpoint record of masks [lo, hi): max and min Cycl and the sorted maximizers.

    Masks above the stored half are read as the forward slice of their
    complements, entry i being mask 2^k - 1 - i (a reversed view scans
    about 3x slower); a chunk may straddle the middle.
    """
    table, unit = _cycle_sum_table(n, restrict)
    half = len(table)
    below, above = table[lo : min(hi, half)], table[2 * half - hi : 2 * half - max(lo, half)]
    best = max(v.max() for v in (below, above) if v.size)
    hits = np.flatnonzero(below == best) + lo, (hi - 1 - np.flatnonzero(above == best))[::-1]
    return {
        "max": unit * int(best),
        "min": unit * int(min(v.min() for v in (below, above) if v.size)),
        "achievers": np.concatenate(hits).tolist(),
    }


def _load_checkpoint(path: str, params: dict, total: int) -> dict[str, dict]:
    """Finished chunks recorded in a checkpoint, each replaced by the table's own record.

    Parameters must match by value and type, keys must be the chunk starts
    str(lo), 0 <= lo < total, and each record must equal ``_scan_chunk`` of
    its chunk in JSON ints (8.0 and true equal 8 and 1 in Python but are
    refused); anything else raises ValueError.  The report reads no record.
    """
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(f"checkpoint schema {schema!r} does not match {CHECKPOINT_SCHEMA!r}")
    for key, val in params.items():
        if data.get(key) != val or type(data.get(key)) is not type(val):
            raise ValueError(f"checkpoint parameter {key}={data.get(key)!r} differs from {val!r}")
    chunks = data.get("chunks")
    if not isinstance(chunks, dict):
        raise ValueError("checkpoint has no 'chunks' object")
    n, restrict, step = params["order"], params["restrict_first_row"], params["chunk_size"]
    for key, rec in chunks.items():
        lo = int(key) if key.isdecimal() else -1
        if str(lo) != key or lo % step or lo >= total:
            raise ValueError(f"checkpoint chunk key {key!r} is not a chunk start")
        want = chunks[key] = _scan_chunk(n, restrict, lo, min(lo + step, total))
        if rec != want or (
            {type(rec["max"]), type(rec["min"]), *map(type, rec["achievers"])} != {int}
        ):
            raise ValueError(f"checkpoint chunk {key} differs from the cyclic-index table")
    return chunks


def search_max_cyclic_index(
    order: int,
    workers: int = 1,
    restrict_first_row: bool = True,
    checkpoint_path: str | None = None,
    chunk_size: int = 1 << 16,
) -> SearchReport:
    """Exhaust all sign matrices of the given order and report the maximum.

    With ``restrict_first_row`` the enumeration covers matrices whose first
    row is +1 (one representative set per class); the full enumeration is
    supported at order 4 as an independent cross-check.  The report is the
    max, min, achiever count and classes of one cached half table, read
    once per process per (order, restrict_first_row) by ``_table_read``
    like the table itself, whatever ``workers`` is (it must be >= 1; no
    pool is started); every call builds and validates a fresh report, and
    ``elapsed_seconds`` is a ``time.perf_counter`` difference.  With
    ``checkpoint_path`` the table is also recorded in ``chunk_size`` chunks
    and the file replaced (``.tmp`` and rename) once, after the chunk loop,
    if it recorded a new chunk.  An exception that stops the loop
    (KeyboardInterrupt included) still writes the chunks finished so far;
    a signal Python cannot catch (SIGKILL) during the loop leaves the
    previous file, or none, but never a torn one.  A resume checks every
    loaded chunk against the table (ValueError if it differs), so it cannot
    change the report.
    """
    if order not in (4, 8):
        raise ValueError(f"search supports orders 4 and 8, got {order}")
    if not restrict_first_row and order != 4:
        raise ValueError("full (unrestricted) enumeration is only supported at order 4")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    t0 = time.perf_counter()
    total = 2 * len(_cycle_sum_table(order, restrict_first_row)[0])
    if checkpoint_path:
        step = min(chunk_size, total)
        params = {"order": order, "restrict_first_row": restrict_first_row, "chunk_size": step}
        done = {}
        if os.path.exists(checkpoint_path):
            done = _load_checkpoint(checkpoint_path, params, total)
        pending = [lo for lo in range(0, total, step) if str(lo) not in done]
        # the file is json.dumps(dict(params, schema=..., chunks=done)): its head
        # up to the chunks' opening brace, then one '"lo": record' text per chunk
        # (the keys are decimal, so quoting them is their JSON encoding)
        head = json.dumps(dict(params, schema=CHECKPOINT_SCHEMA, chunks={}))[:-2]
        new = []
        try:
            for lo in pending:
                rec = _scan_chunk(order, restrict_first_row, lo, min(lo + step, total))
                new.append(f'"{lo}": {json.dumps(rec)}')
        finally:
            if new:  # one write, also when an exception stops the loop
                old = [f'"{key}": {json.dumps(rec)}' for key, rec in done.items()]
                tmp_path = checkpoint_path + ".tmp"
                with open(tmp_path, "w") as fh:
                    fh.write(head + ", ".join(old + new) + "}}")
                os.replace(tmp_path, checkpoint_path)

    gmax, gmin, count, classes = _table_read(order, restrict_first_row)
    return SearchReport(
        order=order,
        max_cyclic_index=gmax,
        min_cyclic_index=gmin,
        achiever_count=count,
        achiever_classes=classes,
        matrices_scanned=total,
        elapsed_seconds=time.perf_counter() - t0,
        restricted_first_row=restrict_first_row,
    )


@lru_cache(maxsize=None)
def _table_read(n: int, restrict: bool) -> tuple[int, int, int, tuple[SkewSignMatrix, ...]]:
    """(max, min, achiever count, classes) of the cached table, read once per process.

    The maximizers are listed in 2^16-mask slices (no table-sized boolean
    temporary), those of the upper half being the complements of the
    lower's, and ``_classify_achievers`` buckets them, checking every
    class's slice members (AssertionError, which is not cached).  Only the
    four values are kept: the int64 maximizer array (200 KB at order 8) is
    dropped once classified.
    """
    table, unit = _cycle_sum_table(n, restrict)
    best = table.max()
    hits = [np.flatnonzero(table[i : i + 65536] == best) + i for i in range(0, len(table), 65536)]
    achievers = np.concatenate(hits + [(2 * len(table) - 1 - np.concatenate(hits))[::-1]])  # sorted
    gmax = unit * int(best)
    classes = tuple(_classify_achievers(n, achievers, restrict, gmax))
    return gmax, unit * int(table.min()), len(achievers), classes


def _classify_achievers(
    order: int, achievers: np.ndarray | list[int], restrict: bool, gmax: int
) -> list[SkewSignMatrix]:
    """Bucket the sorted achiever masks (the search's int64 array, or a list) by class.

    In the restricted slice one packing product of one member (``_orbit``)
    yields both the canonical form and the masks of every slice member of
    the class, so a class costs one product whatever its size.  The cyclic
    index is class-invariant, so every slice member of an achieving orbit
    must itself be an achiever (asserted by one sorted search).  The full
    enumeration (order 4) canonicalizes each achiever.
    """
    if not restrict:
        reps = {canonical_form(mask_to_matrix(order, x, restrict=False)) for x in achievers}
        return sorted(reps, key=lambda r: r.bits)

    classes: list[SkewSignMatrix] = []
    ach = np.asarray(achievers, dtype=np.int64)
    covered = np.zeros(len(ach), dtype=bool)
    while not covered.all():
        bits, orbit = _orbit(mask_to_matrix(order, int(ach[np.argmin(covered)]), restrict=True))
        classes.append(SkewSignMatrix(order, bits))
        pos = np.minimum(np.searchsorted(ach, orbit), len(ach) - 1)
        stray = orbit[ach[pos] != orbit]
        if stray.size:
            raise AssertionError(
                f"orbit member {stray[0]} of an achiever misses the maximum {gmax}"
            )
        covered[pos] = True
    return sorted(classes, key=lambda r: r.bits)


# ---------------------------------------------------------------------------
# reference matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixtures:
    """The named order-4/8 extremal matrices and the two-blocks tournament."""

    d4: SkewSignMatrix
    d8: SkewSignMatrix
    d8_alt: SkewSignMatrix
    d8_alt_blocks: SkewSignMatrix
    blocks_tournament: Tournament


def fixtures() -> Fixtures:
    """Exact extremal matrices of orders 4 and 8.

    ``d8_alt`` is the second equivalence class attaining the order-8 maximum;
    ``d8_alt_blocks`` is its block-shaped representative: two strongly cyclic
    4-vertex blocks with every edge between them oriented first-to-second.
    ``blocks_tournament`` is the 8-vertex tournament whose sign matrix is
    ``d8_alt_blocks``.
    """
    d8_alt = SkewSignMatrix.from_rows(
        [
            "0+++++++",
            "-0+-++++",
            "--0-++++",
            "-++0----",
            "---+0++-",
            "---+-0++",
            "---+--0+",
            "---++--0",
        ]
    )
    d8_alt_blocks = SkewSignMatrix.from_rows(
        [
            "0++-++++",
            "-0++++++",
            "--0+++++",
            "+--0++++",
            "----0++-",
            "-----0++",
            "------0+",
            "----+--0",
        ]
    )
    out = ((d8_alt_blocks.to_array() > 0) @ (1 << np.arange(8))).tolist()
    return Fixtures(
        d4=dominant_sign(4),
        d8=dominant_sign(8),
        d8_alt=d8_alt,
        d8_alt_blocks=d8_alt_blocks,
        blocks_tournament=Tournament(8, tuple(out)),
    )
