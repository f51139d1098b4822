"""Tournaments, generators and exact directed-cycle counting.

A tournament on n vertices is an orientation of the complete graph K_n.
Adjacency is stored as one out-neighbour bitset per vertex.

Cycles of length 3 to 8 are closed-walk counts: tr(A^l), from int64
matrix powers, minus the closed walks that repeat a vertex, which Moebius
inversion over the set partitions of the l walk positions writes as a few
einsum contractions of A (none for l <= 5, since a tournament has no loops
and no 2-cycles).  Longer cycles stream the l-subsets of the vertices
through one batched subset DP, ``cycle_sum``, which counts the directed
Hamiltonian cycles of each induced subtournament over
(visited-subset, last-vertex) states anchored at the subset's least vertex:
O(binom(n,l) * 2^l * l^2) overall.  The DP runs one popcount layer at a
time, pushing all subsets of size k to size k+1 with about 2m numpy calls,
and holds only two layers.  The same kernel computes the cyclic index of
sign matrices (signsearch).  Its integer dtype is the narrowest of int16,
int32 and int64 that a proven bound allows, so it is exact for every cycle
length l <= 21 and refuses longer ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from multiprocessing import get_context
from string import ascii_letters
from typing import Iterable

import numpy as np

__all__ = [
    "Tournament",
    "DegreeSequence",
    "FourProfile",
    "make_carousel",
    "make_transitive",
    "sample_random",
    "sample_w_random",
    "cycle_sum",
    "exact_cycle_count",
    "pooled_cycle_count",
    "goodman_count3",
    "expected_random_cycles",
    "normalized_density",
    "four_profile",
    "parse_tournament",
    "format_tournament",
]

# Cycle counting holds at most this much DP state at once; the peak RSS of
# a count grows by about 1 MB per MiB held.
COUNT_DP_BYTES = 1 << 20


@dataclass(frozen=True)
class Tournament:
    """Orientation of a complete graph; ``out[i]`` is the bitset of vertices beaten by i."""

    n: int
    out: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"tournament needs at least one vertex, got n={n}")
        if len(self.out) != n:
            raise ValueError("out-set list length does not match vertex count")
        total = 0
        for i, bits in enumerate(self.out):
            if bits >> n:
                raise ValueError(f"out-set of vertex {i} references vertices >= n")
            if bits & (1 << i):
                raise ValueError(f"vertex {i} is in its own out-set")
            total += bits.bit_count()
        if total != n * (n - 1) // 2:
            raise ValueError("edge count differs from n(n-1)/2; not a tournament")
        for i in range(n):
            for j in range(i + 1, n):
                ij = bool(self.out[i] & (1 << j))
                ji = bool(self.out[j] & (1 << i))
                if ij == ji:
                    raise ValueError(f"pair ({i},{j}) must have exactly one orientation")

    def beats(self, i: int, j: int) -> bool:
        return bool(self.out[i] & (1 << j))

    def out_degree(self, i: int) -> int:
        return self.out[i].bit_count()

    def degree_sequence(self) -> "DegreeSequence":
        return DegreeSequence([self.out_degree(i) for i in range(self.n)])

    def reverse(self) -> "Tournament":
        """Tournament with every edge orientation flipped."""
        n = self.n
        full = (1 << n) - 1
        rev = [full & ~(1 << i) & ~self.out[i] for i in range(n)]
        return Tournament(n, tuple(rev))

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix, A[i, j] = 1 iff i beats j."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            bits = self.out[i]
            while bits:
                j = (bits & -bits).bit_length() - 1
                a[i, j] = 1
                bits &= bits - 1
        return a


@dataclass(frozen=True)
class DegreeSequence:
    """Out-degrees of a tournament; they always sum to n(n-1)/2."""

    out_degrees: tuple[int, ...]

    def __init__(self, out_degrees: Iterable[int]):
        object.__setattr__(self, "out_degrees", tuple(out_degrees))
        n = len(self.out_degrees)
        if any(d < 0 or d >= n for d in self.out_degrees):
            raise ValueError("each out-degree must lie in [0, n-1]")
        if sum(self.out_degrees) != n * (n - 1) // 2:
            raise ValueError("out-degrees must sum to n(n-1)/2")


@dataclass(frozen=True)
class FourProfile:
    """Counts of induced 4-vertex subtournaments by isomorphism type.

    t4: transitive (one source, one sink), c4: strongly connected (the
    unique type holding a directed 4-cycle), l4: 3-cycle plus a sink,
    w4: 3-cycle plus a source.  ``four_profile`` gets c4 from tr(A^4) / 4
    and the other three from the source and sink counts.
    """

    t4: int
    c4: int
    l4: int
    w4: int

    @property
    def total(self) -> int:
        return self.t4 + self.c4 + self.l4 + self.w4


def make_carousel(n: int) -> Tournament:
    """Carousel tournament: vertex i beats i+1, ..., i+(n-1)/2 (mod n); n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"carousel tournament needs odd n >= 3, got {n}")
    half = (n - 1) // 2
    out = []
    for i in range(n):
        bits = 0
        for step in range(1, half + 1):
            bits |= 1 << ((i + step) % n)
        out.append(bits)
    return Tournament(n, tuple(out))


def make_transitive(n: int) -> Tournament:
    """Transitive tournament: i beats j iff i < j."""
    if n < 1:
        raise ValueError(f"transitive tournament needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Tournament(n, tuple((full >> (i + 1)) << (i + 1) for i in range(n)))


def sample_random(n: int, seed: int) -> Tournament:
    """Uniformly random tournament; fixed seed gives a fixed tournament."""
    if n < 1:
        raise ValueError(f"random tournament needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, tuple(out))


def sample_w_random(w, n: int, seed: int) -> Tournament:
    """Tournament sampled from a step kernel ``w``.

    Draws n uniform coordinates and orients each edge i -> j (i < j) with
    probability w(x_i, x_j), where ``w`` is a k x k grid of probabilities
    (any array-like, or an object with a ``values`` array attribute).
    """
    if n < 1:
        raise ValueError(f"w-random tournament needs n >= 1, got {n}")
    grid = np.asarray(getattr(w, "values", w), dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.size == 0:
        raise ValueError("step kernel must be a non-empty square grid")
    if not (grid.min() >= 0 and grid.max() <= 1):  # a NaN fails both
        raise ValueError("step kernel values must lie in [0, 1]")
    k = grid.shape[0]
    rng = np.random.default_rng(seed)
    xs = rng.random(n)
    cells = np.minimum((xs * k).astype(int), k - 1)
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < grid[cells[i], cells[j]]:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
    return Tournament(n, tuple(out))


def _dp_dtype(m: int):
    """Narrowest integer dtype for cycle_sum at order m.

    A partial path sum is a signed count of at most (m-1)! paths, so int16
    is exact through m = 8, int32 through m = 13 and int64 through m = 21.
    """
    bound = math.factorial(m - 1)
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"cycle_sum supports orders up to 21, got {m}")


def cycle_sum_width(m: int, budget: int) -> int:
    """Most order-m matrices whose cycle_sum working set fits in ``budget`` bytes (at least 1).

    A step from subset size k to k+1 holds the layer of size k, its ``prod``
    and ``tmp`` buffers of the same shape, and the layer of size k+1: each
    row is m-1 entries per matrix.
    """
    p = m - 1
    rows = max((3 * math.comb(p, k) + math.comb(p, k + 1) for k in range(1, p)), default=p)
    return max(1, budget // (rows * p * np.dtype(_dp_dtype(m)).itemsize))


# step tables of up to this many vertices (4 MiB of indices at 16) are cached
# and shared; larger ones are built per call, so they do not stay resident
_CACHED_STEPS_P = 16


def _layer_steps(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Scatter indices of the popcount-layer DP over subsets of p vertices.

    Layer k lists the k-subsets as ascending bitmasks.  Step k (k = 1 .. p-1)
    is a pair of int32 arrays over the pairs (subset r of layer k, vertex v
    not in r): the flat index r * p + v into the step's ``prod`` and the
    flat index r' * p + v into layer k+1, where r' = r with v added.  The
    arrays are read-only; ``_cached_layer_steps`` shares them between calls.
    """
    masks = np.arange(1 << p, dtype=np.int32)
    sizes = sum(masks >> b & 1 for b in range(p))
    layers = [np.flatnonzero(sizes == k).astype(np.int32) for k in range(p + 1)]
    rank = np.empty_like(masks)  # position of each mask within its layer
    for layer in layers:
        rank[layer] = np.arange(len(layer), dtype=np.int32)
    bit = (1 << np.arange(p)).astype(np.int32)
    steps = []
    for layer in layers[1:p]:
        src, v = np.nonzero(layer[:, None] & bit == 0)
        dst = rank[layer[src] | bit[v]]
        steps.append(((src * p + v).astype(np.int32), dst * p + v.astype(np.int32)))
    for arr in chain.from_iterable(steps):
        arr.flags.writeable = False  # shared by every caller
    return tuple(steps)


_cached_layer_steps = lru_cache(maxsize=None)(_layer_steps)


def cycle_sum(w: np.ndarray) -> np.ndarray:
    """Weighted sums over the Hamiltonian cycles through vertex 0, one per matrix.

    ``w`` has shape (m, m, batch): a batch of m x m weight matrices with
    entries in {-1, 0, 1}, batch on the last axis.  Each directed cycle
    0 -> v1 -> ... -> v_{m-1} -> 0 contributes the product of its m weights;
    the result is int64[batch].  Bellman / Held-Karp subset DP, one popcount
    layer at a time: dp[r, v] sums the paths from 0 that visit exactly the
    vertex set r of {1, ..., m-1} and end at v (zero for v not in r), with
    dp[{v}, v] = w[0, v].  A step from the k-subsets to the (k+1)-subsets
    computes, for all of layer k at once,

        prod[r, v] = sum over u of dp[r, u] * w[u, v]

    with one multiply and one in-place add per u, and then scatters the
    entries with v not in r to dp[r + {v}, v] through ``_layer_steps``.
    Only two layers are held, so a batch needs O(m * binom(m-1, (m-1)/2))
    entries per matrix, and a batch costs about m^2 numpy calls.  The DP
    runs in the dtype of ``_dp_dtype``; the final sum over v is int64.  For
    a 0/1 tournament adjacency this counts its directed Hamiltonian cycles,
    each once since the anchor fixes the rotation; for a skew sign matrix
    it is the cyclic index divided by m.
    """
    m = w.shape[0]
    dtype = _dp_dtype(m)
    w = np.ascontiguousarray(w, dtype=dtype)
    batch, p = w.shape[2], m - 1
    if p == 0:
        return np.zeros(batch, dtype=np.int64)
    inner = w[1:, 1:]
    dp = np.zeros((p, p, batch), dtype=dtype)
    dp[np.arange(p), np.arange(p)] = w[0, 1:]
    steps = _cached_layer_steps(p) if p <= _CACHED_STEPS_P else _layer_steps(p)
    for k, (src, dst) in enumerate(steps, start=1):
        prod = np.empty_like(dp)
        tmp = np.empty_like(dp)
        np.multiply(dp[:, 0, None], inner[0], out=prod)
        for u in range(1, p):
            np.multiply(dp[:, u, None], inner[u], out=tmp)
            prod += tmp
        moved = tmp.reshape(-1, batch)[: len(src)]  # tmp is free: gather into it
        np.take(prod.reshape(-1, batch), src, axis=0, out=moved, mode="clip")
        dp = np.zeros((math.comb(p, k + 1), p, batch), dtype=dtype)
        dp.reshape(-1, batch)[dst] = moved
    return (dp[0].astype(np.int64) * w[1:, 0]).sum(axis=0)


def _count_range(job: tuple[np.ndarray, int, int, int]) -> int:
    """Cycles of the given length on the l-subsets lo..hi-1 in lexicographic order."""
    adj, length, lo, hi = job
    subsets = islice(combinations(range(len(adj)), length), lo, hi)
    width = cycle_sum_width(length, COUNT_DP_BYTES)
    total = 0
    # subsets stream straight into an index array: a list of per-subset
    # tuples would be the largest temporary of a count
    while (flat := np.fromiter(chain.from_iterable(islice(subsets, width)), np.intp)).size:
        idx = flat.reshape(-1, length).T  # idx[a, s] is the a-th vertex of subset s
        total += int(cycle_sum(adj[idx[:, None, :], idx[None, :, :]]).sum())
    return total


def pool_map(fn, jobs: list, workers: int):
    """Yield fn(job) for every job, in job order.

    Runs inline when ``workers`` is 1 or there is at most one job, and in a
    fork pool of ``workers`` processes otherwise.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        yield from map(fn, jobs)
        return
    with get_context("fork").Pool(workers) as pool:
        yield from pool.imap(fn, jobs)


def _path_partitions(length: int):
    """Set partitions of range(length) that put no two consecutive numbers in one block.

    Each is a tuple of block labels, numbered in order of first appearance.
    """
    if length == 1:
        yield (0,)
        return
    for labels in _path_partitions(length - 1):
        for b in range(max(labels) + 2):
            if b != labels[-1]:
                yield labels + (b,)


def _relabel(labels: tuple[int, ...]) -> tuple[int, ...]:
    """The same partition with its blocks numbered in order of first appearance."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(b, len(first)) for b in labels)


@lru_cache(maxsize=None)
def _walk_corrections(length: int) -> tuple[tuple[int, str, tuple], ...]:
    """Terms that turn tr(A^l) into l times the number of l-cycles.

    A closed l-walk maps the positions 0 .. l-1 of the l-cycle C_l to
    vertices, each position i to an out-neighbour of position i-1 (mod l).
    Grouping the walks by the partition pi of the positions into equal
    vertices and inverting over the partition lattice gives the walks with
    l distinct vertices, each l-cycle once per starting vertex:

        l * c_l = sum over pi of mu(pi) * hom(C_l / pi, A),
        mu(pi) = prod over blocks B of (-1)^(|B|-1) (|B|-1)!,

    where hom counts the maps of the blocks to vertices that send every
    edge of the quotient C_l / pi to an edge of A.  The finest partition
    gives tr(A^l).  A quotient with a loop or a 2-cycle has no map into a
    tournament, which drops every other partition for l <= 5.  Rotating pi
    leaves hom unchanged, so each rotation class is summed into one
    coefficient and zero coefficients are dropped.  A term is (coefficient,
    einsum subscripts over the distinct quotient edges, greedy contraction
    path); the path is derived once on l x l stand-ins for A, and every
    path gives the same exact sum.
    """
    coefficients: dict[tuple[int, ...], int] = {}
    for labels in _path_partitions(length):  # the others put a loop in the quotient
        if len(set(labels)) == length:  # the finest partition: tr(A^l)
            continue
        edges = {(labels[i - 1], labels[i]) for i in range(length)}
        if any(u == v or (v, u) in edges for u, v in edges):
            continue
        mu = math.prod(
            (-1) ** (size - 1) * math.factorial(size - 1)
            for size in map(labels.count, set(labels))
        )
        key = min(_relabel(labels[r:] + labels[:r]) for r in range(length))
        coefficients[key] = coefficients.get(key, 0) + mu
    stand_in = np.broadcast_to(np.int64(0), (length, length))
    terms = []
    for labels, coefficient in sorted(coefficients.items()):
        if not coefficient:
            continue
        edges = sorted({(labels[i - 1], labels[i]) for i in range(length)})
        subscripts = ",".join(ascii_letters[u] + ascii_letters[v] for u, v in edges) + "->"
        path = np.einsum_path(subscripts, *[stand_in] * len(edges), optimize="greedy")[0]
        terms.append((coefficient, subscripts, tuple(path)))
    return tuple(terms)


def _trace_cycle_count(t: Tournament, length: int) -> int:
    """Cycles of length 3 to 8 as closed-walk counts, in int64 arithmetic.

    tr(A^l) comes from int64 matrix powers, and the correction terms of
    ``_walk_corrections`` (none for l <= 5) are contracted with their cached
    paths and added in Python ints; the total is l times the cycle count.
    Every term and every partial contraction counts at most n^l maps, so
    orders with n^l >= 2^63 are refused before the adjacency matrix is built.
    """
    if t.n**length >= 1 << 63:
        raise ValueError(
            f"tr(A^{length}) can overflow int64 at n={t.n}: needs n^{length} < 2^63"
        )
    a = t.adjacency()
    powers = [a]  # A^1 .. A^ceil(l/2)
    while len(powers) < length - length // 2:
        powers.append(powers[-1] @ a)
    total = int(np.einsum("ij,ji->", powers[length // 2 - 1], powers[-1]))
    for coefficient, subscripts, path in _walk_corrections(length):
        operands = [a] * (subscripts.count(",") + 1)
        total += coefficient * int(np.einsum(subscripts, *operands, optimize=path))
    return total // length


def exact_cycle_count(t: Tournament, length: int) -> int:
    """Exact number of directed cycles of the given length in ``t``.

    Lengths 3 to 8 are closed-walk counts (``_trace_cycle_count``): tr(A^l)
    less the walks that repeat a vertex, as a few matrix contractions.
    Longer cycles go through the subset DP of ``cycle_sum``.
    """
    return pooled_cycle_count(t, length, 1)


def pooled_cycle_count(t: Tournament, length: int, workers: int) -> int:
    """``exact_cycle_count`` with the l-subsets split into ``workers`` contiguous ranges.

    Each range is counted by one worker of ``pool_map``; the integer sum
    does not depend on the split.  Lengths up to 8 take the closed-walk
    form and need neither subsets nor workers; longer ones keep the DP,
    since the closed-walk terms multiply with l (40 at l = 9).
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if length > t.n:
        return 0
    if length <= 8:
        return _trace_cycle_count(t, length)
    adj = t.adjacency().astype(np.int8)  # keeps the subset gathers small
    total = math.comb(t.n, length)
    jobs = [
        (adj, length, total * k // workers, total * (k + 1) // workers)
        for k in range(workers)
    ]
    return sum(pool_map(_count_range, jobs, workers))


def goodman_count3(t: Tournament) -> int:
    """3-cycle count from the degree sequence: binom(n,3) - sum_i binom(d_i, 2)."""
    if t.n < 3:
        raise ValueError("needs at least 3 vertices")
    return math.comb(t.n, 3) - sum(
        math.comb(t.out_degree(i), 2) for i in range(t.n)
    )


def expected_random_cycles(n: int, length: int) -> float:
    """Expected number of length-l cycles in a uniformly random n-vertex tournament.

    Each of binom(n,l) * (l-1)!/2 undirected cyclic arrangements is a directed
    cycle with probability 2/2^l, giving (l-1)!/2^l * binom(n,l).
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    return math.factorial(length - 1) / 2**length * math.comb(n, length)


def normalized_density(t: Tournament, length: int) -> float:
    """Cycle count divided by the random-tournament expectation."""
    if length > t.n:
        raise ValueError(f"cycle length {length} exceeds vertex count {t.n}")
    return exact_cycle_count(t, length) / expected_random_cycles(t.n, length)


def four_profile(t: Tournament) -> FourProfile:
    """Count the induced 4-vertex subtournaments of each type, in closed form.

    Every closed 4-walk of a tournament is a directed 4-cycle (see
    ``_walk_corrections``), and only type c4 holds a 4-cycle, exactly one,
    so c4 = tr(A^4) / 4.  A source (a vertex beating the other three) exists
    in t4 and w4 only, and is unique, so t4 + w4 = S = sum_v binom(d_v, 3)
    over the out-degrees d_v; likewise sinks give t4 + l4 = R =
    sum_v binom(n-1-d_v, 3).  The four types add up to binom(n, 4), so
    t4 = S + R + c4 - binom(n, 4), w4 = S - t4 and l4 = R - t4.
    """
    n = t.n
    if n < 4:
        raise ValueError("four_profile needs at least 4 vertices")
    c4 = _trace_cycle_count(t, 4)
    degrees = [t.out_degree(v) for v in range(n)]
    sources = sum(math.comb(d, 3) for d in degrees)
    sinks = sum(math.comb(n - 1 - d, 3) for d in degrees)
    t4 = sources + sinks + c4 - math.comb(n, 4)
    return FourProfile(t4, c4, l4=sinks - t4, w4=sources - t4)


def format_tournament(t: Tournament) -> str:
    """Text form: first line n, then n rows of 0/1 characters (row i col j = 1 iff i beats j)."""
    lines = [str(t.n)]
    for i in range(t.n):
        lines.append("".join("1" if t.beats(i, j) else "0" for j in range(t.n)))
    return "\n".join(lines) + "\n"


def parse_tournament(text: str) -> Tournament:
    """Parse the text form, validating the exactly-one-orientation invariant."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tournament file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the vertex count, got {lines[0]!r}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    out = []
    for i, row in enumerate(lines[1:]):
        if len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"row {i} must be {n} characters over 0/1")
        if row[i] != "0":
            raise ValueError(f"diagonal entry of row {i} must be 0")
        out.append(sum(1 << j for j in range(n) if row[j] == "1"))
    return Tournament(n, tuple(out))
