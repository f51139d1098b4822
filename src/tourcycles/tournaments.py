"""Tournaments, generators and exact directed-cycle counting.

A tournament on n vertices is an orientation of the complete graph K_n.
Adjacency is stored as one out-neighbour bitset per vertex.

3-cycles come from the out-degrees alone (Goodman's formula).  Cycles
of length 4 to 8 are closed-walk counts: tr(A^l), from int64 matrix
powers, minus the closed walks that repeat a vertex, which Moebius
inversion over the set partitions of the l walk positions writes as a few
einsum contractions of A (none for l <= 5, since a tournament has no loops
and no 2-cycles).  Longer cycles are counted once each, at their highest
vertex h, by one subset DP, ``_path_layer``: paths from h over
(visited-subset, last-vertex) states of the vertices below h, one popcount
layer per ``einsum``, stopped at layer l-1 and closed back to h, all in
one process.  The same DP run to the full layer is ``cycle_sum``, which sums
the Hamiltonian cycles of a batch of matrices and computes the cyclic
index of sign matrices (signsearch).  Its integer dtype is the narrowest
of int16, int32 and int64 that a proven bound allows, so it is exact for
every cycle length l <= 21 and refuses longer ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    "goodman_count3",
    "expected_random_cycles",
    "normalized_density",
    "four_profile",
    "parse_tournament",
    "format_tournament",
]

# An l >= 9 cycle count whose estimated working set exceeds this is refused.
COUNT_MAX_BYTES = 1 << 29
# cycle_sum keeps its index tables through this order (about 180 kB at order 12).
CYCLE_STEPS_MAX_ORDER = 12


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


def _layer_steps(p: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index tables of the popcount-layer DP over subsets of range(p), up to layer ``stop``.

    Layer k lists the k-subsets in ascending bitmask order, so the subsets
    of range(t) are its first binom(t, k), and the (k+1)-subsets with top
    vertex c are those first binom(c, k) plus c: each layer is built and
    ranked from the one before (the combinatorial number system), with no
    2^p array.  Step k pairs each (k+1)-subset r' with each v in r', in the
    order of r' and then v: the flat index (rank of r' - {v}) * p + v into
    the step's product and r' * p + v into layer k+1.  The step over the
    subsets of range(t) is thus its first (k+1) * binom(t, k+1) pairs.
    """
    elems = np.arange(p)[:, None]  # the vertices of each subset of the layer
    drop = np.zeros((p, 1), dtype=np.intp)  # rank of the subset less each vertex
    steps = []
    for k in range(1, stop):
        sizes = [math.comb(c, k) for c in range(k, p)]
        low = np.arange(math.comb(p, k + 1)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        elems = np.column_stack((elems[low], np.repeat(np.arange(k, p), sizes)))
        drop = np.column_stack((np.repeat(sizes, sizes)[:, None] + drop[low], low))
        rows = np.arange(len(low))[:, None]
        steps.append(((drop * p + elems).ravel(), (rows * p + elems).ravel()))
    return steps


@lru_cache(maxsize=None)
def _cycle_steps(p: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_layer_steps(p, p)`` cached read-only, for ``cycle_sum`` at orders p + 1 <= 12."""
    steps = tuple(_layer_steps(p, p))
    for pair in steps:
        for arr in pair:
            arr.flags.writeable = False
    return steps


def _path_layer(start: np.ndarray, inner: np.ndarray, steps: list, t: int) -> np.ndarray:
    """Weighted paths from an anchor over the subsets of range(t), at the last layer of ``steps``.

    ``start`` (p, batch) holds the anchor's weights to the vertices 0 .. p-1
    and ``inner`` (p, p, batch) the weights among them.  Bellman / Held-Karp
    subset DP: dp[r, v] sums the paths from the anchor through exactly the
    vertex set r that end at v, with dp[{v}, v] = start[v].  A step computes
    prod[r, v] = sum over u < t of dp[r, u] * inner[u, v] for a whole layer
    in one ``einsum``, batch axis last and in the dtype of ``start``, and
    gathers the entries with v not in r into dp[r + {v}, v] of the next
    layer.  ``np.take`` copies a non-writeable index array such as a cached
    ``_cycle_steps`` table; a step's slice is at most 2 772 intp indices
    (22 176 B, order 12), so that copy is left alone.
    """
    p, batch = start.shape
    dp = np.zeros((t, p, batch), dtype=start.dtype)
    dp[range(t), range(t)] = start[:t]
    for k, (src, dst) in enumerate(steps, start=1):
        size = (k + 1) * math.comb(t, k + 1)
        prod = np.einsum("rub,uvb->rvb", dp[:, :t], inner[:t])
        moved = np.take(prod.reshape(-1, batch), src[:size], axis=0, mode="clip")
        dp = np.zeros((math.comb(t, k + 1), p, batch), dtype=start.dtype)
        dp.reshape(-1, batch)[dst[:size]] = moved
    return dp


def cycle_sum(w: np.ndarray) -> np.ndarray:
    """Weighted sums over the Hamiltonian cycles through vertex 0, one per matrix.

    ``w`` has shape (m, m, batch): a batch of m x m weight matrices with
    entries in {-1, 0, 1}, batch on the last axis.  Each directed cycle
    0 -> v1 -> ... -> v_{m-1} -> 0 contributes the product of its m weights;
    the result is int64[batch].  This is ``_path_layer`` from vertex 0 run
    to the full layer, one ``einsum`` over the whole batch per layer, and
    closed back to 0, in the dtype of ``_dp_dtype``.
    For a 0/1 tournament adjacency it counts the directed Hamiltonian
    cycles, each once since the anchor fixes the rotation; for a skew sign
    matrix it is the cyclic index divided by m.  Its index tables are
    cached, read-only, through order ``CYCLE_STEPS_MAX_ORDER``.
    """
    m = w.shape[0]
    w = np.ascontiguousarray(w, dtype=_dp_dtype(m))
    if m == 1:
        return np.zeros(w.shape[2], dtype=np.int64)
    p = m - 1
    steps = _cycle_steps(p) if m <= CYCLE_STEPS_MAX_ORDER else _layer_steps(p, p)
    dp = _path_layer(w[0, 1:], w[1:, 1:], steps, p)
    return (dp[0].astype(np.int64) * w[1:, 0]).sum(axis=0)


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
    coefficient, none of them zero for l = 6 ... 8.  A term is (coefficient,
    einsum subscripts over the distinct quotient edges, contraction steps).
    The greedy path is derived once on l x l stand-ins for A and turned
    into its pairwise steps, each (positions, two-operand subscripts): the
    operands at those positions of the current list are removed and their
    contraction, which keeps the letters still needed elsewhere, is
    appended.  Every path gives the same exact sum.
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
        edges = sorted({(labels[i - 1], labels[i]) for i in range(length)})
        # block b is subscript letter chr(97 + b): a, b, ... (at most 8 blocks)
        subscripts = ",".join(chr(97 + u) + chr(97 + v) for u, v in edges) + "->"
        path = np.einsum_path(subscripts, *[stand_in] * len(edges), optimize="greedy")[0]
        inputs, steps = subscripts[:-2].split(","), []
        for pos in path[1:]:
            pair = [inputs[p] for p in pos]
            inputs = [x for p, x in enumerate(inputs) if p not in pos]
            out = "".join(sorted(set("".join(pair)) & set("".join(inputs))))
            inputs.append(out)
            steps.append((pos, ",".join(pair) + "->" + out))
        terms.append((coefficient, subscripts, tuple(steps)))
    return tuple(terms)


def _trace_cycle_count(t: Tournament, length: int) -> int:
    """Cycles of length 3 to 8 as closed-walk counts, in int64 arithmetic.

    tr(A^l) comes from int64 matrix powers, and the correction terms of
    ``_walk_corrections`` (none for l <= 5) are contracted by their cached
    pairwise steps, one plain two-operand ``einsum`` each (no path search
    or parsing of the whole term per call), and added in Python ints; the
    total is l times the cycle count.
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
    total = int(np.vdot(powers[length // 2 - 1], powers[-1].T))
    for coefficient, subscripts, steps in _walk_corrections(length):
        operands = [a] * (subscripts.count(",") + 1)
        for pos, pair in steps:
            picked = [operands[p] for p in pos]
            operands = [x for p, x in enumerate(operands) if p not in pos]
            operands.append(np.einsum(pair, *picked))
        total += coefficient * int(operands[0])
    return total // length


def _count_bytes(n: int, length: int) -> int:
    """Estimated peak bytes of the anchored l-cycle count on n vertices.

    Over the p = n-1 lower vertices, step k <= l-2 keeps 2 * (k+1) *
    binom(p, k+1) int64 indices (every step's are held, and building the
    last takes as much again) and holds dp, its ``einsum`` product and the
    slice gathered from that product (at most binom(p, k) * p entries
    each) and the next layer.
    """
    p, item = n - 1, np.dtype(_dp_dtype(length)).itemsize
    ks = range(1, length - 1)
    tables = [16 * (k + 1) * math.comb(p, k + 1) for k in ks]
    steps = [(3 * math.comb(p, k) + math.comb(p, k + 1)) * p for k in ks]
    return sum(tables) + tables[-1] + max(steps) * item


def exact_cycle_count(t: Tournament, length: int) -> int:
    """Exact number of directed cycles of the given length in ``t``.

    Length 3 is ``goodman_count3``, from the out-degrees, so it has no
    n^l bound.  Lengths 4 to 8 are closed-walk counts
    (``_trace_cycle_count``).  A longer cycle is counted once, at its
    highest vertex h: ``_path_layer`` from h over the subsets of range(h),
    one ``einsum`` per layer, stopped at layer l-1 and closed back to h,
    summed over h.  One set of index tables, built for range(n-1), serves
    every h as prefixes.  A count whose ``_count_bytes`` estimate exceeds
    ``COUNT_MAX_BYTES`` is refused before the adjacency is built.
    """
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if length > t.n:
        return 0
    if length == 3:
        return goodman_count3(t)
    if length <= 8:
        return _trace_cycle_count(t, length)
    if length > 21:
        raise ValueError(f"cycle length must be <= 21, got {length}")
    need = _count_bytes(t.n, length)
    if need > COUNT_MAX_BYTES:
        raise ValueError(
            f"counting {length}-cycles at n={t.n} needs about {need / 2**20:,.0f} MiB, "
            f"over the {COUNT_MAX_BYTES >> 20} MiB limit"
        )
    a = t.adjacency().astype(_dp_dtype(length))[:, :, None]
    p = t.n - 1
    steps = _layer_steps(p, length - 1)
    total = 0
    for top in range(length - 1, t.n):
        dp = _path_layer(a[top, :p], a[:p, :p], steps, top)
        total += int((dp[..., 0] @ a[:p, top, 0]).sum(dtype=np.int64))
    return total


def goodman_count3(t: Tournament) -> int:
    """3-cycle count from the degree sequence: binom(n,3) - sum_i binom(d_i, 2)."""
    if t.n < 3:
        raise ValueError("needs at least 3 vertices")
    return math.comb(t.n, 3) - sum(math.comb(d, 2) for d in map(int.bit_count, t.out))


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
