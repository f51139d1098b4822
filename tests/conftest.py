"""Shared oracles and generators for the test suite.

The oracles here deliberately avoid the library's algorithms: cycles and
weighted cycle sums are found by enumerating cyclic arrangements, 4-vertex
types are matched by explicit isomorphism search, canonical forms and
slice orbits are read off every relabelling and flip vector (at orders 7
and 8, off every relabelled root switch packed with Python ints), the
switching classes are counted by Burnside's lemma over cycle types, and the
conjectured constants are summed from their defining series, so they can
vouch for the faster paths.  ``dp_cycle_count`` is the one helper that runs
a library algorithm, ``cycle_sum`` on every l-subset: a second route to the
closed-walk counts at l <= 8 and to the anchored counts at l >= 9.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest

from tourcycles.tournaments import Tournament, cycle_sum


def brute_cycle_count(t: Tournament, length: int) -> int:
    """Count directed cycles by checking every cyclic arrangement directly."""
    total = 0
    for subset in combinations(range(t.n), length):
        anchor = subset[0]
        for rest in permutations(subset[1:]):
            cycle = (anchor,) + rest
            if all(
                t.beats(cycle[i], cycle[(i + 1) % length]) for i in range(length)
            ):
                total += 1
    return total


def brute_cycle_sum(w: np.ndarray) -> int:
    """Sum over the orderings 0 -> p1 -> ... -> p_{m-1} -> 0 of the product of the m weights."""
    m = len(w)
    total = 0
    for rest in permutations(range(1, m)):
        cycle = (0,) + rest
        prod = 1
        for i in range(m):
            prod *= int(w[cycle[i], cycle[(i + 1) % m]])
            if not prod:
                break
        total += prod
    return total


def dp_cycle_count(t: Tournament, length: int) -> int:
    """Cycles of the given length by ``cycle_sum`` on every l-subset, in one batch."""
    subsets = np.array(list(combinations(range(t.n), length))).T
    return int(cycle_sum(t.adjacency()[subsets[:, None, :], subsets[None, :, :]]).sum())


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees allocated during one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tournament_from_bits(n: int, bits: int) -> Tournament:
    """Tournament from one bit per pair (i < j), bit 1 meaning i beats j."""
    out = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> idx) & 1:
                out[i] |= 1 << j
            else:
                out[j] |= 1 << i
            idx += 1
    return Tournament(n, tuple(out))


def all_tournaments(n: int):
    for bits in range(1 << (n * (n - 1) // 2)):
        yield tournament_from_bits(n, bits)


def random_tournament(n: int, rng: np.random.Generator) -> Tournament:
    flags = rng.integers(0, 2, size=n * (n - 1) // 2)
    bits = sum(1 << i for i, f in enumerate(flags) if f)
    return tournament_from_bits(n, bits)


def random_skew_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Skew matrix with entries uniform in [-1, 1]."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a = np.triu(a, 1)
    return a - a.T


def brute_canonical_bits(a: np.ndarray) -> int:
    """Smallest packed code of a skew sign matrix over all n! * 2^n transformations.

    Every relabelling c[i, j] = a[p(i), p(j)] is combined with every flip
    vector s in {+1, -1}^n, c[i, j] *= s_i s_j, with no flip forced; the
    upper triangle is read row-major, first pair most significant, and a
    bit is 1 for +1 (the ``SkewSignMatrix`` packing).
    """
    n = len(a)
    perms = np.array(list(permutations(range(n))))
    flips = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    iu, ju = np.triu_indices(n, 1)
    entries = np.asarray(a)[perms[:, iu], perms[:, ju]]  # (n!, m)
    signs = flips[:, iu] * flips[:, ju]  # (2^n, m)
    plus = entries[:, None, :] * signs[None, :, :] > 0
    return int((plus @ (1 << np.arange(len(iu) - 1, -1, -1))).min())


def brute_slice_masks(a: np.ndarray) -> list[int]:
    """Sorted enumeration masks of the first-row-+1 members of a's class.

    Every one of the n! * 2^n relabellings and flip vectors is applied (as
    in ``brute_canonical_bits``); the copies whose first row is all +1 are
    kept, and each is packed with bit k-1-t for the t-th of the k pairs
    (i, j), 1 <= i < j, in row-major order, set for +1.
    """
    n = len(a)
    perms = np.array(list(permutations(range(n))))
    flips = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    iu, ju = np.triu_indices(n, 1)
    entries = np.asarray(a)[perms[:, iu], perms[:, ju]]  # (n!, m)
    copies = (entries[:, None, :] * (flips[:, iu] * flips[:, ju])[None, :, :]).reshape(-1, len(iu))
    first = iu == 0
    kept = copies[np.all(copies[:, first] > 0, axis=1)][:, ~first]
    return sorted({sum(1 << (len(row) - 1 - t) for t, x in enumerate(row) if x > 0) for row in kept})


def gather_orbit(a: np.ndarray) -> tuple[int, list[int]]:
    """Canonical bits and sorted slice masks from every relabelled root switch, n >= 3.

    Root p's switch M_p[u, v] = a[p, u] a[p, v] a[u, v] on the other n - 1
    vertices is relabelled by each (n-1)! permutation q through one int8
    gather of M_p[q(i), q(j)], i < j.  Each relabelled upper triangle is
    read as a binary numeral by ``int``, first pair most significant: the
    slice mask, and the ``SkewSignMatrix`` bits of the member whose first
    row is -1, which adds no bit.  No fixed-width arithmetic touches a
    code, so it reaches order 8 exactly.
    """
    a = np.asarray(a, dtype=np.int8)
    n = len(a)
    perms = np.array(list(permutations(range(n - 1))))
    iu, ju = np.triu_indices(n - 1, 1)
    m = len(iu)
    text = b""
    for p in range(n):
        rest = [u for u in range(n) if u != p]
        switch = a[p, rest][:, None] * a[p, rest][None, :] * a[np.ix_(rest, rest)]
        text += ((switch[perms[:, iu], perms[:, ju]] > 0) + ord("0")).astype(np.uint8).tobytes()
    numerals = [text[k : k + m] for k in range(0, len(text), m)]
    return min(int(r, 2) for r in numerals), sorted({int(r, 2) for r in numerals})


@lru_cache(maxsize=None)
def switching_class_count(n: int) -> int:
    """Number of switching classes of n-vertex tournaments, by Burnside's lemma.

    The group of relabellings sigma and vertex flips s acts on sign matrices
    by B[i, j] -> s_i s_j B[sigma(i), sigma(j)], and the classes are its
    orbits: (1/(n! 2^n)) sum over (sigma, s) of Fix(sigma, s).  Fix depends
    on sigma only through its cycle type, so one sigma stands for the
    n!/z_lambda of each type.  With B[i, j] = e(i, j) x_{ij} (e = +1 for
    i < j, -1 otherwise, x one free sign per unordered pair), a fixed point
    satisfies x_{ij} = s_i s_j e(i, j) e(sigma(i), sigma(j)) x_{sigma(i) sigma(j)};
    following each orbit of unordered pairs back to its start, the product
    of those factors must be +1, and then the orbit takes either sign.
    """
    total = 0
    for cycles in _partitions(n, n):
        sigma, start = [], 0
        for length in cycles:
            sigma += [start + (i + 1) % length for i in range(length)]
            start += length
        z = math.prod(k ** cycles.count(k) * math.factorial(cycles.count(k)) for k in set(cycles))
        for flips in range(1 << n):
            s = [1 - 2 * (flips >> v & 1) for v in range(n)]
            seen, fixed = set(), 1
            for pair in combinations(range(n), 2):
                if pair in seen:
                    continue
                (i, j), product = pair, 1
                while True:
                    seen.add((min(i, j), max(i, j)))
                    u, v = sigma[i], sigma[j]
                    product *= s[i] * s[j] * (1 if i < j else -1) * (1 if u < v else -1)
                    i, j = u, v
                    if (min(i, j), max(i, j)) == pair:
                        break
                fixed = 2 * fixed if product == 1 else 0
                if not fixed:
                    break
            total += math.factorial(n) // z * fixed
    count, rest = divmod(total, math.factorial(n) << n)
    assert rest == 0
    return count


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, each a tuple in decreasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


# pi to 50 places, rounded up, so it lies above pi and (2/pi)^l keeps full
# double precision far beyond l = 64
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")


def series_excess(length: int, rel_tol: float = 1e-17) -> float:
    """2 * sum_{i>=1} (2 / ((2i-1) pi))^length, truncated by its tail bound.

    The tail obeys sum_{i>N} (2i-1)^-l <= (2N-1)^(1-l) / (2(l-1)) and the
    whole sum is at least 1, so N is fixed up front to put the relative
    truncation error below ``rel_tol``; the kept terms go through one fsum.
    """
    n = math.ceil(((2 * (length - 1) * rel_tol) ** (-1 / (length - 1)) + 1) / 2)
    odd_sum = math.fsum((2 * i - 1) ** -length for i in range(1, n + 1))
    return float(2 * (2 / PI_50) ** length) * odd_sum


def tournament_from_edges(n: int, edges) -> Tournament:
    out = [0] * n
    for a, b in edges:
        out[a] |= 1 << b
    return Tournament(n, tuple(out))


# the four 4-vertex tournament types as explicit edge lists
_REFS_4 = {
    "t4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
    "c4": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
    "l4": [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)],
    "w4": [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)],
}


def _iso_class(t: Tournament) -> str:
    """Classify a 4-vertex tournament by brute-force isomorphism."""
    assert t.n == 4
    refs = {name: tournament_from_edges(4, e) for name, e in _REFS_4.items()}
    for name, ref in refs.items():
        for perm in permutations(range(4)):
            if all(
                t.beats(perm[a], perm[b]) == ref.beats(a, b)
                for a in range(4)
                for b in range(4)
                if a != b
            ):
                return name
    raise AssertionError("unclassifiable 4-vertex tournament")


def brute_four_profile(t: Tournament) -> dict[str, int]:
    """Type counts of the induced 4-vertex subtournaments, each matched by ``_iso_class``."""
    counts = dict.fromkeys(_REFS_4, 0)
    for quad in combinations(range(t.n), 4):
        out = [sum(1 << b for b, w in enumerate(quad) if t.beats(v, w)) for v in quad]
        counts[_iso_class(Tournament(4, tuple(out)))] += 1
    return counts


@pytest.fixture(scope="session")
def iso_class_of():
    return _iso_class
