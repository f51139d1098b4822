"""Independent oracles the benchmark checks the library against.

None of these reuse a tourcycles algorithm: cycle counts come from a
level-by-level numpy path DP or from enumerating cyclic arrangements, the
series constants from the tangent-number closed form, carousel densities
and eigenvalues from the FFT of a circulant's first row, and the spectral
radius of D_n from its closed form cot(pi / 2n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np


def adjacency(t) -> np.ndarray:
    """0/1 int64 adjacency of a tournament built from its out-bitsets."""
    n = t.n
    bits = np.array(t.out, dtype=np.int64)
    return ((bits[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)


def cycle_count(adj: np.ndarray, length: int) -> int:
    """Directed cycles of the given length, by a path DP over vertex sets.

    Each cycle is counted from its least vertex ``a``: paths leave ``a``,
    visit only larger vertices and close back to ``a``.  The sets of visited
    vertices are kept level by level (one popcount at a time) as sorted
    int64 masks, so memory follows binom(n, length-1), not 2^n.
    """
    n = adj.shape[0]
    total = 0
    for a in range(n - length + 1):
        sub = adj[a:, a:]
        m = sub.shape[0] - 1  # local vertex v >= 1 owns bit v-1
        bit = np.int64(1) << np.arange(m, dtype=np.int64)
        masks = bit[sub[0, 1:] == 1]
        # dp[i, v]: paths a -> ... -> v through exactly masks[i]; column 0 unused
        dp = np.zeros((len(masks), m + 1), dtype=np.int64)
        dp[np.arange(len(masks)), np.flatnonzero(sub[0, 1:]) + 1] = 1
        for _ in range(length - 2):
            grown = (masks[:, None] | bit[None, :])[(masks[:, None] & bit[None, :]) == 0]
            nxt_masks = np.unique(grown)
            nxt = np.zeros((len(nxt_masks), m + 1), dtype=np.int64)
            for v in range(1, m + 1):
                free = (masks & bit[v - 1]) == 0
                ways = dp[free] @ sub[:, v]
                hit = np.searchsorted(nxt_masks, masks[free] | bit[v - 1])
                nxt[hit, v] += ways
            masks, dp = nxt_masks, nxt
        total += int((dp @ sub[:, 0]).sum())
    return total


def arrangement_counts(adjs: np.ndarray, length: int) -> np.ndarray:
    """Cycle counts of a batch of tournaments by checking every cyclic arrangement.

    ``adjs`` has shape (batch, n, n); each arrangement starts at its least
    vertex, so each directed cycle is seen exactly once.
    """
    n = adjs.shape[1]
    counts = np.zeros(adjs.shape[0], dtype=np.int64)
    for subset in combinations(range(n), length):
        for rest in permutations(subset[1:]):
            cyc = (subset[0],) + rest
            hit = np.ones(adjs.shape[0], dtype=np.int64)
            for i in range(length):
                hit &= adjs[:, cyc[i], cyc[(i + 1) % length]]
            counts += hit
    return counts


def tangent_constant(length: int) -> Fraction:
    """Exact value of 1 + 2 * sum_i (2 / ((2i-1) pi))^length for 4 | length.

    The sum equals T/(length-1)! with T the tangent number
    (length-1)! [x^(length-1)] tan x, computed by the integer recurrence of
    Knuth and Buckholtz (Math. Comp. 21, 1967).
    """
    m = length // 2
    t = [0] * (m + 1)
    t[1] = 1
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return 1 + Fraction(t[m], math.factorial(length - 1))


def circulant_eigenvalues(w) -> np.ndarray:
    """Eigenvalues of W/k for a circulant k x k grid, from the FFT of its first row."""
    values = np.asarray(getattr(w, "values", w))
    k = values.shape[0]
    return np.fft.fft(values[0]) / k


def circulant_density(w, length: int) -> float:
    """Cycle density 2^l Trace((W/k)^l) of a circulant grid as 2^l sum lambda^l."""
    lam = circulant_eigenvalues(w)
    return float(2**length * np.sum(lam**length).real)


def dominant_radius(n: int) -> float:
    """Spectral radius of D_n (+1 above, -1 below the diagonal): cot(pi / 2n)."""
    return 1.0 / math.tan(math.pi / (2 * n))


def dominant_moduli(n: int) -> np.ndarray:
    """Eigenvalue moduli of D_n, |cot((2j-1) pi / 2n)| for j = 1..n, descending."""
    j = np.arange(1, n + 1)
    return np.sort(np.abs(1.0 / np.tan((2 * j - 1) * np.pi / (2 * n))))[::-1]
