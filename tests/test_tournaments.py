import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcycles.tournaments import (
    COUNT_MAX_BYTES,
    CYCLE_STEPS_MAX_ORDER,
    DegreeSequence,
    Tournament,
    _cycle_steps,
    _count_bytes,
    _dp_dtype,
    _trace_cycle_count,
    _walk_corrections,
    cycle_sum,
    exact_cycle_count,
    expected_random_cycles,
    format_tournament,
    four_profile,
    goodman_count3,
    make_carousel,
    make_transitive,
    normalized_density,
    parse_tournament,
    sample_random,
    sample_w_random,
)

from conftest import (
    all_tournaments,
    brute_cycle_count,
    brute_cycle_sum,
    brute_four_profile,
    dp_cycle_count,
    random_tournament,
    tournament_from_bits,
    traced_peak,
)


class TestGenerators:
    def test_carousel_smallest_is_cyclic_triangle(self):
        t = make_carousel(3)
        assert [t.out_degree(i) for i in range(3)] == [1, 1, 1]
        assert exact_cycle_count(t, 3) == 1

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_carousel_is_regular(self, n):
        t = make_carousel(n)
        assert all(t.out_degree(i) == (n - 1) // 2 for i in range(n))

    def test_carousel_beats_next_half(self):
        t = make_carousel(9)
        for i in range(9):
            for step in range(1, 9):
                assert t.beats(i, (i + step) % 9) == (step <= 4)

    @pytest.mark.parametrize("n", [0, 2, 4, 10])
    def test_carousel_rejects_bad_order(self, n):
        with pytest.raises(ValueError):
            make_carousel(n)

    def test_transitive_single_edge(self):
        t = make_transitive(2)
        assert t.beats(0, 1) and not t.beats(1, 0)

    def test_transitive_profile(self):
        assert four_profile(make_transitive(4)).t4 == 1

    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_transitive_is_acyclic(self, length):
        assert exact_cycle_count(make_transitive(5), length) == 0

    def test_transitive_rejects_zero(self):
        with pytest.raises(ValueError):
            make_transitive(0)

    def test_single_vertex_random(self):
        t = sample_random(1, seed=5)
        assert t.n == 1 and t.out == (0,)

    def test_sample_random_deterministic(self):
        assert sample_random(10, seed=77) == sample_random(10, seed=77)

    def test_sample_w_random_deterministic(self):
        w = np.full((4, 4), 0.5)
        assert sample_w_random(w, 8, seed=3) == sample_w_random(w, 8, seed=3)

    def test_sample_w_random_all_ones_grid(self):
        # a grid of ones orients every pair the same way: no cycles at all
        t = sample_w_random(np.ones((4, 4)), 4, seed=11)
        assert exact_cycle_count(t, 3) == 0 and exact_cycle_count(t, 4) == 0

    def test_sample_w_random_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sample_w_random(np.full((3, 3), 2.0), 4, seed=0)

    @pytest.mark.parametrize(
        "grid",
        [
            [[0.5, np.nan], [np.nan, 0.5]],
            [[np.nan]],
            np.zeros((0, 0)),
            np.full((2, 3), 0.5),
            [0.5, 0.5],
        ],
        ids=["nan-offdiag", "nan-1x1", "empty", "non-square", "one-dim"],
    )
    def test_sample_w_random_rejects_nan_and_bad_shapes(self, grid):
        with pytest.raises(ValueError):
            sample_w_random(grid, 6, seed=0)

    def test_sample_w_random_accepts_step_tournamenton(self):
        from tourcycles.limits import carousel_tournamenton

        w = carousel_tournamenton(4)
        t = sample_w_random(w, 10, seed=9)
        assert t.n == 10
        assert t == sample_w_random(w, 10, seed=9)


class TestTournamentType:
    def test_rejects_double_edge(self):
        with pytest.raises(ValueError):
            Tournament(2, (0b10, 0b01))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Tournament(2, (0b11, 0b00))

    def test_rejects_missing_edge(self):
        with pytest.raises(ValueError):
            Tournament(3, (0b010, 0b100, 0b000))

    @pytest.mark.parametrize("build,args,message", [
        (Tournament, (0, ()), "at least one vertex"),
        (Tournament, (3, (0b010, 0b100)), "length does not match"),
        (Tournament, (2, (0b100, 0b000)), "references vertices >= n"),
        (Tournament, (3, (0b010, 0b001, 0b001)), r"pair \(0,1\) must have exactly one"),
        (parse_tournament, ("",), "empty tournament file"),
        (parse_tournament, ("3\n010\n01\n100\n",), "row 1 must be 3 characters"),
    ], ids=["no-vertex", "out-length", "bit-above-n", "both-orientations", "empty-file",
            "row-width"])
    def test_refuses_malformed_input(self, build, args, message):
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_degree_sequence_invariant(self):
        t = make_carousel(7)
        ds = t.degree_sequence()
        assert sum(ds.out_degrees) == 21
        with pytest.raises(ValueError):
            DegreeSequence([3, 3, 3])

    def test_reverse_is_involution(self):
        t = sample_random(8, seed=2)
        assert t.reverse().reverse() == t


class TestCycleCounting:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 7),
        bits=st.integers(0, 2**21 - 1),
        length=st.integers(3, 6),
    )
    def test_matches_arrangement_oracle(self, n, bits, length):
        t = tournament_from_bits(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
        if length <= n:
            assert exact_cycle_count(t, length) == brute_cycle_count(t, length)

    def test_carousel5_triangles(self):
        t = make_carousel(5)
        assert exact_cycle_count(t, 3) == brute_cycle_count(t, 3) == 5

    def test_length_above_n_is_zero(self):
        assert exact_cycle_count(make_carousel(5), 6) == 0

    def test_hamiltonian_cycles_full_length(self):
        t = make_carousel(5)
        assert exact_cycle_count(t, 5) == brute_cycle_count(t, 5)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            exact_cycle_count(make_carousel(5), 2)

    def test_even_order_maximum(self):
        # best possible 3-cycle count at n=4 is n(n^2-4)/24 = 2
        assert max(exact_cycle_count(t, 3) for t in all_tournaments(4)) == 2

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 7), bits=st.integers(0, 2**21 - 1), length=st.integers(3, 5))
    def test_reversal_preserves_counts(self, n, bits, length):
        t = tournament_from_bits(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
        assert exact_cycle_count(t, length) == exact_cycle_count(t.reverse(), length)


class TestCycleSum:
    @pytest.mark.parametrize("m", [8, 9, 10, 13, 14])
    def test_complete_digraph_has_every_order(self, m):
        # J - I closes all (m-1)! orderings; 8/9 and 13/14 straddle the
        # int16 and int32 rungs, and at 10 a partial sum (8! paths) first
        # leaves int16.  A batch of three checks that each batch entry
        # accumulates exactly: -(J - I) gives every tour the sign (-1)^m.
        j = np.ones((m, m), dtype=np.int8) - np.eye(m, dtype=np.int8)
        w = np.stack([j, -j, np.zeros_like(j)], axis=-1)
        f = math.factorial(m - 1)
        assert cycle_sum(w).tolist() == [f, (-1) ** m * f, 0]

    def test_dtype_rungs_follow_the_factorial_bound(self):
        rungs = [_dp_dtype(m) for m in (3, 8, 9, 13, 14, 21)]
        assert rungs == [np.int16, np.int16, np.int32, np.int32, np.int64, np.int64]

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(3, 9), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_permutation_sum(self, m, batch, seed):
        # neither skew nor +-1: zeros and both orientations of a pair occur
        w = np.random.default_rng(seed).integers(-1, 2, size=(m, m, batch), dtype=np.int8)
        expect = [brute_cycle_sum(w[:, :, k]) for k in range(batch)]
        assert cycle_sum(w).tolist() == expect

    def test_order_22_refused_before_allocating(self):
        w = np.ones((22, 22, 1), dtype=np.int8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                cycle_sum(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_step_tables_not_retained(self):
        # order 18 builds the 17-vertex step tables (about 18 MB of indices);
        # no table is cached, so they go with the call
        m = 18
        w = (np.ones((m, m), dtype=np.int8) - np.eye(m, dtype=np.int8))[:, :, None]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            total = cycle_sum(w)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total.tolist() == [math.factorial(m - 1)]
        assert after - before < 2**20

    def test_small_order_step_tables_cached_read_only(self):
        # cycle_sum reuses one read-only table set per order up to the cap;
        # exact_cycle_count builds its own and leaves the cache alone
        m = CYCLE_STEPS_MAX_ORDER
        w = (np.ones((m, m), dtype=np.int8) - np.eye(m, dtype=np.int8))[:, :, None]
        assert cycle_sum(w).tolist() == [math.factorial(m - 1)]
        steps = _cycle_steps(m - 1)
        assert cycle_sum(w).tolist() == [math.factorial(m - 1)]
        assert _cycle_steps(m - 1) is steps
        for src, dst in steps:
            assert not src.flags.writeable and not dst.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            steps[0][0][0] = 0
        cached = _cycle_steps.cache_info().currsize
        exact_cycle_count(random_tournament(11, np.random.default_rng(3)), 9)
        assert _cycle_steps.cache_info().currsize == cached


class _OrderOnly:
    """Stands in for a tournament of order n; building its adjacency fails."""

    def __init__(self, n):
        self.n = n

    def adjacency(self):
        raise LookupError("adjacency built")


class TestTraceForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_tournament_matches_arrangement_oracle(self, n):
        for t in all_tournaments(n):
            for length in (3, 4, 5):
                assert exact_cycle_count(t, length) == brute_cycle_count(t, length)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(6, 9), bits=st.integers(0, 2**36 - 1), length=st.integers(3, 8))
    def test_random_tournaments_match_arrangement_oracle(self, n, bits, length):
        t = tournament_from_bits(n, bits & ((1 << (n * (n - 1) // 2)) - 1))
        length = min(length, n)
        assert exact_cycle_count(t, length) == brute_cycle_count(t, length)

    @pytest.mark.parametrize("n", [10, 11, 12, 13, 14])
    def test_matches_subset_dp(self, n):
        t = sample_random(n, seed=200 + n)
        for length in range(3, 9):
            assert exact_cycle_count(t, length) == dp_cycle_count(t, length) > 0

    def test_no_corrections_up_to_five(self):
        # every closed walk of length <= 5 in a tournament is a cycle
        assert all(_walk_corrections(length) == () for length in (3, 4, 5))

    def test_six_cycle_terms(self):
        # c6 = (tr A^6 - 3 sum_v (A^3)_vv^2 + 3 sum_{u->v} (A^2)_vu^2 - tr A^3) / 6
        a = sample_random(11, seed=6).adjacency()
        a2 = a @ a
        a3 = a2 @ a
        want = {
            -3: int((np.diag(a3) ** 2).sum()),
            3: int((a * a2.T**2).sum()),
            -1: int(np.trace(a3)),
        }
        terms = _walk_corrections(6)
        got = {c: int(np.einsum(subs, *[a] * (subs.count(",") + 1))) for c, subs, _ in terms}
        assert len(terms) == 3 and got == want

    def test_correction_term_counts(self):
        # one term per rotation class of the partitions kept; none sums to zero
        terms = [_walk_corrections(length) for length in (6, 7, 8)]
        assert [len(t) for t in terms] == [3, 4, 13]
        assert all(coefficient != 0 for t in terms for coefficient, _, _ in t)

    # the least n with n^l >= 2^63: (n-1)^l is still below it
    @pytest.mark.parametrize(
        "length, n",
        [(3, 2_097_152), (4, 55_109), (5, 6_209), (6, 1_449), (7, 512), (8, 235)],
    )
    def test_int64_bound_refused_before_building(self, length, n):
        # exact_cycle_count takes 3-cycles from the out-degrees, so the
        # trace form's bound at l = 3 is checked on the trace form itself
        count = _trace_cycle_count if length == 3 else exact_cycle_count
        assert (n - 1) ** length < 1 << 63 <= n**length
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overflow"):
                count(_OrderOnly(n), length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(LookupError):  # one vertex fewer passes the check
            count(_OrderOnly(n - 1), length)

    def test_three_cycles_have_no_int64_bound(self):
        # exact_cycle_count reads 3-cycles from the out-degrees alone, so the
        # order the trace form refuses at l = 3 passes (here every out-set
        # of the stand-in is empty, so Goodman's formula gives binom(n, 3))
        n = 2_097_152
        stand_in = _OrderOnly(n)
        stand_in.out = (0,) * n
        assert exact_cycle_count(stand_in, 3) == math.comb(n, 3)

    def test_counts_start_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("the count started a process")

        monkeypatch.setattr(os, "fork", no_fork)
        t = sample_random(12, seed=4)
        for length in range(3, 13):
            assert exact_cycle_count(t, length) == dp_cycle_count(t, length)

    def test_layered_dp_memory(self):
        # n=14, l=9: one anchored DP per highest vertex 8 .. 13
        t = sample_random(14, seed=1)
        tracemalloc.start()
        try:
            count = exact_cycle_count(t, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 165_278
        assert peak < 1 << 21


class TestAnchoredCount:
    @pytest.mark.parametrize("n, length", [(9, 9), (10, 9), (10, 10)])
    def test_matches_arrangement_oracle(self, n, length):
        t = sample_random(n, seed=300 + n + length)
        assert exact_cycle_count(t, length) == brute_cycle_count(t, length) > 0

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_matches_subset_dp(self, n):
        t = sample_random(n, seed=400 + n)
        for length in range(9, min(n, 12) + 1):
            assert exact_cycle_count(t, length) == dp_cycle_count(t, length) > 0

    def test_transitive_has_none(self):
        assert all(exact_cycle_count(make_transitive(12), ln) == 0 for ln in range(9, 13))

    @pytest.mark.parametrize("length", [9, 10])
    def test_reversal_preserves_count(self, length):
        t = sample_random(13, seed=length)
        assert exact_cycle_count(t, length) == exact_cycle_count(t.reverse(), length)

    def test_too_large_refused_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MiB") as err:
                exact_cycle_count(_OrderOnly(40), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert f"{COUNT_MAX_BYTES >> 20} MiB limit" in str(err.value)

    @pytest.mark.parametrize("n, length", [(16, 10), (18, 12)])
    def test_traced_peak_within_estimate(self, n, length):
        t = sample_random(n, seed=n + length)
        assert traced_peak(exact_cycle_count, t, length) <= _count_bytes(n, length)

    def test_budget_refuses_order_24_at_12(self):
        with pytest.raises(ValueError, match="needs about 1,259 MiB"):
            exact_cycle_count(_OrderOnly(24), 12)

    @pytest.mark.parametrize("length", [9, 10, 11, 12])
    def test_budget_admits_order_18(self, length):
        with pytest.raises(LookupError):  # passes the check, then builds
            exact_cycle_count(_OrderOnly(18), length)

    def test_budget_refuses_order_64(self):
        # the budget alone bounds the order: below 64 vertices at every length
        for length in range(9, 22):
            with pytest.raises(ValueError, match="MiB"):
                exact_cycle_count(_OrderOnly(64), length)


class TestGoodman:
    def test_transitive_is_zero(self):
        assert goodman_count3(make_transitive(5)) == 0

    def test_carousel5(self):
        assert goodman_count3(make_carousel(5)) == 5

    # each count goes through both the trace form (_trace_cycle_count; the
    # count of exact_cycle_count is Goodman's itself) and the subset DP
    # (dp_cycle_count runs cycle_sum on every 3-subset)
    def test_carousel9(self):
        # binom(9,3) - 9*binom(4,2) = 84 - 54
        t = make_carousel(9)
        assert goodman_count3(t) == 30 == _trace_cycle_count(t, 3) == dp_cycle_count(t, 3)

    def test_exhaustive_small(self):
        for n in (3, 4, 5):
            for t in all_tournaments(n):
                assert goodman_count3(t) == _trace_cycle_count(t, 3) == dp_cycle_count(t, 3)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(6, 9), seed=st.integers(0, 2**32 - 1))
    def test_random_agreement(self, n, seed):
        t = random_tournament(n, np.random.default_rng(seed))
        assert goodman_count3(t) == _trace_cycle_count(t, 3) == dp_cycle_count(t, 3)


class TestDensities:
    def test_random_expectation_values(self):
        assert expected_random_cycles(3, 3) == 0.25
        assert expected_random_cycles(5, 3) == 2.5

    def test_cyclic_triangle_density(self):
        assert normalized_density(make_carousel(3), 3) == 4.0

    def test_carousel5_density(self):
        assert normalized_density(make_carousel(5), 3) == 2.0

    def test_transitive_density_zero(self):
        assert normalized_density(make_transitive(6), 4) == 0.0

    def test_rejects_length_above_n(self):
        with pytest.raises(ValueError):
            normalized_density(make_transitive(4), 5)


class TestFourProfile:
    def test_transitive5(self):
        p = four_profile(make_transitive(5))
        assert (p.t4, p.c4, p.l4, p.w4) == (5, 0, 0, 0)

    def test_carousel5_types(self):
        p = four_profile(make_carousel(5))
        assert p.t4 + p.c4 == 5 and p.l4 == p.w4 == 0

    def test_profile_total(self):
        t = sample_random(9, seed=13)
        assert four_profile(t).total == math.comb(9, 4)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            four_profile(make_transitive(3))

    def test_classification_matches_isomorphism(self, iso_class_of):
        # every 4-vertex tournament lands in the class the isomorphism oracle says
        for t in all_tournaments(4):
            profile = four_profile(t)
            got = {"t4": profile.t4, "c4": profile.c4, "l4": profile.l4, "w4": profile.w4}
            expect = iso_class_of(t)
            assert got[expect] == 1 and sum(got.values()) == 1

    def test_c4_counts_the_four_cycles(self, iso_class_of):
        # exactly the strongly connected type contains one directed 4-cycle
        for t in all_tournaments(4):
            cycles = exact_cycle_count(t, 4)
            assert cycles == (1 if iso_class_of(t) == "c4" else 0)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_matches_isomorphism_oracle(self, n):
        # every count, not only c4, against classifying each quad separately
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            t = random_tournament(n, rng)
            assert dataclasses.asdict(four_profile(t)) == brute_four_profile(t)

    def test_transitive60(self):
        p = four_profile(make_transitive(60))
        assert (p.t4, p.c4, p.l4, p.w4) == (math.comb(60, 4), 0, 0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reverse_swaps_sink_and_source_types(self, seed):
        t = sample_random(12, seed)
        p, r = four_profile(t), four_profile(t.reverse())
        assert p.l4 != p.w4  # so the swap is visible
        assert (r.t4, r.c4, r.l4, r.w4) == (p.t4, p.c4, p.w4, p.l4)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_c4_equals_four_cycle_count(self, seed):
        t = random_tournament(8, np.random.default_rng(seed))
        assert four_profile(t).c4 == exact_cycle_count(t, 4)


class TestTextFormat:
    def test_round_trip(self):
        t = sample_random(7, seed=123)
        assert parse_tournament(format_tournament(t)) == t

    def test_parse_validates_orientation(self):
        with pytest.raises(ValueError):
            parse_tournament("2\n01\n10\n".replace("10", "01"))

    def test_parse_validates_diagonal(self):
        with pytest.raises(ValueError):
            parse_tournament("2\n11\n00\n")

    def test_parse_validates_shape(self):
        with pytest.raises(ValueError):
            parse_tournament("3\n010\n001\n")

    def test_parse_rejects_garbage_header(self):
        with pytest.raises(ValueError):
            parse_tournament("abc\n")
