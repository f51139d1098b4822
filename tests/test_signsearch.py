import json
import math
import multiprocessing
import os
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcycles import signsearch
from tourcycles.limits import _tangent_number, conjectured_c
from tourcycles.signsearch import (
    CERTIFIED,
    SkewSignMatrix,
    _classify_achievers,
    _cycle_sum_table,
    _orbit,
    batch_cyclic_index,
    canonical_form,
    cyclic_index_def,
    cyclic_index_fast,
    dominant_sign,
    fixtures,
    mask_to_matrix,
    matrix_to_mask,
    search_max_cyclic_index,
    sign_equivalent,
    transform_sign_matrix,
)
from tourcycles.spectral import trace_power
from tourcycles.tournaments import cycle_sum, exact_cycle_count, four_profile

from conftest import (
    brute_canonical_bits,
    brute_cycle_sum,
    brute_slice_masks,
    gather_orbit,
    switching_class_count,
    traced_peak,
)

RIGHT_MATRIX_4 = SkewSignMatrix.from_rows(["0+++", "-0+-", "--0+", "-+-0"])


def random_sign_matrix(n: int, rng: np.random.Generator) -> SkewSignMatrix:
    bits = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
    return SkewSignMatrix(n, bits)


def order8_achievers() -> list[int]:
    """The order-8 maximizers, read at every restricted mask through ``batch_cyclic_index``."""
    vals = batch_cyclic_index(8, np.arange(1 << 21))
    return np.flatnonzero(vals == vals.max()).tolist()


def sign_tensor(n: int, masks: np.ndarray, restrict: bool) -> np.ndarray:
    """Sign matrices of enumeration masks, shape (n, n, batch); bit k-1-t = t-th free pair."""
    w = np.zeros((n, n, len(masks)), dtype=np.int8)
    if restrict:
        w[0, 1:] = 1
        w[1:, 0] = -1
    free = [(i, j) for i in range(1 if restrict else 0, n) for j in range(i + 1, n)]
    for t, (i, j) in enumerate(free):
        s = ((masks >> (len(free) - 1 - t)) & 1) * 2 - 1
        w[i, j] = s
        w[j, i] = -s
    return w


def random_transform(b: SkewSignMatrix, rng: np.random.Generator) -> SkewSignMatrix:
    perm = rng.permutation(b.n).tolist()
    flips = [i for i in range(b.n) if rng.random() < 0.5]
    return transform_sign_matrix(b, perm, flips)


class TestPacking:
    def test_entry_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            b = random_sign_matrix(n, rng)
            assert SkewSignMatrix.from_array(b.to_array()) == b

    def test_entries_are_antisymmetric(self):
        b = random_sign_matrix(6, np.random.default_rng(1))
        for i in range(6):
            for j in range(6):
                assert b.entry(i, j) == -b.entry(j, i)

    def test_from_array_rejects_zeros_off_diagonal(self):
        a = np.zeros((3, 3))
        with pytest.raises(ValueError):
            SkewSignMatrix.from_array(a)

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            SkewSignMatrix(13, 0)

    def test_dominant_rows(self):
        d = dominant_sign(5).to_array()
        assert np.all(d[np.triu_indices(5, 1)] == 1)

    def test_cached_triu_indices_are_read_only(self):
        for n in (3, 4, 8):
            iu, ju = signsearch._triu(n)
            assert [iu.tolist(), ju.tolist()] == [a.tolist() for a in np.triu_indices(n, 1)]
            for arr in (iu, ju):
                with pytest.raises(ValueError):
                    arr[0] = 1


class TestCyclicIndex:
    def test_every_order3_matrix_vanishes(self):
        for bits in range(8):
            b = SkewSignMatrix(3, bits)
            assert cyclic_index_def(b) == cyclic_index_fast(b) == 0

    def test_dominant4(self):
        assert cyclic_index_def(dominant_sign(4)) == 8
        assert cyclic_index_fast(dominant_sign(4)) == 8

    def test_right_matrix_value(self):
        assert cyclic_index_def(RIGHT_MATRIX_4) == -24
        assert cyclic_index_fast(RIGHT_MATRIX_4) == -24

    def test_fast_matches_def_on_all_order4(self):
        for bits in range(1 << 6):
            b = SkewSignMatrix(4, bits)
            assert cyclic_index_fast(b) == cyclic_index_def(b)

    def test_def_matches_python_oracle(self):
        # brute_cycle_sum multiplies Python ints, so no numpy path vouches for itself
        fx = fixtures()
        small = [SkewSignMatrix(n, bits) for n in (2, 3, 4) for bits in range(1 << n * (n - 1) // 2)]
        rng = np.random.default_rng(20)
        seeded = [random_sign_matrix(n, rng) for n in (5, 6, 7) for _ in range(4)]
        for b in small + seeded + [fx.d8, fx.d8_alt, fx.d8_alt_blocks]:
            assert cyclic_index_def(b) == b.n * brute_cycle_sum(b.to_array())
        assert [cyclic_index_def(b) for b in (fx.d8, fx.d8_alt, fx.d8_alt_blocks)] == [2176] * 3

    def test_order8_def_keeps_only_its_step_table(self):
        signsearch._all_perms.cache_clear()
        signsearch._tour_steps.cache_clear()
        assert cyclic_index_def(fixtures().d8) == 2176
        steps = signsearch._tour_steps(8)
        assert steps.shape == (8, 40320) and steps.dtype == np.uint8
        assert steps.nbytes == 8 * 40320 and not steps.flags.writeable
        # every step index n * n - 1 fits the table's dtype up to the oracle's order
        assert signsearch.ORACLE_MAX_ORDER**2 - 1 <= np.iinfo(steps.dtype).max
        # no cached order-8 copy of the permutations outlives the call
        assert signsearch._all_perms.cache_info().currsize == 0

    def test_order8_def_memory(self):
        # a warm call gathers one step row at a time, so it never copies the table
        fx = fixtures()
        cyclic_index_def(fx.d8)  # builds the cached step table
        assert traced_peak(cyclic_index_def, fx.d8_alt) <= 500_000

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 7), seed=st.integers(0, 2**32 - 1))
    def test_fast_matches_def_random(self, n, seed):
        b = random_sign_matrix(n, np.random.default_rng(seed))
        assert cyclic_index_fast(b) == cyclic_index_def(b)

    def test_odd_orders_vanish(self):
        rng = np.random.default_rng(5)
        for n in (5, 7, 9, 11):
            for _ in range(5):
                assert cyclic_index_fast(random_sign_matrix(n, rng)) == 0

    def test_invariant_under_sign_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.choice([4, 5, 6, 7, 8]))
            b = random_sign_matrix(n, rng)
            assert cyclic_index_fast(b) == cyclic_index_fast(random_transform(b, rng))

    def test_batch_agrees_with_def(self):
        # the permutation sum takes about 0.15 s per order-8 matrix
        rng = np.random.default_rng(7)
        masks = rng.integers(0, 1 << 21, size=8, dtype=np.int64).tolist()
        masks.append(matrix_to_mask(fixtures().d8_alt))
        vals = batch_cyclic_index(8, np.array(masks), restrict=True)
        for mask, val in zip(masks, vals):
            assert val == cyclic_index_def(mask_to_matrix(8, mask, restrict=True))

    def test_batch_full_enumeration_agrees(self):
        masks = np.arange(1 << 6, dtype=np.int64)
        vals = batch_cyclic_index(4, masks, restrict=False)
        for mask, val in zip(masks, vals):
            assert val == cyclic_index_def(mask_to_matrix(4, int(mask), restrict=False))

    def test_batch_crosses_slice_edge(self, monkeypatch):
        # the batch is one gather from the table: no subset-DP call, so no slices
        def no_dp(w):
            raise AssertionError("batch_cyclic_index ran the subset DP")

        monkeypatch.setattr(signsearch, "cycle_sum", no_dp)
        rng = np.random.default_rng(10)
        masks = rng.integers(0, 1 << 21, size=8193, dtype=np.int64)
        masks[8192] = matrix_to_mask(fixtures().d8_alt)
        vals = batch_cyclic_index(8, masks)
        assert vals[8192] == 2176
        for k in (0, 8191, 8192):
            assert vals[k] == cyclic_index_def(mask_to_matrix(8, int(masks[k])))

    @pytest.mark.parametrize(
        "n, restrict",
        [(n, True) for n in range(3, 8)] + [(n, False) for n in range(3, 7)],
    )
    def test_table_matches_subset_dp(self, n, restrict):
        # every mask, so the upper half is read through the complement reflection
        masks = np.arange(1 << math.comb(n - restrict, 2), dtype=np.int64)
        expect = n * cycle_sum(sign_tensor(n, masks, restrict))
        assert np.array_equal(batch_cyclic_index(n, masks, restrict), expect)

    @pytest.mark.parametrize("n, restrict", [
        (4, True), (5, True), (6, True), (4, False), (5, False)
    ])
    def test_subset_dp_obeys_complement_identity(self, n, restrict):
        # flipping every free sign multiplies Cycl by (-1)^n: the identity the half table rests on
        full = (1 << math.comb(n - restrict, 2)) - 1
        masks = np.arange(full + 1, dtype=np.int64)
        vals = cycle_sum(sign_tensor(n, masks, restrict))
        assert np.array_equal(vals[::-1], (-1) ** n * vals)
        assert np.any(vals) == (n % 2 == 0)

    def test_upper_half_matches_subset_dp_order8_sample(self):
        masks = np.random.default_rng(25).integers(1 << 20, 1 << 21, size=4096, dtype=np.int64)
        vals = batch_cyclic_index(8, masks)
        assert np.array_equal(vals, 8 * cycle_sum(sign_tensor(8, masks, True)))
        assert np.array_equal(vals, batch_cyclic_index(8, masks ^ ((1 << 21) - 1)))

    def test_table_matches_subset_dp_order8_sample(self):
        fx = fixtures()
        masks = np.random.default_rng(14).integers(0, 1 << 21, size=4096, dtype=np.int64)
        masks = np.append(masks, [matrix_to_mask(fx.d8), matrix_to_mask(fx.d8_alt)])
        w = sign_tensor(8, masks, True)
        for k in (0, 4095, 4096, 4097):  # the test-built tensor agrees with mask_to_matrix
            assert np.array_equal(w[:, :, k], mask_to_matrix(8, int(masks[k])).to_array())
        vals = batch_cyclic_index(8, masks)
        assert np.array_equal(vals, 8 * cycle_sum(w))
        assert vals[-2:].tolist() == [2176, 2176]

    @pytest.mark.parametrize("n, restrict", [(9, True), (8, False), (2, True), (2, False)])
    def test_table_refused_before_allocating(self, n, restrict):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                _cycle_sum_table(n, restrict)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, restrict", [(6, True), (8, True), (4, False)])
    def test_skipped_transform_stage_fails_parseval_check(self, monkeypatch, n, restrict):
        # every _butterfly call across bit 2 is skipped: the stage across bit 2
        # of every block (at order 8 the 16 blocks' own stages across bits 16
        # and up are the fold's signs, which no butterfly applies)
        real = signsearch._butterfly

        def skip_stage_2(x, h):
            if h != 2:
                real(x, h)

        monkeypatch.setattr(signsearch, "_butterfly", skip_stage_2)
        with pytest.raises(AssertionError, match="Parseval"):
            _cycle_sum_table.__wrapped__(n, restrict)

    def test_table_is_read_only(self):
        table, _ = _cycle_sum_table(4, True)
        with pytest.raises(ValueError):
            table[0] = 0
        vals = batch_cyclic_index(4, np.arange(8))
        vals[:] = 0  # a batch is a copy, not a view of the table
        assert batch_cyclic_index(4, np.arange(8)).tolist() == [8, 8, -24, 8, 8, -24, 8, 8]

    def test_order8_table_holds_half_the_masks(self):
        table, unit = _cycle_sum_table(8, True)
        assert (table.dtype, table.nbytes, unit) == (np.int8, 1_048_576, 128)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    @pytest.mark.parametrize("n, restrict, unit", [
        (3, True, 3), (4, True, 8), (5, True, 5), (6, True, 96), (7, True, 7), (8, True, 128),
        (3, False, 3), (4, False, 8), (5, False, 5), (6, False, 96), (7, False, 7),
    ])
    def test_table_unit(self, n, restrict, unit):
        # unit = n * 2^s: the table holds Cycl / unit exactly, in int8
        table, got = _cycle_sum_table(n, restrict)
        assert got == unit and table.dtype == np.int8
        if n % 2:
            assert not table.any()
        else:  # the lattice is tight: some entry is an odd multiple of the unit
            assert np.any(table % 2)

    @pytest.mark.parametrize("value, match", [
        (17, "not a multiple of 2\\^4"),  # every order-8 entry is a multiple of 16
        (16 * 128, "exceeds int8"),  # on the lattice, but the quotient leaves int8
    ], ids=["off-lattice", "outside-int8"])
    def test_table_block_checked_before_caching(self, monkeypatch, value, match):
        real = signsearch._walsh_hadamard
        calls = []

        def nudged(c):
            squares = real(c)
            calls.append(len(c))
            if len(calls) == 3:  # a block after the first, which sets the shift
                c[5] = value
            return squares

        monkeypatch.setattr(signsearch, "_walsh_hadamard", nudged)
        with pytest.raises(AssertionError, match=match):
            _cycle_sum_table.__wrapped__(8, True)
        assert calls == [1 << 16] * 3

    def test_table_parseval_sum_checked(self, monkeypatch):
        # the blocks' sums of squares must add up to the closed form: a wrong
        # fold sign breaks that sum while each block's own transform checks out
        real = signsearch._walsh_hadamard
        monkeypatch.setattr(signsearch, "_walsh_hadamard", lambda c: real(c) + 1)
        with pytest.raises(AssertionError, match="order-8 cyclic-index table fails its Parseval"):
            _cycle_sum_table.__wrapped__(8, True)

    def test_order8_table_build_memory(self):
        # the int8 half table is 1 MiB; the tour coefficients, one int16 2^16-entry
        # block and its transform's copy add about half a MiB more
        assert traced_peak(_cycle_sum_table.__wrapped__, 8, True) < 1_887_436  # 1.8 MiB

    def test_order8_gather_memory(self):
        # 2^16 masks straddling the middle of the table: beside the caller's masks,
        # the int8 values (64 KiB) and one int64 array (512 KiB), first the index
        # and then the result; the int64 arrays set the peak, so an int32 index
        # would not lower it
        masks = np.arange((1 << 20) - (1 << 15), (1 << 20) + (1 << 15), dtype=np.int64)
        vals = batch_cyclic_index(8, masks)  # also builds the cached table
        assert np.array_equal(vals, vals[::-1])  # entry i and entry -1-i are complements
        assert traced_peak(batch_cyclic_index, 8, masks) < 672 << 10

    def test_transform_checks_itself(self, monkeypatch):
        c = np.random.default_rng(26).integers(-3, 4, size=1 << 17).astype(np.int32)
        x = c.copy()
        signsearch._walsh_hadamard(x)
        signsearch._walsh_hadamard(x)  # applied twice it scales by 2^17
        assert np.array_equal(x, c << 17)
        real = signsearch._butterfly

        def skip_stage_0(x, h):
            if h != 0:
                real(x, h)

        monkeypatch.setattr(signsearch, "_butterfly", skip_stage_0)
        with pytest.raises(AssertionError, match="length-131072 Walsh-Hadamard"):
            signsearch._walsh_hadamard(c.copy())

    def test_trace_bounds_cyclic_index(self):
        d8 = dominant_sign(8)
        assert trace_power(d8.to_array().astype(float), 8) >= cyclic_index_fast(d8)


class TestSignEquivalence:
    def test_reflexive(self):
        b = random_sign_matrix(6, np.random.default_rng(8))
        assert sign_equivalent(b, b)

    def test_transformed_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(4, 8))
            b = random_sign_matrix(n, rng)
            assert sign_equivalent(b, random_transform(b, rng))

    def test_alt_and_blocks_forms_agree(self):
        fx = fixtures()
        assert sign_equivalent(fx.d8_alt, fx.d8_alt_blocks)

    def test_dominant_distinct_from_alt(self):
        fx = fixtures()
        assert not sign_equivalent(fx.d8, fx.d8_alt)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            sign_equivalent(dominant_sign(4), dominant_sign(6))

    def test_distinct_values_never_equivalent(self):
        assert not sign_equivalent(dominant_sign(4), RIGHT_MATRIX_4)

    @pytest.mark.parametrize("perm,flips,arg", [
        ([0, 1, 2, -1], [], "perm"),  # a negative index would wrap to vertex 3
        ([0, 1, 1, 3], [], "perm"),
        ([0, 1, 2], [], "perm"),
        ([0, 1, 2, 3], [-1], "flips"),
        ([0, 1, 2, 3], [4], "flips"),
    ], ids=["negative", "repeated", "short", "negative-flip", "flip-out-of-range"])
    def test_transform_refuses_bad_perm_or_flips(self, perm, flips, arg):
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            transform_sign_matrix(RIGHT_MATRIX_4, perm, flips)

    @pytest.mark.parametrize("n", [9, 10])
    def test_orders_above_oracle_refused_before_packing(self, n):
        # unguarded, order 10 would build the 3.3 MB order-9 permutation array first
        b = dominant_sign(n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                sign_equivalent(b, b)
            with pytest.raises(ValueError):
                canonical_form(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_oracle(self, n):
        rng = np.random.default_rng(30 + n)
        m = n * (n - 1) // 2
        for _ in range(8):
            b1 = random_sign_matrix(n, rng)
            b2 = random_transform(b1, rng)
            near = SkewSignMatrix(n, b2.bits ^ (1 << int(rng.integers(m))))
            canon = brute_canonical_bits(b1.to_array())
            for other in (random_sign_matrix(n, rng), b2, near):
                same = brute_canonical_bits(other.to_array()) == canon
                assert sign_equivalent(b1, other) == sign_equivalent(other, b1) == same


class TestCanonicalForm:
    def test_idempotent(self):
        c = canonical_form(dominant_sign(4))
        assert canonical_form(c) == c

    def test_same_class_same_form(self):
        fx = fixtures()
        assert canonical_form(fx.d8_alt) == canonical_form(fx.d8_alt_blocks)
        assert canonical_form(fx.d8) != canonical_form(fx.d8_alt)

    def test_orbit_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            b = random_sign_matrix(6, rng)
            assert canonical_form(b) == canonical_form(random_transform(b, rng))

    def test_canonical_member_of_class(self):
        b = random_sign_matrix(5, np.random.default_rng(11))
        assert sign_equivalent(canonical_form(b), b)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_oracle(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(12):
            b = random_sign_matrix(n, rng)
            assert canonical_form(b).bits == brute_canonical_bits(b.to_array())

    def test_fixture_bits(self):
        # the fixtures are the certified classes: verify-lemma compares against CERTIFIED
        fx = fixtures()
        (max4, (d4,)), (max8, (dom, alt)) = CERTIFIED[4], CERTIFIED[8]
        got = [canonical_form(b).bits for b in (fx.d4, fx.d8, fx.d8_alt, fx.d8_alt_blocks)]
        assert got == [d4, dom, alt, alt]
        assert [cyclic_index_def(b) for b in (fx.d4, fx.d8, fx.d8_alt)] == [max4, max8, max8]

    def test_order8_slice_orbits(self):
        fx = fixtures()
        _, dom = _orbit(fx.d8)
        _, alt = _orbit(fx.d8_alt)
        assert (len(dom), len(alt)) == (5040, 20160)
        assert matrix_to_mask(fx.d8) in dom and matrix_to_mask(fx.d8_alt) in alt
        assert np.intersect1d(dom, alt).size == 0
        assert np.all(batch_cyclic_index(8, np.concatenate([dom, alt])) == 2176)

    def test_order8_classification_builds_one_stack_per_class(self, monkeypatch):
        calls = []
        real = signsearch._switch_codes

        def counted(b):
            out = real(b)
            calls.append(out.size)  # relabelled switches packed by this call
            return out

        monkeypatch.setattr(signsearch, "_switch_codes", counted)
        classes = _classify_achievers(8, order8_achievers(), True, 2176)
        assert [c.bits for c in classes] == [0, 1152]
        assert calls == [40320, 40320]

    @pytest.mark.parametrize("drop", [0, 12345, -1])
    def test_classification_refuses_missing_orbit_member(self, drop):
        achievers = order8_achievers()
        missing = achievers.pop(drop)
        with pytest.raises(AssertionError, match=f"orbit member {missing} of an achiever"):
            _classify_achievers(8, achievers, True, 2176)

    def test_order8_orbit_memory(self):
        fx = fixtures()
        _orbit(fx.d8)  # builds the cached packing weights
        # the int32 codes plus compress's intp index of the kept masks: 444 128 B traced
        assert traced_peak(_orbit, fx.d8_alt) < 460_000

    @pytest.mark.parametrize("n,restrict", [(n, r) for n in range(3, 9) for r in (True, False)])
    def test_mask_is_the_low_bits(self, n, restrict):
        # a mask is the matrix's bits below the +1 first row, read by the test-built tensor
        m, k = math.comb(n, 2), math.comb(n - restrict, 2)
        rng = np.random.default_rng(70 + n)
        masks = [0, 1, 1 << (k - 1), (1 << k) - 1, *rng.integers(0, 1 << k, size=5).tolist()]
        for mask in masks:
            b = mask_to_matrix(n, mask, restrict)
            assert b.bits == (1 << m) - (1 << k) | mask
            assert matrix_to_mask(b, restrict) == mask
            assert np.array_equal(b.to_array(), sign_tensor(n, np.array([mask]), restrict)[:, :, 0])

    def test_order8_packing_holds_the_bits_columns_alone(self):
        _, _, w, const = signsearch._switch_packing(8)
        assert (w.shape, w.nbytes, const.nbytes) == ((21, 5040), 423_360, 20_160)

    def test_burnside_class_counts(self):
        # switching classes of tournaments (Babai and Cameron, 2000), n = 2 ... 8
        assert [switching_class_count(n) for n in range(2, 9)] == [1, 1, 2, 2, 6, 12, 79]

    @pytest.mark.parametrize("n,classes", [(n, switching_class_count(n)) for n in range(3, 9)])
    def test_orbits_partition_the_slice(self, n, classes):
        # every restricted mask is a code of exactly one _orbit call, and the
        # sweep finds the Burnside number of classes
        covered = np.zeros(1 << math.comb(n - 1, 2), dtype=bool)
        values = []
        while not covered.all():
            bits, orbit = _orbit(mask_to_matrix(n, int(np.argmin(covered))))
            assert not covered[orbit].any()
            covered[orbit] = True
            value = cyclic_index_def(SkewSignMatrix(n, bits))
            assert np.all(batch_cyclic_index(n, orbit) == value)
            values.append((value, orbit.size))
        assert len(values) == classes
        if n == 8:
            assert [size for value, size in values if value == 2176] == [5040, 20160]

    def test_order8_canonical_form_memory(self):
        # packs only the (n-1)! bits columns of each root switch
        fx = fixtures()
        canonical_form(fx.d8)  # builds the cached packing weights
        assert traced_peak(canonical_form, fx.d8_alt) <= 400_000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_small_matrix_matches_brute_oracles(self, n):
        for bits in range(1 << (n * (n - 1) // 2)):
            b = SkewSignMatrix(n, bits)
            canon, masks = _orbit(b)
            assert masks.tolist() == brute_slice_masks(b.to_array())
            assert canon == canonical_form(b).bits == brute_canonical_bits(b.to_array())

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_matrices_match_brute_oracles(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            b = random_sign_matrix(n, rng)
            canon, masks = _orbit(b)
            assert masks.tolist() == brute_slice_masks(b.to_array())
            assert canon == brute_canonical_bits(b.to_array())

    @pytest.mark.parametrize("n", [7, 8])
    def test_orbit_matches_gather_oracle(self, n):
        rng = np.random.default_rng(50 + n)
        cases = [random_sign_matrix(n, rng) for _ in range(3)]
        if n == 8:
            fx = fixtures()
            cases += [fx.d8, fx.d8_alt, fx.d8_alt_blocks]
        for b in cases:
            canon, masks = _orbit(b)
            assert (canon, masks.tolist()) == gather_orbit(b.to_array())

    @pytest.mark.parametrize("n", [7, 8])
    def test_equivalence_agrees_with_canonical_forms(self, n):
        rng = np.random.default_rng(60 + n)
        m = n * (n - 1) // 2
        pairs = []
        for _ in range(4):
            b = random_sign_matrix(n, rng)
            near = SkewSignMatrix(n, b.bits ^ (1 << int(rng.integers(m))))
            pairs += [(b, random_sign_matrix(n, rng)), (b, random_transform(b, rng)), (b, near)]
        if n == 8:
            fx = fixtures()
            pairs += [(fx.d8, fx.d8_alt), (fx.d8_alt, fx.d8_alt_blocks)]
        same = [canonical_form(x) == canonical_form(y) for x, y in pairs]
        assert [sign_equivalent(x, y) for x, y in pairs] == same
        assert 4 <= sum(same) < len(pairs)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_packing_weights_are_exact_in_float32(self, n):
        _, _, w, const = signsearch._switch_packing(n)
        assert w.dtype == const.dtype == np.float32
        assert np.all(np.abs(w).sum(axis=0, dtype=np.float64) < 1 << 24)
        nonzero = np.abs(w[w != 0]).astype(np.int64)
        assert np.all((nonzero & (nonzero - 1)) == 0)  # each weight is +/-2^k

    def test_separates_iff_inequivalent(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            b1 = random_sign_matrix(5, rng)
            b2 = random_sign_matrix(5, rng)
            assert sign_equivalent(b1, b2) == (canonical_form(b1) == canonical_form(b2))


class TestSearch:
    def test_order4_restricted(self):
        rep = search_max_cyclic_index(4)
        assert rep.max_cyclic_index == 8
        assert rep.min_cyclic_index == -24
        assert rep.matrices_scanned == 8
        assert len(rep.achiever_classes) == 1
        assert rep.achiever_classes[0] == canonical_form(dominant_sign(4))

    def test_order4_full_matches_restricted(self):
        rep = search_max_cyclic_index(4, restrict_first_row=False)
        assert rep.max_cyclic_index == 8
        assert rep.min_cyclic_index == -24
        assert rep.matrices_scanned == 64
        assert [c.bits for c in rep.achiever_classes] == [
            canonical_form(dominant_sign(4)).bits
        ]

    def test_mask_round_trip(self):
        rng = np.random.default_rng(13)
        for mask in rng.integers(0, 1 << 21, size=10):
            b = mask_to_matrix(8, int(mask))
            assert matrix_to_mask(b) == int(mask)

    @pytest.mark.parametrize("restrict", [True, False])
    @pytest.mark.parametrize("n", range(9, signsearch.MAX_ORDER + 1))
    def test_mask_round_trip_above_order_8(self, n, restrict):
        # the mask is the signs of the last k pairs in row-major order, the
        # last pair in bit 0, read here from the matrix itself
        k = math.comb(n - restrict, 2)
        rng = random.Random(n)
        iu, ju = np.triu_indices(n, 1)
        for mask in (0, (1 << k) - 1, rng.getrandbits(k), rng.getrandbits(k)):
            b = mask_to_matrix(n, mask, restrict)
            signs = b.to_array()[iu, ju]
            assert np.all(signs[: len(signs) - k] == 1)
            assert int("".join("1" if x > 0 else "0" for x in signs[-k:]), 2) == mask
            assert matrix_to_mask(b, restrict) == mask

    def test_mask_packing_refuses_order_above_12(self):
        with pytest.raises(ValueError, match="limited to order 12"):
            mask_to_matrix(signsearch.MAX_ORDER + 1, 0)

    @pytest.mark.parametrize("n,mask,restrict", [
        (n, mask, restrict)
        for n in range(3, 9)
        for restrict in (True, False)
        for mask in (-1, 1 << math.comb(n - restrict, 2))
    ])
    def test_mask_outside_range_refused(self, n, mask, restrict):
        with pytest.raises(ValueError):
            mask_to_matrix(n, mask, restrict)
        top = (1 << math.comb(n - restrict, 2)) - 1  # every free pair +1
        assert mask_to_matrix(n, top, restrict) == dominant_sign(n)

    @pytest.mark.parametrize("masks,restrict", [
        ([-1], True), ([8], True), ([0, 7, 8], True), ([64], False), ([3, -2], False),
    ])
    def test_batch_mask_outside_range_refused(self, masks, restrict):
        with pytest.raises(ValueError):
            batch_cyclic_index(4, np.array(masks), restrict)

    @pytest.mark.parametrize("masks", [[1.7, 2.2], [np.nan]], ids=["fractional", "nan"])
    def test_batch_non_integer_masks_refused(self, masks):
        # a cast would truncate 1.7 and 2.2 to masks 1 and 2, and warn on NaN
        with pytest.raises(ValueError, match="masks must be integers"):
            batch_cyclic_index(8, np.array(masks))

    def test_batch_mask_outside_range_refused_order8(self):
        # the range is 2^21 masks, not the 2^20 the half table stores
        with pytest.raises(ValueError):
            batch_cyclic_index(8, np.array([1 << 21]))
        assert batch_cyclic_index(8, np.array([(1 << 21) - 1])).tolist() == [2176]  # D_8

    def test_mask_rejects_matrix_outside_slice(self):
        # flipping row 1 puts -1 into the first row
        outside = transform_sign_matrix(dominant_sign(4), [0, 1, 2, 3], [1])
        assert outside.entry(0, 1) == -1
        with pytest.raises(ValueError):
            matrix_to_mask(outside)

    def test_worker_counts_agree_small(self):
        kwargs = dict(restrict_first_row=False, chunk_size=8)
        r1 = search_max_cyclic_index(4, workers=1, **kwargs)
        r2 = search_max_cyclic_index(4, workers=2, **kwargs)
        assert r1.to_json_dict(include_elapsed=False) == r2.to_json_dict(
            include_elapsed=False
        )

    def test_rejects_unsupported_orders(self):
        with pytest.raises(ValueError):
            search_max_cyclic_index(6)
        with pytest.raises(ValueError):
            search_max_cyclic_index(8, restrict_first_row=False)

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        rep1 = search_max_cyclic_index(4, restrict_first_row=False, chunk_size=16,
                                       checkpoint_path=path)
        # drop two chunks and resume
        with open(path) as fh:
            data = json.load(fh)
        assert len(data["chunks"]) == 4
        for key in list(data["chunks"])[:2]:
            del data["chunks"][key]
        with open(path, "w") as fh:
            json.dump(data, fh)
        rep2 = search_max_cyclic_index(4, restrict_first_row=False, chunk_size=16,
                                       checkpoint_path=path)
        assert rep1.to_json_dict(include_elapsed=False) == rep2.to_json_dict(
            include_elapsed=False
        )

    def test_checkpoint_schema_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            json.dump({"schema": "something-else", "chunks": {}}, fh)
        with pytest.raises(ValueError, match="schema"):
            search_max_cyclic_index(4, checkpoint_path=path)

    def test_checkpoint_parameter_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        search_max_cyclic_index(4, chunk_size=8, checkpoint_path=path)
        with pytest.raises(ValueError, match="chunk_size"):
            search_max_cyclic_index(4, chunk_size=4, checkpoint_path=path)


    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_refused(self, tmp_path, chunk_size):
        path = tmp_path / "ck.json"
        for checkpoint in (None, str(path)):
            with pytest.raises(ValueError, match="chunk_size must be >= 1"):
                search_max_cyclic_index(4, chunk_size=chunk_size, checkpoint_path=checkpoint)
        assert not path.exists()

    def test_order8_edited_chunk_refused_and_clean_resume_matches_golden(self, tmp_path):
        path = tmp_path / "ck.json"
        search_max_cyclic_index(8, checkpoint_path=str(path))
        text = path.read_text()
        edited = json.loads(text)
        edited["chunks"]["65536"]["min"] -= 8
        path.write_text(json.dumps(edited))
        with pytest.raises(ValueError, match="chunk 65536 differs"):
            search_max_cyclic_index(8, checkpoint_path=str(path))
        # a clean prefix of ten chunks resumes to the golden report and the same file
        prefix = json.loads(text)
        for key in list(prefix["chunks"])[10:]:
            del prefix["chunks"][key]
        path.write_text(json.dumps(prefix))
        report = search_max_cyclic_index(8, checkpoint_path=str(path)).to_json_dict(False)
        golden = Path(__file__).parent / "golden" / "verify-lemma-order8.json"
        assert json.dumps(dict(report, confirmed=True), indent=2) + "\n" == golden.read_text()
        assert path.read_text() == text

    def test_search_starts_no_process(self, monkeypatch):
        want8 = search_max_cyclic_index(8).to_json_dict(include_elapsed=False)
        full = dict(restrict_first_row=False, chunk_size=8)
        want4 = search_max_cyclic_index(4, **full).to_json_dict(include_elapsed=False)

        def no_process(*args, **kwargs):
            raise AssertionError("the search started a process")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(multiprocessing, "get_context", no_process)
        got8 = search_max_cyclic_index(8, workers=2)
        got4 = search_max_cyclic_index(4, workers=4, **full)
        assert got8.to_json_dict(include_elapsed=False) == want8
        assert got4.to_json_dict(include_elapsed=False) == want4
        with pytest.raises(ValueError, match="workers"):
            search_max_cyclic_index(4, workers=0)

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
    def test_interrupted_checkpoint_keeps_finished_chunks(self, tmp_path, monkeypatch, fail_at):
        # order 4 full, chunk_size=16: four chunks; the fail_at-th scan dies
        kwargs = dict(restrict_first_row=False, chunk_size=16)
        whole = tmp_path / "whole.json"
        want = search_max_cyclic_index(4, checkpoint_path=str(whole), **kwargs)
        scan, calls = signsearch._scan_chunk, []

        def dying_scan(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise KeyboardInterrupt
            return scan(*args)

        path = tmp_path / "ck.json"
        monkeypatch.setattr(signsearch, "_scan_chunk", dying_scan)
        with pytest.raises(KeyboardInterrupt):
            search_max_cyclic_index(4, checkpoint_path=str(path), **kwargs)
        monkeypatch.setattr(signsearch, "_scan_chunk", scan)
        if fail_at == 1:
            assert not path.exists()
        else:
            chunks = json.loads(path.read_text())["chunks"]
            assert list(chunks) == [str(16 * i) for i in range(fail_at - 1)]
        got = search_max_cyclic_index(4, checkpoint_path=str(path), **kwargs)
        assert got.to_json_dict(include_elapsed=False) == want.to_json_dict(include_elapsed=False)
        assert path.read_bytes() == whole.read_bytes()

    def test_checkpoint_bytes_match_golden(self, tmp_path):
        path = tmp_path / "ck.json"
        search_max_cyclic_index(4, restrict_first_row=False, chunk_size=16, checkpoint_path=str(path))
        golden = Path(__file__).parent / "golden" / "checkpoint-order4-full.json"
        assert path.read_bytes() == golden.read_bytes()

    def test_order8_checkpoint_is_plain_json_dumps(self, tmp_path):
        path = tmp_path / "ck.json"
        search_max_cyclic_index(8, checkpoint_path=str(path))
        text = path.read_text()
        assert text == json.dumps(json.loads(text))
        # resumed with two chunks missing, the file is rewritten to the same text
        data = json.loads(text)
        del data["chunks"]["0"], data["chunks"]["65536"]
        path.write_text(json.dumps(data))
        search_max_cyclic_index(8, checkpoint_path=str(path))
        resumed = path.read_text()
        assert resumed == json.dumps(json.loads(resumed))
        assert json.loads(resumed)["chunks"] == json.loads(text)["chunks"]

    def test_checkpoint_written_once_per_search(self, tmp_path, monkeypatch):
        replace, calls = os.replace, []

        def counting_replace(*args):
            calls.append(args)
            return replace(*args)

        monkeypatch.setattr(os, "replace", counting_replace)
        path = tmp_path / "ck.json"
        search_max_cyclic_index(8, checkpoint_path=str(path))
        assert len(calls) == 1
        text = path.read_text()
        search_max_cyclic_index(8, checkpoint_path=str(path))  # nothing pending
        assert len(calls) == 1
        prefix = json.loads(text)
        for key in list(prefix["chunks"])[10:]:
            del prefix["chunks"][key]
        path.write_text(json.dumps(prefix))
        search_max_cyclic_index(8, checkpoint_path=str(path))
        assert len(calls) == 2 and path.read_text() == text

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
    def test_interrupted_checkpoint_written_once(self, tmp_path, monkeypatch, fail_at):
        # order 4 full, chunk_size=16: four chunks; the fail_at-th scan dies
        scan, replace, scans, calls = signsearch._scan_chunk, os.replace, [], []

        def dying_scan(*args):
            scans.append(args)
            if len(scans) == fail_at:
                raise KeyboardInterrupt
            return scan(*args)

        def counting_replace(*args):
            calls.append(args)
            return replace(*args)

        monkeypatch.setattr(signsearch, "_scan_chunk", dying_scan)
        monkeypatch.setattr(os, "replace", counting_replace)
        kwargs = dict(restrict_first_row=False, chunk_size=16)
        with pytest.raises(KeyboardInterrupt):
            search_max_cyclic_index(4, checkpoint_path=str(tmp_path / "ck.json"), **kwargs)
        assert len(calls) == (0 if fail_at == 1 else 1)

    def test_order8_interrupted_resume_keeps_prefix_and_new_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        search_max_cyclic_index(8, checkpoint_path=str(path))
        text = path.read_text()
        full = json.loads(text)["chunks"]
        keys = list(full)
        prefix = json.loads(text)
        for key in keys[10:]:
            del prefix["chunks"][key]
        path.write_text(json.dumps(prefix))
        # the load re-scans the ten prefix chunks; the third pending scan dies
        scan = signsearch._scan_chunk

        def dying_scan(n, restrict, lo, hi):
            if lo == int(keys[12]):
                raise KeyboardInterrupt
            return scan(n, restrict, lo, hi)

        monkeypatch.setattr(signsearch, "_scan_chunk", dying_scan)
        with pytest.raises(KeyboardInterrupt):
            search_max_cyclic_index(8, checkpoint_path=str(path))
        monkeypatch.setattr(signsearch, "_scan_chunk", scan)
        partial = path.read_text()
        assert partial == json.dumps(json.loads(partial))
        chunks = json.loads(partial)["chunks"]
        assert list(chunks) == keys[:12]
        assert chunks == {key: full[key] for key in keys[:12]}
        report = search_max_cyclic_index(8, checkpoint_path=str(path)).to_json_dict(False)
        golden = Path(__file__).parent / "golden" / "verify-lemma-order8.json"
        assert json.dumps(dict(report, confirmed=True), indent=2) + "\n" == golden.read_text()
        assert path.read_text() == text


class TestCertificateChain:
    @pytest.mark.parametrize("n", range(9, 17))
    def test_dominant_cyclic_index_is_a_tangent_number(self, n):
        # dominant_sign stops at order 12, so the all-+1 upper triangle is built here
        d = np.triu(np.ones((n, n), dtype=np.int8), 1)
        cycl = n * int(cycle_sum((d - d.T)[:, :, None])[0])
        assert cycl == ((-1) ** (n // 2) * n * _tangent_number(n // 2) if n % 2 == 0 else 0)

    @pytest.mark.parametrize("n", sorted(CERTIFIED))
    def test_certified_maximum_gives_conjectured_constant(self, n):
        best, _ = CERTIFIED[n]
        assert 1 + Fraction(best, math.factorial(n)) == conjectured_c(n).exact
        assert cyclic_index_fast(dominant_sign(n)) == best


class TestFixtures:
    def test_alt_first_row_all_plus(self):
        fx = fixtures()
        assert [fx.d8_alt.entry(0, j) for j in range(1, 8)] == [1] * 7

    def test_blocks_structure(self):
        fx = fixtures()
        arr = fx.d8_alt_blocks.to_array()
        # both diagonal blocks carry the strongly cyclic 4-vertex pattern
        assert np.array_equal(arr[:4, :4], arr[4:, 4:])
        # all cross entries +1: first block beats the second
        assert np.all(arr[:4, 4:] == 1)

    def test_blocks_tournament_structure(self):
        fx = fixtures()
        t = fx.blocks_tournament
        for i in range(4):
            for j in range(4, 8):
                assert t.beats(i, j)

    def test_blocks_tournament_profile_has_cyclic_blocks(self):
        fx = fixtures()
        assert four_profile(fx.blocks_tournament).c4 >= 2

    def test_blocks_tournament_four_cycles(self):
        fx = fixtures()
        assert exact_cycle_count(fx.blocks_tournament, 4) >= 2

    def test_fixture_values_attain_the_maximum(self):
        fx = fixtures()
        assert cyclic_index_fast(fx.d4) == 8
        assert cyclic_index_fast(fx.d8) == 2176
        assert cyclic_index_fast(fx.d8_alt) == 2176
        assert cyclic_index_fast(fx.d8_alt_blocks) == 2176
