import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcycles import signsearch
from tourcycles.signsearch import (
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

from conftest import brute_canonical_bits

RIGHT_MATRIX_4 = SkewSignMatrix.from_rows(["0+++", "-0+-", "--0+", "-+-0"])


def random_sign_matrix(n: int, rng: np.random.Generator) -> SkewSignMatrix:
    bits = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
    return SkewSignMatrix(n, bits)


def sign_tensor(n: int, masks: np.ndarray, restrict: bool) -> np.ndarray:
    """Sign matrices of enumeration masks, shape (n, n, batch); bit t = t-th free pair."""
    w = np.zeros((n, n, len(masks)), dtype=np.int8)
    if restrict:
        w[0, 1:] = 1
        w[1:, 0] = -1
    free = [(i, j) for i in range(1 if restrict else 0, n) for j in range(i + 1, n)]
    for t, (i, j) in enumerate(free):
        s = ((masks >> t) & 1) * 2 - 1
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
        masks = np.arange(len(_cycle_sum_table(n, restrict)), dtype=np.int64)
        expect = n * cycle_sum(sign_tensor(n, masks, restrict))
        assert np.array_equal(batch_cyclic_index(n, masks, restrict), expect)

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
        real = signsearch._butterfly

        def skip_stage_2(table, h):
            if h != 2:
                real(table, h)

        monkeypatch.setattr(signsearch, "_butterfly", skip_stage_2)
        with pytest.raises(AssertionError, match="Parseval"):
            _cycle_sum_table.__wrapped__(n, restrict)

    def test_table_is_read_only(self):
        table = _cycle_sum_table(4, True)
        with pytest.raises(ValueError):
            table[0] = 0
        vals = batch_cyclic_index(4, np.arange(8))
        vals[:] = 0  # a batch is a copy, not a view of the table
        assert batch_cyclic_index(4, np.arange(8)).tolist() == (4 * table).tolist()

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
        fx = fixtures()
        got = [canonical_form(b).bits for b in (fx.d4, fx.d8, fx.d8_alt, fx.d8_alt_blocks)]
        assert got == [0, 0, 1152, 1152]

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
        real = signsearch._permuted_stack

        def counted(a, perms):
            calls.append(len(perms))
            return real(a, perms)

        monkeypatch.setattr(signsearch, "_permuted_stack", counted)
        table = _cycle_sum_table(8, True)
        achievers = np.flatnonzero(table == table.max()).tolist()
        classes = _classify_achievers(8, achievers, True, 2176)
        assert [c.bits for c in classes] == [0, 1152]
        assert calls == [40320, 40320]

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

    def test_mask_packing_refuses_order_above_8(self):
        with pytest.raises(ValueError):
            mask_to_matrix(9, 0)

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
