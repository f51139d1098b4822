import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcycles.limits import (
    StepTournamenton,
    antisym_dominance,
    carousel_tournamenton,
    check_midterms,
    conjectured_c,
    cycle_density_W,
    format_step_tournamenton,
    lower_bound_c,
    parse_step_tournamenton,
    random_step_tournamenton,
    regular_second_eigenvalue,
    step_approximation,
    sumsq_extremal,
)
from tourcycles.spectral import circulant_spectrum, eigenvalues, make_dominant, skew_part
from tourcycles.tournaments import make_carousel

from conftest import PI_50, random_skew_matrix, series_excess


def constant_half(k: int) -> StepTournamenton:
    return StepTournamenton(np.full((k, k), 0.5))


def carousel_kernel_average(i: int, j: int, k: int, sub: int = 400) -> float:
    """Midpoint-rule average of the carousel kernel over one grid cell."""
    xs = (i + (np.arange(sub) + 0.5) / sub) / k
    ys = (j + (np.arange(sub) + 0.5) / sub) / k
    x, y = np.meshgrid(xs, ys, indexing="ij")
    t = (y - x) % 1.0
    return float(((t > 0) & (t <= 0.5)).mean())


def random_circulant_grid(k: int, seed: int) -> StepTournamenton:
    """Circulant grid whose first row has v[d] + v[k-d] = 1; every such grid is regular."""
    rng = np.random.default_rng(seed)
    half = (k - 1) // 2
    x = rng.random(half)
    v = np.full(k, 0.5)
    v[1 : half + 1] = x
    v[k - half :] = 1.0 - x[::-1]
    return StepTournamenton(np.array([np.roll(v, i) for i in range(k)]))


class TestCarouselGrid:
    def test_k4_row(self):
        w = carousel_tournamenton(4)
        assert w.values[0].tolist() == [0.5, 1.0, 0.5, 0.0]

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_matches_integration_oracle(self, k):
        w = carousel_tournamenton(k)
        for i in range(k):
            for j in range(k):
                assert w.values[i, j] == pytest.approx(
                    carousel_kernel_average(i, j, k), abs=5e-3
                )

    @pytest.mark.parametrize("k", [2, 8, 64])
    def test_row_sums_regular(self, k):
        w = carousel_tournamenton(k)
        assert np.allclose(w.values.sum(axis=1), k / 2)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_rejects_odd_resolution(self, k):
        with pytest.raises(ValueError):
            carousel_tournamenton(k)

    def test_grid_type_validates(self):
        with pytest.raises(ValueError):
            StepTournamenton(np.array([[0.5, 0.3], [0.3, 0.5]]))
        with pytest.raises(ValueError):
            StepTournamenton(np.full((3, 3), 1.5))

    @pytest.mark.parametrize("k", [2, 4, 6, 130, 258, 1024])
    def test_matches_offset_oracle_bit_for_bit(self, k):
        i = np.arange(k)
        d = (i[None, :] - i[:, None]) % k
        want = np.where((d > 0) & (d < k // 2), 1.0, 0.0)
        want[(d == 0) | (d == k // 2)] = 0.5
        assert carousel_tournamenton(k).values.tobytes() == want.tobytes()

    def test_grid_is_readonly_and_contiguous(self):
        v = carousel_tournamenton(130).values
        assert v.dtype == np.float64 and v.flags.c_contiguous and v.flags.owndata
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0

    def test_one_grid_sized_allocation(self):
        k = 2048
        tracemalloc.start()
        try:
            w = carousel_tournamenton(k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.k == k
        assert peak < 1.1 * k * k * 8


class TestStepApproximation:
    def test_identity_refinement(self):
        w = random_step_tournamenton(6, seed=1)
        a = step_approximation(w, 6)
        assert np.allclose(a.values, w.values / 6)

    def test_constant_grid(self):
        a = step_approximation(constant_half(8), 4)
        assert np.allclose(a.values, 1 / 8)

    def test_carousel_coarsening(self):
        fine = carousel_tournamenton(8)
        coarse = step_approximation(fine, 4)
        assert np.allclose(coarse.values, carousel_tournamenton(4).values / 4)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            step_approximation(carousel_tournamenton(8), 3)


class TestCycleDensity:
    @pytest.mark.parametrize("length", [3, 4, 5, 6, 7, 8])
    def test_constant_half_density_one(self, length):
        assert cycle_density_W(constant_half(7), length) == pytest.approx(1.0, abs=1e-12)

    def test_carousel_densities_converge(self):
        w = carousel_tournamenton(512)
        assert abs(cycle_density_W(w, 4) - 4 / 3) <= 0.02
        assert abs(cycle_density_W(w, 8) - 332 / 315) <= 0.02

    def test_carousel_odd_lengths_exact_one(self):
        w = carousel_tournamenton(64)
        for length in (3, 5, 7):
            assert cycle_density_W(w, length) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError):
            cycle_density_W(constant_half(4), 2)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_upper_bounds_on_random_grids(self, k, seed):
        w = random_step_tournamenton(k, seed)
        for length in (3, 5, 6, 7):
            assert cycle_density_W(w, length) <= 1 + 1e-9
        assert cycle_density_W(w, 4) <= 4 / 3 + 1e-9
        assert cycle_density_W(w, 8) <= 332 / 315 + 1e-9


def carousel_with_swapped_pair(k: int) -> StepTournamenton:
    """Carousel grid with cells (k/2, k-1) and (k-1, k/2) swapped.

    It is still complementary but no longer circulant, and rows 0 .. k/2 - 1
    still match their shifts, so the circulant check must read past them.
    """
    v = carousel_tournamenton(k).values.copy()
    i, j = k // 2, k - 1
    v[i, j], v[j, i] = v[j, i], v[i, j]
    return StepTournamenton(v)


class TestTracePaths:
    """Densities on the FFT and the dense path against explicit matrix powers."""

    @pytest.mark.parametrize(
        "w, circulant",
        [
            (carousel_tournamenton(64), True),
            (carousel_tournamenton(512), True),
            (random_circulant_grid(15, seed=6), True),
            (random_step_tournamenton(33, seed=5), False),
            (carousel_with_swapped_pair(64), False),
        ],
        ids=["carousel64", "carousel512", "circulant15", "random33", "swapped64"],
    )
    def test_density_matches_matrix_power(self, w, circulant):
        a = w.values / w.k
        assert (circulant_spectrum(a) is not None) == circulant
        for length in range(3, 9):
            want = 2**length * np.trace(np.linalg.matrix_power(a, length))
            assert cycle_density_W(w, length) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestConjecturedConstants:
    def test_c4(self):
        cv = conjectured_c(4)
        assert abs(cv.value - 4 / 3) <= 1e-12
        assert cv.truncation_bound < 1e-14 * cv.value

    def test_c8(self):
        cv = conjectured_c(8)
        assert abs(cv.value - 332 / 315) <= 1e-12
        assert cv.truncation_bound < 1e-14 * cv.value

    def test_rejects_non_multiples_of_four(self):
        for bad in (3, 6, 10, 0):
            with pytest.raises(ValueError):
                conjectured_c(bad)

    def test_excess_dominates_first_term(self):
        for length in range(4, 68, 4):
            cv = conjectured_c(length)
            assert cv.excess >= lower_bound_c(length)

    def test_upper_window_for_large_lengths(self):
        # 2 (2/pi)^l (1 + o(1)) <= (2/pi + 0.01)^l once (1 + 0.005 pi)^l >= 2,
        # i.e. from l = 48 on among multiples of four
        for length in range(48, 68, 4):
            cv = conjectured_c(length)
            assert cv.excess <= (2 / math.pi + 0.01) ** length

    @pytest.mark.parametrize(
        "length, exact",
        [(4, Fraction(4, 3)), (8, Fraction(332, 315)), (12, Fraction(157307, 155925))],
    )
    def test_exact_values(self, length, exact):
        cv = conjectured_c(length)
        assert cv.exact == exact
        assert cv.terms_used == 0 and cv.truncation_bound == 0.0

    @pytest.mark.parametrize("length", range(4, 68, 4))
    def test_closed_form_matches_series(self, length):
        want = series_excess(length)
        assert abs(conjectured_c(length).excess - want) <= 1e-15 * want

    @pytest.mark.parametrize("length", range(4, 68, 4))
    def test_lower_bound_below_first_term(self, length):
        # PI_50 lies above pi, so 2 (2/PI_50)^l is itself below the first term
        assert Fraction(lower_bound_c(length)) <= 2 * (2 / PI_50) ** length

    def test_value_is_one_plus_excess(self):
        cv = conjectured_c(12)
        assert cv.value == 1.0 + cv.excess


class TestMidterms:
    def test_zero_matrix(self):
        rep = check_midterms(np.zeros((5, 5)))
        assert rep.residual4 == rep.slack8 == rep.row_sum_norm == 0.0

    def test_dominant4(self):
        rep = check_midterms(make_dominant(4))
        assert rep.residual4 <= 1e-9
        assert rep.row_sum_norm > 1e-9  # equality case must not trigger

    def test_regular_skew_additivity(self):
        b = skew_part(make_carousel(5))
        a = b.values
        j = np.ones((5, 5))
        rep = check_midterms(b)
        assert rep.row_sum_norm <= 1e-12
        lhs4 = np.trace(np.linalg.matrix_power(j + a, 4))
        rhs4 = np.trace(np.linalg.matrix_power(j, 4)) + np.trace(
            np.linalg.matrix_power(a, 4)
        )
        assert lhs4 == pytest.approx(rhs4, abs=1e-9)
        lhs8 = np.trace(np.linalg.matrix_power(j + a, 8))
        rhs8 = np.trace(np.linalg.matrix_power(j, 8)) + np.trace(
            np.linalg.matrix_power(a, 8)
        )
        assert lhs8 == pytest.approx(rhs8, rel=1e-12)

    def test_random_matrices_satisfy_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            b = random_skew_matrix(n, rng)
            rep = check_midterms(b)
            assert rep.residual4 <= 1e-9 * n**4
            assert rep.slack8 >= -1e-6 * n**8

    def test_rejects_out_of_range_entries(self):
        b = make_dominant(4).values.copy()
        b[0, 1], b[1, 0] = 2.0, -2.0
        with pytest.raises(ValueError):
            check_midterms(b)


class TestSumsqExtremal:
    def test_single_weight(self):
        res = sumsq_extremal([1.0])
        assert res.x == (1.0,) and res.max_value == 1.0

    def test_two_weights(self):
        res = sumsq_extremal([1.0, 1.0])
        assert res.x == (2.0, 1.0) and res.max_value == 5.0

    def test_constraints_met_with_equality(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            s = rng.uniform(0.1, 2.0, size=k)
            res = sumsq_extremal(s)
            x = np.array(res.x)
            assert np.all(np.diff(x) <= 1e-12)  # non-increasing
            for m in range(1, k + 1):
                bound = sum(min(i + 1, m) * s[i] for i in range(k))
                assert x[:m].sum() == pytest.approx(bound, rel=1e-12)

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(23)
        s = rng.uniform(0.1, 1.5, size=5)
        res = sumsq_extremal(s)
        x = np.array(res.x)
        bounds = np.array(
            [sum(min(i + 1, m + 1) * s[i] for i in range(5)) for m in range(5)]
        )
        accepted = 0
        while accepted < 10**4:
            y = np.sort(x * rng.random(5))[::-1]
            if np.all(np.cumsum(y) <= bounds + 1e-12):
                accepted += 1
                assert float(y @ y) <= res.max_value + 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sumsq_extremal([1.0, 0.0])


class TestDominance:
    def test_dominant_matrix_is_equality_case(self):
        rep = antisym_dominance(make_dominant(9))
        assert rep.ok and rep.rho_a == pytest.approx(rep.rho_d, rel=1e-12)

    def test_zero_matrix(self):
        rep = antisym_dominance(np.zeros((5, 5)))
        assert rep.ok and rep.rho_a == 0.0

    def test_random_matrices_dominated(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            rep = antisym_dominance(random_skew_matrix(n, rng))
            assert rep.ok

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            antisym_dominance(2.0 * make_dominant(4).values)


class TestRegularSecondEigenvalue:
    def test_constant_grid_zero(self):
        assert regular_second_eigenvalue(constant_half(6)) == pytest.approx(0.0, abs=1e-12)

    def test_carousel_top_of_imaginary_branch(self):
        val = regular_second_eigenvalue(carousel_tournamenton(512))
        assert abs(val - 1 / math.pi) <= 0.01

    def test_carousel_third_largest_modulus(self):
        # imaginary eigenvalues come in conjugate pairs, so compare distinct
        # moduli: 1/2, then 1/pi, then 1/(3 pi)
        a = step_approximation(carousel_tournamenton(512), 512)
        mods = np.sort(np.abs(eigenvalues(a).eigenvalues))[::-1]
        distinct = sorted(set(np.round(mods, 6)), reverse=True)
        assert abs(distinct[2] - 1 / (3 * math.pi)) <= 0.01

    @pytest.mark.parametrize(
        "w",
        [carousel_tournamenton(8), carousel_tournamenton(64), random_circulant_grid(15, 7),
         random_circulant_grid(64, 8)],
    )
    def test_circulant_matches_eigvals(self, w):
        vals = np.linalg.eigvals(w.values / w.k)
        rest = np.delete(vals, np.argmin(np.abs(vals - 0.5)))
        assert regular_second_eigenvalue(w) == pytest.approx(
            float(np.max(np.abs(rest))), abs=1e-12
        )

    def test_rejects_irregular_grid(self):
        w = random_step_tournamenton(8, seed=3)
        with pytest.raises(ValueError):
            regular_second_eigenvalue(w)


class TestGridText:
    def test_round_trip(self):
        w = random_step_tournamenton(5, seed=4)
        assert np.array_equal(
            parse_step_tournamenton(format_step_tournamenton(w)).values, w.values
        )

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError):
            parse_step_tournamenton("3\n0.5 0.5 0.5\n")

    @pytest.mark.parametrize(
        "text",
        ["", "two\n0.5\n", "2\n0.5 1.0\n0.0\n", "2\n0.5 x\n0.5 0.5\n", "2\n0.5 0.9\n0.9 0.5\n"],
        ids=["empty", "bad-header", "short-row", "not-a-number", "not-complementary"],
    )
    def test_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            parse_step_tournamenton(text)
