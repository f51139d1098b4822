import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcycles.limits import StepTournamenton, random_step_tournamenton
from tourcycles.spectral import (
    ComplementaryMatrix,
    EigensolverError,
    SkewMatrix,
    _max_pair_error,
    eigenvalues,
    format_matrix,
    make_dominant,
    parse_matrix,
    skew_part,
    skew_spectrum,
    tournament_matrix,
    trace_density,
    trace_power,
)
from tourcycles.tournaments import make_carousel, make_transitive, normalized_density

from conftest import random_skew_matrix, random_tournament


class TestMatrixTypes:
    def test_tournament_matrix_rows(self):
        a = tournament_matrix(make_carousel(3)).values
        assert np.allclose(a.sum(axis=1), 0.5)

    def test_transitive_two(self):
        a = tournament_matrix(make_transitive(2)).values
        assert np.array_equal(a, np.array([[0.25, 0.5], [0.0, 0.25]]))

    def test_complementary_invariants_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_tournament(int(rng.integers(2, 15)), rng)
            m = tournament_matrix(t)
            n = m.n
            assert np.allclose(m.values + m.values.T, 1.0 / n, atol=1e-12)
            assert np.allclose(np.diag(m.values), 1.0 / (2 * n))

    def test_complementary_rejects_negative(self):
        with pytest.raises(ValueError):
            ComplementaryMatrix(np.array([[0.25, 0.75], [-0.25, 0.25]]))

    def test_skew_part_of_transitive_is_dominant(self):
        for n in (2, 4, 7):
            assert np.array_equal(
                skew_part(make_transitive(n)).values, make_dominant(n).values
            )

    def test_skew_part_is_skew(self):
        b = skew_part(make_carousel(7)).values
        assert np.array_equal(b, -b.T) and not np.diag(b).any()

    def test_skew_rejects_nonskew(self):
        with pytest.raises(ValueError):
            SkewMatrix(np.ones((3, 3)))


def valid_matrix(cls, n: int) -> np.ndarray:
    """A matrix of order n that ``cls`` accepts, with no off-diagonal entry at a bound."""
    w = random_step_tournamenton(n, seed=n).values
    if cls is ComplementaryMatrix:
        return w / n
    if cls is SkewMatrix:
        return 2.0 * w - 1.0
    return w.copy()


VALIDATORS = [StepTournamenton, ComplementaryMatrix, SkewMatrix]


class TestPairCheck:
    """The tiled pair check against the dense formula, and what it must reject."""

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 130, 257, 300])
    @pytest.mark.parametrize("total", [0.0, 1.0])
    def test_matches_dense_formula(self, n, total):
        a = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, n))
        assert _max_pair_error(a, total) == np.max(np.abs(a + a.T - total))

    @pytest.mark.parametrize("cls", VALIDATORS)
    @pytest.mark.parametrize(
        "i, j",
        [(5, 129), (128, 129), (129, 129), (3, 7), (0, 0), (129, 5), (129, 128), (7, 3)],
        ids=["partial-tile", "partial-diagonal-tile", "last-diagonal-cell", "diagonal-tile",
             "first-diagonal-cell", "transposed-partial", "transposed-partial-diagonal",
             "transposed-diagonal-tile"],
    )
    def test_one_bad_cell_rejected(self, cls, i, j):
        a = valid_matrix(cls, 130)
        cls(a)
        a[i, j] += 1e-9
        with pytest.raises(ValueError, match="_ij|skew-symmetric"):
            cls(a)

    @pytest.mark.parametrize("cls", VALIDATORS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [[(1, 2)], [(1, 2), (2, 1)], [(3, 3)]],
                             ids=["one", "pair", "diagonal"])
    def test_rejects_nan_and_inf(self, cls, bad, cells):
        a = valid_matrix(cls, 6)
        for i, j in cells:
            a[i, j] = bad
        with pytest.raises(ValueError):
            cls(a)

    @pytest.mark.parametrize("cls", VALIDATORS)
    @pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3), (2, 2, 2)])
    def test_rejects_empty_and_non_square(self, cls, shape):
        with pytest.raises(ValueError, match=r"square and non-empty, got shape"):
            cls(np.zeros(shape))


class TestTracePower:
    def test_identity(self):
        assert trace_power(np.eye(6), 5) == pytest.approx(6.0)

    def test_first_power_is_trace(self):
        a = np.arange(9.0).reshape(3, 3)
        assert trace_power(a, 1) == pytest.approx(np.trace(a))

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            trace_power(np.eye(2), 0)

    def test_transitive_triangular(self):
        n = 8
        m = tournament_matrix(make_transitive(n))
        assert trace_power(m, 3) == pytest.approx(n / (2 * n) ** 3, abs=1e-15)

    def test_carousel9_matches_eigen_sum(self):
        m = tournament_matrix(make_carousel(9))
        tr = trace_power(m, 3)
        lam = eigenvalues(m).eigenvalues
        assert abs(tr - np.sum(lam**3).real) <= 1e-10
        assert tr == pytest.approx(1 / 8, abs=1e-12)
        # a circulant's eigenvalues are the DFT of its first row
        rng = np.random.default_rng(14)
        first = rng.uniform(-1.0, 1.0, size=11)
        a = np.array([np.roll(first, i) for i in range(11)])
        lam = np.fft.fft(first)
        for power in range(1, 9):
            want = np.sum(lam**power).real
            assert trace_power(a, power) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), power=st.integers(2, 8))
    def test_matches_eigenvalue_powers(self, seed, power):
        rng = np.random.default_rng(seed)
        t = random_tournament(int(rng.integers(3, 25)), rng)
        m = tournament_matrix(t)
        lam = eigenvalues(m).eigenvalues
        assert abs(trace_power(m, power) - np.sum(lam**power).real) <= 1e-8 * t.n


class TestTraceDensity:
    def test_transitive_ten(self):
        assert trace_density(make_transitive(10), 3) == pytest.approx(0.01, abs=1e-15)

    def test_carousel_101_close_to_one(self):
        t = make_carousel(101)
        assert abs(trace_density(t, 3) - normalized_density(t, 3)) < 0.05

    def test_carousel_201_close_to_four_thirds(self):
        assert abs(trace_density(make_carousel(201), 4) - 4 / 3) < 0.05


class TestEigenvalues:
    def test_cyclic_triangle_fixture(self):
        # circulant with first row (1/6, 1/3, 0): roots are 1/6 + (1/3) w
        # for the three cube roots of unity -> 1/2 and +/- i sqrt(3)/6
        rep = eigenvalues(tournament_matrix(make_carousel(3)))
        expect = sorted([0.5 + 0j, 1j * math.sqrt(3) / 6, -1j * math.sqrt(3) / 6],
                        key=lambda z: (-z.real, -z.imag))
        assert np.allclose(rep.eigenvalues, expect, atol=1e-9)
        assert abs(rep.eig_sum - 0.5) <= 1e-10

    def test_transitive_all_equal(self):
        rep = eigenvalues(tournament_matrix(make_transitive(5)))
        assert np.allclose(rep.eigenvalues, 0.1, atol=1e-12)

    def test_complementary_spectrum_report_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            t = random_tournament(int(rng.integers(3, 40)), rng)
            rep = eigenvalues(tournament_matrix(t))
            assert abs(rep.eig_sum - 0.5) <= 1e-8
            assert np.all(rep.eigenvalues.real >= -1e-8)
            assert rep.rho is not None and rep.rho > 0
            assert rep.radius <= rep.rho + 1e-8
            # conjugate closure
            conj = np.sort_complex(np.conj(rep.eigenvalues))
            assert np.allclose(np.sort_complex(rep.eigenvalues), conj, atol=1e-9)

    def test_regular_tournament_has_half_eigenvalue(self):
        for n in (5, 9, 13):
            m = tournament_matrix(make_carousel(n))
            ones = np.ones(n) / math.sqrt(n)
            assert np.linalg.norm(m.values @ ones - 0.5 * ones) <= 1e-10
            rep = eigenvalues(m)
            assert rep.rho == pytest.approx(0.5, abs=1e-10)

    def test_nonconvergence_raises(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(EigensolverError, match="order-3"):
            eigenvalues(np.eye(3))

    def test_sorted_by_real_then_imag(self):
        rep = eigenvalues(tournament_matrix(make_carousel(7)))
        keys = [(-z.real, -z.imag) for z in rep.eigenvalues]
        assert keys == sorted(keys)


class TestSkewSpectrum:
    def test_zero_matrix(self):
        assert np.all(skew_spectrum(np.zeros((4, 4))) == 0)

    def test_dominant_two(self):
        assert set(skew_spectrum(make_dominant(2))) == {1j, -1j}

    def test_dominant_four_power_sum(self):
        b = make_dominant(4)
        vals = skew_spectrum(b)
        assert sum(abs(z) ** 2 for z in vals) == pytest.approx(12.0, rel=1e-10)
        assert sum(abs(z) ** 2 for z in vals) == pytest.approx(
            -trace_power(b, 2), rel=1e-10
        )

    def test_real_parts_exactly_zero(self):
        rng = np.random.default_rng(11)
        b = random_skew_matrix(9, rng)
        assert np.all(skew_spectrum(b).real == 0)

    def test_consistency_with_entry_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            b = random_skew_matrix(n, rng)
            total = sum(abs(z) ** 2 for z in skew_spectrum(b))
            assert total == pytest.approx(float((b * b).sum()), rel=1e-10)

    def test_dominant_radius_formula(self):
        # the dominant matrix has spectral radius cot(pi / 2n)
        for n in (2, 3, 8, 50):
            rho = max(abs(z) for z in skew_spectrum(make_dominant(n)))
            assert rho == pytest.approx(1 / math.tan(math.pi / (2 * n)), rel=1e-10)

    def test_odd_power_traces_vanish(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            b = random_skew_matrix(n, rng)
            for power in (3, 5, 7):
                assert abs(trace_power(b, power)) <= 1e-8 * n**power


class TestMatrixText:
    def test_round_trip(self):
        a = tournament_matrix(make_carousel(5)).values
        assert np.array_equal(parse_matrix(format_matrix(a)), a)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix("2\n0.5 0.5\n0.5\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix("x\n")
