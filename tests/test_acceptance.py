"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest`` (output capture is disabled via -s in the project
config) or ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np

from tourcycles.limits import (
    carousel_tournamenton,
    check_midterms,
    conjectured_c,
    cycle_density_W,
    lower_bound_c,
    random_step_tournamenton,
)
from tourcycles.signsearch import (
    SkewSignMatrix,
    canonical_form,
    cyclic_index_def,
    cyclic_index_fast,
    dominant_sign,
    fixtures,
    mask_to_matrix,
    search_max_cyclic_index,
)
from tourcycles.spectral import (
    eigenvalues,
    make_dominant,
    skew_part,
    skew_spectrum,
    tournament_matrix,
    trace_power,
)
from tourcycles.tournaments import (
    _trace_cycle_count,
    exact_cycle_count,
    goodman_count3,
    make_carousel,
)

from conftest import all_tournaments, dp_cycle_count, random_skew_matrix, random_tournament


def report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_order4_search():
    t0 = time.monotonic()
    restricted = search_max_cyclic_index(4, restrict_first_row=True)
    full = search_max_cyclic_index(4, restrict_first_row=False)
    elapsed = time.monotonic() - t0
    d4_class = canonical_form(dominant_sign(4))
    ok = (
        restricted.max_cyclic_index == 8
        and full.max_cyclic_index == 8
        and restricted.matrices_scanned == 8
        and full.matrices_scanned == 64
        and list(restricted.achiever_classes) == [d4_class]
        and list(full.achiever_classes) == [d4_class]
        and restricted.min_cyclic_index == -24
        and full.min_cyclic_index == -24
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"order-4 search: max 8, single class, -24 occurs ({elapsed:.3f}s)",
    )


def test_criterion_02_order8_search():
    t0 = time.monotonic()
    one = search_max_cyclic_index(8, workers=1)
    four = search_max_cyclic_index(8, workers=4)
    elapsed = time.monotonic() - t0
    fx = fixtures()
    expected = {canonical_form(fx.d8).bits, canonical_form(fx.d8_alt).bits}
    got = {c.bits for c in four.achiever_classes}
    ok = (
        one.max_cyclic_index == 2176
        and four.max_cyclic_index == 2176
        and one.matrices_scanned == 2_097_152
        and len(four.achiever_classes) == 2
        and got == expected
        and one.to_json_dict(include_elapsed=False)
        == four.to_json_dict(include_elapsed=False)
        and four.elapsed_seconds <= 600.0
    )
    report(
        2,
        ok,
        f"order-8 search: max 2176, classes {{dominant, second}}, "
        f"{one.achiever_count} achievers, worker counts agree ({elapsed:.1f}s)",
    )


def test_criterion_03_series_constants():
    c4 = conjectured_c(4)
    c8 = conjectured_c(8)
    lower_ok = all(
        conjectured_c(length).excess >= lower_bound_c(length)
        for length in range(4, 68, 4)
    )
    ok = (
        abs(c4.value - 4 / 3) <= 1e-12
        and abs(c8.value - 332 / 315) <= 1e-12
        and lower_ok
    )
    report(
        3,
        ok,
        f"series constants: |c4-4/3|={abs(c4.value - 4/3):.2e}, "
        f"|c8-332/315|={abs(c8.value - 332/315):.2e}, lower bounds hold to length 64",
    )


def test_criterion_04_limit_densities():
    t0 = time.monotonic()
    gaps4, gaps8 = [], []
    for k in (64, 128, 256, 512):
        grid = carousel_tournamenton(k)
        gaps4.append(abs(cycle_density_W(grid, 4) - 4 / 3))
        gaps8.append(abs(cycle_density_W(grid, 8) - 332 / 315))
    elapsed = time.monotonic() - t0
    monotone = all(b <= a for a, b in zip(gaps4, gaps4[1:])) and all(
        b <= a for a, b in zip(gaps8, gaps8[1:])
    )
    ok = (
        gaps4[-1] <= 0.02
        and gaps8[-1] <= 0.02
        and monotone
        and gaps4[-1] < gaps4[0]
        and gaps8[-1] < gaps8[0]
        and elapsed < 30.0
    )
    report(
        4,
        ok,
        f"carousel grid densities: gap4={gaps4[-1]:.2e}, gap8={gaps8[-1]:.2e}, "
        f"monotone over k=64..512 ({elapsed:.1f}s)",
    )


def test_criterion_05_finite_extremal_counts():
    t0 = time.monotonic()
    best3 = best4 = 0
    for t in all_tournaments(5):
        best3 = max(best3, exact_cycle_count(t, 3))
        best4 = max(best4, exact_cycle_count(t, 4))
    elapsed = time.monotonic() - t0
    ok = best3 == 5 == 5 * (25 - 1) // 24 and best4 == 5 == 5 * 24 * 2 // 48 and elapsed < 5.0
    report(
        5,
        ok,
        f"5-vertex extremal counts: max 3-cycles {best3}, max 4-cycles {best4} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_06_trace_identity():
    rng = np.random.default_rng(600)
    samples = []
    for _ in range(200):
        n = int(rng.integers(3, 13))
        samples.append((n, random_skew_matrix(n, rng)))
    # zero-row-sum instances must trigger the equality case
    for n in (5, 7, 9, 11):
        samples.append((n, skew_part(make_carousel(n)).values))
    ok = True
    for n, b in samples:
        rep = check_midterms(b)
        if rep.residual4 > 1e-9 * n**4 or rep.slack8 < -1e-6 * n**8:
            ok = False
            break
        j = np.ones((n, n))
        gap4 = abs(
            trace_power(j + b, 4) - trace_power(j, 4) - trace_power(b, 4)
        )
        equality = gap4 <= 1e-9 * n**4
        if equality != (rep.row_sum_norm <= 1e-9):
            ok = False
            break
    report(
        6,
        ok,
        "trace identities on 200 random + 4 regular skew matrices; "
        "equality case exactly at zero row sums",
    )


def test_criterion_07_spectral_radius_dominance():
    rng = np.random.default_rng(700)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a = random_skew_matrix(n, rng)
        rho_a = max(abs(z) for z in skew_spectrum(a))
        rho_d = max(abs(z) for z in skew_spectrum(make_dominant(n).values))
        if rho_a > rho_d + 1e-9:
            ok = False
            break
    report(7, ok, "500 random skew matrices dominated by the dominant matrix")


def test_criterion_08_eigensolver_contract():
    rng = np.random.default_rng(800)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 61))
        t = random_tournament(n, rng)
        m = tournament_matrix(t)
        rep = eigenvalues(m)
        if abs(rep.eig_sum - 0.5) > 1e-8:
            ok = False
            break
        if np.any(rep.eigenvalues.real < -1e-8):
            ok = False
            break
        if rep.rho is None or rep.radius > rep.rho + 1e-8:
            ok = False
            break
        for power in range(2, 9):
            if abs(trace_power(m, power) - np.sum(rep.eigenvalues**power).real) > 1e-8 * n:
                ok = False
                break
        if not ok:
            break
    report(
        8,
        ok,
        "200 random tournaments (n <= 60): eigenvalue sum 1/2, real parts >= 0, "
        "radius at the real eigenvalue, trace cross-checks for powers 2..8",
    )


def test_criterion_09_dominant_asymptotics():
    rho = max(abs(z) for z in skew_spectrum(make_dominant(400).values))
    trace4 = trace_power(make_dominant(600), 4)
    ok = abs(rho / 400 - 2 / math.pi) <= 1e-3 and abs(trace4 / 600**4 - 1 / 3) <= 0.01
    report(
        9,
        ok,
        f"dominant asymptotics: rho(D_400)/400 = {rho / 400:.6f} (2/pi = {2/math.pi:.6f}), "
        f"trace(D_600^4)/600^4 = {trace4 / 600**4:.6f}",
    )


def test_criterion_10_upper_bound_suite():
    rng = np.random.default_rng(1000)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 17))
        w = random_step_tournamenton(k, int(rng.integers(0, 2**32)))
        for length in (3, 5, 6, 7):
            if cycle_density_W(w, length) > 1 + 1e-9:
                ok = False
        if cycle_density_W(w, 4) > 4 / 3 + 1e-9:
            ok = False
        if cycle_density_W(w, 8) > 332 / 315 + 1e-9:
            ok = False
        if not ok:
            break
    report(10, ok, "100 random step tournamentons satisfy the density upper bounds")


def test_criterion_11_oracle_equivalence():
    ok = True
    for mask in range(8):  # the canonical order-4 enumeration set
        b = mask_to_matrix(4, mask, restrict=True)
        if cyclic_index_fast(b) != cyclic_index_def(b):
            ok = False
    rng = np.random.default_rng(1100)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        b = SkewSignMatrix(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
        if cyclic_index_fast(b) != cyclic_index_def(b):
            ok = False
            break
    # 3-cycles by the trace form (_trace_cycle_count) and by the subset DP
    # (cycle_sum on every 3-subset) against the degree-sequence formula
    for n in (3, 4, 5):
        for t in all_tournaments(n):
            if not _trace_cycle_count(t, 3) == dp_cycle_count(t, 3) == goodman_count3(t):
                ok = False
                break
    for _ in range(500):
        n = int(rng.integers(6, 10))
        t = random_tournament(n, rng)
        if not _trace_cycle_count(t, 3) == dp_cycle_count(t, 3) == goodman_count3(t):
            ok = False
            break
    report(
        11,
        ok,
        "cyclic-index DP == permutation sum (8 canonical + 200 random); "
        "trace form == subset DP == degree-sequence formula (exhaustive n<=5 + 500 random)",
    )
