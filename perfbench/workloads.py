"""The three workloads: search8, census and limits.

Each workload loads one group of layers and leaves the others idle, so an
optimization of one layer has a workload that exercises it and one that
bypasses it (where the prediction is "no change").  README.md in this
directory gives the table; the docstring of each class says why it exists.

A workload has ``setup(seed, tracer)`` (imports, seeded inputs, temp dirs;
timed as ``setup_s``), ``run_pass(inputs, tracer, gate)`` (one full pass
with every check; timed as ``wall_s``), ``derived(values)`` (ratios built
from one pass's stage and layer numbers) and ``teardown(inputs)``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile

import oracles
from harness import TMP_ROOT, bytes_written, run_cli

# certified facts of the order-8 search (tourcycles, arXiv 2008.06577)
MAX8, MIN8, ACHIEVERS8, CLASSES8 = 2176, -8064, 25200, 2
MAX4 = 8
SLICE = 1 << 16  # masks in the directly timed batch_cyclic_index slice
KNOWN_C = {4: (4, 3), 8: (332, 315), 12: (157307, 155925)}


def _canon(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


class Search8:
    """The order-8 certification: max Cycl = 2 176, two sign-equivalence classes.

    Loads signsearch almost alone: the subset-DP scan (1 worker and a
    2-worker pool through the CLI), checkpoint writes (a fresh checkpointed
    run) and checkpoint reads plus achiever classification (the resume).
    tournaments and limits stay idle, so this is the bypass workload for
    counting-kernel and limit-layer work.
    """

    name = "search8"

    def setup(self, seed: int, tr):
        import numpy as np
        from tourcycles import signsearch

        rng = np.random.default_rng(seed)
        fx = signsearch.fixtures()
        TMP_ROOT.mkdir(exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="search8-", dir=TMP_ROOT)
        return {
            "fx": fx,
            "slice_lo": int(rng.integers(0, (1 << 21) // SLICE)) * SLICE,
            "rng": rng,
            "tmpdir": tmpdir,
            "ckpt": os.path.join(tmpdir, "order8.json"),
        }

    def teardown(self, inp):
        shutil.rmtree(inp["tmpdir"], ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only once no other run is using it
        except OSError:
            pass

    def run_pass(self, inp, tr, gate):
        import numpy as np
        from tourcycles import signsearch as ss

        search = ss.search_max_cyclic_index
        order8 = {"matrices": 1 << 21}
        with tr.stage("certify8_1w_s"), tr.span("signsearch.search_max_cyclic_index", **order8):
            r1 = search(8, workers=1)
        argv = ["verify-lemma", "--order", "8", "--workers", "2", "--strip-elapsed"]
        with tr.stage("certify8_2w_s"), tr.span("cli.verify_lemma"):
            code, out2 = run_cli(argv)
        ckpt = inp["ckpt"]
        if os.path.exists(ckpt):
            os.remove(ckpt)
        wrote = bytes_written()
        with tr.stage("certify8_ckpt_s"), tr.span("signsearch.search_max_cyclic_index", **order8):
            rck = search(8, workers=1, checkpoint_path=ckpt)
        wrote = bytes_written() - wrote
        with tr.stage("resume8_s"), tr.span("signsearch.search_max_cyclic_index", **order8):
            rres = search(8, workers=1, checkpoint_path=ckpt)
        with tr.stage("order4_s"):
            with tr.span("signsearch.search_max_cyclic_index", matrices=1 << 3):
                r4 = search(4)
            with tr.span("signsearch.search_max_cyclic_index", matrices=1 << 6):
                r4full = search(4, restrict_first_row=False)
        lo = inp["slice_lo"]
        masks = np.arange(lo, lo + SLICE, dtype=np.int64)
        with tr.span("signsearch.batch_cyclic_index", matrices=SLICE):
            vals = ss.batch_cyclic_index(8, masks)

        fx = inp["fx"]
        with tr.span("signsearch.canonical_form"):
            want8 = {ss.canonical_form(fx.d8).bits}
        with tr.span("signsearch.canonical_form"):
            want8.add(ss.canonical_form(fx.d8_alt).bits)
        with tr.span("signsearch.canonical_form"):
            want4 = {ss.canonical_form(fx.d4).bits}
        for label, r in (("1w", r1), ("ckpt", rck), ("resume", rres)):
            gate.check(r.max_cyclic_index == MAX8, f"{label} max", r.max_cyclic_index)
            gate.check(r.min_cyclic_index == MIN8, f"{label} min", r.min_cyclic_index)
            gate.check(r.achiever_count == ACHIEVERS8, f"{label} achievers", r.achiever_count)
            got = [c.bits for c in r.achiever_classes]
            gate.check(len(got) == CLASSES8 and set(got) == want8, f"{label} classes", got)

        # --strip-elapsed reports: the CLI's 2-worker bytes against the
        # 1-worker, checkpointed and resumed library reports
        gate.check(code == 0, "verify-lemma exit code", code)
        try:
            cli_report = json.loads(out2)
        except json.JSONDecodeError:
            cli_report = {}
        gate.check(cli_report.pop("confirmed", False) is True, "verify-lemma confirmed")
        reports = {_canon(r.to_json_dict(include_elapsed=False)) for r in (r1, rck, rres)}
        reports.add(_canon(cli_report))
        gate.check(len(reports) == 1, "stripped reports identical across 1w/2w/ckpt/resume")

        gate.check(r4.max_cyclic_index == MAX4 and r4full.max_cyclic_index == MAX4, "order-4 max")
        got4 = [c.bits for c in r4.achiever_classes]
        gate.check(set(got4) == want4 and len(got4) == 1, "order-4 restricted class", got4)
        gate.check([c.bits for c in r4full.achiever_classes] == got4, "order-4 full == restricted")

        with open(ckpt) as fh:
            chunks = json.load(fh)["chunks"]
        achievers = sorted(m for c in chunks.values() if c["max"] == MAX8 for m in c["achievers"])
        gate.check(len(achievers) == ACHIEVERS8, "checkpoint achiever masks", len(achievers))
        chunk = chunks.get(str(lo), {})
        slice_best = np.flatnonzero(vals == vals.max()) + lo
        gate.check(
            chunk.get("max") == int(vals.max()) and chunk.get("min") == int(vals.min())
            and chunk.get("achievers") == slice_best.tolist(),
            "batch slice agrees with its checkpoint chunk", lo,
        )
        rng = inp["rng"]
        picks = [int(m) for m in rng.choice(achievers, size=3, replace=False)]
        picks += [lo + int(i) for i in rng.choice(SLICE, size=2, replace=False)]
        for i, mask in enumerate(picks):
            with tr.span("signsearch.cyclic_index_def"):
                val = ss.cyclic_index_def(ss.mask_to_matrix(8, mask))
            want = MAX8 if i < 3 else int(vals[mask - lo])
            gate.check(val == want, "cyclic_index_def oracle", f"mask {mask}: {val} != {want}")

        return {
            "signsearch.checkpoint.bytes": wrote,
            "signsearch.checkpoint.writes": len(chunks),
        }

    def derived(self, v):
        out = {
            "signsearch.scan_s": v["certify8_1w_s"] - v["resume8_s"],
            "signsearch.classify_s": v["resume8_s"],
            "signsearch.checkpoint_overhead_s": v["certify8_ckpt_s"] - v["certify8_1w_s"],
            "signsearch.pool.scaling_eff": v["certify8_1w_s"] / (2 * v["certify8_2w_s"]),
        }
        if v.get("signsearch.batch_cyclic_index.s"):
            out["signsearch.batch_cyclic_index.matrices_per_s"] = (
                v["signsearch.batch_cyclic_index.matrices"] / v["signsearch.batch_cyclic_index.s"]
            )
        return out


def _five_vertex_tournaments(Tournament):
    """All 1 024 labelled tournaments on 5 vertices, one bit per pair (i < j)."""
    out = []
    for bits in range(1 << 10):
        rows = [0] * 5
        idx = 0
        for i in range(5):
            for j in range(i + 1, 5):
                if (bits >> idx) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
                idx += 1
        out.append(Tournament(5, tuple(rows)))
    return out


class Census:
    """Exact cycle counting on seeded tournaments.

    Loads the pure-Python subset DP in tournaments (about 90 % of the pass)
    with a mix of a few large calls (n=16 l=8, n=14 l=9, n=20 l=5) and
    3 072 tiny ones (every 5-vertex tournament at l = 3, 4, 5), so a change
    that helps one size and costs the other shows.  Also runs four_profile,
    the tournament spectra and the CLI's 2-worker count.  signsearch is
    idle: this is the bypass workload for search-kernel work.
    """

    name = "census"
    BIG = ((16, 8), (14, 9), (20, 5))

    def setup(self, seed: int, tr):
        import numpy as np
        from tourcycles import limits, tournaments as tm

        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**62, size=6)]
        big = []
        for (n, length), s in zip(self.BIG, seeds):
            with tr.span("tournaments.sample_random"):
                big.append((tm.sample_random(n, s), length))
        w = limits.random_step_tournamenton(8, seeds[3])
        with tr.span("tournaments.sample_w_random"):
            tw = tm.sample_w_random(w, 12, seeds[4])
        with tr.span("tournaments.sample_random"):
            t40 = tm.sample_random(40, seeds[5])
        five = _five_vertex_tournaments(tm.Tournament)
        return {
            "big": big,
            "cli_seed": seeds[0],
            "w_random": tw,
            "carousel": tm.make_carousel(11),
            "transitive": tm.make_transitive(12),
            "five": five,
            "five_adj": np.stack([oracles.adjacency(t) for t in five]),
            "t40": t40,
        }

    def teardown(self, inp):
        pass

    def _count(self, tr, t, length):
        from tourcycles.tournaments import exact_cycle_count

        subsets = math.comb(t.n, length)
        with tr.span("tournaments.exact_cycle_count", subsets=subsets,
                     dp_states=subsets * 2 ** (length - 1) * length):
            return exact_cycle_count(t, length)

    def run_pass(self, inp, tr, gate):
        import numpy as np
        from tourcycles import spectral, tournaments as tm

        t16 = inp["big"][0][0]
        small = [(inp["w_random"], ln) for ln in (3, 4, 5, 6)]
        small += [(inp["carousel"], ln) for ln in (3, 4, 5, 6, 7)]
        small += [(inp["transitive"], ln) for ln in (3, 4, 5, 6)]
        small.append((t16, 4))
        with tr.stage("count_s"):
            with tr.stage("count16_1w_s"):
                big = [self._count(tr, t16, 8)]
            big += [self._count(tr, t, ln) for t, ln in inp["big"][1:]]
            counts = [self._count(tr, t, ln) for t, ln in small]
            five = {ln: [self._count(tr, t, ln) for t in inp["five"]] for ln in (3, 4, 5)}
        argv = ["count", "--random", "16", "--seed", str(inp["cli_seed"]), "--length", "8",
                "--workers", "2"]
        with tr.stage("count_2w_s"), tr.span("cli.count"):
            code, out = run_cli(argv)
        t40 = inp["t40"]
        profiles = []
        for t in (t40, t16, inp["w_random"]):
            with tr.span("tournaments.four_profile", quads=math.comb(t.n, 4)):
                profiles.append(tm.four_profile(t))

        for (t, ln), got in zip(inp["big"], big):
            want = oracles.cycle_count(oracles.adjacency(t), ln)
            gate.check(got == want, f"count n={t.n} l={ln}", f"{got} != oracle {want}")
        for (t, ln), got in zip(small, counts):
            want = oracles.cycle_count(oracles.adjacency(t), ln)
            gate.check(got == want, f"count n={t.n} l={ln}", f"{got} != oracle {want}")
            if ln == 3:
                gate.check(got == tm.goodman_count3(t), f"goodman n={t.n}", got)
        gate.check(all(c == 0 for (t, _), c in zip(small, counts) if t is inp["transitive"]),
                   "transitive tournament has no cycles")
        for ln, got in five.items():
            want = oracles.arrangement_counts(inp["five_adj"], ln)
            gate.check(got == want.tolist(), f"5-vertex counts l={ln}")
        gate.check(five[3] == [tm.goodman_count3(t) for t in inp["five"]], "5-vertex goodman")
        gate.check(max(five[3]) == 5 and max(five[4]) == 5, "5-vertex maxima are 5 and 5",
                   (max(five[3]), max(five[4])))

        gate.check(code == 0, "count --workers 2 exit code", code)
        try:
            cli_count = json.loads(out)["count"]
        except (json.JSONDecodeError, KeyError):
            cli_count = None
        gate.check(cli_count == big[0], "count --workers 2 == serial", f"{cli_count} != {big[0]}")

        gate.check(profiles[1].c4 == counts[-1], "four_profile c4 == l=4 count, n=16")
        gate.check(profiles[2].c4 == counts[1], "four_profile c4 == l=4 count, W-random")
        p = profiles[0]
        n = t40.n
        degs = [t40.out_degree(i) for i in range(n)]
        gate.check(p.total == math.comb(n, 4), "four_profile total")
        gate.check(p.c4 == oracles.cycle_count(oracles.adjacency(t40), 4), "four_profile c4 oracle")
        gate.check(p.t4 + p.w4 == sum(math.comb(d, 3) for d in degs), "four_profile sources")
        gate.check(p.t4 + p.l4 == sum(math.comb(n - 1 - d, 3) for d in degs), "four_profile sinks")

        spectra = [t for t, _ in inp["big"]] + [inp["w_random"], inp["carousel"],
                                                inp["transitive"], t40]
        for t in spectra:
            with tr.span("spectral.eigenvalues"):
                rep = spectral.eigenvalues(spectral.tournament_matrix(t))
            gate.close(rep.eig_sum.real, 0.5, f"eigenvalue sum n={t.n}", 1e-9)
            lam = rep.eigenvalues
            for ln in range(3, 9):
                with tr.span("spectral.trace_density"):
                    td = spectral.trace_density(t, ln)
                want = float(2**ln * np.sum(lam**ln).real)
                gate.close(td, want, f"trace_density vs spectrum n={t.n} l={ln}", 1e-9)
                if ln == 3:
                    c3 = tm.goodman_count3(t)
                    gate.close(td, 8 * (3 * c3 + t.n / 8) / t.n**3,
                               f"trace_density l=3 vs 3-cycles n={t.n}", 1e-12)
        return {}

    def derived(self, v):
        return {"signsearch.pool.scaling_eff": v["count16_1w_s"] / (2 * v["count_2w_s"])}


def _flops(k: int, length: int) -> int:
    """2 k^3 per product in binary powering: squarings plus extra multiplies."""
    mults = (length.bit_length() - 1) + (bin(length).count("1") - 1)
    return mults * 2 * k**3


class Limits:
    """The limit objects: series constants, carousel densities, spectral lemmas.

    Loads limits and spectral: the O(N^2) fsum loop of conjectured_c (about
    17 000 terms at l=4) and dense matrix_power on carousel grids up to
    k=4096 (the largest memory footprint of the three workloads), plus
    `tourcycles reproduce --grid 1024`.  tournaments and signsearch stay
    idle.
    """

    name = "limits"
    GRIDS = (512, 1024, 2048, 4096)
    SKEW_ORDERS = (8, 16, 32, 64, 128)

    def setup(self, seed: int, tr):
        import numpy as np
        from tourcycles import limits, spectral

        grids = {}
        for k in self.GRIDS:
            with tr.span("limits.carousel_tournamenton"):
                grids[k] = limits.carousel_tournamenton(k)
        rng = np.random.default_rng(seed)
        skew = []
        for n in self.SKEW_ORDERS:
            a = np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
            skew.append(spectral.SkewMatrix(a - a.T))
        dominant = [spectral.make_dominant(n) for n in self.SKEW_ORDERS]
        return {"grids": grids, "skew": skew, "dominant": dominant}

    def teardown(self, inp):
        pass

    def run_pass(self, inp, tr, gate):
        import numpy as np
        from tourcycles import limits, spectral

        with tr.stage("series_s"):
            series = {}
            for ln in range(4, 33, 4):
                with tr.span("limits.conjectured_c") as sp:
                    series[ln] = limits.conjectured_c(ln)
                    sp.add(terms=series[ln].terms_used)
        grids = inp["grids"]
        with tr.stage("density_s"):
            dens = {}
            for k, w in grids.items():
                for ln in (4, 8):
                    with tr.span("limits.cycle_density_W", flops=_flops(k, ln)):
                        dens[k, ln] = limits.cycle_density_W(w, ln)
        with tr.stage("reproduce_s"), tr.span("cli.reproduce"):
            code, out = run_cli(["reproduce", "--grid", "1024"])
        with tr.span("limits.regular_second_eigenvalue"):
            second = limits.regular_second_eigenvalue(grids[512])
        dominance, midterms, spectra = [], [], []
        for b in inp["skew"] + inp["dominant"]:
            with tr.span("limits.antisym_dominance"):
                dominance.append(limits.antisym_dominance(b))
            with tr.span("limits.check_midterms"):
                midterms.append(limits.check_midterms(b))
        for d in inp["dominant"]:
            with tr.span("spectral.skew_spectrum"):
                spectra.append(spectral.skew_spectrum(d))

        for ln, cv in series.items():
            exact = oracles.tangent_constant(ln)
            if ln in KNOWN_C:
                num, den = KNOWN_C[ln]
                gate.check(abs(cv.value - num / den) <= 1e-12, f"c({ln}) == {num}/{den}", cv.value)
            gate.check(abs(cv.value - float(exact)) <= 1e-12, f"c({ln}) vs tangent form", cv.value)
            gate.close(cv.excess, float(exact - 1), f"c({ln}) excess vs tangent form",
                       1e-12 * float(exact - 1))
        for ln in (4, 8):
            gaps = []
            for k, w in grids.items():
                gate.close(dens[k, ln], oracles.circulant_density(w, ln),
                           f"carousel density k={k} l={ln} vs FFT", 1e-9)
                gaps.append(abs(dens[k, ln] - float(oracles.tangent_constant(ln))))
            gate.check(all(a > b for a, b in zip(gaps, gaps[1:])),
                       f"carousel gaps shrink with k, l={ln}", gaps)

        gate.check(code == 0, "reproduce exit code", code)
        try:
            rows = json.loads(out)
        except json.JSONDecodeError:
            rows = []
        gate.check([r["length"] for r in rows] == list(range(3, 9)), "reproduce rows")
        for r in rows:
            gate.check(r["gap"] <= 0.02, f"reproduce gap l={r['length']}", r["gap"])
            if r["construction"] == "carousel":
                want = oracles.circulant_density(grids[1024], r["length"])
            else:
                want = 1.0  # W = 1/2 everywhere: 2^l Trace((J/2k)^l) = 1
            gate.close(r["grid_density"], want, f"reproduce density l={r['length']}", 1e-9)

        lam = oracles.circulant_eigenvalues(grids[512])
        gate.close(second, float(np.max(np.abs(lam[1:]))), "regular_second_eigenvalue", 1e-9)

        mats = inp["skew"] + inp["dominant"]
        for b, dom, mid in zip(mats, dominance, midterms):
            a = b.values
            n = a.shape[0]
            gate.check(dom.ok, f"antisym_dominance n={n}", dom)
            gate.close(dom.rho_d, oracles.dominant_radius(n), f"rho(D_{n}) closed form", 1e-9)
            rho = float(np.max(np.abs(np.linalg.eigvals(a))))
            gate.close(dom.rho_a, rho, f"rho_a vs eigvals n={n}", 1e-8)
            gate.check(mid.residual4 <= 1e-10 * (2 * n) ** 4, f"midterms residual4 n={n}",
                       mid.residual4)
            gate.check(mid.slack8 >= -1e-10 * (2 * n) ** 8, f"midterms slack8 n={n}", mid.slack8)
            gate.close(mid.row_sum_norm, float(np.linalg.norm(a.sum(axis=1))),
                       f"midterms row_sum_norm n={n}", 1e-9)
        for d, vals in zip(inp["dominant"], spectra):
            n = d.n
            got = np.sort(np.abs(vals))[::-1]
            ok = bool(np.all(np.abs(got - oracles.dominant_moduli(n)) <= 1e-9 * n))
            gate.check(ok, f"skew_spectrum(D_{n}) vs cot closed form")
        return {}

    def derived(self, v):
        return {}


WORKLOADS = {w.name: w for w in (Search8(), Census(), Limits())}
