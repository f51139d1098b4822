import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from tourcycles.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from tourcycles.limits import carousel_tournamenton, format_step_tournamenton
from tourcycles.tournaments import format_tournament, make_carousel, parse_tournament


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestCount:
    def test_carousel5_length3(self):
        code, out, _ = run_cli("count", "--carousel", "5", "--length", "3")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["count"] == 5
        assert report["normalized_density"] == pytest.approx(2.0)

    def test_transitive_zero(self):
        code, out, _ = run_cli("count", "--transitive", "6", "--length", "4")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 0

    def test_random_deterministic(self):
        args = ("count", "--random", "10", "--seed", "7", "--length", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second and first[0] == EXIT_OK

    def test_workers_do_not_change_result(self):
        base = run_cli("count", "--carousel", "9", "--length", "4")
        multi = run_cli("count", "--carousel", "9", "--length", "4", "--workers", "3")
        assert json.loads(base[1])["count"] == json.loads(multi[1])["count"]

    def test_workers_split_uneven_ranges(self):
        # 126 subsets do not split evenly over 4 workers; unlike the carousel,
        # this tournament has cycles among the last subsets
        args = ("count", "--random", "9", "--seed", "3", "--length", "4")
        base = run_cli(*args)
        multi = run_cli(*args, "--workers", "4")
        assert multi == base and base[0] == EXIT_OK

    def test_zero_workers_is_usage_error(self):
        code, out, err = run_cli("count", "--random", "8", "--workers", "0")
        assert code == EXIT_USAGE and out == "" and "workers" in err

    def test_file_input(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(format_tournament(make_carousel(5)))
        code, out, _ = run_cli("count", "--input", str(path), "--length", "3")
        assert code == EXIT_OK and json.loads(out)["count"] == 5

    def test_conflicting_sources_rejected(self):
        code, _, err = run_cli("count", "--carousel", "5", "--transitive", "4")
        assert code == EXIT_USAGE and "exactly one" in err

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli("count", "--input", "/nonexistent/file")
        assert code == EXIT_USAGE

    def test_length_above_n_is_usage_error(self):
        code, _, err = run_cli("count", "--transitive", "4", "--length", "6")
        assert code == EXIT_USAGE

    def test_csv_format(self):
        code, out, _ = run_cli(
            "count", "--carousel", "5", "--length", "3", "--format", "csv"
        )
        header, row = out.strip().splitlines()
        assert header.startswith("n,length,count")
        assert row.split(",")[2] == "5"


class TestSpectrum:
    def test_carousel_spectrum_json(self):
        code, out, _ = run_cli("spectrum", "--carousel", "5")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["eig_sum"][0] == pytest.approx(0.5, abs=1e-10)
        assert rep["rho"] == pytest.approx(0.5, abs=1e-10)
        assert len(rep["eigenvalues"]) == 5
        # sorted by (-re, -im)
        keys = [(-re, -im) for re, im in rep["eigenvalues"]]
        assert keys == sorted(keys)

    def test_matrix_file_input(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n0.25 0.5\n0.0 0.25\n")
        code, out, _ = run_cli("spectrum", "--matrix-file", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["radius"] == pytest.approx(0.25)


class TestProfile4:
    def test_transitive(self):
        code, out, _ = run_cli("profile4", "--transitive", "5")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert (rep["t4"], rep["c4"], rep["l4"], rep["w4"]) == (5, 0, 0, 0)


class TestVerifyLemma:
    def test_order4_confirms(self):
        code, out, _ = run_cli("verify-lemma", "--order", "4")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["max_cyclic_index"] == 8
        assert rep["min_cyclic_index"] == -24
        assert rep["confirmed"] is True

    def test_order4_full_scan(self):
        code, out, _ = run_cli("verify-lemma", "--order", "4", "--full")
        assert code == EXIT_OK
        assert json.loads(out)["matrices_scanned"] == 64

    def test_order4_reports_identical_across_workers(self):
        one = run_cli("verify-lemma", "--order", "4", "--workers", "1",
                      "--strip-elapsed")
        two = run_cli("verify-lemma", "--order", "4", "--workers", "2",
                      "--strip-elapsed")
        assert one == two and one[0] == EXIT_OK

    def test_order8_confirms(self):
        code, out, _ = run_cli("verify-lemma", "--order", "8", "--workers", "2")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["max_cyclic_index"] == 2176
        assert rep["matrices_scanned"] == 2_097_152
        assert len(rep["achiever_classes"]) == 2
        assert rep["confirmed"] is True

    def test_mismatch_exits_two(self, monkeypatch):
        import tourcycles.cli as climod
        from tourcycles.signsearch import search_max_cyclic_index

        def doctored(order, **kwargs):
            real = search_max_cyclic_index(order, **kwargs)
            return type(real)(
                order=real.order,
                max_cyclic_index=real.max_cyclic_index,
                min_cyclic_index=real.min_cyclic_index,
                achiever_count=real.achiever_count,
                achiever_classes=(),  # drop the classes: report now disagrees
                matrices_scanned=real.matrices_scanned,
                elapsed_seconds=real.elapsed_seconds,
                restricted_first_row=real.restricted_first_row,
            )

        monkeypatch.setattr(climod.signsearch, "search_max_cyclic_index", doctored)
        code, _, err = run_cli("verify-lemma", "--order", "4")
        assert code == EXIT_MISMATCH and "MISMATCH" in err

    def test_checkpoint_file_written(self, tmp_path):
        path = tmp_path / "ck.json"
        code, _, _ = run_cli(
            "verify-lemma", "--order", "4", "--checkpoint", str(path)
        )
        assert code == EXIT_OK and path.exists()
        assert json.loads(path.read_text())["schema"].startswith("cyclic-index-search")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("chunks"),
            lambda d: d.update(chunks=[]),
            lambda d: d["chunks"].update({"5": {"max": 9999, "min": 0, "achievers": [5]}}),
            lambda d: d["chunks"].update({"8": d["chunks"]["0"]}),
            lambda d: d["chunks"].update({"00": d["chunks"]["0"]}),
            lambda d: d["chunks"]["0"].pop("achievers"),
            lambda d: d["chunks"]["0"].update(max="8"),
            lambda d: d["chunks"]["0"].update(min=None),
            lambda d: d["chunks"]["0"].update(achievers=[8]),
        ],
        ids=[
            "no-chunks", "chunks-not-object", "unaligned-key", "key-past-end",
            "padded-key", "no-achievers", "max-not-int", "min-not-int",
            "achiever-outside-chunk",
        ],
    )
    def test_corrupt_checkpoint_is_usage_error(self, tmp_path, corrupt):
        # order 4, restricted: 8 matrices in the one chunk "0"
        path = tmp_path / "ck.json"
        assert run_cli("verify-lemma", "--order", "4", "--checkpoint", str(path))[0] == EXIT_OK
        data = json.loads(path.read_text())
        corrupt(data)
        path.write_text(json.dumps(data))
        code, out, err = run_cli("verify-lemma", "--order", "4", "--checkpoint", str(path))
        assert code == EXIT_USAGE and out == "" and err.startswith("error:")

    def test_checkpoint_in_missing_directory_rejected_before_scan(self, tmp_path, monkeypatch):
        import tourcycles.cli as climod

        def no_search(*args, **kwargs):
            raise AssertionError("the search started before the checkpoint path was checked")

        monkeypatch.setattr(climod.signsearch, "search_max_cyclic_index", no_search)
        path = tmp_path / "missing" / "dir" / "ck.json"
        code, out, err = run_cli("verify-lemma", "--order", "8", "--checkpoint", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: checkpoint directory does not exist")

    @pytest.mark.parametrize("text", ["", '{"schema": "cyclic-index-search/v1", "chu', "[]"])
    def test_unreadable_checkpoint_is_usage_error(self, tmp_path, text):
        path = tmp_path / "ck.json"
        path.write_text(text)
        code, _, err = run_cli("verify-lemma", "--order", "4", "--checkpoint", str(path))
        assert code == EXIT_USAGE and err.startswith("error:")


class TestReproduce:
    def test_small_grid_within_loose_tolerance(self):
        code, out, _ = run_cli(
            "reproduce", "--grid", "128", "--tolerance", "0.05", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 7  # header + lengths 3..8
        row6 = lines[4].split(",")
        assert row6[0] == "6" and row6[2] == "quasirandom"

    def test_tight_tolerance_mismatch(self):
        code, _, err = run_cli("reproduce", "--grid", "64", "--tolerance", "1e-9")
        assert code == EXIT_MISMATCH and "MISMATCH" in err

    def test_default_grid_meets_stated_tolerance(self):
        code, out, _ = run_cli("reproduce")
        assert code == EXIT_OK
        rows = json.loads(out)
        row8 = next(r for r in rows if r["length"] == 8)
        assert row8["gap"] <= 0.02

    def test_bad_output_directory_rejected_before_compute(self):
        code, _, err = run_cli(
            "reproduce", "-o", "/nonexistent/dir/report.json"
        )
        assert code == EXIT_USAGE and "output directory" in err


class TestConjectureTable:
    def test_csv_rows(self):
        code, out, _ = run_cli("conjecture-table", "--max-length", "16")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "length"
        lengths = [int(r.split(",")[0]) for r in lines[1:]]
        assert lengths == [4, 8, 12, 16]
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(4 / 3, abs=1e-12)
        assert float(first[2]) == pytest.approx(1 + 2 * (2 / 3.141592653589793) ** 4)


class TestGenerators:
    def test_carousel_output_parses(self):
        code, out, _ = run_cli("carousel", "7")
        assert code == EXIT_OK
        t = parse_tournament(out)
        assert t.n == 7 and t.out_degree(0) == 3

    def test_carousel_grid_output(self):
        code, out, _ = run_cli("carousel", "--grid", "4")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "4"

    def test_sample_deterministic(self):
        a = run_cli("sample", "8", "--seed", "42")
        b = run_cli("sample", "8", "--seed", "42")
        assert a == b and a[0] == EXIT_OK
        assert parse_tournament(a[1]).n == 8

    def test_sample_from_grid_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(format_step_tournamenton(carousel_tournamenton(4)))
        code, out, _ = run_cli("sample", "6", "--seed", "1", "--w-grid", str(path))
        assert code == EXIT_OK and parse_tournament(out).n == 6

    def test_sample_rejects_nan_grid_file(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("2\n0.5 nan\nnan 0.5\n")
        code, out, err = run_cli("sample", "5", "--seed", "1", "--w-grid", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:")

    def test_output_file(self, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run_cli("carousel", "5", "-o", str(path))
        assert code == EXIT_OK and out == ""
        assert parse_tournament(path.read_text()).n == 5


class TestUsage:
    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == EXIT_USAGE

    def test_missing_required(self):
        code, _, _ = run_cli("verify-lemma")
        assert code == EXIT_USAGE

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("TOURCYCLES_WORKERS", "3")
        from tourcycles.cli import build_parser

        args = build_parser().parse_args(["verify-lemma", "--order", "4"])
        assert args.workers == 3

    def test_workers_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("TOURCYCLES_WORKERS", "banana")
        from tourcycles.cli import build_parser

        args = build_parser().parse_args(["verify-lemma", "--order", "4"])
        assert args.workers == 1


GOLDEN = Path(__file__).parent / "golden"
ELAPSED = re.compile(r'"elapsed_seconds": [0-9.e-]+')


class TestGoldenReports:
    """Reports are byte-identical to the committed ones; only a timing may differ."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("verify-lemma-order8.json", ["verify-lemma", "--order", "8", "--strip-elapsed"]),
            (
                "verify-lemma-order8.json",
                ["verify-lemma", "--order", "8", "--strip-elapsed", "--workers", "2"],
            ),
            ("verify-lemma-order4.json", ["verify-lemma", "--order", "4"]),
            (
                "verify-lemma-order4-full.json",
                ["verify-lemma", "--order", "4", "--full", "--strip-elapsed"],
            ),
            ("carousel-grid8.txt", ["carousel", "--grid", "8"]),
        ],
    )
    def test_stdout_matches_golden(self, name, argv):
        code, out, _ = run_cli(*argv)
        want = (GOLDEN / name).read_bytes().decode()
        assert code == EXIT_OK
        # the unstripped report keeps its elapsed_seconds line; only the number is free
        assert ELAPSED.sub('"elapsed_seconds": T', out) == ELAPSED.sub('"elapsed_seconds": T', want)
