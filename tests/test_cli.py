"""Command-line front end: batteries, config handling, artifacts."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relfix.verify
from relfix.cli import (
    STATUS_CHECK_FAILED,
    STATUS_OK,
    STATUS_USAGE,
    _orbit_table,
    _solution_table,
    _write_table,
    build_parser,
    main,
    parse_config,
)
from relfix.engine import OrbitTrace, StopReason
from relfix.errors import ConfigError, PreconditionError
from relfix.spaces import Grid, ScalarPoint, grid_fn, scalar


GOOD_CONFIG = """
# coarse solve used by the command tests
beta = 1.5
k = 0.5
L = 0.2
f = sine_mix
f.a = 0.2
n = 32
tol = 1e-8
max_iter = 200
variant = paper_exact
"""


def write_config(tmp_path, text=GOOD_CONFIG, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestVerifyExample:
    @pytest.mark.parametrize("example_id", ["Ex1_7", "Ex1_13", "Ex1_14", "Ex2_3", "Ex2_4"])
    def test_battery_passes(self, example_id, tmp_path):
        out = tmp_path / example_id
        assert main(["verify-example", example_id, "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["summary"]["all_pass"] is True
        assert record["checks"]

    def test_orbit_csv_written_for_iterating_batteries(self, tmp_path):
        out = tmp_path / "orbit"
        main(["verify-example", "Ex2_4", "--out", str(out)])
        lines = (out / "orbit.csv").read_text().splitlines()
        assert lines[0] == "n,point_or_norm,d_gap,p_gap,bound"
        assert lines[1].startswith("0,2.0,")

    @pytest.mark.parametrize("example_id, step", [("Ex1_7", "0.5"), ("Ex1_7", "0.25")])
    def test_battery_passes_at_finer_step(self, example_id, step, tmp_path):
        out = tmp_path / example_id
        args = ["verify-example", example_id, "--step", step, "--out", str(out)]
        assert main(args) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["summary"]["all_pass"] is True

    def test_step_override_recorded(self, tmp_path):
        out = tmp_path / "step"
        assert main(["verify-example", "Ex2_3", "--step", "0.2", "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["config"]["step"] == 0.2

    def test_advisories_do_not_affect_status(self, tmp_path):
        out = tmp_path / "advisory"
        assert main(["verify-example", "Ex2_3", "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["advisories"]

    def test_lambda_hat_never_falls_as_the_step_halves(self, tmp_path, monkeypatch):
        # 80 and 160 points of Ex2_3, past a pair cap of 2,000: the estimate
        # reads every off-diagonal related pair, m (m - 1) / 2 of them
        monkeypatch.setattr(relfix.verify, "PAIR_CAP", 2000)
        checks = []
        for step in ("0.025", "0.0125"):
            out = tmp_path / step
            assert main(["verify-example", "Ex2_3", "--step", step, "--out", str(out)]) == STATUS_OK
            record = json.loads((out / "report.json").read_text())
            checks.append(record["checks"]["pair_distance_contraction_on_sample"])
        assert checks[0]["lambda_hat"] <= checks[1]["lambda_hat"]
        assert [c["pairs_checked"] for c in checks] == [80 * 79 // 2, 160 * 159 // 2]

    def test_one_point_sample_reports_no_pair_checked(self, tmp_path):
        out = tmp_path / "one_point"
        args = ["verify-example", "Ex2_3", "--step", "3", "--out", str(out)]
        assert main(args) == STATUS_CHECK_FAILED
        check = json.loads((out / "report.json").read_text())["checks"]
        assert check["pair_distance_contraction_on_sample"]["pairs_checked"] == 0
        assert check["pair_distance_contraction_on_sample"]["pass"] is False


    @pytest.mark.parametrize("step", ["nan", "1e-300"])
    def test_bad_step_is_an_error(self, step, tmp_path, capsys):
        args = ["verify-example", "Ex2_4", "--step", step, "--out", str(tmp_path / "bad")]
        assert main(args) == STATUS_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "bad").exists()

    def test_step_without_related_pairs_fails_its_check(self, tmp_path, capsys):
        # a step of 2 keeps only odd points, which relate to nothing: no ratio
        out = tmp_path / "coarse"
        args = ["verify-example", "Ex1_7", "--step", "2", "--out", str(out)]
        assert main(args) == STATUS_CHECK_FAILED
        assert capsys.readouterr().err == ""
        record = json.loads((out / "report.json").read_text())
        assert "metric_contraction_unavailable" in record["summary"]["failed"]
        assert record["checks"]["metric_contraction_unavailable"]["observed_lambda"] is None


def run_module(module, *args, cwd):
    """``python -m module args`` with only the checkout's ``src`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", ["relfix", "relfix.cli"])
class TestModuleEntryPoints:
    def test_verify_example_writes_report(self, module, tmp_path):
        done = run_module(module, "verify-example", "Ex2_4", "--out", "out", cwd=tmp_path)
        assert done.returncode == STATUS_OK, done.stderr
        record = json.loads((tmp_path / "out" / "report.json").read_text())
        assert record["summary"]["all_pass"] is True

    def test_bad_step_is_usage_error(self, module, tmp_path):
        done = run_module(
            module, "verify-example", "Ex2_4", "--step", "fine", "--out", "out", cwd=tmp_path
        )
        assert done.returncode == STATUS_USAGE
        assert "--step" in done.stderr
        assert not (tmp_path / "out").exists()


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "fbvp.cfg"


class TestRepeatedInProcessRuns:
    """``main`` called again and again in one process, as tests, notebooks
    and the benchmark call it."""

    RUNS = [
        ["verify-example", "Ex2_4", "--out", "run0"],
        ["solve-fbvp", "--config", str(DEMO_CONFIG), "--out", "run1"],
        ["verify-example", "Ex9_9", "--out", "run2"],
        ["report", "--in", "run0"],
        ["verify-example", "Ex2_4", "--step", "0.005", "--out", "run4"],
    ]

    def test_reused_parser_matches_fresh_processes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at this width
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        here, fresh = tmp_path / "in_process", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        statuses = []
        for args in self.RUNS:
            try:
                status = main(args)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            done = run_module("relfix", *args, cwd=fresh)
            assert (status, captured.out, captured.err) == (
                done.returncode, done.stdout, done.stderr
            ), args
            statuses.append(status)
        assert statuses == [STATUS_OK, STATUS_OK, STATUS_USAGE, STATUS_OK, STATUS_OK]
        # the parser and its three subcommand parsers, each built once
        assert built.count("relfix") == 1 and len(built) == 4
        files = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
        assert len(files) == 7
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_fine_interval_sample_builds_only_the_points_read(self, tmp_path, monkeypatch):
        built = []
        post_init = ScalarPoint.__post_init__

        def counted_post_init(point):
            built.append(1)
            post_init(point)

        monkeypatch.setattr(ScalarPoint, "__post_init__", counted_post_init)
        args = ["verify-example", "Ex1_13", "--step", "0.001", "--out", str(tmp_path / "out")]
        assert main(args) == STATUS_OK
        # the sample has 6,001 points; the battery reads none of them
        assert len(built) < 200


class TestSolveCommand:
    def test_solve_writes_solution_and_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "solve"
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["summary"]["all_pass"] is True
        assert record["solution"]["iterations"] >= 1
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 34  # header plus 33 nodes

    def test_limits_in_use_are_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path, "beta = 1.5\nk = 0.5\nL = 0.2\nf = constant\nf.c = 1.0\nn = 16\n"
        )
        out = tmp_path / "limits"
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["limits"] == {"tol": 1e-8, "max_iter": 500}
        assert "tol" not in record["config"] and "max_iter" not in record["config"]

    def test_constant_source_solves_in_two_iterations(self, tmp_path):
        cfg = write_config(
            tmp_path, "beta = 1.5\nk = 0.5\nL = 0.0\nf = constant\nf.c = 1.0\nn = 64\n"
        )
        out = tmp_path / "const"
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["solution"]["iterations"] == 2

    def test_k_below_first_node_solves(self, tmp_path):
        # k lies inside the first cell
        text = GOOD_CONFIG.replace("k = 0.5", "k = 0.01").replace("n = 32", "n = 8")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "small_k"
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == STATUS_OK
        record = json.loads((out / "report.json").read_text())
        assert record["problem"]["k"] == 0.01

    def test_supercritical_config_passes_with_advisory(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "beta = 1.5\nk = 0.5\nL = 2.0\nf = affine\nf.a = 2.0\nn = 16\nmax_iter = 400\n",
        )
        out = tmp_path / "warn"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = main(["solve-fbvp", "--config", str(cfg), "--out", str(out)])
        record = json.loads((out / "report.json").read_text())
        assert record["advisories"]
        assert status == STATUS_OK  # it happens to converge; the bound is advisory

    def test_divergent_solve_writes_report_and_partial_orbit(self, tmp_path):
        cfg = write_config(
            tmp_path, "beta = 1.5\nk = 0.5\nL = 20\nf = affine\nf.a = 20\nn = 64\n"
        )
        out = tmp_path / "diverged"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            status = main(["solve-fbvp", "--config", str(cfg), "--out", str(out)])
        assert status == STATUS_CHECK_FAILED
        record = json.loads((out / "report.json").read_text())
        assert record["solution"] is None
        converged = record["checks"]["converged"]
        assert converged["pass"] is False
        assert "divergence threshold" in converged["error"]
        assert record["summary"]["failed"] == ["converged"]
        lines = (out / "orbit.csv").read_text().splitlines()
        assert lines[0] == "n,point_or_norm,d_gap,p_gap,bound" and len(lines) > 2

    def test_library_fault_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        # a RelfixError that is not a usage fault exits 3, before any file is written
        def refuse(problem, tol, max_iter):
            raise PreconditionError("refused")

        monkeypatch.setattr("relfix.cli.solve_fbvp", refuse)
        out = tmp_path / "out"
        args = ["solve-fbvp", "--config", str(write_config(tmp_path)), "--out", str(out)]
        assert main(args) == STATUS_CHECK_FAILED
        assert capsys.readouterr().err == "error: refused\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("L", "nan"), ("L", "inf"), ("tol", "-1"), ("max_iter", "0"), ("tol", "nan"),
         ("n", "1048577"), ("n", "1000000000000"), ("n", "1"), ("n", "2"), ("f.a", "-1"),
         ("f.a", "nan"), ("beta", "x"), ("max_iter", "1.5"), ("f.a", "x"), ("f.b", "1"),
         ("variant", "bogus")],
    )
    def test_out_of_range_value_is_usage_error(self, field, value, tmp_path, capsys):
        kept = [line for line in GOOD_CONFIG.splitlines() if not line.startswith(f"{field} =")]
        cfg = write_config(tmp_path, "\n".join(kept + [f"{field} = {value}"]) + "\n")
        out = tmp_path / "out"
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(out)]) == STATUS_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "report.json").exists()

    def test_missing_field_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "beta = 1.5\nk = 0.5\nL = 0.2\nf = sine_mix\n")
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(tmp_path)]) == STATUS_USAGE

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("bogus = 1", id="unknown"),
            pytest.param("= 1", id="empty-name"),
            pytest.param("beta = 1.5", id="duplicate"),
            pytest.param("beta 1.5", id="no-equals"),
        ],
    )
    def test_unknown_field_is_usage_error(self, line, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG + line + "\n")
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(tmp_path)]) == STATUS_USAGE

    def test_unknown_source_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG.replace("sine_mix", "mystery"))
        assert main(["solve-fbvp", "--config", str(cfg), "--out", str(tmp_path)]) == STATUS_USAGE

    def test_missing_source_parameter_named(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG.replace("f.a = 0.2\n", ""))
        with pytest.raises(ConfigError, match="f.a"):
            parse_and_build(cfg)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("beta 1.5\n", "key = value", id="no-equals"),
            pytest.param("= 1\n", "empty field name", id="empty-name"),
            pytest.param("beta = 1.5\nbeta = 2\n", "duplicate field 'beta'", id="duplicate"),
        ],
    )
    def test_malformed_line_rejected(self, text, message, tmp_path):
        cfg = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)


def parse_and_build(path):
    from relfix.cli import build_problem

    return build_problem(parse_config(path))


class TestReportCommand:
    def test_report_replays_pass_state(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["verify-example", "Ex1_7", "--out", str(out)])
        assert main(["report", "--in", str(out)]) == STATUS_OK
        printed = capsys.readouterr().out
        assert "PASS" in printed and "all_pass = True" in printed

    def test_report_fails_on_failed_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text(
            json.dumps(
                {
                    "command": "verify-example",
                    "checks": {"broken": {"pass": False}},
                    "summary": {"all_pass": False, "check_count": 1, "failed": ["broken"]},
                    "advisories": ["sample too coarse"],
                }
            )
        )
        assert main(["report", "--in", str(out)]) == STATUS_CHECK_FAILED
        assert "note  sample too coarse" in capsys.readouterr().out.splitlines()

    def test_missing_report_is_usage_error(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == STATUS_USAGE


def _file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _report_in(directory, data: bytes) -> list[str]:
    _file(directory / "report.json", data)
    return ["report", "--in", str(directory)]


def _out_with_directory_at(directory, name: str) -> list[str]:
    (directory / name).mkdir()
    return ["verify-example", "Ex2_4", "--out", str(directory)]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda d: _report_in(d, b"{not json"), id="report-not-json"),
        pytest.param(lambda d: _report_in(d, b"[1, 2]"), id="report-json-list"),
        pytest.param(lambda d: _report_in(d, b'{"checks": [1]}'), id="report-checks-list"),
        pytest.param(lambda d: _report_in(d, b'{"summary": 3}'), id="report-summary-number"),
        pytest.param(
            lambda d: _report_in(d, b'{"checks": {"a": {"pass": true}, "b": "x"}}'),
            id="report-check-entry-string",
        ),
        pytest.param(lambda d: _report_in(d, b'{"advisories": 5}'), id="report-advisories-number"),
        pytest.param(
            lambda d: _report_in(d, b'{"advisories": "ab"}'), id="report-advisories-string"
        ),
        pytest.param(
            lambda d: _report_in(d, b'{"advisories": ["a", 1]}'), id="report-advisory-number"
        ),
        pytest.param(
            lambda d: _report_in(
                d, b'{"checks": {"a": {"pass": "no"}}, "summary": {"all_pass": "no"}}'
            ),
            id="report-verdict-string",
        ),
        pytest.param(
            lambda d: _report_in(
                d, b'{"checks": {"a": {"pass": false}}, "summary": {"all_pass": 1}}'
            ),
            id="report-all-pass-number",
        ),
        pytest.param(
            lambda d: ["solve-fbvp", "--config", str(d), "--out", str(d / "out")],
            id="config-directory",
        ),
        pytest.param(
            lambda d: ["solve-fbvp", "--config", _file(d / "cfg", b"beta = 1.5\xff\n")],
            id="config-not-utf8",
        ),
        pytest.param(
            lambda d: ["verify-example", "Ex1_7", "--out", _file(d / "taken", b"")],
            id="out-is-a-file",
        ),
        pytest.param(
            lambda d: ["solve-fbvp", "--config", str(write_config(d)),
                       "--out", _file(d / "taken", b"")],
            id="solve-out-is-a-file",
        ),
        pytest.param(
            lambda d: _out_with_directory_at(d, "report.json"), id="report-path-is-a-directory"
        ),
        pytest.param(
            lambda d: _out_with_directory_at(d, "orbit.csv"), id="csv-path-is-a-directory"
        ),
    ],
)
def test_unreadable_input_or_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == STATUS_USAGE
    assert capsys.readouterr().err.startswith("error: ")


class TestCsvWriters:
    """The block table writer against the row-at-a-time ``csv.writer`` form."""

    @pytest.mark.parametrize("n", [1, 255, 256, 600])
    def test_solution_csv_matches_csv_module(self, n, tmp_path):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        values = rng.normal(size=n + 1) * 10.0 ** rng.integers(-300, 300, n + 1)
        values[0] = -0.0
        _write_table(tmp_path / "got.csv", *_solution_table(grid, values))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x"])
            for t, v in zip(grid.nodes, values):
                writer.writerow([repr(float(t)), repr(float(v))])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("steps", [0, 1, 256, 300])
    @pytest.mark.parametrize("grid_points", [False, True])
    def test_orbit_csv_matches_csv_module(self, steps, grid_points, tmp_path):
        rng = np.random.default_rng(steps)
        if grid_points:
            points = tuple(grid_fn(Grid(4), rng.normal(size=5)) for _ in range(steps + 1))
        else:
            points = tuple(scalar(v) for v in rng.normal(size=steps + 1))
        gaps = rng.exponential(size=(3, steps))
        gaps[2, ::7] = np.inf  # bounds are infinite when lambda is not below 1
        trace = OrbitTrace(points, gaps[0], gaps[1], gaps[2], 0.5, StopReason.MAX_ITER)
        _write_table(tmp_path / "got.csv", *_orbit_table(trace))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "point_or_norm", "d_gap", "p_gap", "bound"])
            for n, pt in enumerate(points):
                size = pt.sup_norm if grid_points else pt.value
                if n < steps:
                    writer.writerow(
                        [n, repr(size), repr(float(trace.d_gaps[n])),
                         repr(float(trace.p_gaps[n])), repr(float(trace.bound[n]))]
                    )
                else:
                    writer.writerow([n, repr(size), "", "", ""])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestRerunIntoTheSameOut:
    """A run into an ``--out`` an earlier run wrote overwrites each file in
    place and leaves the bytes a fresh run writes."""

    RUNS = [
        pytest.param(
            lambda cfg: ["solve-fbvp", "--config", cfg(1000)],
            lambda cfg: ["solve-fbvp", "--config", cfg(256)],
            id="solve-n1000-then-n256",
        ),
        pytest.param(
            lambda cfg: ["verify-example", "Ex2_4", "--step", "0.005"],
            lambda cfg: ["verify-example", "Ex2_4"],
            id="verify-Ex2_4-fine-then-default",
        ),
    ]

    @staticmethod
    def _files(out: Path) -> dict:
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("earlier, later", RUNS)
    def test_shorter_rerun_leaves_a_fresh_runs_bytes(self, earlier, later, tmp_path, monkeypatch):
        def cfg(n):
            text = GOOD_CONFIG.replace("n = 32", f"n = {n}")
            return str(write_config(tmp_path, text, f"{n}.cfg"))

        opened = []
        os_open = os.open

        def recorded_open(path, flags, *args, **kwargs):
            opened.append((Path(path).name, flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded_open)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main([*earlier(cfg), "--out", str(reused)]) == STATUS_OK
        before = self._files(reused)
        opened.clear()
        assert main([*later(cfg), "--out", str(reused)]) == STATUS_OK
        assert main([*later(cfg), "--out", str(fresh)]) == STATUS_OK
        after = self._files(reused)
        assert after == self._files(fresh)
        assert after.keys() == before.keys()
        assert all(len(after[name]) <= len(data) for name, data in before.items())
        assert len(after["report.json"]) < len(before["report.json"])  # an old tail cut off
        # every run file goes through os.open, and none is truncated to zero
        assert sorted(name for name, _ in opened) == sorted(2 * list(after))
        assert not any(flags & os.O_TRUNC for _, flags in opened)
