"""Quick self-test of the benchmark: every workload once at tiny sizes.

    python3 bench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and asserts
that the run is correct with no failed operation, that it reports exactly
the metrics BENCHMARK.json names, and that it reported every correctness
check listed below.  It also asserts the zeros the traced metrics must show,
that every workload BENCHMARK.json gates is one of these four, and that the
benchmark refuses to run where the relfix sources are missing.
Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _verify_checks() -> set:
    names = {"reports_byte_identical"}
    labels = [f"{ex}@default" for ex in ("Ex1_7", "Ex1_13", "Ex1_14", "Ex2_3", "Ex2_4")]
    labels += [f"{ex}@fine" for ex in ("Ex1_13", "Ex1_14", "Ex2_3")]
    for label in labels:
        names |= {f"{label}.exit_ok", f"{label}.all_pass"}
        if label.startswith("Ex2_3"):
            names |= {f"{label}.lambda_matches_bruteforce", f"{label}.orbit_ends_at_2"}
        if label.startswith("Ex2_4"):
            names |= {f"{label}.lambda_matches_bruteforce", f"{label}.lambda_is_0.75",
                      f"{label}.orbit_ends_at_0"}
    return names


def _axiom_checks() -> set:
    names = {"squared.triangle_violations_match", "squared.w3_holds"}
    for p in ("abs_sum", "second_coordinate", "metric"):
        names |= {f"{p}.triangle_holds", f"{p}.w3_holds"}
    return names


def _ladder_checks(ladder=(32, 64, 128, 256)) -> set:
    names = {f"n{n}.{c}" for n in ladder for c in ("exit_ok", "all_pass", "x0_zero", "nonnegative")}
    return names | {f"order_{a}_{b}_{c}" for a, b, c in zip(ladder, ladder[1:], ladder[2:])}


def _sweep_checks() -> set:
    names = set()
    for source in ("affine", "sine_mix", "constant"):
        for variant in ("paper_exact", "green_corrected"):
            for band in range(4):
                label = f"{source}.{variant}.L{band}"
                names |= {f"{label}.converged", f"{label}.certified", f"{label}.gap_ratios"}
                if source == "constant":
                    names.add(f"{label}.closed_form")
    return names


EXPECTED_CHECKS = {
    "verify_fixtures": _verify_checks(),
    "wdistance_axioms": _axiom_checks(),
    "fbvp_refine_cold": _ladder_checks(),
    "fbvp_sweep_warm": _sweep_checks(),
}

# Layers a workload must not reach, by metric-name prefix.
MUST_READ_ZERO = {
    "verify_fixtures": ("fractional.",),
    "wdistance_axioms": ("fractional.", "relations.", "verify."),
    "fbvp_refine_cold": ("relations.", "verify."),
    "fbvp_sweep_warm": ("relations.", "verify.", "cli."),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert set(gated) <= set(EXPECTED_CHECKS), gated
    metric_names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            proc = run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            *_, detail_line, result_line = proc.stdout.strip().splitlines()
            detail, result = json.loads(detail_line), json.loads(result_line)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True, detail
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            assert list(result["metrics"]) == metric_names[trace], list(result["metrics"])
            assert set(detail["checks"]) == EXPECTED_CHECKS[workload], (
                set(detail["checks"]) ^ EXPECTED_CHECKS[workload]
            )
            assert not detail["checks_failed"] and not detail["checks_missing"], detail
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                assert all(v > 0 for v in values.values()), values
            else:
                for prefix in MUST_READ_ZERO[workload]:
                    nonzero = {k: v for k, v in values.items() if k.startswith(prefix) and v}
                    assert not nonzero, (workload, nonzero)
            print(f"ok  {workload} trace={trace}  {len(detail['checks'])} checks")

    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(gated[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the relfix sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
