"""Write the output files of a fixed set of relfix runs, to compare two checkouts.

Usage::

    PYTHONPATH=src python3 tools/snapshot_outputs.py OUT

Each case runs through ``relfix.cli.main`` in this process, with ``relfix``
imported from ``PYTHONPATH``, and writes its files under ``OUT/<case>/``; a
``solve-fbvp`` case also keeps its config there as ``problem.cfg``.
``OUT/status.json`` maps each case to its exit status.  Two trees made from
two checkouts compare with ``diff -r``: a change that keeps every output
leaves no difference.  ``OUT`` must be empty or a tree an earlier sweep
wrote; a sweep into such a tree overwrites its files in place, as a rerun
into the same ``--out`` does.

The cases: the five fixtures at their default step and at 2x and 4x finer
steps; two steps too coarse for their battery; ``solve-fbvp`` over three
orders, both operator variants, the three sources and two grid sizes; one
solve that diverges and one stopped by ``max_iter``.
"""

import json
import sys
from pathlib import Path

from relfix.cli import main
from relfix.fixtures import FIXTURES

# The parameter each source takes.
SOURCES = {"constant": "c", "sine_mix": "a", "affine": "a"}


def _solve_config(beta, variant, source, n, L=0.2, scale=0.2, max_iter=500) -> str:
    return (
        f"beta = {beta}\nk = 0.33\nL = {L}\nf = {source}\nf.{SOURCES[source]} = {scale}\n"
        f"n = {n}\ntol = 1e-10\nmax_iter = {max_iter}\nvariant = {variant}\n"
    )


def cases():
    """(case name, arguments before ``--config`` and ``--out``, config text or None)."""
    for example_id in sorted(FIXTURES):
        step = FIXTURES[example_id]().default_step
        for refine in (1, 2, 4):
            argv = ["verify-example", example_id, "--step", repr(step / refine)]
            yield f"verify-{example_id}-{refine}x", argv, None
    yield "verify-Ex1_7-step2", ["verify-example", "Ex1_7", "--step", "2"], None
    yield "verify-Ex2_3-step3", ["verify-example", "Ex2_3", "--step", "3"], None
    for beta in (1.2, 1.5, 2.0):
        for variant in ("paper_exact", "green_corrected"):
            for source in SOURCES:
                for n in (256, 1000):
                    name = f"solve-b{beta}-{variant}-{source}-n{n}"
                    yield name, ["solve-fbvp"], _solve_config(beta, variant, source, n)
    diverging = _solve_config(1.5, "paper_exact", "affine", 64, L=40, scale=40)
    yield "solve-diverging", ["solve-fbvp"], diverging
    stopped = _solve_config(1.5, "paper_exact", "sine_mix", 256, max_iter=2)
    yield "solve-max_iter2", ["solve-fbvp"], stopped


def snapshot(out: Path) -> None:
    """Run every case into ``out`` and record each exit status in ``status.json``."""
    status = {}
    for name, argv, config in cases():
        case_dir = out / name
        if config is not None:
            case_dir.mkdir(parents=True, exist_ok=True)
            (case_dir / "problem.cfg").write_text(config)
            argv = [*argv, "--config", str(case_dir / "problem.cfg")]
        status[name] = main([*argv, "--out", str(case_dir)])
    (out / "status.json").write_text(json.dumps(status, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: snapshot_outputs.py OUT")
    out = Path(sys.argv[1])
    if out.exists() and any(out.iterdir()) and not (out / "status.json").exists():
        sys.exit(f"{out} is neither empty nor an earlier sweep")
    snapshot(out)
