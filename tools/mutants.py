"""Run the tier-1 suite against one-line mutants of the verdict-deciding code.

Usage::

    python3 tools/mutants.py [--test TEST]

Each row of ``MUTANTS`` names a file, an exact text that occurs in it once,
the text that replaces it and why the change must break a test.  For each
row the checkout is copied, without ``.git`` and ``bench/_out``, to a
temporary directory; ``pyproject.toml`` puts the copy's ``src`` first on
``sys.path``, so its tests import the mutated package.  The tier-1 command
then runs in the copy with ``-x`` and no cache, or only ``TEST`` (a test file
or node id) with ``--test``, and the row is killed when a test fails.  The
full run leaves out ``tests/test_mutants.py``, which runs this tool on
the copy itself.  The table is printed as Markdown; the exit status is 1
when a row survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


class Outcome(NamedTuple):
    mutant: Mutant
    killed: bool
    first_failure: str | None


ENGINE, VERIFY = "src/relfix/engine.py", "src/relfix/verify.py"
RELATIONS, WDIST = "src/relfix/relations.py", "src/relfix/wdistance.py"
FRACTIONAL, CLI = "src/relfix/fractional.py", "src/relfix/cli.py"
SPACES = "src/relfix/spaces.py"

MUTANTS = (
    Mutant(ENGINE, "bound[rows, None] + CAUCHY_SLACK", "bound[rows, None] + 1e-3",
           "a Cauchy slack 10^7 times the stated 1e-10 certifies a corrupted orbit"),
    Mutant(ENGINE, "point_distance(y, z) <= u[-1] + v[-1] + SEPARATION_SLACK",
           "point_distance(y, z) <= 2.0 * (u[-1] + v[-1]) + SEPARATION_SLACK",
           "the limit lemma bounds d(y, z) by u + v, not twice that"),
    Mutant(ENGINE, "PROBE_STEPS = 25", "PROBE_STEPS = 3",
           "three steps of decay do not show that a related z converges"),
    Mutant(ENGINE, "CANDIDATE_SEPARATION = 1e-8", "CANDIDATE_SEPARATION = 1e-3",
           "candidates 1e-5 apart are two fixed points, not one"),
    Mutant(RELATIONS, "TAIL_FRACTION = 0.25", "TAIL_FRACTION = 0.5",
           "the tail window is the last quarter of a sequence"),
    Mutant(WDIST, "LSC_SLACK = 1e-9", "LSC_SLACK = 1e-6",
           "a tail dip of 2e-9 below p(anchor, limit) breaks lower semi-continuity"),
    Mutant(WDIST, "rhs += TRIANGLE_SLACK", "rhs -= TRIANGLE_SLACK",
           "the slack forgives rounding; subtracted, it flags exact equalities"),
    Mutant(WDIST, "tail_min >= at_limit - LSC_SLACK", "tail_min >= at_limit + LSC_SLACK",
           "a tail that reaches p(anchor, limit) satisfies the axiom"),
    Mutant(FRACTIONAL, "g2 = gamma_fn(beta + 2.0)", "g2 = gamma_fn(beta + 1.0)",
           "lambda_tight's boundary term divides by Gamma(beta + 2)"),
    Mutant(VERIFY, "self.lambda_hat < 1.0", "self.lambda_hat <= 1.0",
           "a worst ratio of 1 is no contraction"),
    Mutant(FRACTIONAL, "main -= right * fv[0]", "main -= 0.0 * right * fv[0]",
           "node 0 carries half a hat, so the lag kernel overweights it without the correction"),
    Mutant(ENGINE, "GAP_LIMIT = 1e8", "GAP_LIMIT = 1e16",
           "a gap beyond 1e8 is divergence"),
    Mutant(RELATIONS, "return not self.witnesses", "return bool(self.witnesses)",
           "a report holds exactly when it has no witness"),
    Mutant(RELATIONS, "Verdict.HOLDS_ON_SAMPLE if self.ok else Verdict.FAILS_WITH_WITNESS",
           "Verdict.FAILS_WITH_WITNESS if self.ok else Verdict.HOLDS_ON_SAMPLE",
           "a report with no witness reads holds_on_sample"),
    Mutant(ENGINE, "return not self.violations", "return bool(self.violations)",
           "a Cauchy check holds exactly when no pair violates its bound"),
    Mutant(VERIFY, "if all(verdicts):", "if any(verdicts):",
           "the theorem needs all five hypotheses"),
    Mutant(ENGINE, 'PreconditionError, 0.0, 1.0, "[)")', 'PreconditionError, 0.0, 1.0, "[]")',
           "at lambda = 1 every Cauchy bound is infinite, so nothing is certified"),
    Mutant(CLI, "for key in sorted(o):", "for key in o:",
           "report.json is json.dumps with sort_keys, so its keys are sorted"),
    Mutant(ENGINE, "index[np.sort(first)]", "index[first]",
           "ancestors are tried in sample order, not in order of their bits"),
    Mutant(VERIFY, "banach += int(np.count_nonzero(banach_block))",
           "banach = int(np.count_nonzero(banach_block))",
           "the classical failure count sums every row block, not the last one"),
    Mutant(ENGINE, "if any(gap > lam**n", "if moving and any(gap > lam**n",
           "an orbit stopped at a fixed point must meet every bound left, to step PROBE_STEPS"),
    Mutant(CLI, "bound = contraction + 0.02", "bound = contraction + 0.5",
           "a gap ratio 0.03 above L * lambda_tight is past the 0.02 allowance"),
    Mutant(CLI, "abs(report.lambda_hat - fx.lambda_hint) <= 1e-12",
           "abs(report.lambda_hat - fx.lambda_hint) <= 1e-3",
           "Ex2_4's lambda-hat equals the analytic 0.75; 2e-12 off it is another constant"),
    Mutant(CLI, "residual <= 1e-9", "residual <= 1e-3",
           "an orbit whose final point T moves by 2e-9 has not converged"),
    Mutant(CLI, "image_gap >= 0.5", "image_gap >= 0.0",
           "Ex1_13's value function jumps by at least 1/2 across the limit"),
    Mutant(CLI, "slack <= 1e-12", "slack <= 1e-6",
           "a p-gap 2e-12 above lambda times the one before breaks the chaining"),
    Mutant(ENGINE, "index[rows, None] < index[None, :]", "index[rows, None] <= index[None, :]",
           "the theorem bounds p(x_n, x_m) for m > n only; p(x_n, x_n) may exceed u_n"),
    Mutant(VERIFY, "k // m + rows.start", "k // m",
           "a row block's flat positions index the sample from the block's first row"),
    Mutant(SPACES, "i.append(r + rows.start)", "i.append(r)",
           "a row block's pairs index the sample from the block's first row"),
    Mutant(FRACTIONAL, "main[0] = 0.0", "main[0] += 0.0",
           "the integral over [0, 0] is zero, whatever the lag kernel's correction leaves there"),
    Mutant(FRACTIONAL, "out /= 2.0 + k * k", "out /= 2.0 + k",
           "the coupling ramp is 2t / (2 + k^2)"),
    Mutant(WDIST, "bad = (near @ far > 0.0) & (near > 0.0)", "bad = near @ far > 0.0",
           "a separation witness z is near x as well as near some y far from x"),
    Mutant(VERIFY, "image[same] = -math.inf", "image[same] *= 1.0",
           "the off-diagonal estimate leaves out pairs of a point with itself"),
)


def _skip(directory: str, names: list[str]) -> set[str]:
    """What the copy leaves out: git metadata, bench output and caches."""
    skip = {"__pycache__", ".pytest_cache", ".hypothesis"} & set(names)
    here = Path(directory).resolve()
    if here == ROOT:
        skip |= {".git"} & set(names)
    if here == ROOT / "bench":
        skip |= {"_out"} & set(names)
    return skip


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                return line[len(prefix):].split(" - ", 1)[0].strip()
    return None


def run(mutant: Mutant, test: str | None = None) -> Outcome:
    """Apply ``mutant`` to a copy of the checkout and run the tier-1 suite,
    or only the test file or node id ``test``, there."""
    with tempfile.TemporaryDirectory(prefix="relfix-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_skip)
        path = copy / mutant.file
        text = path.read_text()
        matches = text.count(mutant.old)
        if matches != 1:
            raise ValueError(f"{mutant.file}: {matches} matches of {mutant.old!r}, expected 1")
        path.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE",
                   "--continue-on-collection-errors"]
        command += [test] if test else ["--ignore=tests/test_mutants.py"]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=900)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}"
                           f"{done.stderr[-2000:]}")
    return Outcome(mutant, done.returncode == 1, _first_failure(done.stdout))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--test", help="run only this test file or node id")
    args = parser.parse_args(argv)
    print("| row | file | old → new | result | first failing test |")
    print("|---|---|---|---|---|")
    survived = 0
    for row, mutant in enumerate(MUTANTS, 1):
        outcome = run(mutant, args.test)
        survived += not outcome.killed
        m = outcome.mutant
        result = "killed" if outcome.killed else "survived"
        print(f"| {row} | `{Path(m.file).name}` | `{m.old}` → `{m.new}` | {result} "
              f"| {outcome.first_failure or '—'} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
