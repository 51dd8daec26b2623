"""Write the seeded output set of this checkout into a directory.

    python3 tools/seeded_outputs.py OUTDIR

Runs the command line of the checkout the script sits in (its ``src``), in
fresh interpreters, and writes under OUTDIR:

- ``estimate/seed{S}-{variance}.{format}.{stdout,stderr,exit}``: the 24
  runs of ``estimate --estimator all`` on the seed 1-3 CSVs of
  ``bench/gen_strata.py``, with ``--variance`` design, iid, label and none
  and ``--format`` json and csv;
- ``simulate/dgp1-seed{S}/`` and ``simulate/dgp2-seed{S}/``: stdout,
  stderr, exit code, ``replications.csv`` and ``summary.csv`` of
  ``simulate --dgp 1 --n 2000 --reps 20`` with ``lee:iid lee:design
  lee-ipw:design lee-ipw:iid``, and of ``simulate --dgp 2 --reps 10``, on
  seeds 1, 7 and 913;
- ``hex/seed{S}.hex`` and ``hex/dgp1-seed{S}.hex``: from one more fresh
  interpreter per input, the floats of ``variance.estimate_bounds`` as
  ``float.hex`` values, on each seed 1-3 CSV and on
  ``simulate_dgp1(child_seed(S, 0), 2000)`` for seeds 1, 7 and 913. For
  ``lee`` and ``lee-ipw`` with the methods iid, design and label: the point
  bounds, trimmed means, share and cutoffs, and per method ``se_lb``,
  ``se_ub`` and the entries of ``v_hat_lb`` and ``v_hat_ub``, or the
  error's class and message; for ``conditional-lee``: its bounds and a
  SHA-256 of the bytes of its ``detail`` arrays. The command line rounds
  its floats to 12 significant digits; these files show every bit.

Nothing in the set names OUTDIR or the checkout, so ``diff -r`` between the
sets of two checkouts shows every byte that differs. The input CSVs go to a
temporary directory and are removed afterwards; ``bench/`` is only read.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS_ESTIMATE = (1, 2, 3)
VARIANCES = ("design", "iid", "label", "none")
FORMATS = ("json", "csv")
SEEDS_SIMULATE = (1, 7, 913)
DGP1_PANEL = ("lee:iid", "lee:design", "lee-ipw:design", "lee-ipw:iid")

# run as `python3 -c HEX_PROGRAM csv PATH` or `... dgp1 SEED`; prints one
# line per record, each float as float.hex
HEX_PROGRAM = """
import hashlib
import sys

import numpy as np

from strata_bounds import EstimationError, block_design, parse_csv
from strata_bounds.simulation import child_seed, simulate_dgp1
from strata_bounds.variance import estimate_bounds

source, arg = sys.argv[1:]
if source == "csv":
    data = parse_csv(arg)
else:
    data = simulate_dgp1(child_seed(int(arg), 0), 2000)
design = block_design(data)


def out(*fields):
    print(*(f.hex() if isinstance(f, float) else str(f) for f in fields))


def point(name, est):
    out(name, "estimate", est.delta_lb, est.delta_ub, est.mu0, est.mu1_lb,
        est.mu1_ub, est.q, est.cutoff_lb, est.cutoff_ub)


for name in ("lee", "lee-ipw"):
    try:
        est, reports = estimate_bounds(
            data, design, name, ("iid", "design", "label"))
    except EstimationError as exc:
        out(name, "error", type(exc).__name__, exc)
        continue
    point(name, est)
    for method, report in reports.items():
        if isinstance(report, EstimationError):
            out(name, method, "error", type(report).__name__, report)
            continue
        out(name, method, "se", report.se_lb, report.se_ub)
        for side in ("lb", "ub"):
            v_hat = getattr(report, "v_hat_" + side)
            out(name, method, "v_hat_" + side, *map(float, v_hat.ravel()))
try:
    est, _ = estimate_bounds(data, design, "conditional-lee")
except EstimationError as exc:
    out("conditional-lee", "error", type(exc).__name__, exc)
else:
    point("conditional-lee", est)
    digest = hashlib.sha256()
    for field in ("tau", "clamped", "mu0", "mu1_lb", "mu1_ub", "used"):
        digest.update(np.ascontiguousarray(getattr(est.detail, field)).tobytes())
    out("conditional-lee", "detail", digest.hexdigest())
"""


def _python(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, importing the checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        check=False,
    )


def run(argv: list[str], cwd: str, prefix: str) -> None:
    """Run the checkout's command line on argv from cwd, and write its
    stdout, stderr and exit code to prefix.stdout, .stderr and .exit."""
    done = _python(["-m", "strata_bounds.cli", *argv], cwd)
    for suffix, content in (("stdout", done.stdout), ("stderr", done.stderr),
                            ("exit", f"{done.returncode}\n".encode())):
        with open(f"{prefix}.{suffix}", "wb") as fh:
            fh.write(content)


def write_hex(source: str, arg: str, cwd: str, path: str) -> None:
    """Write HEX_PROGRAM's lines on one input to path, with its stderr and a
    last line holding its exit code."""
    done = _python(["-c", HEX_PROGRAM, source, arg], cwd)
    with open(path, "wb") as fh:
        fh.write(done.stdout + done.stderr + f"exit {done.returncode}\n".encode())


def write_estimates(out_dir: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import gen_strata

    est_dir = os.path.join(out_dir, "estimate")
    hex_dir = os.path.join(out_dir, "hex")
    os.makedirs(est_dir, exist_ok=True)
    os.makedirs(hex_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS_ESTIMATE:
            path = os.path.join(tmp, f"strata-{seed}.csv")
            gen_strata.write_csv(gen_strata.generate(seed), path)
            write_hex("csv", path, tmp, os.path.join(hex_dir, f"seed{seed}.hex"))
            for variance in VARIANCES:
                for fmt in FORMATS:
                    run(["estimate", "--input", path, "--estimator", "all",
                         "--variance", variance, "--format", fmt],
                        tmp, os.path.join(est_dir, f"seed{seed}-{variance}.{fmt}"))


def write_simulations(out_dir: str) -> None:
    sim_dir = os.path.join(out_dir, "simulate")
    os.makedirs(sim_dir, exist_ok=True)
    for seed in SEEDS_SIMULATE:
        write_hex("dgp1", str(seed), sim_dir,
                  os.path.join(out_dir, "hex", f"dgp1-seed{seed}.hex"))
        for dgp, extra in (
            ("1", ["--n", "2000", "--reps", "20",
                   *(arg for token in DGP1_PANEL for arg in ("--estimator", token))]),
            ("2", ["--reps", "10"]),
        ):
            name = f"dgp{dgp}-seed{seed}"
            os.makedirs(os.path.join(sim_dir, name), exist_ok=True)
            # a relative --out, so the "wrote" lines do not name out_dir
            run(["simulate", "--dgp", dgp, "--seed", str(seed), "--out", name,
                 *extra], sim_dir, os.path.join(sim_dir, name, "run"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/seeded_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out_dir = os.path.abspath(argv[0])
    write_estimates(out_dir)
    write_simulations(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
