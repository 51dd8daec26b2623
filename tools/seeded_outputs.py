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
  seeds 1, 7 and 913.

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


def run(argv: list[str], cwd: str, prefix: str) -> None:
    """Run the checkout's command line on argv from cwd, and write its
    stdout, stderr and exit code to prefix.stdout, .stderr and .exit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "strata_bounds.cli", *argv],
        cwd=cwd, env=env, capture_output=True, check=False,
    )
    for suffix, content in (("stdout", done.stdout), ("stderr", done.stderr),
                            ("exit", f"{done.returncode}\n".encode())):
        with open(f"{prefix}.{suffix}", "wb") as fh:
            fh.write(content)


def write_estimates(out_dir: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import gen_strata

    est_dir = os.path.join(out_dir, "estimate")
    os.makedirs(est_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS_ESTIMATE:
            path = os.path.join(tmp, f"strata-{seed}.csv")
            gen_strata.write_csv(gen_strata.generate(seed), path)
            for variance in VARIANCES:
                for fmt in FORMATS:
                    run(["estimate", "--input", path, "--estimator", "all",
                         "--variance", variance, "--format", fmt],
                        tmp, os.path.join(est_dir, f"seed{seed}-{variance}.{fmt}"))


def write_simulations(out_dir: str) -> None:
    sim_dir = os.path.join(out_dir, "simulate")
    os.makedirs(sim_dir, exist_ok=True)
    for seed in SEEDS_SIMULATE:
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
