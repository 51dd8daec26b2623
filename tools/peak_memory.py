"""Peak resident memory of the command line as the input grows.

    python3 tools/peak_memory.py

Runs the command line of the checkout the script sits in (its ``src``), each
run in a fresh interpreter, and prints one JSON line with every run's peak
resident set size, as the kernel reports it for that process (``ru_maxrss``
from ``os.wait4``):

- ``estimate --estimator all --variance design`` on ``bench/gen_strata.py``
  CSVs (seed 1) of 10^4, 4 * 10^4 and 1.6 * 10^5 strata;
- ``simulate --dgp 1 --reps 2 --seed 1`` at n = 10^4 and 10^5.

``baseline_mb`` is the peak of an interpreter that only imports the command
line. Each run gives ``peak_rss_mb`` (MiB, as ``bench/run.py`` reports it)
and ``bytes_per_row``: its peak less the baseline, per CSV row for
``estimate`` and per unit of one replication for ``simulate``. Inputs and
outputs go to a temporary directory, removed afterwards; ``bench/`` is only
read.

This process imports no numpy and makes no input itself: a child that
starts from it reports a peak of at least this process's size, since
Linux carries the pre-exec memory into ``ru_maxrss``, so the CSVs are
written by fresh interpreters too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
STRATA = (10_000, 40_000, 160_000)
SIMULATE_N = (10_000, 100_000)
SIMULATE_REPS = 2


def peak_kb(argv: list[str], cwd: str) -> int:
    """Run the checkout's Python with argv from cwd, output discarded, and
    return its peak resident set size in KiB; a failed run raises."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.decode()}")
    return usage.ru_maxrss


def record(kb: int, rows: int, baseline_kb: int, **fields) -> dict:
    return {
        **fields,
        "rows": rows,
        "peak_rss_mb": round(kb / 1024.0, 2),
        "bytes_per_row": round((kb - baseline_kb) * 1024.0 / rows, 1),
    }


# writes the bench/gen_strata.py CSV of argv[1] strata to argv[2]
WRITE_STRATA = f"""
import sys
sys.path.insert(0, {os.path.join(ROOT, "bench")!r})
import gen_strata
gen_strata.write_csv(gen_strata.generate({SEED}, int(sys.argv[1])), sys.argv[2])
"""


def main() -> int:
    cli = ["-m", "strata_bounds.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        baseline_kb = peak_kb(["-c", "import strata_bounds.cli"], tmp)
        estimate = []
        for strata in STRATA:
            path = os.path.join(tmp, f"strata-{strata}.csv")
            peak_kb(["-c", WRITE_STRATA, str(strata), path], tmp)
            kb = peak_kb(
                [*cli, "estimate", "--input", path, "--estimator", "all",
                 "--variance", "design", "--format", "json"], tmp,
            )
            with open(path, "rb") as fh:
                rows = sum(1 for _ in fh) - 1  # less the header
            os.remove(path)
            estimate.append(record(kb, rows, baseline_kb, strata=strata))
        simulate = []
        for n in SIMULATE_N:
            kb = peak_kb(
                [*cli, "simulate", "--dgp", "1", "--n", str(n), "--reps",
                 str(SIMULATE_REPS), "--seed", str(SEED), "--out", f"sim-{n}"],
                tmp,
            )
            simulate.append(record(kb, n, baseline_kb, n=n, reps=SIMULATE_REPS))
    print(json.dumps({
        "baseline_mb": round(baseline_kb / 1024.0, 2),
        "estimate": estimate,
        "simulate": simulate,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
