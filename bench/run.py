"""Benchmark of strata-bounds: one workload per call, metrics as JSON.

Run from the root of a checkout (nothing needs to be installed):

    python3 bench/run.py --workload mc-pairs --seed 1 --seconds 45 --trace 0

The program runs in a fresh interpreter (``worker.py``) that calls
``strata_bounds.cli.main`` in rounds, each round the same command on the
same inputs, until ``--seconds`` have passed. Inputs come from ``--seed``
and are made in this process, so their cost stays out of the program's
peak memory. Set-up is timed in several more fresh interpreters and its
median reported. Every timing is scaled to a reference host speed by a
probe timed next to it (``worker.host_probe``). After the run the outputs
are checked against ``reference`` (see ``checks``). The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
rounds; with ``--trace 1`` they are the per-layer ones, from rounds run
with every public function wrapped in a span (see ``tracer``).
Generated inputs, outputs and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# extra fresh interpreters timed for set-up, before and after the run, so
# that the median spans the run rather than one moment of a drifting machine
SETUP_PROBES = 3
DEADLINE_S = 170  # the whole call ends within 180 s
MC_PAIRS_REPS = 2  # about 0.45 s per replication
MC_PAIRS_N = 10_000
MC_HEAVY_REPS = 20  # about 45 ms per replication
# seconds per worker.host_probe step on the reference machine of the README.
# The host's speed drifts by up to 2x over minutes, so every timing is
# scaled by PROBE_REF_S over the probe time measured next to it: the figures
# read as if the host ran at its reference speed.
PROBE_REF_S = 0.0015
ESTIMATE_ARGS = ["--estimator", "all", "--variance", "design", "--format", "json"]

WORKLOADS = ("mc-pairs", "mc-heavy", "estimate-strata")

# a per-layer "function" that sums several
LAYER_GROUPS = {
    "simulation.writers": ("simulation.write_replications_csv",
                           "simulation.write_summary_csv"),
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def prepare(workload: str, seed: int, out_dir: str) -> dict:
    """The command each round runs, and what a round is worth."""
    if workload == "estimate-strata":
        import gen_strata

        arrays = gen_strata.generate(seed)
        path = os.path.join(out_dir, "strata.csv")
        gen_strata.write_csv(arrays, path)
        return dict(argv=["estimate", "--input", path, *ESTIMATE_ARGS],
                    out_files=[], units=int(arrays["y"].size), ops=3,
                    arrays=arrays)
    mc_out = os.path.join(out_dir, "mc")
    if workload == "mc-pairs":
        reps, n = MC_PAIRS_REPS, MC_PAIRS_N
        argv = ["simulate", "--dgp", "1", "--n", str(n),
                "--estimator", "lee:iid", "--estimator", "lee:design"]
    else:
        reps, n = MC_HEAVY_REPS, 2000
        argv = ["simulate", "--dgp", "2"]
    argv += ["--reps", str(reps), "--seed", str(seed), "--out", mc_out]
    return dict(argv=argv, units=reps * n, ops=reps * 2, reps=reps, n=n,
                out_files=[os.path.join(mc_out, "replications.csv"),
                           os.path.join(mc_out, "summary.csv")])


def worker(mode: str, timeout: float, *extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STRATA_BOUNDS_THREADS"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(began: float, truth: list[str]) -> list[dict]:
    """Results of SETUP_PROBES fresh interpreters that only set up."""
    return [worker("setup", DEADLINE_S - (time.monotonic() - began), *truth)
            for _ in range(SETUP_PROBES)]


def setup_seconds(results: list[dict]) -> tuple[float, float]:
    """Median set-up seconds, scaled by the probe after each set-up, and
    unscaled."""
    return (statistics.median(r["setup_s"] * PROBE_REF_S / r["probes"][0]
                              for r in results),
            statistics.median(r["setup_s"] for r in results))


def check(workload: str, seed: int, job: dict, result: dict) -> tuple[list[str], int]:
    """Problems found in the first round's output, and failed ops per round."""
    import checks

    if workload == "estimate-strata":
        problems, failures = checks.check_estimate(job["arrays"],
                                                   result["stdout"])
        for failure in failures:
            print(f"bench: failed operation: {failure}", file=sys.stderr)
        return problems, len(failures)
    with open(job["out_files"][0], encoding="utf-8") as fh:
        rows = checks.read_replications(fh.read())
    if workload == "mc-pairs":
        problems = checks.check_mc_pairs(seed, job["reps"], job["n"],
                                         result["stdout"], rows)
    else:
        problems = checks.check_mc_heavy(seed, job["reps"], rows)
    return problems, checks.failed_rows(rows)


def layer_names() -> list[str]:
    """The per-layer metrics "<module>.<function>.<self_s|calls>" of
    BENCHMARK.json, without trace.overhead_s."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return [n for n in names if n != "trace.overhead_s"]


def layer_metrics(result: dict) -> dict:
    layers, present = result["layers"], set(result["functions"])
    metrics = {}
    for name in layer_names():
        function, field = name.rsplit(".", 1)
        functions = LAYER_GROUPS.get(function, (function,))
        if not present.issuperset(functions):
            continue  # the code no longer has this function
        value = sum(layers.get(f, {}).get(field, 0) for f in functions)
        metrics[name] = {"value": value, "unit": "s" if field == "self_s" else "count"}
    # rounds come in pairs, untraced then traced; the first pair is left out
    # because the first round in a process is slower. Averaged over the pairs,
    # the round-to-round noise of single differences partly cancels.
    seconds = [r[0] for r in result["rounds"]]
    pairs = list(zip(seconds[::2], seconds[1::2]))[1:]
    overhead = sum(b - a for a, b in pairs) / len(pairs)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def units_per_s(units: int, result: dict) -> tuple[float, float]:
    """Median units per second over the rounds, with each round's time
    scaled by the mean of the probes before and after it, and unscaled."""
    rounds, probes = result["rounds"], result["probes"]
    scaled = [units * (before + after) / (2 * PROBE_REF_S * r[0])
              for r, before, after in zip(rounds, probes, probes[1:])]
    return (statistics.median(scaled),
            statistics.median(units / r[0] for r in rounds))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "strata_bounds", "cli.py")):
        return fail(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    job = prepare(args.workload, args.seed, out_dir)
    truth = ["--truth"] if args.workload == "mc-pairs" else []
    try:
        setups = []
        if not args.trace:
            setups += probe_setup(began, truth)
        result = worker(
            "run", DEADLINE_S - (time.monotonic() - began), *truth,
            "--argv", json.dumps(job["argv"]),
            "--out-files", json.dumps(job["out_files"]),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", os.path.join(out_dir, "spans.jsonl"),
        )
        if not args.trace:
            setups += probe_setup(began, truth)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    rounds = result["rounds"]
    codes = [r[1] for r in rounds]
    problems, failed_per_round = [], 0
    if codes[0] == 0:
        try:
            problems, failed_per_round = check(args.workload, args.seed, job,
                                               result)
        except (KeyError, ValueError, StopIteration) as exc:
            problems = [f"unreadable output: {exc!r}"]
    else:
        problems.append(f"first round exited {codes[0]}; output not checked")
    if not result["identical"]:
        problems.append("rounds of the same command gave different output")
    attempted = job["ops"] * len(rounds)
    failed = sum(job["ops"] if c != 0 else failed_per_round for c in codes)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(result)
    else:
        setups.append(result)
        setup_s, setup_wall = setup_seconds(setups)
        rate, rate_wall = units_per_s(job["units"], result)
        probe = statistics.median(result["probes"])
        print(f"bench: unscaled setup_s {setup_wall:.4f}, units_per_s "
              f"{rate_wall:.1f}; probe median {probe:.6f} s, "
              f"reference {PROBE_REF_S} s", file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "units_per_s": {"value": rate, "unit": "units/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
