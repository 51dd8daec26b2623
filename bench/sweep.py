"""One-off scaling sweep: reference figures, not a workload.

Runs ``estimate-strata`` inputs of 2 500, 5 000 and 10 000 strata and
``mc-pairs`` at n = 10^3 and 10^4, each untraced for the round time and then
traced for the layers that grow with the number of strata. Run from the
root of a checkout:

    python3 bench/sweep.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics

import gen_strata
from run import ESTIMATE_ARGS, ROOT, worker

LAYERS = ("variance.pair_blocks", "lee_estimator.conditional_lee_bounds",
          "data_model.parse_csv", "data_model.block_design",
          "data_model.dataset_from_arrays", "variance.meat_design")


def measure(argv: list[str], truth: bool, seconds: float) -> dict:
    extra = (["--truth"] if truth else []) + ["--argv", json.dumps(argv)]
    plain = worker("run", 170, *extra, "--seconds", str(seconds))
    traced = worker("run", 170, *extra, "--seconds", "0", "--trace", "1")
    return {
        "round_s": statistics.median(r[0] for r in plain["rounds"]),
        "peak_rss_mb": plain["peak_rss_mb"],
        **{f"{name}.self_s": traced["layers"].get(name, {}).get("self_s", 0.0)
           for name in LAYERS},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    out_dir = os.path.join(ROOT, ".bench_out", "sweep")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    for n_strata in (2500, 5000, 10_000):
        arrays = gen_strata.generate(args.seed, n_strata)
        path = os.path.join(out_dir, f"strata-{n_strata}.csv")
        gen_strata.write_csv(arrays, path)
        row = measure(["estimate", "--input", path, *ESTIMATE_ARGS], False, 0)
        rows = int(arrays["y"].size)
        print(json.dumps({"workload": "estimate-strata", "strata": n_strata,
                          "rows": rows, "units_per_s": rows / row["round_s"],
                          **row}), flush=True)
    for n in (1000, 10_000):
        argv = ["simulate", "--dgp", "1", "--n", str(n), "--reps", "2",
                "--estimator", "lee:iid", "--estimator", "lee:design",
                "--seed", str(args.seed), "--out", os.path.join(out_dir, "mc")]
        row = measure(argv, True, 5)
        print(json.dumps({"workload": "mc-pairs", "n": n,
                          "units_per_s": 2 * n / row["round_s"], **row}),
              flush=True)


if __name__ == "__main__":
    main()
