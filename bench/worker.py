"""One fresh interpreter that runs the program for ``run.py``.

``setup`` mode times the set-up alone: importing ``strata_bounds.cli`` and,
with ``--truth``, the cached matched-pairs truth simulation; a host-speed
probe (``host_probe``) follows it. ``run`` mode does the same set-up and
then calls ``strata_bounds.cli.main(argv)`` in rounds, with stdout and
stderr captured, until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds (``MIN_TRACED_ROUNDS`` traced) are done. Untraced, a
host-speed probe runs before every round and after the last. With
``--trace 1`` the rounds alternate untraced and traced, in pairs, with no
probes, and the spans are written to ``--spans``. The result is one JSON
line on stdout.

The program's source is taken from ``src/`` next to this directory; nothing
needs to be installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the first round in a process runs about 10% slower, so a median needs
# at least three; a traced run needs four pairs, the first left out of the
# overhead
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 8
# each probe runs for this share of the last round's time, and at least
# PROBE_MIN_S
PROBE_SHARE = 0.2
PROBE_MIN_S = 0.25


def host_probe(seconds: float) -> float:
    """How fast the host runs at this moment, whatever the program does:
    seconds per step of a fixed piece of work that runs no program code,
    over at least ``seconds``. A step is interpreter loops, a string-keyed
    dict and small numpy calls, as the program's work is."""
    # imported here, after set-up, so that importing numpy stays in setup_s
    import numpy as np

    values = np.linspace(0.0, 1.0, 4096)
    steps, start = 0, time.perf_counter()
    while True:
        total = 0
        for i in range(10_000):
            total += i % 7
        labels = {f"b{i}": i for i in range(2_000)}
        np.sort(np.sin(values + total + len(labels)))
        steps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / steps


def run_round(cli, argv, out_files):
    """One ``cli.main`` call: (seconds, exit code, stdout, stderr, file bytes)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    seconds = time.perf_counter() - start
    blobs = []
    for path in out_files:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return seconds, code, out.getvalue(), err.getvalue(), blobs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--truth", action="store_true")
    parser.add_argument("--argv", default="[]", help="JSON list for cli.main")
    parser.add_argument("--out-files", default="[]",
                        help="JSON list of files each round writes")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import strata_bounds
    import strata_bounds.cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = -1  # spans made during set-up
        tracer.install(strata_bounds)
    if args.truth:
        strata_bounds.simulation.dgp1_truth()
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "probes": [host_probe(PROBE_MIN_S)]}))
        return 0

    cli = strata_bounds.cli
    argv = json.loads(args.argv)
    out_files = json.loads(args.out_files)
    rounds = []  # [seconds, exit code, traced]
    probes = []  # host_probe results, before each round and after the last
    first = None
    identical = True
    begin = time.perf_counter()
    probe_s = PROBE_MIN_S
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is None:
            probes.append(host_probe(probe_s))
        else:
            tracer.op = len(rounds)
            (tracer.enable if traced else tracer.disable)()
        seconds, code, out, err, blobs = run_round(cli, argv, out_files)
        probe_s = max(PROBE_MIN_S, PROBE_SHARE * seconds)
        rounds.append([seconds, code, traced])
        if first is None:
            first = (out, err, blobs)
        elif (out, err, blobs) != first:
            identical = False
        pair_done = tracer is None or len(rounds) % 2 == 0
        least = MIN_ROUNDS if tracer is None else MIN_TRACED_ROUNDS
        if (pair_done and len(rounds) >= least
                and time.perf_counter() - begin >= args.seconds):
            break
    if tracer is None:
        probes.append(host_probe(probe_s))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "probes": probes,
        "identical": identical,
        "stdout": first[0],
        "stderr": first[1],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        tracer.disable()
        result["layers"] = tracer.totals(sum(1 for r in rounds if r[2]))
        result["functions"] = sorted(tracer.names)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
