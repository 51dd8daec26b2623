"""What the benchmark in bench/ and the seeded-output tool read of the
package.

A traced run reports a per-layer metric only for a function its tracer
finds, and leaves a metric out, without failing, when the function is gone.
So every function BENCHMARK.json names must stay a public module-level
function of the module it names, and what bench/checks.py reads must stay.
tools/seeded_outputs.py, which compares two checkouts' outputs bit for bit,
reads estimate_bounds' reports field by field, so its program must still
run. bench/ and tools/ are imported by file path and only read.
"""

import importlib
import importlib.util
import os
import pkgutil

import strata_bounds
from strata_bounds import Dataset, dataset_from_arrays

from conftest import run_fresh_interpreter

ROOT = os.path.dirname(os.path.dirname(__file__))
BENCH = os.path.join(ROOT, "bench")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_module(name):
    return _load(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))


def test_every_per_layer_function_is_one_the_tracer_finds():
    tracer, run = _bench_module("tracer"), _bench_module("run")
    modules = [strata_bounds] + [
        importlib.import_module(f"strata_bounds.{info.name}")
        for info in pkgutil.iter_modules(strata_bounds.__path__)
    ]
    # named as Tracer.install names them: "<defining module>.<function>"
    traced = {
        f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for module in modules
        for _, fn in tracer._public_functions(module, strata_bounds.__name__)
    }
    wanted = set()
    for name in run.layer_names():
        function = name.rsplit(".", 1)[0]
        wanted.update(run.LAYER_GROUPS.get(function, (function,)))
    assert wanted, "BENCHMARK.json names no per-layer function"
    assert sorted(wanted - traced) == []


def test_what_the_output_checks_read_stays():
    for name in ("child_seed", "simulate_dgp1", "simulate_dgp2"):
        assert callable(getattr(strata_bounds, name)), name
    assert isinstance(Dataset.blocks, property)
    data = dataset_from_arrays([1.0, 2.0], [1, 1], [1, 0], ["a", "a"])
    assert data.blocks == ("a", "a")


def test_the_seeded_output_program_runs():
    tool = _load("seeded_outputs", os.path.join(ROOT, "tools", "seeded_outputs.py"))
    # as `python3 -c HEX_PROGRAM dgp1 1` runs it; a failure raises here
    out = run_fresh_interpreter(
        "import sys\nsys.argv[1:] = ['dgp1', '1']\n" + tool.HEX_PROGRAM
    )
    records = [line.split()[:2] for line in out.splitlines()]
    for name in ("lee", "lee-ipw", "conditional-lee"):
        assert records.count([name, "estimate"]) == 1, name
