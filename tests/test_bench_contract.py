"""What the benchmark in bench/ reads of the package.

A traced run reports a per-layer metric only for a function its tracer
finds, and leaves a metric out, without failing, when the function is gone.
So every function BENCHMARK.json names must stay a public module-level
function of the module it names, and what bench/checks.py reads must stay.
bench/ is imported by file path and only read.
"""

import importlib
import importlib.util
import os
import pkgutil

import strata_bounds
from strata_bounds import Dataset, dataset_from_arrays

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
