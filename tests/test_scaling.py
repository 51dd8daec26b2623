"""Work that must not grow with the input: Python-level call counts.

Each point estimator does its per-unit and per-block work in numpy calls,
so the number of Python and C function calls it makes is flat in the number
of strata. Counting them with sys.setprofile is deterministic, unlike a
timing, so an O(G) Python loop shows up as thousands of extra calls. The
inputs are bench/gen_strata.py's stratified designs, imported by file path
and only read.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from strata_bounds import (
    block_design,
    conditional_lee_bounds,
    dataset_from_arrays,
    lee_bounds,
    lee_ipw_bounds,
)

GEN_STRATA = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "bench", "gen_strata.py"
)
SIZES = (1_000, 16_000)  # strata
# the most the call counts may differ between the two sizes; a size-driven
# branch such as a longer message may add a few calls, a loop over strata
# adds thousands
MAX_EXTRA_CALLS = 12


def _design(n_strata):
    spec = importlib.util.spec_from_file_location("bench_gen_strata", GEN_STRATA)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    arrays = gen.generate(seed=7, n_strata=n_strata)
    blocks = np.array(arrays["labels"])[arrays["codes"]]
    data = dataset_from_arrays(arrays["y"], arrays["s"], arrays["d"], blocks)
    return data, block_design(data)


@pytest.fixture(scope="module")
def designs():
    return [_design(n) for n in SIZES]


def _calls(fn, *args):
    """The call and c_call events of one fn(*args)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize(
    "estimator", [lee_bounds, lee_ipw_bounds, conditional_lee_bounds],
    ids=lambda fn: fn.__name__,
)
def test_point_estimator_calls_do_not_grow_with_strata(designs, estimator):
    small, large = (_calls(estimator, data, design) for data, design in designs)
    assert abs(large - small) <= MAX_EXTRA_CALLS, (small, large)
