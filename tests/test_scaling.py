"""Work that must not grow with the input: Python-level call counts.

block_design, each point estimator and estimate_bounds with its variance
methods do their per-unit and per-block work in numpy calls, so the number
of Python and C function calls they make is flat in the number of strata
and of units. Counting them with sys.setprofile is deterministic, unlike a
timing, so an O(G) Python loop shows up as thousands of extra calls. The
stratified inputs are bench/gen_strata.py's designs, imported by file path
and only read; the matched-pairs inputs are simulate_dgp1's panels.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from strata_bounds import (
    block_design,
    child_seed,
    conditional_lee_bounds,
    dataset_from_arrays,
    estimate_bounds,
    lee_bounds,
    lee_ipw_bounds,
    simulate_dgp1,
)

GEN_STRATA = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "bench", "gen_strata.py"
)
SIZES = (1_000, 16_000)  # strata
PAIR_SIZES = (1_000, 100_000)  # matched-pairs units
# the most the call counts may differ between the two sizes; a size-driven
# branch may add a few calls (the smoothed Jacobian's normal CDF skips a
# rational form that no element falls in, and the lee-ipw share's exact
# fractions take a data-dependent number of gcd calls), a loop over strata
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


@pytest.fixture(scope="module")
def pair_designs():
    data = [simulate_dgp1(child_seed(1, 0), n) for n in PAIR_SIZES]
    return [(panel, block_design(panel)) for panel in data]


def _calls(fn, *args):
    """The call and c_call events of fn(*args), called once before it is
    counted: a first call in the process also fills caches, such as numpy's
    finfo table, at a one-off cost of 15 calls or so."""
    fn(*args)
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


def test_block_design_calls_do_not_grow_with_strata(designs):
    small, large = (_calls(block_design, data) for data, _ in designs)
    assert abs(large - small) <= MAX_EXTRA_CALLS, (small, large)


@pytest.mark.parametrize("name", ["lee", "lee-ipw"])
def test_estimate_bounds_calls_do_not_grow_with_strata(designs, name):
    small, large = (
        _calls(estimate_bounds, data, design, name, ("design", "iid"))
        for data, design in designs
    )
    assert abs(large - small) <= MAX_EXTRA_CALLS, (small, large)


def test_estimate_bounds_calls_do_not_grow_with_matched_pairs(pair_designs):
    small, large = (
        _calls(estimate_bounds, data, design, "lee", ("iid", "design"))
        for data, design in pair_designs
    )
    assert abs(large - small) <= MAX_EXTRA_CALLS, (small, large)
