"""Work that must not grow with the input: Python-level call counts, and
memory per unit.

block_design, each point estimator and estimate_bounds with its variance
methods do their per-unit and per-block work in numpy calls, so the number
of Python and C function calls they make is flat in the number of strata
and of units; parse_csv's grows with its chunks of CSV_CHUNK_ROWS lines,
not with their rows. Counting them with sys.setprofile is deterministic,
unlike a timing, so an O(G) Python loop shows up as thousands of extra
calls. estimate_bounds' traced peak per unit is bounded at both sizes, so
an O(G^2) array shows up as well. The stratified inputs are
bench/gen_strata.py's designs, imported by file path and only read; the
matched-pairs inputs are simulate_dgp1's panels.
"""

import importlib.util
import math
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
    parse_csv,
    simulate_dgp1,
)
from strata_bounds.data_model import CSV_CHUNK_ROWS

from conftest import peak_per_unit

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
# parse_csv's calls are at most PARSE_CALLS[0] + PARSE_CALLS[1] per chunk:
# measured at 257 for 1 chunk (10^3 strata) and 2 177 for 16 (1.6 10^4),
# which is 129 + 128 per chunk, with about 25% on each; a chunk checked row
# by row makes thousands
PARSE_CALLS = (160, 160)
# the most bytes per unit estimate_bounds' traced peak may reach at either
# size: measured at 89.6-115.3 (largest for lee-ipw at 10^3 strata), with
# about 15% on the largest
PEAK_BYTES_PER_UNIT = 133


@pytest.fixture(scope="module")
def strata_arrays():
    spec = importlib.util.spec_from_file_location("bench_gen_strata", GEN_STRATA)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen, [gen.generate(seed=7, n_strata=n) for n in SIZES]


@pytest.fixture(scope="module")
def designs(strata_arrays):
    found = []
    for arrays in strata_arrays[1]:
        blocks = np.array(arrays["labels"])[arrays["codes"]]
        data = dataset_from_arrays(arrays["y"], arrays["s"], arrays["d"], blocks)
        found.append((data, block_design(data)))
    return found


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


def test_parse_csv_calls_grow_with_chunks_only(strata_arrays, tmp_path):
    gen, arrays = strata_arrays
    for n_strata, columns in zip(SIZES, arrays):
        path = str(tmp_path / f"strata{n_strata}.csv")
        gen.write_csv(columns, path)
        chunks = math.ceil(columns["y"].size / CSV_CHUNK_ROWS)
        calls = _calls(parse_csv, path)
        assert calls <= PARSE_CALLS[0] + PARSE_CALLS[1] * chunks, (
            n_strata, chunks, calls
        )


@pytest.mark.parametrize("name", ["lee", "lee-ipw"])
def test_estimate_bounds_peak_per_unit_at_both_sizes(designs, name):
    for data, design in designs:
        peak = peak_per_unit(
            lambda: estimate_bounds(data, design, name, ("design", "iid")), data.n
        )
        assert peak <= PEAK_BYTES_PER_UNIT, (data.n, peak)
