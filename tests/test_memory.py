"""Memory guard: the peak traced allocation per unit of parsing a CSV and of
one estimate with its variance, on a seeded stratified dataset.

The bounds were fixed from a measurement: parse 154, lee 88 and lee-ipw 114
bytes per unit on this dataset, each bound about 15% above its figure. The
dense-moment code before per-arm moment rows and streamed block codes
measured 209, 181 and 181, and one normal-CDF kernel call over both bounds'
concatenated arguments 109 and 120 for the estimates, so a layout that
forms an n-sized buffer per moment column, batches the bounds' kernel
arguments again, or keeps every label string until the last chunk is
parsed, fails here.
"""

import numpy as np
import pytest

from strata_bounds import (
    block_design,
    dataset_from_arrays,
    estimate_bounds,
    parse_csv,
)

from conftest import dataset_to_csv_text, peak_per_unit

PEAK_BYTES_PER_UNIT = {"parse_csv": 177, "lee": 101, "lee-ipw": 131}


def _strata_dataset(seed: int, n_blocks: int):
    """Blocks of 3-6 units with 1 to n_g - 1 treated, a covariate and
    outcomes missing at random, more often among controls."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 7, n_blocks)
    d = np.concatenate(
        [rng.permutation(n) < rng.integers(1, n) for n in sizes]
    ).astype(int)
    s = np.where(d == 1, rng.random(d.size) < 0.85, rng.random(d.size) < 0.7)
    y = np.where(s, rng.normal(size=d.size) + d, np.nan)
    blocks = np.repeat([f"g{g:05d}" for g in range(n_blocks)], sizes)
    return dataset_from_arrays(
        y, s.astype(int), d, blocks, x=rng.normal(size=d.size)
    )


@pytest.fixture(scope="module")
def strata_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "strata.csv"
    data = _strata_dataset(20, 4500)  # 20 188 units
    path.write_text(dataset_to_csv_text(data))
    return str(path), data.n


def test_parse_csv_peak_per_unit(strata_csv):
    path, n = strata_csv
    peak = peak_per_unit(lambda: parse_csv(path), n)
    assert peak <= PEAK_BYTES_PER_UNIT["parse_csv"], peak


@pytest.mark.parametrize("name", ["lee", "lee-ipw"])
def test_estimate_bounds_peak_per_unit(strata_csv, name):
    path, n = strata_csv
    data = parse_csv(path)
    design = block_design(data)
    peak = peak_per_unit(
        lambda: estimate_bounds(data, design, name, ("iid", "design")), n
    )
    assert peak <= PEAK_BYTES_PER_UNIT[name], peak
