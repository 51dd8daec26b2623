"""Checks of the benchmark's own reference and tracer.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen_strata  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_fractional_trim_of_one_to_four():
    # keep mass 2.5 of {1, 2, 3, 4}: (1 + 2 + 0.5 * 3) / 2.5
    assert ref.trimmed_mean([4, 2, 3, 1], 0.375, "upper") == 1.8
    assert ref.trimmed_mean([1, 2, 3, 4], 0.375, "lower") == 3.2


def test_hand_dataset_share_quarter_gives_zero_and_two():
    # 10 treated (8 observed, y = 1..8) and 10 controls (6 observed, y = 1..6)
    y = np.array([*range(1, 9), np.nan, np.nan, *range(1, 7), *[np.nan] * 4])
    s = (~np.isnan(y)).astype(int)
    d = np.array([1] * 10 + [0] * 10)
    assert ref.lee_bounds(y, s, d) == (0.0, 2.0)
    assert ref.conditional_lee_bounds(y, s, d, np.zeros(20, int)) == (0.0, 2.0, 1)
    # one stratum: the weighted estimator reduces to the pooled one
    assert np.allclose(ref.lee_ipw_bounds(y, s, d, np.zeros(20, int)), (0.0, 2.0))


def test_stratum_keeping_exactly_one_unit_is_used():
    # a (6, 3) stratum with 3 of 3 treated and 1 of 3 controls observed keeps
    # 1/3 of 3 treated units: exactly one unit, the largest or the smallest
    y = np.array([1.0, 5.0, 9.0, 4.0, np.nan, np.nan])
    s = (~np.isnan(y)).astype(int)
    d = np.array([1, 1, 1, 0, 0, 0])
    assert ref.conditional_lee_bounds(y, s, d, np.zeros(6, int)) == (-3.0, 5.0, 1)


def test_trim_below_one_unit_is_refused():
    with pytest.raises(ValueError):
        ref.trimmed_mean([1.0, 2.0], 0.6, "upper")


def test_matched_pairs_population_bounds():
    lower, upper = ref.dgp1_population_bounds()
    assert round(lower, 6) == 0.456726
    assert round(upper, 6) == 1.543274
    # N(2, 5) + U(0, 2) is symmetric about 3
    assert math.isclose(lower + upper, 2.0, abs_tol=1e-9)


def test_generator_layout_is_fixed_and_singleton_counts_are_odd():
    for n_strata in (2500, 5000, 10_000):
        counts = gen_strata.stratum_counts(n_strata)
        assert sum(counts) == n_strata
        assert counts[0] % 2 == 1 and counts[1] % 2 == 1
    a, b = gen_strata.generate(3, 400), gen_strata.generate(3, 400)
    assert np.array_equal(a["y"], b["y"], equal_nan=True)
    treated = np.bincount(a["codes"], weights=a["d"]).astype(int)
    assert np.array_equal(treated, a["treated"])


def test_tracer_wraps_every_namespace_and_subtracts_children(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .layer import outer\n")
    (pkg / "layer.py").write_text(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    inner()\n    inner()\n    time.sleep(0.01)\n"
        "def _private():\n    return 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    tracer = Tracer()
    tracer.install(fakepkg)
    fakepkg.outer()  # through the package namespace
    fakepkg.layer.outer()  # through the module namespace
    tracer.disable()
    assert tracer.names == {"layer.inner", "layer.outer"}
    assert fakepkg.outer is fakepkg.layer.outer  # originals restored
    totals = tracer.totals(rounds=2)
    assert totals["layer.outer"]["calls"] == 1
    assert totals["layer.inner"]["calls"] == 2
    outer_spans = [sp for sp in tracer.spans if sp[0] == "layer.outer"]
    wall = sum(end - start for _, start, end, _, _ in outer_spans)
    total_self = totals["layer.outer"]["self_s"] + totals["layer.inner"]["self_s"]
    assert math.isclose(2 * total_self, wall, rel_tol=1e-9)
    assert 0.01 <= totals["layer.outer"]["self_s"] < wall / 4
