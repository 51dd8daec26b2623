"""Shared dataset builders for the test suite."""

import csv
import importlib
import io
import itertools
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import strata_bounds
from strata_bounds import ParseError, dataset_from_arrays, parse_csv

from oracles import OracleParseError, oracle_parse_csv


def count_calls(monkeypatch, functions):
    """Count calls of each function through every package module binding it."""
    modules = [strata_bounds] + [
        importlib.import_module(f"strata_bounds.{info.name}")
        for info in pkgutil.iter_modules(strata_bounds.__path__)
    ]
    # bind every lazily loaded name first, so the package's own binding is
    # patched, and restored, with the others
    for name in strata_bounds.__all__:
        getattr(strata_bounds, name)
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def run_fresh_interpreter(code: str) -> str:
    """Stdout of code run by a fresh interpreter that imports this package
    from the same source, with STRATA_BOUNDS_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "STRATA_BOUNDS_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(strata_bounds.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return proc.stdout


def build_dataset(y, s, d, blocks, x=None):
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=np.int64)
    return dataset_from_arrays(np.where(s == 1, y, np.nan), s, d, blocks, x=x)


def dataset_to_csv_text(data):
    """A dataset as CSV text that parse_csv reads back to identical columns:
    floats in shortest round-trip repr, an empty cell for a missing outcome."""
    arity = 0 if data.x is None else data.x.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["y", "s", "d", "block", *(f"x{j}" for j in range(1, arity + 1))])
    x_rows = data.x.tolist() if arity else itertools.repeat(())
    rows = zip(data.y.tolist(), data.s.tolist(), data.d.tolist(), data.blocks, x_rows)
    for y, s, d, block, x in rows:
        writer.writerow(["" if s == 0 else repr(y), s, d, block, *map(repr, x)])
    return buf.getvalue()


def assert_close_matrix(actual, expected, moments, what):
    """A meat field matches the oracle's to 1e-12 of its scale."""
    # every meat field is a quadratic form in the moments, so rounding error
    # scales with their largest square even where a field is exactly 0
    scale = max(float(np.abs(expected).max()), float(np.abs(moments).max()) ** 2)
    assert float(np.abs(actual - expected).max()) <= 1e-12 * scale, what


def assert_same_columns(a, b):
    """Two datasets hold identical columns (nan outcomes compare equal)."""
    np.testing.assert_array_equal(a.y, b.y, strict=True)
    np.testing.assert_array_equal(a.s, b.s, strict=True)
    np.testing.assert_array_equal(a.d, b.d, strict=True)
    assert a.blocks == b.blocks
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        np.testing.assert_array_equal(a.x, b.x, strict=True)


def assert_parses_like_oracle(text):
    """parse_csv reads text, as a file opened with newline="" gives it, to
    the columns of oracles.oracle_parse_csv, or fails with its message."""
    stream = io.StringIO(text, newline="")
    try:
        y, s, d, blocks, x = oracle_parse_csv(text)
    except OracleParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_csv(stream)
        assert str(info.value) == str(exc)
        return
    data = parse_csv(stream)
    np.testing.assert_array_equal(data.y, np.array(y, dtype=float), strict=True)
    np.testing.assert_array_equal(data.s, np.array(s, dtype=np.int64), strict=True)
    np.testing.assert_array_equal(data.d, np.array(d, dtype=np.int64), strict=True)
    labels = sorted(set(blocks))
    assert data.labels == tuple(labels)
    assert data.codes.tolist() == [labels.index(b) for b in blocks]
    if x[0]:
        np.testing.assert_array_equal(data.x, np.array(x), strict=True)
    else:
        assert data.x is None


def hand_arrays():
    """10 treated (8 observed, y=1..8) and 10 controls (6 observed, y=1..6)."""
    y = list(range(1, 9)) + [0, 0] + list(range(1, 7)) + [0, 0, 0, 0]
    s = [1] * 8 + [0] * 2 + [1] * 6 + [0] * 4
    d = [1] * 10 + [0] * 10
    blocks = ["a"] * 20
    return np.array(y, float), np.array(s), np.array(d), blocks


@pytest.fixture
def hand_dataset():
    y, s, d, blocks = hand_arrays()
    return build_dataset(y, s, d, blocks)


@pytest.fixture
def two_block_dataset():
    """Blocks (size 4, 1 treated) and (size 6, 3 treated); all observed."""
    y = np.arange(1.0, 11.0)
    s = np.ones(10, dtype=int)
    d = np.array([1, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    blocks = ["a"] * 4 + ["b"] * 6
    return build_dataset(y, s, d, blocks)


@pytest.fixture
def delta_hand_dataset():
    """Blocks (4 units, 1 treated, controls fully observed) and
    (4 units, 2 treated, 1 of 2 controls observed)."""
    y = np.array([5.0, 1.0, 2.0, 3.0, 6.0, 7.0, 4.0, 0.0])
    s = np.array([1, 1, 1, 1, 1, 1, 1, 0])
    d = np.array([1, 0, 0, 0, 1, 1, 0, 0])
    blocks = ["a"] * 4 + ["b"] * 4
    return build_dataset(y, s, d, blocks)


@pytest.fixture
def label_constant_dataset():
    """Two blocks, everything observed, treated y=5 and control y=2."""
    d = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    y = np.where(d == 1, 5.0, 2.0)
    s = np.ones(8, dtype=int)
    blocks = ["a"] * 4 + ["b"] * 4
    return build_dataset(y, s, d, blocks)


EQUAL_SHARE_MENU = (
    (2, 1),
    (3, 1),
    (4, 1),
    (4, 3),
    (5, 2),
)


def random_equal_share_dataset(rng):
    """Blocks with one common treated share; observed outcomes in both arms."""
    while True:
        base_n, base_t = EQUAL_SHARE_MENU[rng.integers(len(EQUAL_SHARE_MENU))]
        n_blocks = int(rng.integers(2, 6))
        mults = rng.integers(1, 4, size=n_blocks)
        rate1 = rng.uniform(0.55, 1.0)
        rate0 = rng.uniform(0.25, 1.0)
        y, s, d, blocks = [], [], [], []
        for g in range(n_blocks):
            n_g = int(base_n * mults[g])
            t_g = int(base_t * mults[g])
            dg = np.zeros(n_g, dtype=int)
            dg[rng.permutation(n_g)[:t_g]] = 1
            sg = np.where(
                dg == 1, rng.random(n_g) < rate1, rng.random(n_g) < rate0
            ).astype(int)
            yg = rng.normal(g, 1.0, n_g)
            if rng.random() < 0.3:
                yg = np.round(yg, 1)  # provoke ties
            y.extend(yg)
            s.extend(sg)
            d.extend(dg)
            blocks.extend([f"g{g}"] * n_g)
        y, s, d = np.array(y), np.array(s), np.array(d)
        if (s * d).sum() == 0 or (s * (1 - d)).sum() == 0:
            continue
        # a zero raw share makes the reduction comparison trivial; keep it
        # sometimes, but avoid degenerate trims (keep mass below one unit)
        n1s = int((s * d).sum())
        q = max(0.0, 1.0 - ((s * (1 - d)).sum() * d.sum()) / (n1s * (1 - d).sum()))
        if (1.0 - q) * n1s < 1.0:
            continue
        return build_dataset(y, s, d, blocks)


def random_dataset(rng, min_block=2, max_block=8, allow_clamp=True):
    """Heterogeneous-share blocks with random selection; both arms observed."""
    while True:
        n_blocks = int(rng.integers(2, 6))
        y, s, d, blocks = [], [], [], []
        for g in range(n_blocks):
            n_g = int(rng.integers(min_block, max_block + 1))
            t_g = int(rng.integers(1, n_g))
            dg = np.zeros(n_g, dtype=int)
            dg[rng.permutation(n_g)[:t_g]] = 1
            hi = rng.uniform(0.5, 1.0)
            lo = rng.uniform(0.2, 1.0) if allow_clamp else rng.uniform(0.2, hi)
            sg = np.where(
                dg == 1, rng.random(n_g) < hi, rng.random(n_g) < lo
            ).astype(int)
            yg = rng.normal(0.5 * g, 1.0, n_g)
            if rng.random() < 0.3:
                yg = np.round(yg, 1)
            y.extend(yg)
            s.extend(sg)
            d.extend(dg)
            blocks.extend([f"g{g}"] * n_g)
        y, s, d = np.array(y), np.array(s), np.array(d)
        if (s * d).sum() == 0 or (s * (1 - d)).sum() == 0:
            continue
        return build_dataset(y, s, d, blocks)


def pair_design_normal(rng, n_pairs, s1, s0, m1, sd1, m0, sd0):
    """Pairs with one treated unit; normal outcomes; Bernoulli selection."""
    n = 2 * n_pairs
    d = np.zeros(n, dtype=int)
    coin = rng.integers(0, 2, n_pairs)
    d[0::2] = coin
    d[1::2] = 1 - coin
    y = np.where(d == 1, rng.normal(m1, sd1, n), rng.normal(m0, sd0, n))
    s = np.where(d == 1, rng.random(n) < s1, rng.random(n) < s0).astype(int)
    width = len(str(n_pairs - 1))
    blocks = [str(i // 2).zfill(width) for i in range(n)]
    return build_dataset(y, s, d, blocks)
