"""Property-based invariants on randomized inputs."""

import contextlib
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from strata_bounds import data_model
from strata_bounds import (
    EstimationError,
    FeasibilityError,
    Involution,
    PairingError,
    TrimSpec,
    always_observed_treat_prob,
    block_design,
    conditional_lee_bounds,
    dataset_from_arrays,
    estimate_bounds,
    lee_bounds,
    lee_ipw_bounds,
    meat_design,
    meat_iid,
    pair_blocks,
    parse_csv,
    set_critical_value,
    trimmed_mean,
)

from scipy.stats import norm

from strata_bounds.cli import flip_treatment, main
from strata_bounds.variance import ESTIMATORS, VARIANCE_CHOICES
from strata_bounds.gmm_core import _sandwich, differentiate

from conftest import (
    assert_close_matrix,
    assert_parses_like_oracle,
    assert_same_columns,
    dataset_to_csv_text,
)
from oracles import (
    always_observed_treat_prob_oracle,
    meat_design_oracle,
    oracle_conditional_lee,
    pair_blocks_oracle,
)

COMMON = dict(deadline=None, max_examples=60)


values_strategy = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=30,
)


@given(values=values_strategy, q_frac=st.floats(0.0, 0.999), side=st.sampled_from(["upper", "lower"]))
@settings(**COMMON)
def test_trimmed_mean_stays_inside_range_and_orders(values, q_frac, side):
    y = np.array(values)
    m = y.size
    q = q_frac * max(0.0, 1.0 - 1.0 / m)  # keep at least one unit of mass
    res = trimmed_mean(y, TrimSpec(q=q, side=side))
    tol = 1e-9 * max(1.0, float(np.abs(y).max()))
    assert y.min() - tol <= res.mean <= y.max() + tol
    assert res.kept_mass == pytest.approx((1.0 - q) * m)
    assert 0.0 <= res.boundary_deficit <= res.ties_at_cutoff
    upper = trimmed_mean(y, TrimSpec(q=q, side="upper"))
    lower = trimmed_mean(y, TrimSpec(q=q, side="lower"))
    assert upper.mean <= lower.mean + tol  # dropping the top cannot raise it


@st.composite
def dataset_strategy(draw):
    n_blocks = draw(st.integers(1, 4))
    y, s, d, blocks = [], [], [], []
    for g in range(n_blocks):
        n_g = draw(st.integers(2, 8))
        t_g = draw(st.integers(1, n_g - 1))
        arm = [1] * t_g + [0] * (n_g - t_g)
        sel = draw(
            st.lists(st.integers(0, 1), min_size=n_g, max_size=n_g)
        )
        vals = draw(
            st.lists(
                st.floats(
                    min_value=-100, max_value=100,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=n_g,
                max_size=n_g,
            )
        )
        y.extend(vals)
        s.extend(sel)
        d.extend(arm)
        blocks.extend([f"g{g}"] * n_g)
    return np.array(y), np.array(s), np.array(d), blocks


@given(parts=dataset_strategy())
@settings(**COMMON)
def test_lee_bounds_order_and_share_bracket(parts):
    y, s, d, blocks = parts
    if (s * d).sum() == 0 or (s * (1 - d)).sum() == 0:
        return  # undefined trimming share; covered by unit tests
    n1s = int((s * d).sum())
    q = max(0.0, 1.0 - ((s * (1 - d)).sum() * d.sum()) / (n1s * (1 - d).sum()))
    if (1.0 - q) * n1s < 1.0:
        return  # degenerate trim
    data = dataset_from_arrays(np.where(s == 1, y, np.nan), s, d, blocks)
    est = lee_bounds(data, block_design(data))
    tol = 1e-9 * max(1.0, float(np.abs(y).max()))
    assert est.delta_lb <= est.delta_ub + tol
    assert 0.0 <= est.q < 1.0
    assert est.mu1_lb <= est.mu1_ub + tol
    obs1 = y[(d == 1) & (s == 1)]
    assert obs1.min() - tol <= est.mu1_lb
    assert est.mu1_ub <= obs1.max() + tol


@given(parts=dataset_strategy())
@settings(**COMMON)
def test_csv_round_trip_is_lossless(parts):
    y, s, d, blocks = parts
    if d.sum() == 0 or d.sum() == d.size:
        return
    data = dataset_from_arrays(np.where(s == 1, y, np.nan), s, d, blocks)
    back = parse_csv(io.StringIO(dataset_to_csv_text(data)))
    assert_same_columns(back, data)


# one bad row at most: name -> how it changes a valid row's cells, or None
BAD_ROWS = {
    "wide": lambda cells: [*cells.values(), "9"],
    "narrow": lambda cells: list(cells.values())[:-1],
    "s": lambda cells: {**cells, "s": "2"},
    "d": lambda cells: {**cells, "d": " yes "},
    "y_where_s_is_0": lambda cells: {**cells, "y": "3", "s": "0"},
    "y_missing": lambda cells: {**cells, "y": "NA", "s": "1"},
    "y_text": lambda cells: {**cells, "y": "abc", "s": "1"},
    "y_inf": lambda cells: {**cells, "y": "-inf", "s": "1"},
    "block": lambda cells: {**cells, "block": "  "},
    "x": lambda cells: {**cells, "x1": "nan"} if "x1" in cells else None,
}


@st.composite
def csv_text_strategy(draw):
    """CSV text mixing canonical rows with spaces, NA and na, blank rows,
    quoted cells (some holding a comma or a newline), CRLF line ends from
    some line on, 0-2 covariates, columns in any order and at most one bad
    row; and a chunk size. Its valid rows always make a valid dataset."""
    k = draw(st.integers(0, 2))
    names = draw(st.permutations(["y", "s", "d", "block"] + [f"x{j}" for j in range(1, k + 1)]))
    number = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    rows = []
    for g in range(draw(st.integers(1, 5))):
        label = draw(st.sampled_from(["g{}"] * 4 + [" g{} ", "é{}日", "g{},c", "g\n{}"])).format(g)
        for d in [1, 0] + draw(st.lists(st.integers(0, 1), max_size=3)):
            s = draw(st.integers(0, 1))
            cells = {
                "y": draw(number) if s else draw(st.sampled_from(["", "NA", "na", " "])),
                "s": str(s), "d": str(d), "block": label,
                **{f"x{j}": draw(number) for j in range(1, k + 1)},
            }
            rows.append({name: cells[name] for name in names})
    rows = draw(st.permutations(rows))
    bad = draw(st.sampled_from([None] * 4 + sorted(BAD_ROWS)))
    if bad is not None and (cells := BAD_ROWS[bad](rows[0])) is not None:
        rows.insert(draw(st.integers(0, len(rows))), cells)

    lines = []
    for cells in rows:
        cells = list(cells.values()) if isinstance(cells, dict) else cells
        style = draw(st.sampled_from(["plain"] * 8 + ["spaces", "quoted"]))
        if style == "spaces":
            cells = [f" {c}  " if "," not in c and "\n" not in c else c for c in cells]
        lines.append(",".join(
            f'"{c}"' if style == "quoted" or "," in c or "\n" in c else c
            for c in cells
        ))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", " ," * len(names)])))
    crlf_from = draw(st.one_of(st.none(), st.integers(0, len(lines))))
    ends = [
        "\r\n" if crlf_from is not None and i >= crlf_from else "\n"
        for i in range(len(lines) + 1)
    ]
    if not draw(st.booleans()):
        ends[-1] = ""
    head = draw(st.sampled_from(["", "\ufeff"])) + ",".join(names)
    text = "".join(line + end for line, end in zip([head] + lines, ends))
    return text, draw(st.sampled_from([1, 2, 3, 5, 7, 4096]))


@given(case=csv_text_strategy())
@settings(**COMMON)
def test_parse_csv_matches_the_reference_parser(case):
    # the columns, codes and labels of oracle_parse_csv, or its message,
    # whatever the chunk size
    text, chunk_rows = case
    with mock.patch.object(data_model, "CSV_CHUNK_ROWS", chunk_rows):
        assert_parses_like_oracle(text)


def _pooled_bounds(data):
    """(delta_lb, delta_ub) of lee and lee-ipw, or the error each raised."""
    design = block_design(data)
    out = []
    for run in (lee_bounds, lee_ipw_bounds, conditional_lee_bounds):
        try:
            est = run(data, design)
            out.append((est.delta_lb, est.delta_ub))
        except EstimationError as exc:
            out.append(type(exc))
    return out


@given(parts=dataset_strategy())
@settings(**COMMON)
def test_flipping_arms_twice_is_the_identity(parts):
    y, s, d, blocks = parts
    if d.sum() == 0 or d.sum() == d.size:
        return
    data = dataset_from_arrays(y, s, d, blocks)
    once = flip_treatment(data)
    assert (once.d == 1 - data.d).all()
    back = flip_treatment(once)
    assert_same_columns(back, data)
    assert _pooled_bounds(back)[:2] == _pooled_bounds(data)[:2]


@given(parts=dataset_strategy(), seed=st.integers(0, 2**32 - 1))
@settings(**COMMON)
def test_block_relabeling_leaves_point_bounds_unchanged(parts, seed):
    y, s, d, blocks = parts
    if d.sum() == 0 or d.sum() == d.size:
        return
    # a random bijection onto new labels, which also reorders the blocks
    old = sorted(set(blocks))
    new = np.random.default_rng(seed).permutation(len(old))
    rename = {lab: f"r{k}" for lab, k in zip(old, new.tolist())}
    data = dataset_from_arrays(y, s, d, blocks)
    relabeled = dataset_from_arrays(y, s, d, [rename[b] for b in blocks])
    scale = 1e-12 * max(1.0, float(np.abs(y).max()))
    for a, b in zip(_pooled_bounds(data), _pooled_bounds(relabeled)):
        if isinstance(a, type) or isinstance(b, type):
            assert a == b
            continue
        for u, v in zip(a, b):
            assert math.isclose(u, v, rel_tol=1e-12, abs_tol=scale)


@given(
    width=st.floats(0.0, 50.0),
    sigma=st.floats(0.0, 10.0),
    alpha=st.sampled_from([0.01, 0.05, 0.10, 0.32]),
)
@settings(**COMMON)
def test_set_critical_value_bracketed_by_normal_quantiles(width, sigma, alpha):
    c = set_critical_value(width, sigma, alpha)
    lo = norm.ppf(1.0 - alpha)
    hi = norm.ppf(1.0 - alpha / 2.0)
    assert lo - 1e-9 <= c <= hi + 1e-9
    if sigma > 0.0:
        wider = set_critical_value(width + 1.0, sigma, alpha)
        assert wider <= c + 1e-9  # critical value shrinks with the gap


@given(
    n_singletons=st.integers(2, 6),
    extra=st.integers(0, 3),
)
@settings(**COMMON)
def test_pair_blocks_gives_fixed_point_free_involution(n_singletons, extra):
    n_blocks = n_singletons + extra
    y, s, d, blocks = [], [], [], []
    for g in range(n_blocks):
        for i in range(4):
            y.append(float(g + i))
            s.append(1)
            d.append(1 if i == 0 else 0)
            blocks.append(f"b{g}")
    data = dataset_from_arrays(np.array(y), np.array(s), np.array(d), blocks)
    design = block_design(data)
    needs = list(range(n_singletons))
    if len(needs) % 2 == 1 and extra == 0:
        with pytest.raises(PairingError):
            pair_blocks(design, needs)
        return
    inv = pair_blocks(design, needs)
    assert isinstance(inv, Involution)
    pairs = inv.pairs
    assert pairs.shape == ((len(needs) + 1) // 2, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    # each singleton block sits in exactly one pair, so in-set pairs are
    # mutual; only an odd leftover's partner lies outside the set
    flat = pairs.ravel().tolist()
    assert sorted(g for g in flat if g in needs) == needs
    assert flat[:-1] == [g for g in flat[:-1] if g in needs]


@st.composite
def pairing_strategy(draw):
    """A design of two-unit blocks and a set of blocks to pair.

    Covariate means come from a few values, so means and distances tie;
    labels are shuffled against dataset order.
    """
    n_blocks = draw(st.integers(1, 8))
    arity = draw(st.integers(0, 3))
    value = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    means = [
        [draw(value) for _ in range(arity)] for _ in range(n_blocks)
    ]
    labels = draw(st.permutations([f"b{g}" for g in range(n_blocks)]))
    needs = draw(
        st.lists(
            st.integers(0, n_blocks - 1), min_size=1, max_size=n_blocks,
            unique=True,
        )
    )
    x = np.repeat(np.array(means, dtype=float).reshape(n_blocks, arity), 2, axis=0)
    data = dataset_from_arrays(
        np.arange(2.0 * n_blocks), np.ones(2 * n_blocks, dtype=int),
        np.tile([1, 0], n_blocks), np.repeat(labels, 2),
        x=x if arity else None,
    )
    return block_design(data), needs


@given(case=pairing_strategy())
@settings(**COMMON)
def test_pair_blocks_matches_oracle(case):
    design, needs = case
    try:
        expected = pair_blocks_oracle(design, needs)
    except PairingError:
        with pytest.raises(PairingError):
            pair_blocks(design, needs)
        return
    pairs = pair_blocks(design, needs).pairs
    assert pairs.dtype == np.int64
    assert tuple(map(tuple, pairs.tolist())) == expected


@st.composite
def singleton_arms_strategy(draw):
    """Blocks of 2-6 units, many with a single treated or control unit.

    The singleton counts of either arm may be odd, so the leftover block is
    paired outside the set; covariates are optional and take a few values,
    so their means tie; labels are shuffled against dataset order; outcomes
    often tie too. A quarter of the designs have two units or more in each
    arm of every block, which the label variance needs.
    """
    two_per_arm = draw(st.integers(0, 3)) == 0
    n_blocks = draw(st.integers(2, 9))
    arity = draw(st.integers(0, 2))
    labels = draw(st.permutations([f"b{g}" for g in range(n_blocks)]))
    outcome = st.one_of(
        st.sampled_from([-2.0, 0.0, 1.0, 1.5]),
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    )
    y, s, d, blocks, x = [], [], [], [], []
    for g in range(n_blocks):
        if two_per_arm:
            n_g = draw(st.integers(4, 6))
            t_g = draw(st.integers(2, n_g - 2))
        else:
            n_g = draw(st.integers(2, 6))
            t_g = draw(st.integers(1, n_g - 1))
        x_g = [draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0])) for _ in range(arity)]
        for i in range(n_g):
            treated = i < t_g
            y.append(draw(outcome))
            s.append(1 if treated else draw(st.sampled_from([0, 1, 1])))
            d.append(int(treated))
            blocks.append(labels[g])
            x.append(x_g)
    data = dataset_from_arrays(
        np.array(y), np.array(s), np.array(d), blocks,
        x=np.array(x) if arity else None,
    )
    return data, block_design(data)


def _exact_zero_cross_term_case():
    """b0 has no observed control, so the oracle's zeta_10 is exactly 0,
    while the joint meat's is of order 1e-18."""
    y = [-2.0, -2.0, -2.0, np.nan, np.nan, np.nan, -2.0, -2.0, np.nan, -2.0]
    s = [1, 1, 1, 0, 0, 0, 1, 1, 0, 1]
    d = [1, 1, 1, 0, 0, 0, 1, 1, 0, 0]
    data = dataset_from_arrays(np.array(y), np.array(s), np.array(d), ["b0"] * 6 + ["b1"] * 4)
    return data, block_design(data)


def _heterogeneous_share_case():
    """Six blocks with treated shares from 1/5 to 2/3 and some controls
    unobserved, so the weighted system's weights differ across blocks and
    its rows 4 and 5 live on both arms; both arms have singleton blocks."""
    shapes = [(4, 1), (5, 3), (6, 2), (3, 2), (4, 2), (5, 1)]
    y = np.random.default_rng(4).normal(size=27).round(2)
    d, s, blocks = [], [], []
    for g, (n_g, t_g) in enumerate(shapes):
        for i in range(n_g):
            d.append(int(i < t_g))
            s.append(1 if i < t_g or i % 3 else 0)
            blocks.append(f"b{g}")
    data = dataset_from_arrays(y, np.array(s), np.array(d), blocks)
    return data, block_design(data)


@given(
    case=singleton_arms_strategy(),
    name=st.sampled_from(["lee", "lee-ipw"]),
    method=st.sampled_from(["design", "label", "iid"]),
)
@example(case=_exact_zero_cross_term_case(), name="lee", method="design")
@example(case=_heterogeneous_share_case(), name="lee-ipw", method="design")
@example(case=_heterogeneous_share_case(), name="lee-ipw", method="iid")
@settings(**COMMON)
def test_joint_meat_matches_the_per_bound_oracle(case, name, method):
    # every meat the estimate path forms from the fit's arm rows, against
    # the oracle on the fit's dense moments
    data, design = case
    try:
        _, reports = estimate_bounds(data, design, name, (method,))
    except EstimationError:
        return  # the point estimate itself is undefined on this draw
    report = reports[method]
    mode = {"design": "paired", "label": "label", "iid": "iid"}[method]
    if isinstance(report, FeasibilityError):
        with pytest.raises(FeasibilityError):
            meat_design_oracle(data, design, np.zeros((data.n, 5)), mode)
        return
    if isinstance(report, EstimationError):
        return  # a bound's fit failed; the error-order tests cover that
    for side in ("lb", "ub"):
        meat = getattr(report, f"meat_{side}")
        fit = getattr(report, f"fit_{side}")
        moments = fit.matrix.values
        expected = meat_design_oracle(data, design, moments, mode)
        if method == "iid":
            # the i.i.d. meat a - a3 is reported through its sandwich, which
            # scales the meat's rounding by at most the square of the
            # inverse Jacobian's largest absolute row sum
            ((_, inv),) = differentiate(
                [(fit.theta, fit.system, fit.matrix.context)]
            )
            row_sum = float(np.abs(inv).sum(axis=1).max())
            assert_close_matrix(
                getattr(report, f"v_hat_{side}"),
                _sandwich(inv, expected["a"] - expected["a3"]),
                row_sum * moments, f"{side} v_hat",
            )
            assert meat is None
            continue
        for field in ("a", "a3", "zeta_10", "zeta_11", "zeta_00", "b_n", "omega"):
            assert_close_matrix(
                getattr(meat, field), expected[field], moments, f"{side} {field}"
            )
        assert meat.singleton_treated.tolist() == expected["singleton_treated"]
        assert meat.singleton_control.tolist() == expected["singleton_control"]
        for arm in ("treated", "control"):
            inv = getattr(meat, f"involution_{arm}")
            pairs = () if inv is None else tuple(map(tuple, inv.pairs.tolist()))
            assert pairs == expected[f"pairs_{arm}"]


@given(
    case=singleton_arms_strategy(),
    bounds=st.integers(1, 3),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(**COMMON)
def test_design_meat_is_the_iid_meat_plus_the_block_correction(
    case, bounds, scale, seed
):
    data, design = case
    rng = np.random.default_rng(seed)
    moments = np.asfortranarray(scale * rng.normal(size=(data.n, 5 * bounds)))
    try:
        meat = meat_design(data, design, moments)
    except PairingError:
        return  # no block outside an odd singleton set
    iid = meat_iid(moments)
    # one Gram: the design meat's a and a3 are meat_iid's, bit for bit
    np.testing.assert_array_equal(meat.a - meat.a3, iid)
    # so omega - meat_iid is b_n up to the rounding of the two assemblies,
    # (a + b_n) - a3 and a - a3, and of the two differences taken here:
    # a few units in the last place of the terms' sizes
    tol = 8.0 * np.finfo(float).eps * (
        np.abs(meat.a) + np.abs(meat.b_n) + np.abs(meat.a3)
    )
    assert np.all(np.abs(meat.omega - iid - meat.b_n) <= tol)


@given(
    case=singleton_arms_strategy(),
    width=st.sampled_from([5, 7, 10]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(**COMMON)
def test_meat_of_columns_zero_on_an_arm_matches_the_oracle(case, width, seed):
    # the meat accumulates each arm's block terms on the columns not
    # identically zero there, as moments of the pooled and weighted systems
    # are; here random columns vanish on one arm, or on both, and others on
    # some of an arm's units, as moments do on unobserved ones
    data, design = case
    rng = np.random.default_rng(seed)
    moments = np.asfortranarray(rng.normal(size=(data.n, width)))
    for arm in (0, 1):
        zero = rng.random(width) < 0.4
        moments[np.ix_(data.d == arm, zero)] = 0.0
        sparse = rng.random(width) < 0.3
        moments[np.ix_((data.d == arm) & (rng.random(data.n) < 0.7), sparse)] = 0.0
    try:
        expected = meat_design_oracle(data, design, moments)
    except PairingError:
        with pytest.raises(PairingError):
            meat_design(data, design, moments)
        return
    meat = meat_design(data, design, moments)
    for field in ("a", "a3", "zeta_10", "zeta_11", "zeta_00", "b_n", "omega"):
        assert_close_matrix(getattr(meat, field), expected[field], moments, field)
    for arm in ("treated", "control"):
        assert getattr(meat, f"singleton_{arm}").tolist() == expected[f"singleton_{arm}"]
        inv = getattr(meat, f"involution_{arm}")
        pairs = () if inv is None else tuple(map(tuple, inv.pairs.tolist()))
        assert pairs == expected[f"pairs_{arm}"]


@given(
    case=singleton_arms_strategy(),
    name=st.sampled_from(["lee", "lee-ipw"]),
    panel=st.permutations(["iid", "design", "label"]),
)
@settings(**COMMON)
def test_iid_variance_keeps_every_bit_whatever_else_is_asked(case, name, panel):
    data, design = case
    try:
        _, alone = estimate_bounds(data, design, name, ("iid",))
    except EstimationError:
        return  # the point estimate itself is undefined on this draw
    _, together = estimate_bounds(data, design, name, tuple(panel))
    want, got = alone["iid"], together["iid"]
    if isinstance(want, EstimationError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    for field in ("v_hat_lb", "v_hat_ub"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert (got.se_lb, got.se_ub) == (want.se_lb, want.se_ub)


@st.composite
def block_counts_strategy(draw):
    """Blocks of a few shapes (n_g, t_g) with any number of observed controls."""
    y, s, d, blocks = [], [], [], []
    for g in range(draw(st.integers(1, 12))):
        n_g = draw(st.integers(2, 5))
        t_g = draw(st.integers(1, n_g - 1))
        n0s = draw(st.integers(0, n_g - t_g))
        y.extend([1.0] * (t_g + n0s) + [np.nan] * (n_g - t_g - n0s))
        s.extend([1] * (t_g + n0s) + [0] * (n_g - t_g - n0s))
        d.extend([1] * t_g + [0] * (n_g - t_g))
        blocks.extend([f"g{g:02d}"] * n_g)
    return block_design(dataset_from_arrays(y, s, d, blocks))


@given(design=block_counts_strategy())
@settings(**COMMON)
def test_always_observed_treat_prob_matches_exact_oracle(design):
    expected = always_observed_treat_prob_oracle(design)
    if expected is None:
        with pytest.raises(EstimationError):
            always_observed_treat_prob(design)
        return
    assert always_observed_treat_prob(design) == float(expected)


@given(
    rows=st.integers(2, 30),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(**COMMON)
def test_meat_iid_is_positive_semidefinite(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    omega = meat_iid(m)
    eigvals = np.linalg.eigvalsh(omega)
    assert eigvals.min() >= -1e-10
    np.testing.assert_allclose(omega, omega.T, atol=1e-15)


@given(st.floats(0.0, 0.99), st.integers(1, 50))
@settings(**COMMON)
def test_trim_keeps_exact_mass_even_with_ties(q, m):
    if (1.0 - q) * m < 1.0:
        return
    y = np.ones(m)  # everything tied: the mean must be unaffected
    res = trimmed_mean(y, TrimSpec(q=q, side="upper"))
    assert res.mean == 1.0
    assert res.cutoff == 1.0
    assert res.ties_at_cutoff == m


# ---------------------------------------------------------------------------
# the vectorized per-stratum trimming against the per-stratum oracle
# ---------------------------------------------------------------------------

@st.composite
def strata_strategy(draw):
    """Strata of 2 to 30 units, often with outcomes drawn from only two or
    three values; some strata keep exactly one unit of treated mass."""
    n_blocks = draw(st.integers(1, 6))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    pool = draw(st.one_of(st.none(), st.lists(finite, min_size=2, max_size=3)))
    value = finite if pool is None else st.sampled_from(pool)
    y, s, d, blocks = [], [], [], []
    for g in range(n_blocks):
        if draw(st.integers(0, 4)) == 0:
            # (2c, c) with every treated and one control observed keeps
            # n0s t_g / c_g = 1 unit exactly
            c = draw(st.integers(1, 15))
            n_g, t_g = 2 * c, c
            sel = [1] * c + [1] + [0] * (c - 1)
        else:
            n_g = draw(st.integers(2, 30))
            t_g = draw(st.integers(1, n_g - 1))
            sel = draw(st.lists(st.integers(0, 1), min_size=n_g, max_size=n_g))
        y.extend(draw(st.lists(value, min_size=n_g, max_size=n_g)))
        s.extend(sel)
        d.extend([1] * t_g + [0] * (n_g - t_g))
        blocks.extend([f"g{g:02d}"] * n_g)
    s = np.array(s)
    return np.where(s == 1, np.array(y), np.nan), s, np.array(d), blocks


@given(parts=strata_strategy())
@settings(**COMMON)
def test_conditional_bounds_match_the_per_stratum_oracle(parts):
    y, s, d, blocks = parts
    data = dataset_from_arrays(y, s, d, blocks)
    design = block_design(data)
    try:
        lb, ub, used = oracle_conditional_lee(y, s, d, blocks)
    except ValueError:
        with pytest.raises(EstimationError, match="every stratum"):
            conditional_lee_bounds(data, design)
        return
    est = conditional_lee_bounds(data, design)
    scale = 1e-10 * max(1.0, float(np.abs(y[s == 1]).max(initial=0.0)))
    assert est.delta_lb == pytest.approx(lb, abs=scale)
    assert est.delta_ub == pytest.approx(ub, abs=scale)
    detail = est.detail
    assert [design.labels[g] for g in np.flatnonzero(detail.used)] == used
    one_arm = (design.n1s_g == 0) | (design.n0s_g == 0)
    np.testing.assert_array_equal(np.isnan(detail.tau), one_arm)
    for col in (detail.mu0, detail.mu1_lb, detail.mu1_ub):
        np.testing.assert_array_equal(np.isnan(col), ~detail.used)
    assert not (detail.clamped & ~detail.used).any()
    kept = detail.used
    assert (detail.mu1_lb[kept] <= detail.mu1_ub[kept] + scale).all()
    dropped = int((~kept).sum())
    assert (f"strata_dropped:{dropped}" in est.flags) == (dropped > 0)


@given(parts=strata_strategy(), seed=st.integers(0, 2**32 - 1))
@settings(**COMMON)
def test_conditional_bounds_do_not_depend_on_row_order(parts, seed):
    # the observed treated outcomes are sorted by (block, value), so every
    # treated cell keeps its bits; each block's controls are summed in
    # dataset order, so the control means move by rounding only, bounded
    # by 1e-12 of the outcomes' size, the terms summed (fixed beforehand)
    y, s, d, blocks = parts
    perm = np.random.default_rng(seed).permutation(y.size)
    data = dataset_from_arrays(y, s, d, blocks)
    moved = dataset_from_arrays(y[perm], s[perm], d[perm], [blocks[i] for i in perm])
    try:
        est = conditional_lee_bounds(data, block_design(data))
    except EstimationError as exc:
        with pytest.raises(type(exc)):
            conditional_lee_bounds(moved, block_design(moved))
        return
    got = conditional_lee_bounds(moved, block_design(moved))
    for name in ("tau", "clamped", "used", "mu1_lb", "mu1_ub"):
        np.testing.assert_array_equal(
            getattr(got.detail, name), getattr(est.detail, name), strict=True
        )
    tol = 1e-12 * max(1.0, float(np.abs(y[s == 1]).max()))
    np.testing.assert_allclose(got.detail.mu0, est.detail.mu0, rtol=0, atol=tol)
    for name in ("mu0", "mu1_lb", "mu1_ub", "delta_lb", "delta_ub", "q"):
        assert getattr(got, name) == pytest.approx(getattr(est, name), rel=0, abs=tol)
    assert (got.flags, got.warnings) == (est.flags, est.warnings)


@given(
    parts=strata_strategy(),
    shift=st.floats(-100.0, 100.0),
    scale=st.one_of(st.floats(-4.0, -0.25), st.floats(0.25, 4.0)),
)
@settings(**COMMON)
def test_affine_outcome_map_moves_bounds_to_match(parts, shift, scale):
    # y -> a + b y: the shift cancels in the contrast, the bounds scale
    # with b, and b < 0 swaps the lower and upper bound
    y, s, d, blocks = parts
    if d.sum() == 0 or d.sum() == d.size:
        return
    data = dataset_from_arrays(y, s, d, blocks)
    before = _pooled_bounds(data)
    after = _pooled_bounds(dataset_from_arrays(shift + scale * y, s, d, blocks))
    # lee-ipw trims the unnormalized outcomes (delta / eta_i) y, so a shift
    # cancels only where every block has the same treated share and the
    # weight is exactly 1; elsewhere it is checked under y -> b y
    design = block_design(data)
    if np.any(design.t_g * design.n_g[0] != design.t_g[0] * design.n_g):
        after[1] = _pooled_bounds(dataset_from_arrays(scale * y, s, d, blocks))[1]
    y_max = max(1.0, float(np.abs(y[s == 1]).max(initial=0.0)))
    tol = 1e-9 * (abs(shift) + abs(scale) * y_max)
    for a, b in zip(before, after):
        if isinstance(a, type) or isinstance(b, type):
            assert a == b
            continue
        want = (scale * a[0], scale * a[1]) if scale > 0 else (scale * a[1], scale * a[0])
        assert b[0] == pytest.approx(want[0], abs=tol)
        assert b[1] == pytest.approx(want[1], abs=tol)


@st.composite
def tied_treated_strategy(draw):
    """Designs whose observed treated outcomes all equal one value, so every
    trimming cutoff sits on a tie of the whole sample.

    Blocks hold 2-6 units with any treated count, so either arm may be a
    singleton; block 0's first treated and first control unit are observed.
    """
    tie = draw(st.one_of(
        st.sampled_from([-1.5, 0.0, 0.1, 3.0]),
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    ))
    y, s, d, blocks = [], [], [], []
    for g in range(draw(st.integers(2, 7))):
        n_g = draw(st.integers(2, 6))
        t_g = draw(st.integers(1, n_g - 1))
        for i in range(n_g):
            treated = i < t_g
            observed = (g == 0 and i in (0, t_g)) or draw(st.sampled_from([0, 1, 1]))
            d.append(int(treated))
            s.append(int(observed))
            y.append(tie if treated else draw(st.floats(-5.0, 5.0)))
            blocks.append(f"g{g}")
    s = np.array(s)
    y = np.where(s == 1, np.array(y), np.nan)
    return dataset_from_arrays(y, s, np.array(d), blocks), tie


@given(case=tied_treated_strategy())
@settings(**COMMON)
def test_treated_outcomes_tied_at_the_cutoff(case):
    # trimming a constant sample keeps that constant, and the smoothed
    # Jacobian at a cutoff tied by every unit stays finite
    data, tie = case
    design = block_design(data)
    mu0 = float(data.y[(data.d == 0) & (data.s == 1)].mean())
    for name in ("lee", "lee-ipw"):
        try:
            estimate, reports = estimate_bounds(data, design, name, ("iid", "design"))
        except EstimationError:
            continue  # the point estimate itself is undefined on this draw
        if name == "lee":
            assert estimate.delta_lb == estimate.delta_ub
            assert estimate.delta_lb == pytest.approx(tie - mu0, rel=1e-12, abs=1e-12)
        for method, report in reports.items():
            if isinstance(report, EstimationError):
                continue  # documented: a singular Jacobian, say
            assert math.isfinite(report.se_lb), (name, method)
            assert math.isfinite(report.se_ub), (name, method)


# magnitudes near the float limits, where a sum, a square or a difference
# overflows or a product underflows
HOSTILE_VALUES = (
    1e300, -1e300, 1.797e308, -1.797e308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e154, -1e154, 5e-324, -5e-324, 1e15, -1e15,
)


@st.composite
def hostile_csv_strategy(draw):
    """CSV text of 2-5 blocks of 2-5 units, each block with a treated and a
    control unit. Each arm's observed outcomes come from its own one to
    three values, HOSTILE_VALUES or ordinary ones, so a whole arm can sit
    at a float limit."""
    values = st.sampled_from(HOSTILE_VALUES) | st.floats(-10.0, 10.0)
    palettes = [draw(st.lists(values, min_size=1, max_size=3)) for _ in range(2)]
    lines = ["y,s,d,block"]
    for g in range(draw(st.integers(2, 5))):
        size = draw(st.integers(2, 5))
        treated = draw(st.integers(1, size - 1))
        for i in range(size):
            d = int(i < treated)
            observed = draw(st.sampled_from([True, True, True, False]))
            y = draw(st.sampled_from(palettes[d]))
            lines.append(f"{repr(y) if observed else ''},{int(observed)},{d},g{g}")
    return "\n".join(lines) + "\n"


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def hostile_csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input.csv"


@given(text=hostile_csv_strategy())
# the largest float as the one observed treated outcome: the pooled bounds
# overflow in Python floats, a case the draws reach only rarely
@example(
    text="y,s,d,block\n1.7976931348623157e308,1,1,g0\n,0,0,g0\n-0.652,1,0,g0\n"
    "-0.0077,1,0,g0\n,0,1,g1\n1e15,1,0,g1\n-1e300,1,0,g1\n0.0,1,0,g1\n"
)
@settings(deadline=None, max_examples=40)
def test_estimate_on_extreme_values_exits_cleanly(hostile_csv_path, text):
    # every estimator and variance: a documented exit code; on failure one
    # line of stderr and nothing on stdout; on success strict JSON with
    # finite bounds and SEs; no warning either way
    hostile_csv_path.write_text(text)
    for estimator in ESTIMATORS:
        for method in VARIANCE_CHOICES:
            argv = [
                "estimate", "--input", str(hostile_csv_path),
                "--estimator", estimator, "--variance", method,
            ]
            out, err = io.StringIO(), io.StringIO()
            with (
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
                warnings.catch_warnings(record=True) as caught,
            ):
                warnings.simplefilter("always")
                code = main(argv)
            case = (estimator, method, err.getvalue())
            assert code in (0, 1, 2), case
            assert not caught, (case, [str(w.message) for w in caught])
            if code:
                assert out.getvalue() == "", case
                assert err.getvalue().count("\n") == 1, case
                continue
            payload = json.loads(out.getvalue(), parse_constant=_refuse_constant)
            for result in payload["results"]:
                for field in ("delta_lb", "delta_ub", "se_lb", "se_ub"):
                    value = result[field]
                    assert value is None or math.isfinite(value), (case, field)
