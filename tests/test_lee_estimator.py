"""Trimmed means, trimming shares, pooled and per-stratum bounds."""

import math

import numpy as np
import pytest

from strata_bounds import (
    BoundsEstimate,
    DegenerateTrimError,
    EstimationError,
    TrimSpec,
    UndefinedTrimmingError,
    block_design,
    conditional_lee_bounds,
    estimate_bounds,
    lee_bounds,
    lee_ipw_bounds,
    trimmed_mean,
    trimming_share_pooled,
)

from conftest import build_dataset, random_dataset

from oracles import oracle_conditional_lee, oracle_lee, oracle_trimmed_mean
from frozen_values import (
    HAND_CUT_LB,
    HAND_CUT_UB,
    HAND_DELTA_LB,
    HAND_DELTA_UB,
    HAND_MU0,
    HAND_MU1_LB,
    HAND_MU1_UB,
    HAND_Q,
    TRIM_18_Q25_LOWER_CUTOFF,
    TRIM_18_Q25_LOWER_MEAN,
    TRIM_18_Q25_UPPER_CUTOFF,
    TRIM_18_Q25_UPPER_MEAN,
    TRIM_1234_Q375_UPPER_CUTOFF,
    TRIM_1234_Q375_UPPER_MEAN,
)


# ---------------------------------------------------------------------------
# trimmed_mean
# ---------------------------------------------------------------------------

def test_trimmed_mean_frozen_integer_grid_upper():
    res = trimmed_mean(np.arange(1.0, 9.0), TrimSpec(q=0.25, side="upper"))
    assert res.mean == TRIM_18_Q25_UPPER_MEAN
    assert res.cutoff == TRIM_18_Q25_UPPER_CUTOFF
    assert res.kept_mass == 6.0
    assert res.ties_at_cutoff == 1
    assert res.n_values == 8


def test_trimmed_mean_frozen_integer_grid_lower():
    res = trimmed_mean(np.arange(1.0, 9.0), TrimSpec(q=0.25, side="lower"))
    assert res.mean == TRIM_18_Q25_LOWER_MEAN
    assert res.cutoff == TRIM_18_Q25_LOWER_CUTOFF


def test_trimmed_mean_frozen_fractional_boundary():
    res = trimmed_mean([1.0, 2.0, 3.0, 4.0], TrimSpec(q=0.375, side="upper"))
    assert res.mean == TRIM_1234_Q375_UPPER_MEAN
    assert res.cutoff == TRIM_1234_Q375_UPPER_CUTOFF
    assert res.kept_mass == 2.5
    assert res.boundary_deficit == 0.5


def test_trimmed_mean_zero_share_is_plain_mean():
    y = np.array([4.0, -1.0, 2.5, 0.5])
    up = trimmed_mean(y, TrimSpec(q=0.0, side="upper"))
    lo = trimmed_mean(y, TrimSpec(q=0.0, side="lower"))
    assert up.mean == lo.mean == y.mean()
    assert up.cutoff == y.max()
    assert lo.cutoff == y.min()


def test_trimmed_mean_splits_boundary_mass_across_ties():
    y = [1.0, 2.0, 2.0, 2.0, 3.0]
    res = trimmed_mean(y, TrimSpec(q=0.3, side="upper"))
    # keep mass 3.5: unit below the cutoff counts fully, the three tied
    # boundary values share the remaining 2.5
    assert res.mean == pytest.approx((1.0 + 2.5 * 2.0) / 3.5, abs=1e-15)
    assert res.ties_at_cutoff == 3
    assert res.boundary_deficit == pytest.approx(0.5)
    mean, cutoff = oracle_trimmed_mean(y, 0.3, "upper")
    assert res.mean == pytest.approx(mean, abs=1e-12)
    assert res.cutoff == cutoff == 2.0


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_trimmed_mean_matches_oracle_on_random_draws(side):
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        y = rng.normal(size=m)
        if rng.random() < 0.5:
            y = np.round(y, 1)  # provoke boundary ties
        q = float(rng.uniform(0.0, 1.0 - 1.0 / m)) if m > 1 else 0.0
        res = trimmed_mean(y, TrimSpec(q=q, side=side))
        mean, cutoff = oracle_trimmed_mean(y, q, side)
        assert res.mean == pytest.approx(mean, abs=1e-10)
        assert res.cutoff == cutoff


def test_trimmed_mean_degenerate_cases():
    with pytest.raises(DegenerateTrimError):
        trimmed_mean([], TrimSpec(q=0.0, side="upper"))
    with pytest.raises(DegenerateTrimError):
        trimmed_mean([1.0, 2.0], TrimSpec(q=0.6, side="upper"))


def test_trim_spec_validation():
    with pytest.raises(DegenerateTrimError):
        TrimSpec(q=1.0, side="upper")
    with pytest.raises(DegenerateTrimError):
        TrimSpec(q=-0.1, side="upper")
    with pytest.raises(DegenerateTrimError):
        TrimSpec(q=float("nan"), side="upper")
    with pytest.raises(ValueError):
        TrimSpec(q=0.1, side="middle")


# ---------------------------------------------------------------------------
# trimming_share_pooled
# ---------------------------------------------------------------------------

def test_pooled_share_is_exact_on_hand_data(hand_dataset):
    share = trimming_share_pooled(block_design(hand_dataset))
    assert share.q == HAND_Q  # exact: 1 - (6*10)/(8*10)
    assert share.q_raw == HAND_Q
    assert not share.clamped
    assert share.rate_treated == 0.8
    assert share.rate_control == 0.6
    assert share.kept == 6  # n0s n1 / n0 = 6 * 10 / 10, exactly


def test_pooled_share_clamps_monotonicity_violation():
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        s=[1, 0, 1, 1, 1, 1],
        d=[1, 1, 1, 0, 0, 0],
        blocks=["a"] * 6,
    )
    share = trimming_share_pooled(block_design(data))
    assert share.q == 0.0
    assert share.q_raw < 0.0
    assert share.clamped


def test_pooled_share_undefined_without_observed_outcomes():
    no_treated = build_dataset(
        y=[0.0, 0.0, 1.0, 2.0], s=[0, 0, 1, 1], d=[1, 1, 0, 0], blocks=["a"] * 4
    )
    with pytest.raises(UndefinedTrimmingError, match="treated"):
        trimming_share_pooled(block_design(no_treated))
    no_control = build_dataset(
        y=[1.0, 2.0, 0.0, 0.0], s=[1, 1, 0, 0], d=[1, 1, 0, 0], blocks=["a"] * 4
    )
    with pytest.raises(UndefinedTrimmingError, match="control"):
        trimming_share_pooled(block_design(no_control))


# ---------------------------------------------------------------------------
# lee_bounds
# ---------------------------------------------------------------------------

def test_lee_bounds_hand_values_are_exact(hand_dataset):
    est = lee_bounds(hand_dataset, block_design(hand_dataset))
    assert est.method == "lee"
    assert est.q == HAND_Q
    assert est.mu0 == HAND_MU0
    assert est.mu1_lb == HAND_MU1_LB
    assert est.mu1_ub == HAND_MU1_UB
    assert est.delta_lb == HAND_DELTA_LB
    assert est.delta_ub == HAND_DELTA_UB
    assert est.cutoff_lb == HAND_CUT_LB
    assert est.cutoff_ub == HAND_CUT_UB
    assert est.n_used == 8 + 6  # observed treated and observed controls
    assert est.flags == ()
    assert est.warnings == ()


def test_lee_bounds_delta_identities_and_ordering(hand_dataset):
    est = lee_bounds(hand_dataset, block_design(hand_dataset))
    assert est.delta_lb == est.mu1_lb - est.mu0
    assert est.delta_ub == est.mu1_ub - est.mu0
    assert est.delta_lb <= est.delta_ub


def test_lee_bounds_flags_clamped_share():
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        s=[1, 0, 1, 1, 1, 1],
        d=[1, 1, 1, 0, 0, 0],
        blocks=["a"] * 6,
    )
    est = lee_bounds(data, block_design(data))
    assert "trimming_share_clamped" in est.flags
    assert est.q == 0.0
    # no trimming: both bounds collapse to the untrimmed contrast
    assert est.delta_lb == est.delta_ub


def test_lee_bounds_warns_on_heterogeneous_shares(two_block_dataset):
    est = lee_bounds(two_block_dataset, block_design(two_block_dataset))
    assert any("heterogeneous" in w for w in est.warnings)


def test_lee_bounds_no_warning_for_exactly_equal_shares():
    # shares 1/2 and 2/4 are equal as exact ratios
    data = build_dataset(
        y=np.arange(12.0),
        s=[1] * 12,
        d=[1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0],
        blocks=["a"] * 2 + ["b"] * 4 + ["c"] * 6,
    )
    est = lee_bounds(data, block_design(data))
    assert est.warnings == ()


def test_lee_bounds_match_oracle_on_random_datasets():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        data = random_dataset(rng)
        try:
            est = lee_bounds(data, block_design(data))
        except DegenerateTrimError:
            continue  # heavy attrition can leave < 1 unit of retained mass
        checked += 1
        q, mu0, mu1_lb, mu1_ub, cut_lb, cut_ub, clamped = oracle_lee(
            data.y, data.s, data.d
        )
        assert est.q == pytest.approx(q, abs=1e-12)
        assert est.mu0 == pytest.approx(mu0, abs=1e-12)
        assert est.mu1_lb == pytest.approx(mu1_lb, abs=1e-10)
        assert est.mu1_ub == pytest.approx(mu1_ub, abs=1e-10)
        assert est.cutoff_lb == cut_lb
        assert est.cutoff_ub == cut_ub
        assert ("trimming_share_clamped" in est.flags) == clamped
    assert checked >= 40


def test_whole_number_kept_mass_takes_its_exact_rank():
    # one block: 10 treated, y = 1..10, all observed; 3 of 10 controls
    # observed, so each estimator keeps exactly 3 units of treated mass,
    # where (1 - q) m = (1 - 0.7) * 10 rounds above 3
    y = [*range(1, 11), 0.0, 0.0, 0.0] + [0.0] * 7
    s = [1] * 13 + [0] * 7
    d = [1] * 10 + [0] * 10
    data = build_dataset(y, s, d, ["a"] * 20)
    design = block_design(data)
    for name, estimator in (("lee", lee_bounds), ("lee-ipw", lee_ipw_bounds)):
        est = estimator(data, design)
        assert (est.cutoff_lb, est.cutoff_ub) == (3.0, 8.0), name
        assert (est.mu1_lb, est.mu1_ub) == (2.0, 9.0), name
        # the variance is taken at the cutoff of the exact rank
        _, reports = estimate_bounds(data, design, name, ("iid",))
        fit = reports["iid"].fit_lb
        assert fit.theta.cutoff == 3.0 and fit.estimate == est, name
    cond = conditional_lee_bounds(data, design)
    assert (cond.mu1_lb, cond.mu1_ub) == (2.0, 9.0)


# ---------------------------------------------------------------------------
# conditional_lee_bounds
# ---------------------------------------------------------------------------

def test_one_block_conditional_cells_equal_the_pooled_bounds_bit_for_bit():
    # on one block the conditional estimator's cell is the pooled trim: the
    # same values, the same kept mass, through the same kernel
    rng = np.random.default_rng(26)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        t = int(rng.integers(1, n))
        d = np.zeros(n, dtype=int)
        d[rng.permutation(n)[:t]] = 1
        s = (rng.random(n) < np.where(d == 1, 0.9, 0.6)).astype(int)
        s[np.flatnonzero(d == 1)[0]] = s[np.flatnonzero(d == 0)[0]] = 1
        y = rng.normal(size=n)
        if rng.random() < 0.3:
            y = np.round(y, 1)  # ties at the cutoff
        data = build_dataset(y, s, d, ["a"] * n)
        design = block_design(data)
        try:
            pooled = lee_bounds(data, design)
        except DegenerateTrimError:
            continue
        cell = conditional_lee_bounds(data, design).detail
        assert cell.mu1_lb[0] == pooled.mu1_lb
        assert cell.mu1_ub[0] == pooled.mu1_ub


def test_conditional_bounds_match_oracle_on_random_datasets():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        data = random_dataset(rng)
        design = block_design(data)
        try:
            est = conditional_lee_bounds(data, design)
        except EstimationError:
            with pytest.raises(ValueError):
                oracle_conditional_lee(data.y, data.s, data.d, data.blocks)
            continue
        lb, ub, used = oracle_conditional_lee(data.y, data.s, data.d, data.blocks)
        assert est.delta_lb == pytest.approx(lb, abs=1e-10)
        assert est.delta_ub == pytest.approx(ub, abs=1e-10)
        assert [design.labels[g] for g in np.flatnonzero(est.detail.used)] == used
        checked += 1
    assert checked >= 40  # most random datasets must be estimable


def test_conditional_bounds_report_dropped_and_clamped_strata():
    # block "drop": controls all unobserved; block "clamp": control rate 1
    # exceeds treated rate 1/2; block "ok": plain
    y = [1.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0]
    s = [1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0]
    d = [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0]
    blocks = ["drop"] * 4 + ["clamp"] * 4 + ["ok"] * 4
    data = build_dataset(y, s, d, blocks)
    design = block_design(data)
    est = conditional_lee_bounds(data, design)
    assert est.method == "conditional_lee"
    assert "strata_dropped:1" in est.flags
    assert "stratum_trimming_clamped:1" in est.flags
    assert any("drop" in w for w in est.warnings)
    assert math.isnan(est.cutoff_lb) and math.isnan(est.cutoff_ub)
    detail = est.detail
    drop, clamp, ok = (design.labels.index(name) for name in ("drop", "clamp", "ok"))
    assert not detail.used[drop]
    assert detail.used[clamp] and detail.clamped[clamp]
    assert detail.used[ok] and not detail.clamped[ok]
    assert math.isnan(detail.tau[drop]) and math.isnan(detail.mu0[drop])
    assert detail.tau[clamp] == 0.0
    with pytest.raises(ValueError):
        detail.used[drop] = True


def test_conditional_bounds_keep_stratum_retaining_exactly_one_unit():
    # "one": a (6, 3) stratum with 3 of 3 treated and 1 of 3 controls
    # observed keeps n0s t_g / c_g = 1 unit exactly, though (1 - tau) * 3
    # rounds to just below one. "thin": a (4, 1) stratum with 1 of 3
    # controls observed keeps a third of a unit and is dropped.
    y = [4.0, 1.0, 7.0, 2.0, 0.0, 0.0, 5.0, 3.0, 0.0, 0.0]
    s = [1, 1, 1, 1, 0, 0, 1, 1, 0, 0]
    d = [1, 1, 1, 0, 0, 0, 1, 0, 0, 0]
    blocks = ["one"] * 6 + ["thin"] * 4
    data = build_dataset(y, s, d, blocks)
    est = conditional_lee_bounds(data, block_design(data))
    detail = est.detail  # blocks "one" and "thin", in label order
    (warning,) = est.warnings
    assert detail.used[0] and "one (" not in warning
    assert (detail.mu1_lb[0], detail.mu1_ub[0], detail.mu0[0]) == (1.0, 7.0, 2.0)
    assert est.delta_lb == -1.0 and est.delta_ub == 5.0
    assert not detail.used[1]
    thin_reason = warning.split("thin (", 1)[1]
    assert thin_reason.startswith("trimming share 0.666") and "< 1 of 1" in thin_reason
    assert math.isnan(detail.mu1_lb[1]) and detail.tau[1] == 1.0 - 1.0 / 3.0
    assert "strata_dropped:1" in est.flags


def test_conditional_bounds_weighting_is_by_block_size():
    # two fully observed strata with no trimming: the aggregate is the
    # size-weighted mean of per-stratum contrasts
    y = [10.0, 4.0, 2.0, 0.0, 20.0, 8.0, 4.0, 0.0, 6.0, 2.0]
    s = [1] * 10
    d = [1, 1, 0, 0, 1, 1, 0, 0, 1, 0]
    blocks = ["a"] * 4 + ["b"] * 6
    data = build_dataset(y, s, d, blocks)
    est = conditional_lee_bounds(data, block_design(data))
    contrast_a = (10.0 + 4.0) / 2 - (2.0 + 0.0) / 2
    contrast_b = (20.0 + 8.0 + 6.0) / 3 - (4.0 + 0.0 + 2.0) / 3
    expect = (4 * contrast_a + 6 * contrast_b) / 10
    assert est.delta_lb == pytest.approx(expect, abs=1e-12)
    assert est.delta_ub == pytest.approx(expect, abs=1e-12)


def test_conditional_bounds_fail_when_every_stratum_fails():
    # both strata miss all control outcomes
    data = build_dataset(
        y=[1.0, 0.0, 2.0, 0.0],
        s=[1, 0, 1, 0],
        d=[1, 0, 1, 0],
        blocks=["a", "a", "b", "b"],
    )
    with pytest.raises(EstimationError, match="every stratum"):
        conditional_lee_bounds(data, block_design(data))


def _seven_dropped_strata(with_used: bool):
    """Strata d1-d7 that conditional_lee_bounds drops: d1 keeps a third of a
    treated unit, d2-d7 observe no control; "ok", if asked for, is used."""
    y = [4.0, 1.0, 0.0, 0.0]
    s = [1, 1, 0, 0]
    d = [1, 0, 0, 0]
    blocks = ["d1"] * 4
    for g in range(2, 8):
        y += [float(g), 0.0]
        s += [1, 0]
        d += [1, 0]
        blocks += [f"d{g}"] * 2
    if with_used:
        y += [5.0, 6.0, 2.0, 1.0]
        s += [1, 1, 1, 1]
        d += [1, 1, 0, 0]
        blocks += ["ok"] * 4
    return build_dataset(y, s, d, blocks)


def _first_five_of_seven(form: str) -> str:
    """The count and the first five of _seven_dropped_strata, each as
    form.format(label, reason)."""
    reasons = [
        "trimming share 0.6666666666666667 retains mass 0.333333 < 1 of 1 values",
        *["no observed outcomes in one arm"] * 4,
    ]
    shown = (form.format(f"d{g}", r) for g, r in enumerate(reasons, start=1))
    return "7 blocks: " + "; ".join(shown) + "; ..."


def test_conditional_bounds_name_few_of_many_dropped_strata():
    data = _seven_dropped_strata(with_used=True)
    est = conditional_lee_bounds(data, block_design(data))
    assert est.warnings == ("dropped strata: " + _first_five_of_seven("{} ({})"),)
    # the flag and the detail keep the full count and set
    assert "strata_dropped:7" in est.flags
    assert est.detail.used.tolist() == [False] * 7 + [True]
    data = _seven_dropped_strata(with_used=False)
    with pytest.raises(EstimationError) as info:
        conditional_lee_bounds(data, block_design(data))
    assert str(info.value) == (
        "conditional bounds undefined in every stratum: "
        + _first_five_of_seven("{}: {}")
    )


def test_bounds_estimate_is_immutable(hand_dataset):
    est = lee_bounds(hand_dataset, block_design(hand_dataset))
    assert isinstance(est, BoundsEstimate)
    with pytest.raises(AttributeError):
        est.q = 0.5
