"""Meat matrices, pairing, label variance, intervals, sandwich reports."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from strata_bounds import (
    EstimationError,
    FeasibilityError,
    Involution,
    PairingError,
    SingularJacobianError,
    block_design,
    confidence_intervals,
    dataset_from_arrays,
    estimate_bounds,
    fit_theta,
    lee_bounds,
    meat_design,
    meat_iid,
    pair_blocks,
    sandwich_report,
    set_critical_value,
    simulate_dgp1,
)
from strata_bounds import variance
from strata_bounds.variance import bound_standard_error

from conftest import (
    assert_close_matrix,
    build_dataset,
    random_dataset,
    run_fresh_interpreter,
)

from oracles import (
    assignments,
    enum_mean_cross_term,
    enum_mean_label_within,
    enum_mean_within_arm,
    label_variance,
    meat_design_oracle,
    oracle_set_critical,
    pair_probability,
    rhs_cross_term,
    rhs_label_pairs,
    rhs_within_arm,
)
from frozen_values import (
    CONSTANT_MOMENT_OMEGA,
    LABEL_GAMMA0,
    LABEL_GAMMA1,
    LABEL_VARIANCE_CONSTANT,
)


def _one_block_dataset(dvec):
    n = dvec.size
    return dataset_from_arrays(
        y=np.zeros(n), s=np.ones(n, dtype=int), d=dvec, block=["g"] * n
    )


# ---------------------------------------------------------------------------
# iid meat
# ---------------------------------------------------------------------------

def test_meat_iid_is_centered_second_moment():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(40, 5))
    omega = meat_iid(m)
    np.testing.assert_allclose(omega, np.cov(m.T, bias=True), atol=1e-12)
    np.testing.assert_array_equal(omega, omega.T)


def test_meat_iid_constant_rows_vanish():
    m = np.tile([1.0, -2.0, 3.0], (10, 1))
    np.testing.assert_allclose(meat_iid(m), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# design meat: construction identities
# ---------------------------------------------------------------------------

def test_meat_design_assembly_identity(hand_dataset):
    design = block_design(hand_dataset)
    fit = fit_theta(hand_dataset, design, "lee_lb")
    report = meat_design(hand_dataset, design, fit.matrix.values)
    np.testing.assert_allclose(
        report.b_n,
        -(report.zeta_11 + report.zeta_00 - 2.0 * report.zeta_10),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        report.omega,
        report.a + report.b_n - report.a3,
        atol=1e-15,
    )
    np.testing.assert_array_equal(report.omega, report.omega.T)
    assert report.singleton_treated.size == 0
    assert report.singleton_control.size == 0


def test_meat_design_constant_moments_cancel_exactly():
    # one block of 4 with 2 treated and a constant moment vector: the
    # between-arm corrections cancel the squared mean exactly
    data = _one_block_dataset(np.array([1, 1, 0, 0]))
    design = block_design(data)
    moments = np.tile([2.0, -1.0], (4, 1))
    report = meat_design(data, design, moments)
    np.testing.assert_allclose(
        report.omega, CONSTANT_MOMENT_OMEGA, atol=1e-12
    )


def test_meat_design_cross_term_matches_outer_product_per_assignment():
    mu1 = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
    mu0 = np.array([[0.0, 1.0], [1.5, 2.0], [-0.5, 0.5], [1.0, -2.0]])
    coef = 0.5 * 0.5  # eta (1 - eta) with block weight N_g/n = 1
    for dvec in assignments(4, 2):
        data = _one_block_dataset(dvec)
        design = block_design(data)
        moments = np.where(dvec[:, None] == 1, mu1, mu0)
        report = meat_design(data, design, moments)
        m1 = moments[dvec == 1].mean(axis=0)
        m0 = moments[dvec == 0].mean(axis=0)
        expect = coef * 0.5 * (np.outer(m1, m0) + np.outer(m0, m1))
        np.testing.assert_allclose(report.zeta_10, expect, atol=1e-14)


def test_meat_design_enumeration_means_match_closed_forms():
    # averaging the zeta pieces over every assignment of one block must hit
    # the closed-form conditional means (a small version of the exhaustive
    # acceptance check)
    rng = np.random.default_rng(77)
    n_units, n_treated = 4, 2
    mu1 = rng.normal(size=(n_units, 3))
    mu0 = rng.normal(size=(n_units, 3))
    eta = n_treated / n_units
    coef = eta * (1.0 - eta)
    acc10 = acc11 = acc00 = 0.0
    plans = assignments(n_units, n_treated)
    for dvec in plans:
        data = _one_block_dataset(dvec)
        design = block_design(data)
        moments = np.where(dvec[:, None] == 1, mu1, mu0)
        report = meat_design(data, design, moments)
        acc10 = acc10 + report.zeta_10
        acc11 = acc11 + report.zeta_11
        acc00 = acc00 + report.zeta_00
    np.testing.assert_allclose(
        acc10 / len(plans), coef * rhs_cross_term(mu1, mu0), atol=1e-12
    )
    np.testing.assert_allclose(
        acc11 / len(plans), coef * rhs_within_arm(mu1), atol=1e-12
    )
    np.testing.assert_allclose(
        acc00 / len(plans), coef * rhs_within_arm(mu0), atol=1e-12
    )
    np.testing.assert_allclose(
        enum_mean_cross_term(mu1, mu0, n_treated),
        rhs_cross_term(mu1, mu0),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        enum_mean_within_arm(mu1, n_treated, 1), rhs_within_arm(mu1), atol=1e-13
    )


def test_pair_probability_sums_to_one():
    total = sum(
        pair_probability(5, 2, a, b) for a in (0, 1) for b in (0, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# singleton-arm pairing
# ---------------------------------------------------------------------------

def _pairs_design(labels_sizes_treated, y_shift=0.0, x_vals=None):
    y, s, d, blocks, x = [], [], [], [], []
    for label, size, treated in labels_sizes_treated:
        for i in range(size):
            y.append(y_shift + i)
            s.append(1)
            d.append(1 if i < treated else 0)
            blocks.append(label)
            if x_vals is not None:
                x.append([x_vals[label]])
    data = build_dataset(
        np.array(y), np.array(s), np.array(d), blocks,
        x=np.array(x) if x_vals is not None else None,
    )
    return data, block_design(data)


def test_pair_blocks_pairs_within_set_by_label():
    _, design = _pairs_design([("a", 2, 1), ("b", 2, 1), ("c", 2, 1), ("d", 2, 1)])
    inv = pair_blocks(design, [0, 1, 2, 3])
    assert inv.pairs.dtype == np.int64
    assert inv.pairs.tolist() == [[0, 1], [2, 3]]
    assert pair_blocks(design, [3, 1, 2, 0, 2]).pairs.tolist() == [[0, 1], [2, 3]]


def test_pair_blocks_odd_leftover_takes_outside_partner():
    _, design = _pairs_design([("a", 2, 1), ("b", 2, 1), ("c", 2, 1), ("z", 4, 2)])
    inv = pair_blocks(design, [0, 1, 2])
    assert inv.pairs.tolist() == [[0, 1], [2, 3]]  # 3 is the nearest outside block


def test_pair_blocks_uses_covariate_means_when_present():
    x_vals = {"a": 0.0, "b": 10.0, "c": 0.1, "d": 10.2}
    _, design = _pairs_design(
        [("a", 2, 1), ("b", 2, 1), ("c", 2, 1), ("d", 2, 1)], x_vals=x_vals
    )
    inv = pair_blocks(design, [0, 1, 2, 3])
    # sorted by covariate mean: a (0.0), c (0.1), b (10.0), d (10.2)
    assert inv.pairs.tolist() == [[0, 2], [1, 3]]


def test_pair_blocks_fails_without_outside_partner():
    _, design = _pairs_design([("a", 2, 1)])
    with pytest.raises(PairingError):
        pair_blocks(design, [0])


def test_involution_rejects_fixed_points():
    with pytest.raises(PairingError):
        Involution(pairs=((1, 1),))


def test_label_variance_rejects_singleton_arms():
    data, design = _pairs_design([("a", 2, 1), ("b", 4, 2)])
    _, reports = estimate_bounds(data, design, "lee", ("label", "design"))
    assert isinstance(reports["label"], FeasibilityError)
    assert str(reports["label"]).endswith("singleton arms in: a")
    assert not isinstance(reports["design"], EstimationError)


def test_label_and_design_variances_share_one_meat(monkeypatch):
    # with two units per arm in every block the paired meat pairs nothing,
    # so it is the label meat too, and it is formed once
    data, design = _pairs_design([("a", 4, 2), ("b", 5, 2), ("c", 6, 3)])
    calls = []
    meat_design = variance.meat_design
    monkeypatch.setattr(
        variance, "meat_design", lambda *args: calls.append(1) or meat_design(*args)
    )
    _, reports = estimate_bounds(data, design, "lee", ("design", "label", "iid"))
    assert len(calls) == 1
    label, paired = reports["label"], reports["design"]
    assert (label.se_lb, label.se_ub) == (paired.se_lb, paired.se_ub)
    assert label.meat is paired.meat


def test_meat_design_pairs_singletons_and_reports_them():
    data, design = _pairs_design([("a", 2, 1), ("b", 2, 1)])
    rng = np.random.default_rng(4)
    moments = rng.normal(size=(4, 2))
    report = meat_design(data, design, moments)
    assert report.singleton_treated.tolist() == [0, 1]
    assert report.singleton_control.tolist() == [0, 1]
    assert [design.labels[g] for g in report.singleton_treated] == ["a", "b"]
    assert report.involution_treated is not None
    # with the partner-arm rule, the singleton cross term uses the partner
    # block's arm mean on both sides
    coef = (2 / 4) * 0.5 * 0.5
    m_a1 = moments[0]  # block a treated unit
    m_b1 = moments[2]  # block b treated unit
    expect_11 = coef * 0.5 * (np.outer(m_a1, m_b1) + np.outer(m_b1, m_a1)) * 2
    np.testing.assert_allclose(report.zeta_11, expect_11, atol=1e-14)


def _assert_meat_matches_oracle(data, moments):
    design = block_design(data)
    meat = meat_design(data, design, moments)
    expected = meat_design_oracle(data, design, moments)
    for field in ("a", "a3", "zeta_10", "zeta_11", "zeta_00", "b_n", "omega"):
        assert_close_matrix(getattr(meat, field), expected[field], moments, field)
    for arm in ("treated", "control"):
        assert getattr(meat, f"singleton_{arm}").tolist() == expected[f"singleton_{arm}"]
        inv = getattr(meat, f"involution_{arm}")
        pairs = () if inv is None else tuple(map(tuple, inv.pairs.tolist()))
        assert pairs == expected[f"pairs_{arm}"]
    return meat


def _shuffled(data, perm):
    return dataset_from_arrays(
        y=data.y[perm], s=data.s[perm], d=data.d[perm],
        block=[data.blocks[i] for i in perm],
        x=None if data.x is None else data.x[perm],
    )


def test_meat_design_one_unit_per_block_matches_the_oracle():
    # matched pairs: both arms have one unit in every block, in dataset
    # order as simulated and in a shuffled order
    data = simulate_dgp1(9, n=200)
    rng = np.random.default_rng(9)
    moments = rng.normal(size=(data.n, 5))
    meat = _assert_meat_matches_oracle(data, moments)
    assert meat.singleton_treated.size == meat.singleton_control.size == 100
    perm = rng.permutation(data.n)
    _assert_meat_matches_oracle(_shuffled(data, perm), moments[perm])


def test_meat_design_one_unit_treated_arm_beside_a_larger_control_arm():
    # blocks of three with one treated unit: the treated arm has one unit
    # in every block, the control arm two, so only the treated arm is paired
    rng = np.random.default_rng(10)
    labels = [f"b{g}" for g in rng.permutation(8)]  # not in label order
    d = np.concatenate([rng.permutation([1, 0, 0]) for _ in range(8)])
    blocks = [labels[i // 3] for i in range(d.size)]
    data = build_dataset(rng.normal(size=d.size), np.ones(d.size), d, blocks)
    moments = rng.normal(size=(data.n, 5))
    meat = _assert_meat_matches_oracle(data, moments)
    assert meat.singleton_treated.size == 8 and meat.singleton_control.size == 0
    assert meat.involution_control is None


@pytest.mark.parametrize("case", ["matched_pairs", "odd_shared_set"])
def test_meat_design_arms_with_one_singleton_set_share_its_pairs(case):
    if case == "matched_pairs":
        data = simulate_dgp1(11, n=200)
    else:
        # blocks a-c hold one unit of each arm, d-e two: the odd leftover
        # of the shared set pairs outside it
        data, _ = _pairs_design([("a", 2, 1), ("b", 2, 1), ("c", 2, 1),
                                 ("d", 4, 2), ("e", 4, 2)])
    design = block_design(data)
    meat = _assert_meat_matches_oracle(
        data, np.random.default_rng(11).normal(size=(data.n, 5))
    )
    np.testing.assert_array_equal(meat.singleton_treated, meat.singleton_control)
    np.testing.assert_array_equal(
        meat.involution_treated.pairs, meat.involution_control.pairs
    )
    np.testing.assert_array_equal(
        meat.involution_treated.pairs, pair_blocks(design, meat.singleton_treated).pairs
    )


@pytest.mark.parametrize("name,live", [("lee", (5, 2)), ("lee-ipw", (6, 3))])
def test_meat_design_sums_each_arm_on_its_live_columns(monkeypatch, name, live):
    # a fit's 7 columns: the pooled system's rows vanish on one arm but for
    # 5 treated and 2 control columns, the weighted system's for 6 and 3.
    # The moment pass writes only those rows, over the arm's units, and
    # each arm of these blocks of three sums its rows by bincount
    rng = np.random.default_rng(13)
    d = np.tile([1, 0, 0, 1, 1, 0], 20)
    s = (rng.random(d.size) < 0.8).astype(int)
    data = build_dataset(rng.normal(size=d.size), s, d, [f"b{i // 3:02d}" for i in range(d.size)])
    design = block_design(data)
    sums, read = [], []
    bincount, meat = np.bincount, variance.meat_design

    def counted(codes, weights=None, minlength=0):
        if weights is not None:
            sums.append(weights.size)
        return bincount(codes, weights=weights, minlength=minlength)

    def counting(*args, **kwargs):
        read.extend(part.rows.shape for part in args[2].arms)
        monkeypatch.setattr(variance.np, "bincount", counted)
        try:
            return meat(*args, **kwargs)
        finally:
            monkeypatch.setattr(variance.np, "bincount", bincount)

    monkeypatch.setattr(variance, "meat_design", counting)
    estimate_bounds(data, design, name, ("design",))
    treated = int(d.sum())
    assert read == [(live[0], treated), (live[1], d.size - treated)]
    assert sums == [treated] * live[0] + [d.size - treated] * live[1]


# ---------------------------------------------------------------------------
# label variance
# ---------------------------------------------------------------------------

def test_label_variance_constant_gap(label_constant_dataset):
    design = block_design(label_constant_dataset)
    value = label_variance(label_constant_dataset, design)
    assert value == pytest.approx(
        (LABEL_GAMMA1 - LABEL_GAMMA0) ** 2, abs=1e-12
    )
    assert value == pytest.approx(LABEL_VARIANCE_CONSTANT, abs=1e-12)


def test_label_variance_needs_two_per_arm():
    data, design = _pairs_design([("a", 3, 1), ("b", 4, 2)])
    with pytest.raises(FeasibilityError, match="a"):
        label_variance(data, design)


def test_label_variance_matches_enumeration_mean():
    # one block of 5 with 2 treated: the exhaustive mean of each pair piece
    # equals the shared closed form, so the exhaustive mean of the full
    # statistic equals rho11 + rho00 - 2 rho10 with every piece equal
    y = np.array([1.0, 4.0, -2.0, 0.5, 3.0])
    n_treated = 2
    plans = assignments(5, n_treated)
    acc = 0.0
    for dvec in plans:
        data = dataset_from_arrays(
            y=y, s=np.ones(5, dtype=int), d=dvec, block=["g"] * 5
        )
        acc += label_variance(data, block_design(data))
    shared = rhs_label_pairs(y)
    assert acc / len(plans) == pytest.approx(
        shared + shared - 2.0 * shared, abs=1e-12
    )
    assert enum_mean_label_within(y, n_treated, 0) == pytest.approx(
        shared, abs=1e-13
    )


# ---------------------------------------------------------------------------
# standard errors and intervals
# ---------------------------------------------------------------------------

def test_bound_standard_error_contrast_and_clipping():
    v = np.zeros((5, 5))
    v[0, 0], v[1, 1], v[0, 1], v[1, 0] = 4.0, 1.0, 0.5, 0.5
    se, clipped = bound_standard_error(v, 100)
    assert se == pytest.approx(math.sqrt((4.0 + 1.0 - 1.0) / 100))
    assert not clipped
    v_bad = np.zeros((5, 5))
    v_bad[0, 1] = v_bad[1, 0] = 5.0
    se, clipped = bound_standard_error(v_bad, 100)
    assert se == 0.0 and clipped


def test_set_critical_value_matches_independent_solver():
    for width, sigma, alpha in [
        (0.0, 1.0, 0.05),
        (0.5, 1.0, 0.05),
        (2.0, 0.7, 0.05),
        (0.1, 2.0, 0.10),
        (5.0, 0.5, 0.01),
    ]:
        mine = set_critical_value(width, sigma, alpha)
        ref = oracle_set_critical(width, sigma, alpha)
        assert mine == pytest.approx(ref, abs=1e-8)


def test_set_critical_value_limits():
    z_one = norm.ppf(0.95)
    z_two = norm.ppf(0.975)
    assert set_critical_value(0.0, 1.0, 0.05) == pytest.approx(z_two, abs=1e-9)
    assert set_critical_value(100.0, 1.0, 0.05) == pytest.approx(z_one, abs=1e-8)
    assert set_critical_value(1.0, 0.0, 0.05) == pytest.approx(z_one, abs=1e-12)


def test_set_critical_value_decreases_with_width():
    vals = [set_critical_value(w, 1.0, 0.05) for w in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_confidence_intervals_shapes():
    rep = confidence_intervals(1.0, 2.0, 0.1, 0.2, 0.05)
    z = norm.ppf(0.975)
    assert rep.ci_lb == pytest.approx((1.0 - z * 0.1, 1.0 + z * 0.1))
    assert rep.ci_ub == pytest.approx((2.0 - z * 0.2, 2.0 + z * 0.2))
    assert rep.ci_set[0] == pytest.approx(1.0 - rep.critical_set * 0.1)
    assert rep.ci_set[1] == pytest.approx(2.0 + rep.critical_set * 0.2)
    assert rep.ci_set[0] > rep.ci_lb[0]  # set interval is tighter per side
    assert not rep.degenerate


def test_confidence_intervals_degenerate_sigma():
    rep = confidence_intervals(1.0, 2.0, 0.0, 0.0, 0.05)
    assert rep.degenerate
    assert rep.ci_set == (1.0, 2.0)


def test_confidence_intervals_alpha_below_float_resolution_are_infinite():
    # 1 - alpha/2 rounds to 1, where the normal quantile is +inf
    rep = confidence_intervals(0.4, 0.6, 0.05, 0.06, 1e-17)
    assert rep.ci_lb == rep.ci_ub == rep.ci_set == (-math.inf, math.inf)
    assert rep.z_per_bound == rep.critical_set == math.inf


# ---------------------------------------------------------------------------
# sandwich_report end to end
# ---------------------------------------------------------------------------

def test_sandwich_report_hand_data_all_methods(hand_dataset):
    design = block_design(hand_dataset)
    reports = {
        method: sandwich_report(hand_dataset, design, "lee", method)
        for method in ("design", "iid", "label")
    }
    for method, rep in reports.items():
        assert rep.method == method
        assert rep.se_lb > 0.0 and rep.se_ub > 0.0
        assert rep.fit_lb.estimate.delta_lb == 0.0
        assert rep.fit_ub.estimate.delta_ub == 2.0
        assert rep.ci_lb[0] < 0.0 < rep.ci_lb[1]
        assert rep.ci_set[0] < rep.ci_lb[1]
        assert rep.intervals.critical_set <= norm.ppf(0.975) + 1e-9
        assert rep.intervals.critical_set >= norm.ppf(0.95) - 1e-9
    # one block, no singleton arms: paired and label meats coincide
    assert reports["design"].se_lb == pytest.approx(
        reports["label"].se_lb, abs=1e-12
    )
    assert reports["design"].se_ub == pytest.approx(
        reports["label"].se_ub, abs=1e-12
    )


def test_sandwich_report_ipw_runs_on_heterogeneous_data(two_block_dataset):
    rep = sandwich_report(two_block_dataset, block_design(two_block_dataset), "ipw", "design")
    assert rep.se_lb >= 0.0 and rep.se_ub >= 0.0
    assert rep.fit_lb.system == "ipw_lb"
    assert rep.fit_ub.system == "ipw_ub"


def test_sandwich_report_rejects_unknown_method(hand_dataset):
    with pytest.raises(ValueError, match="method"):
        sandwich_report(hand_dataset, block_design(hand_dataset), "lee", "hac")


@pytest.mark.parametrize("methods", [("iid",), ()], ids=["iid", "no-method"])
@pytest.mark.parametrize("alpha", [0.0, -0.05, 1.0, 1.5, math.nan, math.inf])
def test_estimate_bounds_rejects_alpha_outside_zero_one(hand_dataset, alpha, methods):
    design = block_design(hand_dataset)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
        estimate_bounds(hand_dataset, design, "lee", methods, alpha)


def test_sandwich_report_unit_order_invariance():
    rng = np.random.default_rng(123)
    data = random_dataset(rng, min_block=4)
    design = block_design(data)
    try:
        base = sandwich_report(data, design, "lee", "design")
    except EstimationError:
        pytest.skip("degenerate draw")
    perm = rng.permutation(data.n)
    shuffled = dataset_from_arrays(
        y=np.where(data.s == 1, data.y, 0.0)[perm],
        s=data.s[perm],
        d=data.d[perm],
        block=[data.blocks[i] for i in perm],
    )
    rep = sandwich_report(shuffled, block_design(shuffled), "lee", "design")
    assert rep.se_lb == pytest.approx(base.se_lb, rel=1e-9)
    assert rep.se_ub == pytest.approx(base.se_ub, rel=1e-9)
    assert rep.fit_lb.estimate.delta_lb == pytest.approx(
        base.fit_lb.estimate.delta_lb, abs=1e-12
    )


def _matched_pair_data():
    # strong pair matching on the outcome
    rng = np.random.default_rng(2)
    n_pairs = 400
    shift = np.repeat(rng.normal(0.0, 5.0, n_pairs), 2)
    d = np.zeros(2 * n_pairs, dtype=int)
    coin = rng.integers(0, 2, n_pairs)
    d[0::2] = coin
    d[1::2] = 1 - coin
    y = shift + rng.normal(0.0, 0.3, 2 * n_pairs) + d
    blocks = [f"{i // 2:04d}" for i in range(2 * n_pairs)]
    return dataset_from_arrays(y, np.ones(2 * n_pairs, dtype=int), d, blocks)


def test_sandwich_report_iid_larger_than_design_on_pair_data():
    # ignoring the blocks overstates the variance of the contrast
    data = _matched_pair_data()
    design = block_design(data)
    rep_design = sandwich_report(data, design, "lee", "design")
    rep_iid = sandwich_report(data, design, "lee", "iid")
    assert rep_design.se_lb < rep_iid.se_lb
    assert rep_design.se_ub < rep_iid.se_ub


def test_estimate_bounds_fails_one_method_alone():
    data = _matched_pair_data()
    design = block_design(data)
    estimate, reports = estimate_bounds(
        data, design, "lee", ("iid", "label", "design")
    )
    assert estimate == lee_bounds(data, design)
    # pairs have one unit per arm, which the label meat refuses
    assert isinstance(reports["label"], FeasibilityError)
    for method in ("iid", "design"):
        alone = sandwich_report(data, design, "lee", method)
        assert reports[method].se_lb == alone.se_lb
        assert reports[method].se_ub == alone.se_ub
    with pytest.raises(FeasibilityError):
        sandwich_report(data, design, "lee", "label")
    with pytest.raises(ValueError, match="conditional-lee"):
        estimate_bounds(data, design, "conditional-lee", ("iid",))


@pytest.mark.parametrize(
    "failing,expected",
    [
        # the lower bound's fit error comes first, even ahead of the label
        # meat's infeasibility, and no meat is formed
        ("lb", {"iid": "lb", "design": "lb", "label": "lb"}),
        # the label meat's infeasibility comes ahead of the upper bound's fit
        # error; the other meats still span both bounds' columns, and their
        # methods report the upper bound's error
        ("ub", {"iid": "ub", "design": "ub", "label": FeasibilityError}),
        # both bounds fitted: only the label meat fails
        (None, {"iid": None, "design": None, "label": FeasibilityError}),
    ],
)
@pytest.mark.parametrize("name", ["lee", "lee-ipw"])
def test_estimate_bounds_keeps_each_methods_error_order(
    monkeypatch, name, failing, expected
):
    data = _matched_pair_data()  # one unit per arm per block
    design = block_design(data)
    differentiate = variance.differentiate

    def failing_differentiate(theta, system, *args, **kwargs):
        result = differentiate(theta, system, *args, **kwargs)
        if failing is not None and system.endswith(failing):
            raise SingularJacobianError(system)
        return result

    monkeypatch.setattr(variance, "differentiate", failing_differentiate)
    widths = []  # each meat function called, with the rows of each arm it saw

    def recording(meat, at):
        def recorded(*args, **kwargs):
            rows = tuple(part.rows.shape[0] for part in args[at].arms)
            widths.append((meat.__name__, rows))
            return meat(*args, **kwargs)

        return recorded

    monkeypatch.setattr(variance, "meat_iid", recording(variance.meat_iid, 0))
    monkeypatch.setattr(
        variance, "meat_design", recording(variance.meat_design, 2)
    )
    _, reports = estimate_bounds(data, design, name, ("iid", "design", "label"))
    for method, error in expected.items():
        report = reports[method]
        if error is None:
            assert report.se_lb > 0.0 and report.se_ub > 0.0, method
        elif isinstance(error, str):
            assert isinstance(report, SingularJacobianError), method
            assert str(report).endswith(error), method
        else:
            assert isinstance(report, error), method
    # one meat, for design, once the lower bound got past; label refuses
    # the pairs' singleton arms before any meat is formed. It spans the
    # fit's one moment matrix, whether or not the upper bound's fit
    # succeeded, on each arm's rows of the columns not zero there: of the
    # lower bound's 5, the pooled system keeps 3 treated and 2 control, the
    # weighted 4 and 3; the upper bound adds its rows 1 and 3, both
    # treated. The i.i.d. meat is the design meat's a - a3, so meat_iid is
    # not called
    both = (3 + 2, 2) if name == "lee" else (4 + 2, 3)
    assert widths == {
        "lb": [],
        "ub": [("meat_design", both)],
        None: [("meat_design", both)],
    }[failing]


# ---------------------------------------------------------------------------
# repeated calls in one process
# ---------------------------------------------------------------------------

# run in this process and in fresh interpreters; fingerprint(kind, arg) hashes
# one call's results to the last bit
_REPEATED_CALLS = """
import hashlib
import io

import numpy as np

from strata_bounds import (
    DGP_MATCHED_PAIRS, McConfig, block_design, estimate_bounds, monte_carlo,
    parse_csv,
)


def csv_text():
    # blocks of 2-6 units, 1 to n_g - 1 treated: singleton arms in both
    rng = np.random.default_rng(12)
    sizes = rng.integers(2, 7, 40)
    d = np.concatenate([rng.permutation(n) < rng.integers(1, n) for n in sizes])
    s = np.where(d, rng.random(d.size) < 0.85, rng.random(d.size) < 0.65)
    y = np.where(s, rng.normal(size=d.size), np.nan)
    blocks = [f"b{g:02d}" for g, n in enumerate(sizes) for _ in range(n)]
    rows = (
        f"{repr(float(v)) if o else ''},{int(o)},{int(t)},{b}\\n"
        for v, o, t, b in zip(y, s, d, blocks)
    )
    return "y,s,d,block\\n" + "".join(rows)


def fingerprint(kind, arg):
    digest = hashlib.sha256()
    if kind == "monte_carlo":
        summary = monte_carlo(McConfig(
            dgp=DGP_MATCHED_PAIRS, reps=3, seed=7, n=arg,
            estimators=("lee:iid", "lee:design"),
        ))
        digest.update(repr(summary).encode())
        return digest.hexdigest()
    data = parse_csv(io.StringIO(csv_text()))
    design = block_design(data)
    for name in ("lee", "lee-ipw"):
        _, reports = estimate_bounds(data, design, name, ("design", "iid"))
        for report in reports.values():
            digest.update(repr(report.se_lb).encode() + repr(report.se_ub).encode())
            digest.update(report.v_hat_lb.tobytes() + report.v_hat_ub.tobytes())
            if report.meat is not None:
                digest.update(report.meat.omega.tobytes())
    return digest.hexdigest()
"""


def _fresh_fingerprint(kind, arg):
    return run_fresh_interpreter(
        _REPEATED_CALLS + f"\nprint(fingerprint({kind!r}, {arg!r}))"
    ).strip()


def test_repeated_calls_give_what_a_fresh_process_gives():
    namespace = {}
    exec(_REPEATED_CALLS, namespace)
    # what outlives a call (the cached pair labels and dgp1 truth) must not
    # change the next call's results
    calls = [("monte_carlo", 200), ("monte_carlo", 400), ("monte_carlo", 200),
             ("estimate", None)]
    here = [namespace["fingerprint"](*call) for call in calls]
    fresh = {call: _fresh_fingerprint(*call) for call in dict.fromkeys(calls)}
    assert here == [fresh[call] for call in calls]

