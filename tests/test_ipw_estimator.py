"""Weighted (share-imbalance-correcting) trimming bounds."""

import numpy as np
import pytest

from strata_bounds import (
    DegenerateTrimError,
    EstimationError,
    always_observed_treat_prob,
    block_design,
    ipw_trimming_share,
    lee_bounds,
    lee_ipw_bounds,
)

from conftest import build_dataset, random_dataset, random_equal_share_dataset

from oracles import oracle_ipw
from frozen_values import DELTA_HAND


def test_control_anchored_treated_share_frozen_value(delta_hand_dataset):
    design = block_design(delta_hand_dataset)
    delta = always_observed_treat_prob(design)
    assert delta == DELTA_HAND  # exact rational arithmetic: 2/6


def test_control_anchored_share_equals_common_share_exactly():
    rng = np.random.default_rng(5)
    for _ in range(30):
        data = random_equal_share_dataset(rng)
        design = block_design(data)
        etas = set(design.eta_g.tolist())
        assert len(etas) == 1
        assert always_observed_treat_prob(design) == etas.pop()


def test_weighted_share_components_match_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        data = random_dataset(rng)
        design = block_design(data)
        share = ipw_trimming_share(data, design)
        n1s = int((data.s * data.d).sum())
        if (1.0 - share.q) * n1s < 1.0:
            continue  # the oracle refuses degenerate retained mass
        checked += 1
        ref = oracle_ipw(data.y, data.s, data.d, data.blocks)
        assert share.q == pytest.approx(ref["q"], abs=1e-12)
        assert share.clamped == ref["clamped"]
        assert design.p_hat == pytest.approx(ref["p"], abs=0.0)
    assert checked >= 20


def test_weighted_bounds_match_oracle_fieldwise():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(40):
        data = random_dataset(rng)
        design = block_design(data)
        try:
            est, comps = lee_ipw_bounds(data, design)
        except DegenerateTrimError:
            with pytest.raises(ValueError):
                oracle_ipw(data.y, data.s, data.d, data.blocks)
            continue
        checked += 1
        ref = oracle_ipw(data.y, data.s, data.d, data.blocks)
        assert est.method == "lee_ipw"
        assert comps.delta_hat == pytest.approx(ref["delta"], abs=1e-14)
        assert est.q == pytest.approx(ref["q"], abs=1e-12)
        assert est.mu0 == pytest.approx(ref["mu0"], abs=1e-10)
        assert est.mu1_lb == pytest.approx(ref["mu1_lb"], abs=1e-9)
        assert est.mu1_ub == pytest.approx(ref["mu1_ub"], abs=1e-9)
        assert comps.cutoff_lo == pytest.approx(ref["cut_lb"], abs=1e-12)
        assert comps.cutoff_hi == pytest.approx(ref["cut_ub"], abs=1e-12)
        np.testing.assert_allclose(comps.w_c, ref["w_c"], atol=1e-14)
        np.testing.assert_allclose(comps.w_q, ref["w_q"], atol=1e-14)
        obs_treated = (data.d == 1) & (data.s == 1)
        np.testing.assert_allclose(
            comps.y_tilde[obs_treated],
            (ref["delta"] / design.eta_g[design.codes[obs_treated]])
            * data.y[obs_treated],
            atol=1e-12,
        )
        assert np.isnan(comps.y_tilde[~obs_treated]).all()
    assert checked >= 20


def test_weighted_bounds_reduce_to_pooled_under_equal_shares():
    rng = np.random.default_rng(33)
    for _ in range(50):
        data = random_equal_share_dataset(rng)
        design = block_design(data)
        pooled = lee_bounds(data, design)
        weighted, comps = lee_ipw_bounds(data, design)
        assert comps.delta_hat == design.eta_g[0]  # bit-exact
        assert weighted.q == pytest.approx(pooled.q, abs=1e-12)
        assert weighted.delta_lb == pytest.approx(pooled.delta_lb, abs=1e-10)
        assert weighted.delta_ub == pytest.approx(pooled.delta_ub, abs=1e-10)


def test_weighted_bounds_propagate_clamp_flag():
    # control selection beats treated selection, so the raw share is negative
    data = build_dataset(
        y=[1.0, 0.0, 2.0, 3.0, 4.0, 0.0, 5.0, 6.0],
        s=[1, 0, 1, 1, 1, 0, 1, 1],
        d=[1, 1, 0, 0, 1, 1, 0, 0],
        blocks=["a"] * 4 + ["b"] * 4,
    )
    est, comps = lee_ipw_bounds(data, block_design(data))
    assert comps.clamped and comps.q_raw < 0.0
    assert est.q == 0.0
    assert "trimming_share_clamped" in est.flags


def test_weighted_share_undefined_without_treated_outcomes():
    data = build_dataset(
        y=[0.0, 1.0, 0.0, 2.0],
        s=[0, 1, 0, 1],
        d=[1, 0, 1, 0],
        blocks=["a", "a", "b", "b"],
    )
    with pytest.raises(EstimationError):
        ipw_trimming_share(data, block_design(data))


def test_weighted_mu0_uses_control_weights():
    # block a: eta 1/2 (weight (1-p)/(1-eta) = 1); block b: eta 3/4 so its
    # control carries weight (1-0.625)/(0.25) = 1.5 with p = 5/8
    y = [1.0, 2.0, 10.0, 20.0, 3.0, 4.0, 5.0, 40.0]
    s = [1] * 8
    d = [1, 1, 0, 0, 1, 1, 1, 0]
    blocks = ["a"] * 4 + ["b"] * 4
    data = build_dataset(y, s, d, blocks)
    est, _ = lee_ipw_bounds(data, block_design(data))
    w_a = (1 - 0.625) / (1 - 0.5)
    w_b = (1 - 0.625) / (1 - 0.75)
    expect = (w_a * (10.0 + 20.0) + w_b * 40.0) / (2 * w_a + w_b)
    assert est.mu0 == pytest.approx(expect, abs=1e-12)
