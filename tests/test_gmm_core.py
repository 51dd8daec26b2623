"""Moment systems, closed-form fits, smoothed Jacobians, linear algebra."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from strata_bounds import (
    EstimationError,
    estimate_bounds,
    LeeIpwTheta,
    LeeTheta,
    SingularJacobianError,
    block_design,
    fit_theta,
    jacobian,
    lee_ipw_bounds,
    moment_matrix,
    silverman_bandwidth,
    solve_sandwich,
)
from strata_bounds import gmm_core, variance
from strata_bounds.ipw_estimator import _block_weights

from conftest import build_dataset, random_dataset, random_equal_share_dataset

from oracles import lee_ipw_moments, lee_moments

from frozen_values import (
    HAND_ALPHA,
    HAND_CUT_LB,
    HAND_CUT_UB,
    HAND_MU0,
    HAND_MU1_LB,
    HAND_MU1_UB,
    HAND_P,
    HAND_Q,
)

SYSTEMS = ("lee_lb", "lee_ub", "ipw_lb", "ipw_ub")


# ---------------------------------------------------------------------------
# per-unit moment rows (the oracle for moment_matrix)
# ---------------------------------------------------------------------------

THETA = LeeTheta(mu1=2.0, mu0=1.0, cutoff=3.0, p=0.25, alpha=0.6)


def test_lee_moments_observed_control_at_its_mean():
    np.testing.assert_allclose(
        lee_moments(1.0, 1, 0, THETA, "lb"), [0.0, 0.0, 0.0, 0.0, 1.0 - 0.6]
    )


def test_lee_moments_unobserved_treated():
    rows = lee_moments(np.nan, 0, 1, THETA, "lb")
    np.testing.assert_allclose(rows, [0.0, 0.0, 0.0, -0.6 / 0.75, 0.0])


def test_lee_moments_kept_indicator_flips_between_sides():
    lb = lee_moments(2.5, 1, 1, THETA, "lb")  # below the cutoff 3.0
    ub = lee_moments(2.5, 1, 1, THETA, "ub")
    assert lb[0] == pytest.approx(2.5 - 2.0)  # kept by the lower bound
    assert lb[2] == pytest.approx(0.0 - 0.25)
    assert ub[0] == 0.0  # trimmed away by the upper bound
    assert ub[2] == pytest.approx(1.0 - 0.25)


def test_moment_matrix_rows_equal_per_record_evaluations(
    hand_dataset, delta_hand_dataset
):
    for data in (hand_dataset, delta_hand_dataset):
        design = block_design(data)
        units = zip(data.y.tolist(), data.s.tolist(), data.d.tolist(), data.blocks)
        units = list(units)
        for system in SYSTEMS:
            fit = fit_theta(data, design, system)
            side = system[-2:]
            for i, (y, s, d, block) in enumerate(units):
                if system.startswith("lee"):
                    row = lee_moments(y, s, d, fit.theta, side)
                else:
                    row = lee_ipw_moments(y, s, d, block, fit.theta, design, side)
                np.testing.assert_allclose(
                    fit.matrix.values[i], row, atol=1e-14,
                    err_msg=f"{system} unit {i}",
                )


# ---------------------------------------------------------------------------
# fit_theta
# ---------------------------------------------------------------------------

def test_fit_theta_hand_values_lee(hand_dataset):
    design = block_design(hand_dataset)
    lb = fit_theta(hand_dataset, design, "lee_lb")
    assert lb.theta == LeeTheta(
        mu1=HAND_MU1_LB, mu0=HAND_MU0, cutoff=HAND_CUT_LB,
        p=HAND_P, alpha=HAND_ALPHA,
    )
    ub = fit_theta(hand_dataset, design, "lee_ub")
    assert ub.theta.mu1 == HAND_MU1_UB
    assert ub.theta.cutoff == HAND_CUT_UB
    for fit in (lb, ub):
        assert fit.matrix.ok
        assert np.all(np.abs(fit.matrix.residuals) <= 1e-12)


def test_fit_theta_hand_values_ipw(hand_dataset):
    # one block with equal arms: weights are 1 and the weighted system
    # coincides with the pooled one
    design = block_design(hand_dataset)
    fit = fit_theta(hand_dataset, design, "ipw_lb")
    assert fit.theta == LeeIpwTheta(
        mu1=HAND_MU1_LB, mu0=HAND_MU0, cutoff=HAND_CUT_LB,
        delta=0.5, q=HAND_Q,
    )
    assert fit.matrix.ok
    assert fit.estimate == lee_ipw_bounds(hand_dataset, design)


def test_fit_theta_rejects_unknown_system(hand_dataset):
    design = block_design(hand_dataset)
    with pytest.raises(ValueError, match="unknown system"):
        fit_theta(hand_dataset, design, "lee_mid")


def test_moment_systems_are_immutable():
    with pytest.raises(AttributeError):
        gmm_core.POOLED.kind = "ipw"
    with pytest.raises(AttributeError):
        gmm_core.WEIGHTED.scale = 2.0
    assert (gmm_core.POOLED.kind, gmm_core.WEIGHTED.kind) == ("lee", "ipw")


def test_shared_rows_are_identical_across_sides(hand_dataset):
    design = block_design(hand_dataset)
    for kind in ("lee", "ipw"):
        lb = fit_theta(hand_dataset, design, f"{kind}_lb")
        ub = fit_theta(hand_dataset, design, f"{kind}_ub")
        for col in (1, 3, 4):  # mu0 row and the two selection-rate rows
            np.testing.assert_array_equal(
                lb.matrix.values[:, col], ub.matrix.values[:, col]
            )
        # one pass stores the shared rows once, and each bound's rows are its
        # own pass's, bit for bit
        systems = (f"{kind}_lb", f"{kind}_ub")
        thetas = (lb.theta, ub.theta)
        stack = moment_matrix(hand_dataset, design, thetas, systems)
        assert stack.values.shape == (hand_dataset.n, 7)
        for k, (theta, system) in enumerate(zip(thetas, systems)):
            alone = moment_matrix(hand_dataset, design, (theta,), (system,))
            for field in ("values", "residuals", "bounds", "checked"):
                np.testing.assert_array_equal(
                    getattr(stack.bound(k), field), getattr(alone, field)
                )
        # the bounds of one estimate differ in mu1 and cutoff alone
        moved = replace(ub.theta, mu0=ub.theta.mu0 + 0.5)
        with pytest.raises(ValueError, match="one estimate"):
            moment_matrix(hand_dataset, design, (lb.theta, moved), systems)


def test_moment_matrix_flags_wrong_parameters(hand_dataset):
    design = block_design(hand_dataset)
    fit = fit_theta(hand_dataset, design, "lee_lb")
    off = replace(fit.theta, mu0=fit.theta.mu0 + 0.5)
    matrix = moment_matrix(hand_dataset, design, (off,), ("lee_lb",))
    assert not matrix.ok


def test_moment_matrix_exempts_rate_row_when_clamped():
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        s=[1, 0, 1, 1, 1, 1],
        d=[1, 1, 1, 0, 0, 0],
        blocks=["a"] * 6,
    )
    design = block_design(data)
    fit = fit_theta(data, design, "lee_lb")
    assert "trimming_share_clamped" in fit.estimate.flags
    assert not fit.matrix.checked[3]  # the selection-rate relation row
    assert fit.matrix.notes and "clamped" in fit.matrix.notes[0]
    assert fit.matrix.ok  # the exemption is what keeps the fit consistent
    assert abs(fit.matrix.residuals[3]) > 1e-8


def test_fit_theta_succeeds_on_random_datasets():
    rng = np.random.default_rng(101)
    fitted = 0
    for _ in range(40):
        data = random_dataset(rng)
        design = block_design(data)
        for system in SYSTEMS:
            try:
                fit = fit_theta(data, design, system)
            except EstimationError:
                continue  # degenerate trim on a tiny draw
            assert fit.matrix.ok
            fitted += 1
    assert fitted >= 120


# ---------------------------------------------------------------------------
# smoothed Jacobian
# ---------------------------------------------------------------------------

def test_silverman_bandwidth_formula():
    sample = np.array([1.0, 2.0, 4.0, 8.0])
    expect = 1.06 * sample.std(ddof=1) * 4 ** (-0.2)
    assert silverman_bandwidth(sample) == pytest.approx(expect, rel=1e-15)
    with pytest.raises(EstimationError):
        silverman_bandwidth(np.array([1.0]))


def test_silverman_bandwidth_degenerate_sample_stays_positive():
    h = silverman_bandwidth(np.array([3.0, 3.0, 3.0]))
    assert h > 0.0


def test_normal_cdf_kernel_matches_scipy_ndtr():
    # within 4e-15 relative where ndtr >= 1e-300, 1e-300 absolute below it;
    # the grid crosses both branch edges of the Cephes form, |u| = sqrt(2)
    # and 8 sqrt(2), and u = 6 sqrt(2), from which Phi is 1; each edge is
    # also tried with its float neighbours
    edges = [
        e
        for b in (math.sqrt(2.0), 6.0 * math.sqrt(2.0), 8.0 * math.sqrt(2.0))
        for v in (b, -b)
        for e in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))
    ]
    u = np.concatenate([
        np.arange(-40_000, 40_001) * 1e-3,
        edges,
        [1e9, -1e9, np.inf, -np.inf, np.nan],
    ])
    got = gmm_core._big_phi(u)
    _assert_matches_ndtr(got, u)
    assert (got[-5:-1] == (1.0, 0.0, 1.0, 0.0)).all()
    # an empty array, and arrays whose elements all take one branch (or
    # none, from u = 6 sqrt(2) on and below the underflow): every element
    # is what it is in the full grid, bit for bit, whichever branches the
    # other elements leave empty
    root2 = math.sqrt(2.0)
    for lo, hi in [
        (-root2 * 0.999, root2 * 0.999),  # erf
        (root2, 7.9 * root2), (-7.9 * root2, -root2),  # erfc, 1 <= |x| < 8
        (-26.0 * root2, -8.0 * root2),  # erfc, x <= -8
        (6.0 * root2, 40.0), (-1e9, -38.0 * root2),  # no branch: 1 and 0
    ]:
        part = np.concatenate([[lo, hi], np.linspace(lo, hi, 101)])
        alone = gmm_core._big_phi(part)
        _assert_matches_ndtr(alone, part)
        in_grid = gmm_core._big_phi(np.concatenate([part, u]))[: part.size]
        np.testing.assert_array_equal(alone, in_grid)
    # a branch with a single element, as x <= -8 often has on a sample
    for v in [*edges, *np.linspace(-40.0, 40.0, 81)]:
        single = np.array([v])
        in_grid = gmm_core._big_phi(np.concatenate([single, u]))[:1]
        np.testing.assert_array_equal(gmm_core._big_phi(single), in_grid, str(v))
    empty = gmm_core._big_phi(np.empty(0))
    assert empty.shape == (0,) and empty.dtype == np.float64
    nan_only = gmm_core._big_phi(np.full(3, np.nan))
    assert np.isnan(nan_only).all()


def _assert_matches_ndtr(got, u):
    """got is ndtr(u) within 4e-15 relative where ndtr >= 1e-300 and 1e-300
    absolute below it, with nan exactly where u is nan."""
    want = ndtr(u)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(u))
    normal = np.abs(want) >= 1e-300
    np.testing.assert_allclose(got[normal], want[normal], rtol=4e-15, atol=0.0)
    tiny = ~normal & ~np.isnan(u)
    assert np.all(np.abs(got[tiny] - want[tiny]) <= 1e-300)


def _filled(data):
    return np.where(data.s == 1, np.nan_to_num(data.y, nan=0.0), 0.0)


def _smoothed_means_lee(data, theta, side, h):
    y = _filled(data)
    s = data.s.astype(float)
    d = data.d.astype(float)
    u = (theta.cutoff - y) / h
    kept = ndtr(u) if side == "lb" else ndtr(-u)
    tail = 1.0 - kept
    rows = np.stack(
        [
            (y - theta.mu1) * s * d * kept,
            (y - theta.mu0) * s * (1.0 - d),
            (tail - theta.p) * s * d,
            (s - theta.alpha / (1.0 - theta.p)) * d,
            (s - theta.alpha) * (1.0 - d),
        ]
    )
    return rows.mean(axis=1)


def _smoothed_means_ipw(data, design, theta, side, h):
    eta_i, m_i = design.eta_g[design.codes], design.m_g[design.codes]
    w_c, w_q = (w[design.codes] for w in _block_weights(design))
    p_hat = design.p_hat
    y = _filled(data)
    s = data.s.astype(float)
    d = data.d.astype(float)
    y_til = (theta.delta / eta_i) * y
    u = (theta.cutoff - y_til) / h
    kept = ndtr(u) if side == "lb" else ndtr(-u)
    tail = 1.0 - kept
    rows = np.stack(
        [
            (y_til - theta.mu1) * s * d * kept,
            (y - theta.mu0) * s * (1.0 - d) * w_c,
            (tail - theta.q) * s * d,
            m_i * (d - theta.delta),
            ((1.0 - theta.q) / p_hat) * s * d
            - (1.0 / (1.0 - p_hat)) * s * (1.0 - d) * w_q,
        ]
    )
    return rows.mean(axis=1)


LEE_FIELDS = ("mu1", "mu0", "cutoff", "p", "alpha")
IPW_FIELDS = ("mu1", "mu0", "cutoff", "delta", "q")


def _fd_jacobian(theta, fields, fun, step=1e-5):
    cols = []
    for name in fields:
        base = getattr(theta, name)
        hi = fun(replace(theta, **{name: base + step}))
        lo = fun(replace(theta, **{name: base - step}))
        cols.append((hi - lo) / (2.0 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("system", SYSTEMS)
def test_jacobian_matches_finite_differences(system):
    rng = np.random.default_rng(int.from_bytes(system.encode(), "little") % 2**32)
    checked = 0
    for _ in range(20):
        data = random_dataset(rng, min_block=3)
        design = block_design(data)
        try:
            fit = fit_theta(data, design, system)
        except EstimationError:
            continue
        if isinstance(fit.theta, LeeIpwTheta):
            step = 1e-5  # keep the probes inside the (q, delta) domain
            if not (step < fit.theta.q < 1.0 - step):
                continue
            if not (step < fit.theta.delta < 1.0 - step):
                continue
        h = 0.5
        kind, side = system.split("_")
        if kind == "lee":
            fun = lambda th: _smoothed_means_lee(data, th, side, h)
            fields = LEE_FIELDS
        else:
            fun = lambda th: _smoothed_means_ipw(data, design, th, side, h)
            fields = IPW_FIELDS
        try:
            analytic = jacobian(data, design, fit.theta, system, bandwidth=h)
        except SingularJacobianError:
            continue
        fd = _fd_jacobian(fit.theta, fields, fun)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=5e-8)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("side", ["lb", "ub"])
@pytest.mark.parametrize(
    "system", [gmm_core.POOLED, gmm_core.WEIGHTED], ids=["pooled", "weighted"]
)
def test_system_jacobian_matches_finite_differences_of_its_moments(
    monkeypatch, system, side
):
    # each system's analytic Jacobian against central differences of its own
    # mean moments: moment_matrix's column means, with the kept indicator
    # replaced by the normal CDF at the Jacobian's bandwidth
    h, step = 0.5, 1e-5
    name = f"{system.kind}_{side}"

    def smoothed(values, cutoff, side):
        sign = 1.0 if side == "lb" else -1.0
        return gmm_core._big_phi(sign * (cutoff - values) / h)

    def means(theta):
        return moment_matrix(data, design, (theta,), (name,)).residuals

    rng = np.random.default_rng(int.from_bytes(name.encode(), "big") % 2**32)
    checked = 0
    for _ in range(20):
        data = random_dataset(rng, min_block=3)
        design = block_design(data)
        try:
            fit = fit_theta(data, design, name)
            analytic = jacobian(data, design, fit.theta, name, bandwidth=h)
        except EstimationError:
            continue
        fields = [field.name for field in dataclasses.fields(fit.theta)]
        # keep the probes inside the weighted system's (q, delta) domain
        if any(
            not step < getattr(fit.theta, field) < 1.0 - step
            for field in ("q", "delta") if field in fields
        ):
            continue
        with monkeypatch.context() as patch:
            patch.setattr(gmm_core, "_kept", smoothed)
            fd = _fd_jacobian(fit.theta, fields, means, step)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=5e-8)
        checked += 1
    assert checked >= 8


LEE_NONZERO = {(0, 0), (0, 2), (1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)}
IPW_NONZERO = {
    (0, 0), (0, 2), (0, 3), (1, 1), (2, 2), (2, 3), (2, 4), (3, 3), (4, 4),
}


@pytest.mark.parametrize("system", SYSTEMS)
def test_jacobian_structural_zero_pattern(system, hand_dataset):
    design = block_design(hand_dataset)
    fit = fit_theta(hand_dataset, design, system)
    jac = jacobian(hand_dataset, design, fit.theta, system)
    expected = LEE_NONZERO if system.startswith("lee") else IPW_NONZERO
    for i in range(5):
        for j in range(5):
            if (i, j) not in expected:
                assert jac[i, j] == 0.0, f"entry ({i}, {j})"
    # the diagonal never vanishes on this data
    assert all(jac[i, i] != 0.0 for i in range(5))


def test_jacobian_rejects_numerically_singular_result(hand_dataset):
    design = block_design(hand_dataset)
    fit = fit_theta(hand_dataset, design, "lee_lb")
    with pytest.raises(SingularJacobianError):
        # an absurd bandwidth flattens the cutoff column to zero
        jacobian(hand_dataset, design, fit.theta, "lee_lb", bandwidth=1e12)
    with pytest.raises(SingularJacobianError, match="numerically singular"):
        # a nan parameter makes a nan entry, whose condition number is nan
        jacobian(
            hand_dataset, design, replace(fit.theta, mu1=math.nan), "lee_lb"
        )


@pytest.mark.parametrize(
    "make", [random_equal_share_dataset, random_dataset],
    ids=["equal_shares", "heterogeneous_shares"],
)
@pytest.mark.parametrize("name", ["lee", "lee-ipw"])
def test_estimate_bounds_differentiates_each_fit_like_jacobian(monkeypatch, make, name):
    # the Jacobian estimate_bounds reads from its fit's moment pass, one
    # bound per call, is the one jacobian builds from the data, bit for bit,
    # and its inverse is numpy's
    used = []
    differentiate = variance.differentiate

    def recording(*args):
        result = differentiate(*args)
        used.append(result)
        return result

    monkeypatch.setattr(variance, "differentiate", recording)
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(25):
        data = make(rng)
        design = block_design(data)
        used.clear()
        try:
            _, reports = estimate_bounds(data, design, name, ("iid",))
        except EstimationError:
            continue
        report = reports["iid"]
        if isinstance(report, EstimationError):
            continue
        for fit, (jac, jac_inv) in zip((report.fit_lb, report.fit_ub), used, strict=True):
            expect = jacobian(
                data, design, fit.theta, fit.system,
                bandwidth=fit.matrix.context.bandwidth,
            )
            assert np.array_equal(jac, expect), fit.system
            assert np.array_equal(jac_inv, np.linalg.inv(jac)), fit.system
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# sandwich
# ---------------------------------------------------------------------------

def _sandwich_cases():
    """(bread, meat) pairs: one 5x5 system and 50 random ones of sizes 1-6."""
    rng = np.random.default_rng(57)
    m = rng.normal(size=(5, 5)) + 2.0 * np.eye(5)
    half = rng.normal(size=(5, 5))
    yield m, half @ half.T
    rng = np.random.default_rng(55)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        half = rng.normal(size=(k, k))
        yield rng.normal(size=(k, k)) + 0.5 * np.eye(k), half @ half.T


def test_solve_sandwich_symmetric_and_matches_numpy():
    for m, omega in _sandwich_cases():
        v = solve_sandwich(m, omega)
        np.testing.assert_array_equal(v, v.T)
        # the formula with its own inverse and condition number, bit for bit
        assert np.linalg.cond(m, 1) <= gmm_core.CONDITION_LIMIT
        m_inv = np.linalg.inv(m)
        formula = m_inv @ omega @ m_inv.T
        np.testing.assert_array_equal(v, 0.5 * (formula + formula.T))
        # M^{-1} (M^{-1} Omega)' = M^{-1} Omega M^{-T} for a symmetric Omega
        expected = np.linalg.solve(m, np.linalg.solve(m, omega).T)
        np.testing.assert_allclose(v, expected, rtol=1e-8, atol=1e-10)
    # exact for the identity and for a swap, which needs a row pivot
    np.testing.assert_array_equal(
        solve_sandwich(np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0])),
        np.diag([1.0, 2.0, 3.0, 4.0]),
    )
    np.testing.assert_array_equal(
        solve_sandwich(np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([[1.0, 0.5], [0.5, 2.0]])),
        [[2.0, 0.5], [0.5, 1.0]],
    )


def _refusal_edge_cases():
    """Square matrices at the edges of the refusal rule: exactly singular,
    with a nan or an infinite entry, and diagonal scalings whose condition
    number is 1e12 or one ulp either side of it."""
    limit = gmm_core.CONDITION_LIMIT
    cases = [
        np.zeros((5, 5)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # rank one
        np.diag([1.0, 1.0, 0.0, 1.0, 1.0]),
    ]
    for value in (np.nan, np.inf, -np.inf):
        for at in ((0, 0), (1, 3)):
            m = np.eye(5) + 0.25
            m[at] = value
            cases.append(m)
    for c in (math.nextafter(limit, 0.0), limit, math.nextafter(limit, math.inf)):
        cases.append(np.diag([1.0, 1.0, 1.0, 1.0, c]))  # condition c exactly
        cases.append(np.diag([-c, 1.0, 1.0, 1.0, 1.0]))
        cases.append(np.diag([1.0, 1.0, 1.0 / c, 1.0, 1.0]))  # 1 / fl(1 / c)
    # a smallest entry of 1e-12 and up to three ulps either side of it:
    # conditions around 1e12
    for k in range(-3, 4):
        tiny = 1e-12
        for _ in range(abs(k)):
            tiny = math.nextafter(tiny, math.inf if k > 0 else 0.0)
        cases.append(np.diag([1.0, tiny, 1.0, 1.0, 1.0]))
    return cases


def test_one_inverse_refuses_exactly_as_numpy_cond():
    limit = gmm_core.CONDITION_LIMIT
    for m in _refusal_edge_cases() + [m for m, _ in _sandwich_cases()]:
        refused = not (np.linalg.cond(m, 1) <= limit)
        m_inv = gmm_core._inverse(m)
        assert (m_inv is None) == refused, m
        if m_inv is not None:
            np.testing.assert_array_equal(m_inv, np.linalg.inv(m))
        if refused:
            with pytest.raises(
                SingularJacobianError,
                match="moment Jacobian is numerically singular in solve_sandwich",
            ):
                solve_sandwich(m, np.eye(m.shape[0]))
        else:
            solve_sandwich(m, np.eye(m.shape[0]))
    # a condition number of exactly 1e12 passes, one ulp above it does not
    below, at, above = (
        np.diag([1.0, 1.0, 1.0, 1.0, c])
        for c in (math.nextafter(limit, 0.0), limit, math.nextafter(limit, math.inf))
    )
    assert gmm_core._inverse(below) is not None
    assert gmm_core._inverse(at) is not None
    assert gmm_core._inverse(above) is None


def test_solve_sandwich_rejects_singular_bread():
    breads = [
        np.zeros((2, 2)),
        np.zeros((3, 3)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # rank one
        np.diag([np.nan, 1.0, 1.0, 1.0, 1.0]),
        np.diag([np.inf, 1.0, 1.0, 1.0, 1.0]),
    ]
    for bread in breads:
        with pytest.raises(
            SingularJacobianError,
            match="moment Jacobian is numerically singular in solve_sandwich",
        ):
            solve_sandwich(bread, np.eye(bread.shape[0]))
