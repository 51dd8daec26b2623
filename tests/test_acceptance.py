"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test prints `[PASS]`/`[FAIL]` with the measured values next to the
stated target, then asserts. Criterion 1 carries two known deviations that
are reported honestly rather than retuned away; the measured values and the
infeasibility analysis are part of the project notes.
"""

import csv
import os

import numpy as np
import pytest
from scipy.stats import norm

from strata_bounds import (
    EstimationError,
    McConfig,
    TrimSpec,
    always_observed_treat_prob,
    block_design,
    child_seed,
    conditional_lee_bounds,
    dataset_from_arrays,
    estimate_bounds,
    fit_theta,
    jacobian,
    lee_bounds,
    lee_ipw_bounds,
    meat_design,
    meat_iid,
    monte_carlo,
    sandwich_report,
    simulate_dgp1,
    trimmed_mean,
)

from conftest import (
    build_dataset,
    hand_arrays,
    pair_design_normal,
    random_dataset,
    random_equal_share_dataset,
)
from oracles import (
    assignments,
    label_variance,
    oracle_conditional_lee,
    oracle_lee,
    oracle_population_jacobian_ipw,
    oracle_population_jacobian_lee,
    rhs_cross_term,
    rhs_label_pairs,
    rhs_within_arm,
)
from frozen_values import (
    HAND_DELTA_LB,
    HAND_DELTA_UB,
    HAND_Q,
    TRIM_1234_Q375_UPPER_CUTOFF,
    TRIM_1234_Q375_UPPER_MEAN,
)


def _verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: matched-pairs process, 500 replications at n = 10000
# ---------------------------------------------------------------------------

def test_criterion_1_matched_pairs_moments_and_coverage(monkeypatch):
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "1")
    config = McConfig(
        dgp="matched_pairs",
        reps=500,
        seed=7,
        n=10000,
        estimators=("lee:iid", "lee:design"),
    )
    summary = monte_carlo(config)
    by_name = {e.estimator: e for e in summary.estimators}
    iid = by_name["lee:iid"]
    design = by_name["lee:design"]
    assert iid.failed == 0 and design.failed == 0

    emp_sd = iid.sd_delta_lb  # identical point estimates in both rows
    checks = [
        (
            abs(iid.mean_se_lb - 0.0569) <= 0.004,
            f"mean iid SE {iid.mean_se_lb:.4f} vs 0.0569 +/- 0.004",
        ),
        (
            abs(emp_sd - 0.0397) <= 0.004,
            f"empirical SD {emp_sd:.4f} vs 0.0397 +/- 0.004",
        ),
        (
            iid.coverage_lb >= 0.985,
            f"iid coverage {iid.coverage_lb:.4f} vs >= 0.985",
        ),
        (
            abs(design.mean_se_lb / emp_sd - 1.0) <= 0.10,
            f"design mean SE {design.mean_se_lb:.4f} within 10% of SD {emp_sd:.4f}",
        ),
        (
            0.93 <= design.coverage_lb <= 0.975,
            f"design coverage {design.coverage_lb:.4f} vs [0.93, 0.975]",
        ),
    ]
    for ok, detail in checks:
        _verdict("criterion 1 sub-check", ok, detail)
    ok_all = all(ok for ok, _ in checks)
    _verdict(
        "criterion 1",
        ok_all,
        "; ".join(detail for _, detail in checks),
    )
    failing = [detail for ok, detail in checks if not ok]
    assert ok_all, "known honest deviations: " + "; ".join(failing)


# ---------------------------------------------------------------------------
# label-only matched pairs: strata defined by labels alone
# ---------------------------------------------------------------------------

def test_label_only_matched_pairs_design_variance():
    # 100 seed-7 matched-pairs replications at n = 2000, lee with the design
    # variance, three ways: with the covariate, which pairs the singleton
    # blocks by covariate means; without it, labels in covariate order; and
    # without it, labels shuffled, so the label-order pairing joins pairs
    # that are not close. The thresholds are the Monte Carlo error fixed
    # before the run: two standard errors of the empirical SD, SD /
    # sqrt(2 (R - 1)) under normality.
    reps = 100
    shuffle = np.random.default_rng(7)
    bounds, se = [], {"covariate": [], "label_order": [], "shuffled": []}
    for rep in range(reps):
        data = simulate_dgp1(child_seed(7, rep), 2000)
        labels = data.labels
        perm = shuffle.permutation(len(labels))
        variants = {
            "covariate": data,
            "label_order": dataset_from_arrays(
                data.y, data.s, data.d, [labels[g] for g in data.codes]
            ),
            "shuffled": dataset_from_arrays(
                data.y, data.s, data.d, [labels[perm[g]] for g in data.codes]
            ),
        }
        for name, variant in variants.items():
            estimate, reports = estimate_bounds(
                variant, block_design(variant), "lee", ("design",)
            )
            se[name].append((reports["design"].se_lb, reports["design"].se_ub))
        bounds.append((estimate.delta_lb, estimate.delta_ub))
    # labels in the covariate's order pair the blocks as the covariate does
    assert se["label_order"] == se["covariate"]
    sd = np.array(bounds).std(axis=0, ddof=1)
    allowance = 2.0 * sd / np.sqrt(2.0 * (reps - 1))
    mean_se = {name: np.array(v).mean(axis=0) for name, v in se.items()}
    checks = [
        (bool(np.all(np.abs(mean_se["covariate"] - sd) <= allowance)),
         f"design SE {np.round(mean_se['covariate'], 4)} tracks SD {np.round(sd, 4)}"),
        (bool(np.all(mean_se["shuffled"] >= mean_se["covariate"])),
         f"shuffled-label SE {np.round(mean_se['shuffled'], 4)} at least the paired one"),
        (bool(np.all(mean_se["shuffled"] >= sd - allowance)),
         f"shuffled-label SE at least SD - {np.round(allowance, 4)}"),
    ]
    for ok, detail in checks:
        _verdict("label-only matched pairs", ok, detail)
    assert all(ok for ok, _ in checks)


# ---------------------------------------------------------------------------
# criterion 2: heavy-tails process, 200 replications
# ---------------------------------------------------------------------------

def test_criterion_2_heavy_tails_bound_validity(tmp_path, monkeypatch):
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "1")
    config = McConfig(dgp="heavy_tails", reps=200, seed=11)
    monte_carlo(config, out_dir=str(tmp_path))
    with open(tmp_path / "replications.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ipw_lb = np.array(
        [float(r[2]) for r in rows if r[1] == "lee-ipw:design"]
    )
    cond_lb = np.array(
        [float(r[2]) for r in rows if r[1] == "conditional-lee:none"]
    )
    set_cov = np.array(
        [r[6] == "1" for r in rows if r[1] == "lee-ipw:design"]
    )
    assert ipw_lb.size == 200 and cond_lb.size == 200

    frac_valid = float((ipw_lb <= 1.0).mean())
    frac_cover = float(set_cov.mean())
    frac_cond_above = float((cond_lb > 1.0).mean())
    checks = [
        (frac_valid >= 0.95, f"weighted LB <= 1 in {frac_valid:.3f} vs >= 0.95"),
        (frac_cover >= 0.90, f"set CI covers 1 in {frac_cover:.3f} vs >= 0.90"),
        (
            frac_cond_above > 0.0,
            f"per-stratum LB > 1 in {frac_cond_above:.3f} vs > 0",
        ),
    ]
    ok_all = all(ok for ok, _ in checks)
    _verdict("criterion 2", ok_all, "; ".join(d for _, d in checks))
    assert ok_all


# ---------------------------------------------------------------------------
# criterion 3: equal-share reduction identity over 1000 random datasets
# ---------------------------------------------------------------------------

def test_criterion_3_equal_share_reduction_identity():
    rng = np.random.default_rng(224)
    worst = 0.0
    for _ in range(1000):
        data = random_equal_share_dataset(rng)
        design = block_design(data)
        pooled = lee_bounds(data, design)
        weighted = lee_ipw_bounds(data, design)
        # bit-exact
        assert always_observed_treat_prob(design) == design.eta_g[0]
        worst = max(
            worst,
            abs(weighted.delta_lb - pooled.delta_lb),
            abs(weighted.delta_ub - pooled.delta_ub),
            abs(weighted.q - pooled.q),
        )
    ok = worst <= 1e-10
    _verdict(
        "criterion 3",
        ok,
        f"max |weighted - pooled| over (delta_lb, delta_ub, q) in 1000 "
        f"draws = {worst:.3e} vs <= 1e-10; delta_hat == eta exactly",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: exhaustive-assignment enumeration identities, N in {4, 5, 6}
# ---------------------------------------------------------------------------

CONFIGS = ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3))


def _single_block_dataset(dvec):
    n = dvec.size
    return build_dataset(
        y=np.zeros(n), s=[1] * n, d=dvec.tolist(), blocks=["g"] * n
    )


def test_criterion_4_enumeration_identities():
    rng = np.random.default_rng(46)
    worst = 0.0
    for n_units, n_treated in CONFIGS:
        mu1 = rng.normal(size=(n_units, 3))
        mu0 = rng.normal(size=(n_units, 3))
        yvals = rng.normal(size=n_units)
        coef = (n_treated / n_units) * (1.0 - n_treated / n_units)
        plans = assignments(n_units, n_treated)

        z10 = z11 = z00 = 0.0
        vlab = 0.0
        for dvec in plans:
            moments = np.where(dvec[:, None] == 1, mu1, mu0)
            data = _single_block_dataset(dvec)
            design = block_design(data)
            meat = meat_design(data, design, moments)
            z10 = z10 + meat.zeta_10
            z11 = z11 + meat.zeta_11
            z00 = z00 + meat.zeta_00

            lab = build_dataset(
                y=yvals, s=[1] * n_units, d=dvec.tolist(),
                blocks=["g"] * n_units,
            )
            vlab += label_variance(lab, block_design(lab))
        m = len(plans)
        worst = max(
            worst,
            float(np.abs(z10 / m - coef * rhs_cross_term(mu1, mu0)).max()),
            float(np.abs(z11 / m - coef * rhs_within_arm(mu1)).max()),
            float(np.abs(z00 / m - coef * rhs_within_arm(mu0)).max()),
            # all three label pair products share one conditional mean, so
            # the exhaustive mean of the label variance vanishes
            abs(vlab / m) / max(1.0, abs(rhs_label_pairs(yvals))),
        )
    ok = worst <= 1e-12
    _verdict(
        "criterion 4",
        ok,
        f"max enumeration-vs-closed-form gap over {CONFIGS} = {worst:.3e} "
        "vs <= 1e-12",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: smoothed Jacobian vs population derivation at n = 100000
# ---------------------------------------------------------------------------

def test_criterion_5_jacobian_matches_population_values():
    rng = np.random.default_rng(55)
    # The treated-outcome mean sits well above zero so every nonzero
    # population entry is O(1); entrywise relative comparison is meaningless
    # at entries that a parameter choice can push arbitrarily close to zero.
    s1, s0, m1, sd1 = 0.8, 0.6, 3.0, 1.0
    data = pair_design_normal(
        rng, n_pairs=50000, s1=s1, s0=s0, m1=m1, sd1=sd1, m0=0.5, sd0=0.9
    )
    design = block_design(data)
    assert design.p_hat == 0.5  # one treated per pair, exactly

    worst_rel, worst_zero = 0.0, 0.0
    for system in ("lee_lb", "lee_ub", "ipw_lb", "ipw_ub"):
        fit = fit_theta(data, design, system)
        jac = jacobian(data, design, fit.theta, system)
        side = system.split("_")[1]
        if system.startswith("lee"):
            pop = oracle_population_jacobian_lee(side, s1, s0, m1, sd1)
        else:
            assert fit.theta.delta == 0.5  # exact rational share
            pop = oracle_population_jacobian_ipw(side, s1, s0, m1, sd1)
        for i in range(5):
            for j in range(5):
                if pop[i, j] == 0.0:
                    worst_zero = max(worst_zero, abs(jac[i, j]))
                else:
                    worst_rel = max(
                        worst_rel, abs(jac[i, j] / pop[i, j] - 1.0)
                    )
    ok = worst_rel <= 0.05 and worst_zero <= 1e-12
    _verdict(
        "criterion 5",
        ok,
        f"max relative error on nonzero entries = {worst_rel:.4f} vs <= 0.05; "
        f"max |entry| on structural zeros = {worst_zero:.2e} vs <= 1e-12",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: worked hand examples reproduce exactly
# ---------------------------------------------------------------------------

def test_criterion_6_hand_examples_exact():
    y, s, d, blocks = hand_arrays()
    data = build_dataset(y, s, d, blocks)
    est = lee_bounds(data, block_design(data))
    frac = trimmed_mean(np.array([1.0, 2.0, 3.0, 4.0]), TrimSpec(0.375, "upper"))
    ok = (
        est.q == HAND_Q
        and est.delta_lb == HAND_DELTA_LB
        and est.delta_ub == HAND_DELTA_UB
        and frac.mean == TRIM_1234_Q375_UPPER_MEAN
        and frac.cutoff == TRIM_1234_Q375_UPPER_CUTOFF
    )
    _verdict(
        "criterion 6",
        ok,
        f"q={est.q} (want {HAND_Q}), delta_lb={est.delta_lb} (want "
        f"{HAND_DELTA_LB}), delta_ub={est.delta_ub} (want {HAND_DELTA_UB}), "
        f"fractional trim mean={frac.mean} (want {TRIM_1234_Q375_UPPER_MEAN})",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: byte-identical Monte Carlo output across runs and threads
# ---------------------------------------------------------------------------

def test_criterion_7_byte_identical_runs(tmp_path, monkeypatch):
    config = McConfig(dgp="matched_pairs", reps=6, seed=3, n=200)
    # 3 threads are capped at the CPUs, here 2, so two run on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / tag
        out.mkdir()
        monkeypatch.setenv("STRATA_BOUNDS_THREADS", threads)
        monte_carlo(config, out_dir=str(out))
        blobs.append(
            (out / "replications.csv").read_bytes()
            + (out / "summary.csv").read_bytes()
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(
        "criterion 7",
        ok,
        f"rerun identical: {blobs[0] == blobs[1]}; "
        f"threads 1 vs 3 identical: {blobs[0] == blobs[2]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: structural invariants on random inputs
# ---------------------------------------------------------------------------

def test_criterion_8_structural_invariants_on_random_inputs():
    rng = np.random.default_rng(88)
    alpha = 0.05
    z_lo, z_hi = norm.ppf(1.0 - alpha), norm.ppf(1.0 - alpha / 2.0)
    checked_bounds = checked_reports = 0
    for i in range(200):
        data = (
            random_equal_share_dataset(rng)
            if i % 3 == 0
            else random_dataset(rng)
        )
        design = block_design(data)

        try:
            est = lee_bounds(data, design)
        except EstimationError:
            est = None
        if est is not None:
            q, mu0, mu1_lb, mu1_ub, *_cuts, clamped = oracle_lee(
                data.y, data.s, data.d
            )
            assert est.delta_lb <= est.delta_ub + 1e-12
            assert 0.0 <= est.q < 1.0
            assert est.q == pytest.approx(q, abs=1e-12)
            assert est.mu0 == pytest.approx(mu0, abs=1e-12)
            assert est.mu1_lb == pytest.approx(mu1_lb, abs=1e-10)
            assert est.mu1_ub == pytest.approx(mu1_ub, abs=1e-10)
            assert ("trimming_share_clamped" in est.flags) == clamped
            if clamped:
                assert est.delta_lb == est.delta_ub
            checked_bounds += 1

        try:
            cond = conditional_lee_bounds(data, design)
        except EstimationError:
            with pytest.raises(ValueError):
                oracle_conditional_lee(data.y, data.s, data.d, data.blocks)
            cond = None
        if cond is not None:
            lb, ub, _used = oracle_conditional_lee(
                data.y, data.s, data.d, data.blocks
            )
            assert cond.delta_lb == pytest.approx(lb, abs=1e-10)
            assert cond.delta_ub == pytest.approx(ub, abs=1e-10)

        if est is None or i % 4 != 0:
            continue
        for kind in ("lee", "ipw"):
            for method in ("design", "iid"):
                try:
                    rep = sandwich_report(data, design, kind, method, alpha)
                except EstimationError:
                    continue
                meats = [m for m in (rep.meat_lb, rep.meat_ub) if m is not None]
                assert len(meats) == (2 if method == "design" else 0)
                for meat in meats:
                    omega = meat.omega
                    np.testing.assert_allclose(omega, omega.T, atol=1e-12)
                    np.testing.assert_allclose(
                        meat.b_n,
                        -(meat.zeta_11 + meat.zeta_00 - 2.0 * meat.zeta_10),
                        atol=1e-12,
                    )
                    np.testing.assert_allclose(
                        omega,
                        meat.a + meat.b_n - meat.a3,
                        atol=1e-12,
                    )
                assert rep.se_lb >= 0.0 and rep.se_ub >= 0.0
                assert np.isfinite(rep.se_lb) and np.isfinite(rep.se_ub)
                point = rep.fit_lb.estimate
                assert rep.ci_lb[0] <= point.delta_lb <= rep.ci_lb[1]
                assert rep.ci_ub[0] <= point.delta_ub <= rep.ci_ub[1]
                crit = rep.intervals.critical_set
                assert z_lo - 1e-9 <= crit <= z_hi + 1e-9
                assert rep.ci_set[0] >= rep.ci_lb[0] - 1e-12
                assert rep.ci_set[1] <= rep.ci_ub[1] + 1e-12
                iid_meat = meat_iid(rep.fit_lb.matrix.values)
                assert np.linalg.eigvalsh(iid_meat).min() >= -1e-10
                checked_reports += 1
    ok = checked_bounds >= 150 and checked_reports >= 60
    _verdict(
        "criterion 8",
        ok,
        f"bound invariants on {checked_bounds} datasets (>= 150) and "
        f"variance-report invariants on {checked_reports} reports (>= 60); "
        "no invariant violated",
    )
    assert ok
