"""Synthetic data processes, seeding scheme, and the Monte Carlo driver."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from strata_bounds import (
    DegenerateTrimError,
    EstimationError,
    McConfig,
    ValidationError,
    block_design,
    child_seed,
    dgp1_truth,
    monte_carlo,
    philox_generator,
    simulate_dgp1,
    simulate_dgp2,
)
from strata_bounds import (
    gmm_core,
    jacobian,
    lee_bounds,
    meat_design,
    meat_iid,
    moment_matrix,
    pair_blocks,
    simulation,
    trimming_share_pooled,
    variance,
)
from strata_bounds.simulation import (
    DGP2_TRUTH,
    REPLICATION_COLUMNS,
    SUMMARY_COLUMNS,
    format_number,
)

from conftest import assert_same_columns, count_calls
from oracles import oracle_dgp1_truth


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_philox_generator_is_deterministic_and_seed_sensitive():
    a = philox_generator(12345).random(8)
    b = philox_generator(12345).random(8)
    c = philox_generator(12346).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_philox_generator_accepts_wide_seeds():
    wide = (37 << 64) | 11
    vals = philox_generator(wide).random(4)
    assert np.all((0.0 <= vals) & (vals < 1.0))


def test_child_seeds_are_disjoint_across_replications():
    seeds = {child_seed(99, rep) for rep in range(1000)}
    assert len(seeds) == 1000
    assert child_seed(99, 0) == 99 + (1 << 64)
    assert child_seed(99, 0) != 99  # rep stream never equals the base stream


# ---------------------------------------------------------------------------
# matched-pairs process
# ---------------------------------------------------------------------------

def test_dgp1_structure():
    n = 1000
    data = simulate_dgp1(31, n=n)
    assert data.n == n
    # consecutive units form pairs with exactly one treated unit
    labels = data.blocks
    for i in range(0, n, 2):
        assert labels[i] == labels[i + 1]
        assert data.d[i] + data.d[i + 1] == 1
    assert len(set(labels)) == n // 2
    # the covariate is sorted, so pairs match on it
    x = data.x[:, 0]
    assert np.all(np.diff(x) >= 0)
    design = block_design(data)
    assert design.p_hat == 0.5


def test_dgp1_selection_rates_and_outcome_law():
    data = simulate_dgp1(77, n=10000)
    d, s = data.d, data.s
    rate1 = s[d == 1].mean()
    rate0 = s[d == 0].mean()
    assert abs(rate1 - 0.8) < 4 * math.sqrt(0.8 * 0.2 / 5000)
    assert abs(rate0 - 0.7) < 4 * math.sqrt(0.7 * 0.3 / 5000)
    x = data.x[:, 0]
    ctrl_obs = (d == 0) & (s == 1)
    resid = data.y[ctrl_obs] - 2.0 * x[ctrl_obs]
    assert abs(resid.mean() - 2.0) < 0.1  # no bonus in the control arm
    treat_obs = (d == 1) & (s == 1)
    resid_t = data.y[treat_obs] - 2.0 * x[treat_obs]
    assert abs(resid_t.mean() - 3.0) < 0.1  # bonus averages 1


def test_dgp1_is_reproducible_and_seed_sensitive():
    a = simulate_dgp1(5, n=100)
    b = simulate_dgp1(5, n=100)
    c = simulate_dgp1(6, n=100)
    assert_same_columns(a, b)
    assert not np.array_equal(a.x, c.x)


def test_dgp1_rejects_bad_sizes():
    with pytest.raises(ValidationError):
        simulate_dgp1(1, n=7)
    with pytest.raises(ValidationError):
        simulate_dgp1(1, n=2)


def test_dgp1_truth_brackets():
    lb, ub = dgp1_truth()
    assert 0.4 < lb < 0.5
    assert 1.5 < ub < 1.6
    assert dgp1_truth() == (lb, ub)


def test_dgp1_truth_matches_quadrature():
    # the closed form against numerical integration of the outcome density
    for got, want in zip(dgp1_truth(), oracle_dgp1_truth()):
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p", [0.875, 0.125])
def test_dgp1_quantile_is_the_least_float_that_reaches_p(p):
    q = simulation._dgp1_quantile(p)
    cdf = simulation._dgp1_cdf
    assert cdf(math.nextafter(q, -math.inf)) < p <= cdf(math.nextafter(q, math.inf))


# ---------------------------------------------------------------------------
# heavy-tails process
# ---------------------------------------------------------------------------

def test_dgp2_structure_and_quotas():
    data = simulate_dgp2(11)
    assert data.n == 2000
    design = block_design(data)
    assert design.n_blocks == 100
    assert (design.n_g == 20).all()
    assert (design.t_g == 10).all()
    assert ((3 <= design.n1s_g) & (design.n1s_g <= 10)).all()  # quotas raise selection only
    assert ((2 <= design.n0s_g) & (design.n0s_g <= 10)).all()
    # unit effect is exactly 1 and the tail component keeps outcomes high
    x = data.x[:, 0]
    obs = data.s == 1
    shifted = data.y[obs] - 2.0 * x[obs] - 2.0 - data.d[obs]
    assert np.all(shifted >= 12.0 - 1e-9)
    assert shifted.max() > 100.0  # the heavy tail actually shows up


def test_dgp2_is_reproducible_and_seed_sensitive():
    a = simulate_dgp2(3)
    b = simulate_dgp2(3)
    c = simulate_dgp2(4)
    assert_same_columns(a, b)
    assert not np.array_equal(a.y, c.y, equal_nan=True)


def test_dgp2_quotas_flip_unobserved_units_up(monkeypatch):
    # the selection uniforms (the second random() draw) at 0.999 select
    # only the outlier units, so every stratum takes its quota flips; the
    # draws themselves are still made, so the flips draw in frozen order
    plain = simulate_dgp2(5)
    philox = simulation.philox_generator

    class HighSelectionUniforms:
        def __init__(self, rng):
            self._rng = rng
            self._random_calls = 0

        def random(self, *args, **kwargs):
            self._random_calls += 1
            draws = self._rng.random(*args, **kwargs)
            return np.full_like(draws, 0.999) if self._random_calls == 2 else draws

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(
        simulation, "philox_generator", lambda seed: HighSelectionUniforms(philox(seed))
    )
    data = simulate_dgp2(5)
    design = block_design(data)
    assert (design.n1s_g == 3).all() and (design.n0s_g == 2).all()
    # the observed units of strata 0 and 99, treated then control, as the
    # frozen draws pick them
    for g, treated, control in ((0, [4, 8, 13], [5, 12]), (99, [14, 15, 16], [6, 7])):
        s, d = data.s[20 * g : 20 * g + 20], data.d[20 * g : 20 * g + 20]
        assert np.flatnonzero(s & d).tolist() == treated
        assert np.flatnonzero(s & (1 - d)).tolist() == control
    np.testing.assert_array_equal(data.d, plain.d)
    both = (data.s == 1) & (plain.s == 1)
    np.testing.assert_array_equal(data.y[both], plain.y[both])


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dgp="nope", reps=2, seed=1),
        dict(dgp="matched_pairs", reps=0, seed=1),
        dict(dgp="matched_pairs", reps=2, seed=1, alpha=0.0),
        dict(dgp="matched_pairs", reps=2, seed=1, alpha=1.0),
        dict(dgp="matched_pairs", reps=2, seed=1, n=15),
        dict(dgp="heavy_tails", reps=2, seed=1, n=1000),
        dict(dgp="matched_pairs", reps=2, seed=1, estimators=("lee:hac",)),
        dict(dgp="matched_pairs", reps=2, seed=1, estimators=("ridge:iid",)),
        dict(
            dgp="matched_pairs", reps=2, seed=1,
            estimators=("conditional-lee:design",),
        ),
    ],
)
def test_monte_carlo_rejects_bad_config(kwargs):
    with pytest.raises(ValidationError):
        monte_carlo(McConfig(**kwargs))


# ---------------------------------------------------------------------------
# monte_carlo driver
# ---------------------------------------------------------------------------

def test_monte_carlo_default_panel_matched_pairs(tmp_path):
    config = McConfig(dgp="matched_pairs", reps=3, seed=17, n=200)
    summary = monte_carlo(config, out_dir=str(tmp_path))
    assert [e.estimator for e in summary.estimators] == ["lee:design"]
    truth = dgp1_truth()
    assert (summary.truth_lb, summary.truth_ub) == truth

    lines = (tmp_path / "replications.csv").read_text().splitlines()
    assert lines[0] == ",".join(REPLICATION_COLUMNS)
    assert len(lines) == 1 + 3  # one data row per replication
    reps_seen = [line.split(",")[0] for line in lines[1:]]
    assert reps_seen == ["0", "1", "2"]

    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary_lines) == 2


def test_monte_carlo_default_panel_heavy_tails(tmp_path):
    config = McConfig(dgp="heavy_tails", reps=2, seed=5)
    summary = monte_carlo(config, out_dir=str(tmp_path))
    names = [e.estimator for e in summary.estimators]
    assert names == ["lee-ipw:design", "conditional-lee:none"]
    assert summary.truth_lb == DGP2_TRUTH and summary.truth_ub == DGP2_TRUTH
    lines = (tmp_path / "replications.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # reps x estimators
    # the set-interval coverage fills both columns for this process
    ipw_rows = [ln for ln in lines[1:] if ",lee-ipw:design," in ln]
    for row in ipw_rows:
        cells = row.split(",")
        assert cells[6] == cells[7] and cells[6] in ("0", "1")
    # the per-stratum estimator reports bounds but no standard errors
    cond_rows = [ln for ln in lines[1:] if ",conditional-lee:none," in ln]
    for row in cond_rows:
        cells = row.split(",")
        assert cells[4] == "nan" and cells[5] == "nan"
        assert cells[6] == "" and cells[7] == ""


def test_monte_carlo_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    out1 = tmp_path / "t1"
    out3 = tmp_path / "t3"
    out1.mkdir()
    out3.mkdir()
    config = McConfig(dgp="matched_pairs", reps=6, seed=23, n=200)
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "1")
    monte_carlo(config, out_dir=str(out1))
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "3")
    monte_carlo(config, out_dir=str(out3))
    assert (out1 / "replications.csv").read_bytes() == (
        out3 / "replications.csv"
    ).read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out3 / "summary.csv").read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_monte_carlo_rejects_bad_thread_count(monkeypatch, value):
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", value)
    with pytest.raises(ValidationError, match="STRATA_BOUNDS_THREADS"):
        monte_carlo(McConfig(dgp="heavy_tails", reps=1, seed=1))


def test_monte_carlo_caps_threads_at_replications(monkeypatch):
    requested = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    # monte_carlo imports the pool when it starts one
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "64")
    monte_carlo(McConfig(dgp="heavy_tails", reps=2, seed=1))
    assert requested == [2]


def test_monte_carlo_single_replication_has_nan_sd(tmp_path):
    config = McConfig(dgp="matched_pairs", reps=1, seed=2, n=200)
    summary = monte_carlo(config, out_dir=str(tmp_path))
    est = summary.estimators[0]
    assert math.isnan(est.sd_delta_lb) and math.isnan(est.sd_delta_ub)
    text = (tmp_path / "summary.csv").read_text()
    assert ",nan," in text


def test_monte_carlo_records_failed_replications_as_error_rows(tmp_path):
    # tiny samples make degenerate replications (no observed arm, degenerate
    # trim, singular Jacobian) likely; scan a few seeds for a mix
    found_error = found_success = False
    for seed in range(60):
        out = tmp_path / str(seed)
        out.mkdir()
        config = McConfig(dgp="matched_pairs", reps=4, seed=seed, n=4)
        try:
            summary = monte_carlo(config, out_dir=str(out))
        except EstimationError:
            continue  # every replication failed; covered by the test below
        est = summary.estimators[0]
        if est.failed and est.failed < est.reps:
            found_error = found_success = True
            lines = (
                (tmp_path / str(seed) / "replications.csv")
                .read_text()
                .splitlines()[1:]
            )
            error_rows = [ln for ln in lines if "error:" in ln]
            assert len(error_rows) == est.failed
            cells = error_rows[0].split(",")
            assert cells[2] == "nan" and cells[3] == "nan"
            assert cells[8].startswith("error:")
            break
    assert found_error and found_success


def test_monte_carlo_raises_when_every_replication_fails():
    # an all-failure run must raise instead of writing an empty summary;
    # scan for a seed whose replications all degenerate at n = 4
    hit = False
    for seed in range(200):
        config = McConfig(dgp="matched_pairs", reps=1, seed=seed, n=4)
        try:
            monte_carlo(config)
        except EstimationError as exc:
            assert "every replication failed" in str(exc)
            hit = True
            break
    assert hit


def test_monte_carlo_explicit_estimator_tokens(tmp_path):
    config = McConfig(
        dgp="matched_pairs", reps=2, seed=9, n=200,
        estimators=("lee:iid", "lee:none"),
    )
    summary = monte_carlo(config, out_dir=str(tmp_path))
    by_name = {e.estimator: e for e in summary.estimators}
    assert set(by_name) == {"lee:iid", "lee:none"}
    assert by_name["lee:iid"].mean_se_lb > 0.0
    assert math.isnan(by_name["lee:none"].mean_se_lb)
    # bounds are identical across variance methods
    assert by_name["lee:iid"].mean_delta_lb == by_name["lee:none"].mean_delta_lb


PANEL = ("lee:none", "lee:iid", "lee:label", "lee:design")


def _replication_rows(out, tokens):
    config = McConfig(
        dgp="matched_pairs", reps=3, seed=9, n=200, estimators=tokens
    )
    out.mkdir()
    monte_carlo(config, out_dir=str(out))
    return (out / "replications.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize("token", PANEL)
def test_monte_carlo_panel_composition_changes_no_row(tmp_path, token):
    rows = [
        row
        for row in _replication_rows(tmp_path / "panel", PANEL)
        if row.split(",")[1] == token
    ]
    assert len(rows) == 3
    if token == "lee:label":
        # matched pairs leave one unit per arm in every block
        assert all(row.endswith(",error:FeasibilityError") for row in rows)
    else:
        assert rows == _replication_rows(tmp_path / "alone", (token,))


def test_monte_carlo_records_a_failed_point_estimate_in_each_of_its_rows(
    monkeypatch, tmp_path
):
    tokens = ("lee:none", "lee:iid", "lee:design", "lee-ipw:design")
    clean = _replication_rows(tmp_path / "clean", tokens)
    failing_data = simulate_dgp1(child_seed(9, 1), 200)  # replication 1
    lee = variance.lee_bounds

    def lee_failing_once(data, design):
        if np.array_equal(data.y, failing_data.y, equal_nan=True):
            raise DegenerateTrimError("injected")
        return lee(data, design)

    monkeypatch.setattr(variance, "lee_bounds", lee_failing_once)
    rows = _replication_rows(tmp_path / "failing", tokens)
    assert len(rows) == len(clean) == 3 * len(tokens)
    failed = 0
    for row, clean_row in zip(rows, clean):
        rep, token = row.split(",")[:2]
        if rep == "1" and token.startswith("lee:"):
            assert row.endswith(",error:DegenerateTrimError"), row
            failed += 1
        else:
            assert row == clean_row
    assert failed == 3


def test_monte_carlo_fits_and_differentiates_each_bound_once(monkeypatch):
    counts = count_calls(
        monkeypatch,
        [
            lee_bounds, trimming_share_pooled, moment_matrix,
            gmm_core.differentiate, jacobian,
            gmm_core._big_phi, meat_iid, meat_design, variance._second_moments,
            pair_blocks,
        ],
    )
    for name in ("cond", "inv"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(np.linalg, name, counted)
    config = McConfig(
        dgp="matched_pairs", reps=1, seed=3, n=200,
        estimators=("lee:iid", "lee:design"),
    )
    monte_carlo(config)
    # one point estimate, whose share the fit does not form again; one
    # moment matrix for both bounds; both bounds
    # differentiated in one pass with one normal-CDF kernel call, and each
    # Jacobian inverted once, its refusal read off that inverse; one meat
    # for the design method on both bounds' stacked moments, with one Gram
    # that the i.i.d. meat shares; one pairing for both arms, since every
    # pair is a singleton block in each
    assert counts == {
        "lee_bounds": 1,
        "trimming_share_pooled": 1,
        "moment_matrix": 1,
        "differentiate": 1,
        "jacobian": 0,
        "_big_phi": 1,
        "inv": 2,
        "cond": 0,
        "meat_iid": 0,
        "meat_design": 1,
        "_second_moments": 1,
        "pair_blocks": 1,
    }


def test_monte_carlo_coverage_indicators_are_binary(tmp_path):
    config = McConfig(dgp="matched_pairs", reps=3, seed=41, n=400)
    monte_carlo(config, out_dir=str(tmp_path))
    lines = (tmp_path / "replications.csv").read_text().splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        assert cells[6] in ("0", "1") and cells[7] in ("0", "1")


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------

def test_format_number_twelve_significant_digits():
    assert format_number(float("nan")) == "nan"
    assert format_number(2) == "2"
    assert format_number(0.125) == "0.125"
    assert format_number(1.0 / 3.0) == "0.333333333333"
    assert format_number(123456789012345.0) == "1.23456789012e+14"
