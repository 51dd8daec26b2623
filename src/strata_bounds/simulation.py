"""Seeded data-generating processes and the Monte Carlo driver.

Randomness uses the Philox counter-based generator (4x64) keyed by
(seed mod 2^64, high word); the driver derives the child key for replication
r as (seed mod 2^64, r + 1), so output is identical across runs and across
thread counts. Each process documents its draw order, which is frozen:
changing it would silently change every seeded result.

matched_pairs: units sorted by a standard-normal covariate form consecutive
pairs; one unit per pair is treated; outcomes are 2X + 2 + noise; selection
is 0.8 (treated) / 0.7 (control) independent of outcomes; observed treated
outcomes get an additive Uniform(0, 2) bonus. Truth for the bounds is the
exact population value: the observed treated outcome is a normal plus a
uniform, whose distribution function and partial first moment have closed
forms in the normal distribution and density; its quantiles come from a
bisection down to adjacent floats, and the truth is computed once per process.

heavy_tails: 100 strata of 20 (10 treated each); outcomes 2X + 2 + 12V with
V a truncated Pareto tail; the largest control outcome in each stratum is an
"outlier" unit whose selection is 1.00 treated / 0.01 control (others: 0.98
/ 0.94, comonotone so treated selection dominates); per-stratum quota flips
guarantee at least 3 observed treated, 2 observed controls, and at least one
unselected unit per arm. The true always-observed effect is exactly 1.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, _label_table, block_design, format_number
from .errors import EstimationError, ValidationError
from .variance import (
    ESTIMATORS, VARIANCE_CHOICES, _normal_cdf, estimate_bounds,
)

DGP_MATCHED_PAIRS = "matched_pairs"
DGP_HEAVY_TAILS = "heavy_tails"
DGPS = (DGP_MATCHED_PAIRS, DGP_HEAVY_TAILS)

_MASK64 = (1 << 64) - 1

THREADS_ENV = "STRATA_BOUNDS_THREADS"

REPLICATION_COLUMNS = (
    "rep", "estimator", "delta_lb", "delta_ub", "se_lb", "se_ub",
    "covered_lb", "covered_ub", "flags",
)
# EstimatorSummary's fields, in order
SUMMARY_COLUMNS = (
    "estimator", "reps", "failed", "mean_delta_lb", "mean_delta_ub",
    "sd_delta_lb", "sd_delta_ub", "mean_se_lb", "mean_se_ub", "coverage_lb",
    "coverage_ub", "flag_counts",
)


def philox_generator(seed: int) -> np.random.Generator:
    """Philox4x64 generator keyed by the low and high 64-bit words of seed."""
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def child_seed(seed: int, rep: int) -> int:
    """Key for replication rep: low word = seed mod 2^64, high word = rep+1."""
    return (seed & _MASK64) | ((rep + 1) << 64)


# ---------------------------------------------------------------------------
# matched-pairs process
# ---------------------------------------------------------------------------

def simulate_dgp1(seed: int, n: int = 10000) -> Dataset:
    """Matched-pairs design with independent attrition.

    Draw order (frozen): covariate X(n); sort; outcome noise(n); per-pair
    treatment coin(n/2); treated selection uniforms(n); control selection
    uniforms(n); treated outcome bonus uniforms(n).
    """
    if n < 4 or n % 2 != 0:
        raise ValidationError("matched_pairs needs an even n of at least 4")
    rng = philox_generator(seed)
    x = rng.standard_normal(n)
    x = np.sort(x)
    eps = rng.standard_normal(n)
    coin = rng.integers(0, 2, n // 2)
    u_sel_treated = rng.random(n)
    u_sel_control = rng.random(n)
    bonus = 2.0 * rng.random(n)

    d = np.empty(n, dtype=np.int64)
    d[0::2] = coin
    d[1::2] = 1 - coin
    s_treated = u_sel_treated < 0.8
    s_control = u_sel_control < 0.7
    s = np.where(d == 1, s_treated, s_control).astype(np.int64)

    y_base = 2.0 * x + 2.0 + eps
    y = np.where(d == 1, y_base + bonus, y_base)

    return Dataset(
        y=np.where(s == 1, y, np.nan), s=s, d=d,
        codes=np.repeat(np.arange(n // 2), 2),
        labels=_pair_labels(n // 2),
        x=x[:, None],
    )


@functools.lru_cache(maxsize=4)
def _pair_labels(n_pairs: int) -> tuple[str, ...]:
    """Pair labels zero-padded to one width, so label order is pair order;
    built and checked once per size, since every replication of a run uses
    the same table."""
    return _label_table(
        map(f"%0{len(str(n_pairs - 1))}d".__mod__, range(n_pairs))
    )


_DGP1_SIGMA = math.sqrt(5.0)  # SD of 2X + noise
_DGP1_KEEP = 0.875  # one minus the population trimming share


def _dgp1_normal_parts(t: float) -> tuple[float, float]:
    """Phi(t / sigma) and sigma phi(t / sigma)."""
    sigma = _DGP1_SIGMA
    return _normal_cdf(t / sigma), sigma * math.exp(-t * t / 10.0) / math.sqrt(2.0 * math.pi)


def _dgp1_cdf(w: float) -> float:
    """Distribution function of the observed treated outcome of matched_pairs."""
    def g(t):
        cum, dens = _dgp1_normal_parts(t)
        return t * cum + dens

    return 0.5 * (g(w - 2.0) - g(w - 4.0))


def _dgp1_partial_moment(w: float) -> float:
    """E[W; W <= w] for the observed treated outcome W of matched_pairs."""
    # = 1/2 int_{w-4}^{w-2} (w - a) Phi(a/sigma) - sigma phi(a/sigma) da;
    # k is an antiderivative of the integrand
    def k(a):
        cum, dens = _dgp1_normal_parts(a)
        return (a * (w - a / 2.0) - _DGP1_SIGMA**2 / 2.0) * cum + (w - a / 2.0) * dens

    return 0.5 * (k(w - 2.0) - k(w - 4.0))


def _dgp1_quantile(p: float) -> float:
    """The least float q in [-30, 40] with p <= F(q), F = _dgp1_cdf.

    Bisection keeps F(lo) < p <= F(hi) until lo and hi are adjacent floats.
    """
    lo, hi = -30.0, 40.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _dgp1_cdf(mid) < p:
            lo = mid
        else:
            hi = mid


@functools.cache
def dgp1_truth() -> tuple[float, float]:
    """Exact population bounds for matched_pairs, computed once.

    The treated-observed outcome is W = 2X + 2 + noise + Uniform(0, 2), that
    is Z + V with Z ~ N(0, 5) and V ~ Uniform(2, 4). Its distribution
    function is F(w) = [G(w - 2) - G(w - 4)] / 2 with G(t) = t Phi(t/sigma)
    + sigma phi(t/sigma), an antiderivative of Phi(t/sigma), sigma = sqrt(5);
    its partial first moment E[W; W <= w] has the same shape. The
    population trimming share is 1 - 0.7/0.8 = 0.125, and the control mean
    is exactly 2 because selection is independent of outcomes.
    """
    keep = _DGP1_KEEP
    lb = _dgp1_partial_moment(_dgp1_quantile(keep)) / keep - 2.0
    # E[W] = 3
    ub = (3.0 - _dgp1_partial_moment(_dgp1_quantile(1.0 - keep))) / keep - 2.0
    return float(lb), float(ub)


# ---------------------------------------------------------------------------
# heavy-tails process
# ---------------------------------------------------------------------------

# the 100 stratum labels, checked once for every replication
_DGP2_LABELS = _label_table(map("%03d".__mod__, range(100)))


def simulate_dgp2(seed: int) -> Dataset:
    """Stratified design with per-stratum outliers and selective attrition.

    Draw order (frozen): covariate X(2000); sort; tail uniforms(2000);
    per-stratum treatment permutations (stratum 0..99); selection
    uniforms(2000); then per-stratum quota flips (stratum 0..99, treated arm
    first), each drawing only when a flip is needed. Quotas raise selection
    only (at least 3 observed treated and 2 observed controls per stratum);
    lowering selection to manufacture attrition would shrink the pooled
    trimming share below the share of outlier mass and push the lower bound
    above the true effect.
    """
    n, size_g, n_strata = 2000, 20, 100
    min_obs_treated, min_obs_control = 3, 2
    rng = philox_generator(seed)

    x = rng.standard_normal(n)
    x = np.sort(x)
    u = rng.random(n) * 0.995
    v = (1.0 - u) ** (-1.0 / 2.2)
    y0 = 2.0 * x + 2.0 + 12.0 * v
    y1 = y0 + 1.0

    d = np.zeros(n, dtype=np.int64)
    for g in range(n_strata):
        perm = rng.permutation(size_g)
        d[g * size_g + perm[: size_g // 2]] = 1

    w = rng.random(n)
    s_pot_treated = w < 0.98
    s_pot_control = w < 0.94
    # each stratum's largest control outcome
    outlier = np.arange(0, n, size_g) + y0.reshape(n_strata, size_g).argmax(axis=1)
    s_pot_treated[outlier] = True
    s_pot_control[outlier] = w[outlier] < 0.01

    s = np.where(d == 1, s_pot_treated, s_pot_control)

    def flip_up(unit: int, arm: int) -> None:
        # raising selection keeps treated selection dominating control
        if arm == 1:
            s_pot_treated[unit] = True
        else:
            s_pot_control[unit] = True
            s_pot_treated[unit] = True
        s[unit] = True

    for g in range(n_strata):
        members = np.arange(g * size_g, (g + 1) * size_g)
        for arm, min_obs in ((1, min_obs_treated), (0, min_obs_control)):
            arm_units = members[d[members] == arm]
            selected = arm_units[s[arm_units]]
            if selected.size < min_obs:
                pool = arm_units[~s[arm_units]]
                picks = rng.choice(pool, size=min_obs - selected.size, replace=False)
                for unit in picks:
                    flip_up(int(unit), arm)

    s = s.astype(np.int64)
    y = np.where(d == 1, y1, y0)
    return Dataset(
        y=np.where(s == 1, y, np.nan), s=s, d=d,
        codes=np.repeat(np.arange(n_strata), size_g),
        labels=_DGP2_LABELS, x=x[:, None],
    )


DGP2_TRUTH = 1.0  # constant unit effect by construction


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run description.

    estimators holds tokens "<estimator>:<variance>" with estimator in
    {lee, conditional-lee, lee-ipw} and variance in {design, iid, label,
    none}, each at most once; empty means the default panel for the
    process. n applies to matched_pairs only (heavy_tails has 2000).
    """

    dgp: str
    reps: int
    seed: int
    n: int | None = None
    estimators: tuple[str, ...] = ()
    alpha: float = 0.05


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    reps: int
    failed: int
    mean_delta_lb: float
    mean_delta_ub: float
    sd_delta_lb: float
    sd_delta_ub: float
    mean_se_lb: float
    mean_se_ub: float
    coverage_lb: float
    coverage_ub: float
    flag_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MonteCarloSummary:
    config: McConfig
    truth_lb: float
    truth_ub: float
    estimators: tuple[EstimatorSummary, ...]


_DEFAULT_PANEL = {
    DGP_MATCHED_PAIRS: ("lee:design",),
    DGP_HEAVY_TAILS: ("lee-ipw:design", "conditional-lee:none"),
}


def _parse_token(token: str) -> tuple[str, str]:
    est, _, var = token.partition(":")
    var = var or "none"
    if est not in ESTIMATORS or var not in VARIANCE_CHOICES:
        raise ValidationError(
            f"bad estimator token {token!r}; use <estimator>:<variance> with "
            f"estimator in {ESTIMATORS} and variance in {VARIANCE_CHOICES}"
        )
    if est == "conditional-lee" and var != "none":
        raise ValidationError(
            "conditional-lee has no moment system, so no variance method "
            "applies; use conditional-lee:none"
        )
    return est, var


def _resolve_config(config: McConfig):
    """The config's (token, estimator, variance) triples and sample size."""
    if config.dgp not in DGPS:
        raise ValidationError(f"dgp must be one of {DGPS}, got {config.dgp!r}")
    if config.reps < 1:
        raise ValidationError("reps must be at least 1")
    if not (0.0 < config.alpha < 1.0):
        raise ValidationError("alpha must be in (0, 1)")
    if config.dgp == DGP_HEAVY_TAILS:
        if config.n not in (None, 2000):
            raise ValidationError("heavy_tails has fixed n = 2000")
        n = 2000
    else:
        n = config.n if config.n is not None else 10000
        if n < 4 or n % 2 != 0:
            raise ValidationError("matched_pairs needs an even n of at least 4")
        if n > np.iinfo(np.intp).max:  # more units than numpy can index
            raise ValidationError(f"matched_pairs n is too large, got {n}")
    tokens = config.estimators or _DEFAULT_PANEL[config.dgp]
    resolved = tuple((t, *_parse_token(t)) for t in tokens)
    for i, token in enumerate(tokens):
        if token in tokens[:i]:  # its rows and summary would count twice
            raise ValidationError(f"estimator token {token!r} is given twice")
    return resolved, n


def _covered(interval: tuple[float, float], value: float) -> bool:
    return interval[0] <= value <= interval[1]


def _run_replication(config, tokens, n, truth, rep):
    data = (
        simulate_dgp1(child_seed(config.seed, rep), n)
        if config.dgp == DGP_MATCHED_PAIRS
        else simulate_dgp2(child_seed(config.seed, rep))
    )
    design = block_design(data)
    # each estimator runs once, with every variance method asked of it
    results = {}
    for est in dict.fromkeys(est for _, est, _ in tokens):
        methods = tuple(dict.fromkeys(
            var for _, e, var in tokens if e == est and var != "none"
        ))
        try:
            results[est] = estimate_bounds(
                data, design, est, methods, alpha=config.alpha
            )
        except EstimationError as exc:
            results[est] = exc, {}
    rows = []
    for token, est, var in tokens:
        row = {"rep": rep, "estimator": token, "flags": ""}
        estimate, reports = results[est]
        report = reports.get(var)
        error = estimate if isinstance(estimate, EstimationError) else report
        if isinstance(error, EstimationError):
            row["flags"] = f"error:{type(error).__name__}"
            rows.append(row)
            continue
        row["delta_lb"] = estimate.delta_lb
        row["delta_ub"] = estimate.delta_ub
        row["flags"] = ";".join(
            report.flags if report is not None else estimate.flags
        )
        if report is not None:
            row["se_lb"] = report.se_lb
            row["se_ub"] = report.se_ub
            if config.dgp == DGP_MATCHED_PAIRS:
                row["covered_lb"] = _covered(report.ci_lb, truth[0])
                row["covered_ub"] = _covered(report.ci_ub, truth[1])
            else:
                # no per-bound truth here: both columns carry coverage of
                # the constant effect by the identified-set interval
                hit = _covered(report.ci_set, DGP2_TRUTH)
                row["covered_lb"] = hit
                row["covered_ub"] = hit
        rows.append(row)
    return rows


def _thread_count(reps: int) -> int:
    """Worker threads from STRATA_BOUNDS_THREADS, at most reps and the CPUs."""
    raw = os.environ.get(THREADS_ENV, "") or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(
            f"{THREADS_ENV} must be a whole number of at least 1, got {raw!r}"
        )
    return min(threads, reps, os.cpu_count() or 1)


def monte_carlo(config: McConfig, out_dir: str | None = None) -> MonteCarloSummary:
    """Run the replications, optionally writing the two CSV files.

    Parallelism is controlled by the STRATA_BOUNDS_THREADS environment
    variable (default 1, capped at the number of replications and of CPUs);
    results are keyed by replication index, so output bytes do not depend on
    the thread count.
    """
    tokens, n = _resolve_config(config)
    threads = _thread_count(config.reps)
    truth = dgp1_truth() if config.dgp == DGP_MATCHED_PAIRS else (DGP2_TRUTH,) * 2

    run = functools.partial(_run_replication, config, tokens, n, truth)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(run, range(config.reps)))
    else:
        per_rep = list(map(run, range(config.reps)))
    rows = [row for rep_rows in per_rep for row in rep_rows]
    if not any("delta_lb" in row for row in rows):
        raise EstimationError("every replication failed; no summary to report")

    summaries = []
    for token, _, _ in tokens:
        mine = [r for r in rows if r["estimator"] == token]
        good = [r for r in mine if "delta_lb" in r]

        def col(name):
            vals = [r[name] for r in good if name in r]
            return np.array(vals, dtype=float) if vals else np.array([])

        lbs, ubs = col("delta_lb"), col("delta_ub")
        flag_counts = Counter(f for r in mine for f in r["flags"].split(";") if f)
        summaries.append(EstimatorSummary(
            estimator=token,
            reps=len(mine),
            failed=len(mine) - len(good),
            mean_delta_lb=_mean_or_nan(lbs),
            mean_delta_ub=_mean_or_nan(ubs),
            sd_delta_lb=_sd_or_nan(lbs),
            sd_delta_ub=_sd_or_nan(ubs),
            mean_se_lb=_mean_or_nan(col("se_lb")),
            mean_se_ub=_mean_or_nan(col("se_ub")),
            coverage_lb=_mean_or_nan(col("covered_lb")),
            coverage_ub=_mean_or_nan(col("covered_ub")),
            flag_counts=tuple(sorted(flag_counts.items())),
        ))

    summary = MonteCarloSummary(
        config=config, truth_lb=truth[0], truth_ub=truth[1],
        estimators=tuple(summaries),
    )
    if out_dir is not None:
        write_replications_csv(rows, os.path.join(out_dir, "replications.csv"))
        write_summary_csv(summary, os.path.join(out_dir, "summary.csv"))
    return summary


def _mean_or_nan(arr: np.ndarray) -> float:
    return float(arr.mean()) if arr.size else float("nan")


def _sd_or_nan(arr: np.ndarray) -> float:
    # empirical SD needs two replications; a single one yields the sentinel
    return float(arr.std(ddof=1)) if arr.size >= 2 else float("nan")


def _atomic_csv(path: str, header, rows_of_cells) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows_of_cells)
    os.replace(tmp, path)


def write_replications_csv(rows: list[dict], path: str) -> None:
    def cells(row):
        return [
            str(row["rep"]),
            row["estimator"],
            *(format_number(row[k]) if k in row else "nan"
              for k in ("delta_lb", "delta_ub", "se_lb", "se_ub")),
            *(str(int(row[k])) if k in row else ""
              for k in ("covered_lb", "covered_ub")),
            row["flags"],
        ]

    _atomic_csv(path, REPLICATION_COLUMNS, (cells(r) for r in rows))


def write_summary_csv(summary: MonteCarloSummary, path: str) -> None:
    def cells(est: EstimatorSummary):
        stats = (getattr(est, name) for name in SUMMARY_COLUMNS[3:-1])
        return [
            est.estimator,
            str(est.reps),
            str(est.failed),
            *map(format_number, stats),
            ";".join(f"{name}={count}" for name, count in est.flag_counts),
        ]

    _atomic_csv(path, SUMMARY_COLUMNS, (cells(e) for e in summary.estimators))
