"""Design-consistent variance for the bound estimators.

The meat matrix combines per-arm second moments with a between-block
correction built from within-block cross products. Blocks where an arm has a
single unit cannot form within-arm products, so such blocks are paired (by
covariate means, then labels) and borrow the partner's unit; the label-mode
variant refuses singleton arms instead, and an i.i.d.-style meat that drops
the block correction is available as a conservative comparator. A scalar
label-based estimator of the squared between-arm mean gap is also provided.
Standard errors, per-bound confidence intervals, and the width-adjusted
identified-set interval complete the report. estimate_bounds runs one
estimator with any number of variance methods; the command line and the
Monte Carlo driver both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .data_model import BlockDesign, Dataset
from .errors import EstimationError, FeasibilityError, PairingError
from .gmm_core import FitResult, fit_from_estimate, jacobian, solve_sandwich
from .ipw_estimator import lee_ipw_bounds
from .lee_estimator import BoundsEstimate, conditional_lee_bounds, lee_bounds

ESTIMATORS = ("lee", "conditional-lee", "lee-ipw")
VARIANCE_METHODS = ("design", "iid", "label")
VARIANCE_CHOICES = VARIANCE_METHODS + ("none",)  # "none": no variance


# ---------------------------------------------------------------------------
# pairing of singleton-arm blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Involution:
    """Fixed-point-free partner map over block indices.

    pairs is an (m, 2) int64 array of (block, partner) rows; in-set pairs
    appear once and are mutual, an odd leftover maps to an out-of-set
    partner block.
    """

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise PairingError("involution must be fixed-point-free")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)


def pair_blocks(design: BlockDesign, needs) -> Involution:
    """Pair the listed blocks among themselves, consecutively by sort key.

    Blocks sort by covariate means (first coordinate first), label as the
    final tiebreak; without covariates, label order. An odd leftover block is
    paired with the nearest block outside the set (by first covariate-mean
    coordinate, or by position in label order; ties go to the first label);
    if no outside block exists, pairing fails. Block indices follow label
    order, so the index stands in for the label throughout.
    """
    in_set = np.zeros(design.n_blocks, dtype=bool)
    in_set[np.asarray(needs, dtype=np.int64)] = True
    needs = np.flatnonzero(in_set)
    x_mean = design.x_mean
    if x_mean is not None and needs.size:
        # lexsort takes its primary key last
        needs = needs[np.lexsort((needs, *x_mean[needs].T[::-1]))]
    odd = needs.size % 2
    pairs = needs[: needs.size - odd].reshape(-1, 2)
    if odd:
        last = int(needs[-1])
        candidates = np.flatnonzero(~in_set)
        if not candidates.size:
            raise PairingError(
                f"cannot pair block {design.labels[last]!r}: "
                "no block outside the singleton set"
            )
        if x_mean is not None:
            distance = np.abs(x_mean[candidates, 0] - x_mean[last, 0])
        else:
            distance = np.abs(candidates - last)
        partner = candidates[np.argmin(distance)]
        pairs = np.vstack((pairs, [(last, partner)]))
    return Involution(pairs=pairs)


# ---------------------------------------------------------------------------
# meat matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeatReport:
    """Pieces of the design-consistent meat.

    omega = a1 + a0 + b_n - a3 and b_n = -(zeta_11 + zeta_00 - 2 zeta_10)
    hold exactly by construction. singleton_treated / singleton_control hold
    the indices of blocks whose arm had one unit (paired mode only); their
    labels are design.labels[g].
    """

    a1: np.ndarray
    a0: np.ndarray
    a3: np.ndarray
    zeta_10: np.ndarray
    zeta_11: np.ndarray
    zeta_00: np.ndarray
    b_n: np.ndarray
    omega: np.ndarray
    singleton_treated: np.ndarray
    singleton_control: np.ndarray
    involution_treated: Involution | None
    involution_control: Involution | None
    mode: str


def _block_arm_stats(moments, codes, mask, n_blocks):
    """One arm's rows, their block codes, and per-block counts and sums."""
    codes_arm = codes[mask]
    rows = moments[mask]
    counts = np.bincount(codes_arm, minlength=n_blocks)
    sums = np.column_stack([
        np.bincount(codes_arm, weights=col, minlength=n_blocks) for col in rows.T
    ])
    return rows, codes_arm, counts, sums


def _zeta_within(coef, rows, codes_arm, counts, sums):
    """Within-arm pair term over blocks with at least two units in the arm.

    With w_g = coef_g / (c_g (c_g - 1)), it is sum_g w_g (S_g S_g' - sum_i
    r_i r_i'): a weighted Gram matrix of the block sums S_g minus one of the
    rows r_i, so no per-block outer products are formed.
    """
    multi = counts >= 2
    c = counts[multi].astype(float)
    w = np.zeros(counts.size)
    w[multi] = coef[multi] / (c * (c - 1.0))
    zeta = sums.T @ (w[:, None] * sums) - rows.T @ (w[codes_arm][:, None] * rows)
    return 0.5 * (zeta + zeta.T)


def _singleton_cross(inv, single, coef, sums, means):
    """Symmetrized sum over singleton-arm blocks g of coef_g own_g partner_g'.

    A singleton arm's sum is its single row (own_g); partner_g is the arm
    mean of the block it is paired with.
    """
    partner = np.empty(means.shape[0], dtype=np.int64)
    partner[inv.pairs[:, 1]] = inv.pairs[:, 0]
    partner[inv.pairs[:, 0]] = inv.pairs[:, 1]  # in-set blocks win
    cross = sums[single].T @ (coef[single, None] * means[partner[single]])
    return 0.5 * (cross + cross.T)


def meat_design(
    data: Dataset,
    design: BlockDesign,
    moments: np.ndarray,
    mode: str = "paired",
) -> MeatReport:
    """Design-consistent meat with the between-block correction.

    mode="paired" resolves singleton arms by pairing blocks; mode="label"
    requires at least two units per arm in every block and fails otherwise.
    """
    if mode not in ("paired", "label"):
        raise ValueError(f"mode must be 'paired' or 'label', got {mode!r}")
    n = moments.shape[0]
    codes = design.codes
    d = data.d
    n_blocks = design.n_blocks

    rows1, codes1, cnt1, sum1 = _block_arm_stats(moments, codes, d == 1, n_blocks)
    rows0, codes0, cnt0, sum0 = _block_arm_stats(moments, codes, d == 0, n_blocks)
    a1 = rows1.T @ rows1 / n
    a0 = rows0.T @ rows0 / n
    mbar = moments.mean(axis=0)
    a3 = np.outer(mbar, mbar)

    etas = design.eta_g
    coef = (design.n_g / n) * etas * (1.0 - etas)

    mean1 = sum1 / cnt1[:, None]
    mean0 = sum0 / cnt0[:, None]
    cross = mean1.T @ (coef[:, None] * mean0)
    zeta_10 = 0.5 * (cross + cross.T)

    zeta_11 = _zeta_within(coef, rows1, codes1, cnt1, sum1)
    zeta_00 = _zeta_within(coef, rows0, codes0, cnt0, sum0)
    single1 = np.flatnonzero(cnt1 == 1)
    single0 = np.flatnonzero(cnt0 == 1)

    inv1 = inv0 = None
    if mode == "label":
        if single1.size or single0.size:
            bad = np.union1d(single1, single0).tolist()
            raise FeasibilityError(
                "label-mode variance needs at least 2 units per arm per "
                f"block; singleton arms in: {', '.join(design.labels[g] for g in bad)}"
            )
    else:
        if single1.size:
            inv1 = pair_blocks(design, single1)
            zeta_11 = zeta_11 + _singleton_cross(inv1, single1, coef, sum1, mean1)
        if single0.size:
            inv0 = pair_blocks(design, single0)
            zeta_00 = zeta_00 + _singleton_cross(inv0, single0, coef, sum0, mean0)

    b_n = -(zeta_11 + zeta_00 - 2.0 * zeta_10)
    omega = a1 + a0 + b_n - a3
    return MeatReport(
        a1=a1,
        a0=a0,
        a3=a3,
        zeta_10=zeta_10,
        zeta_11=zeta_11,
        zeta_00=zeta_00,
        b_n=b_n,
        omega=omega,
        singleton_treated=single1,
        singleton_control=single0,
        involution_treated=inv1,
        involution_control=inv0,
        mode=mode,
    )


def meat_iid(moments: np.ndarray) -> np.ndarray:
    """Centered second-moment meat that ignores the block structure."""
    n = moments.shape[0]
    mbar = moments.mean(axis=0)
    return moments.T @ moments / n - np.outer(mbar, mbar)


# ---------------------------------------------------------------------------
# scalar label-based variance of the between-arm mean gap
# ---------------------------------------------------------------------------

def label_variance(data: Dataset, design: BlockDesign) -> float:
    """Size-weighted estimator of E[(mean gap between arms given block)^2].

    Works on the per-unit value Y*S (observed outcome, zero when missing).
    Every block needs at least two treated and two control units.
    """
    n_g, t1 = design.n_g, design.t_g
    t0 = n_g - t1
    bad = np.flatnonzero((t1 < 2) | (t0 < 2)).tolist()
    if bad:
        raise FeasibilityError(
            "label-based variance needs at least 2 treated and 2 control "
            f"units per block; violated by: {', '.join(design.labels[g] for g in bad)}"
        )
    codes = design.codes
    d = data.d
    v = np.where(data.s == 1, np.nan_to_num(data.y, nan=0.0), 0.0)
    n_blocks = design.n_blocks
    n = data.n

    sum1 = np.bincount(codes[d == 1], weights=v[d == 1], minlength=n_blocks)
    sum0 = np.bincount(codes[d == 0], weights=v[d == 0], minlength=n_blocks)
    ss1 = np.bincount(codes[d == 1], weights=v[d == 1] ** 2, minlength=n_blocks)
    ss0 = np.bincount(codes[d == 0], weights=v[d == 0] ** 2, minlength=n_blocks)

    w = n_g / n
    rho_11 = float((w * (sum1**2 - ss1) / (t1 * (t1 - 1.0))).sum())
    rho_00 = float((w * (sum0**2 - ss0) / (t0 * (t0 - 1.0))).sum())
    rho_10 = float((w * (sum1 / t1) * (sum0 / t0)).sum())
    return rho_11 + rho_00 - 2.0 * rho_10


# ---------------------------------------------------------------------------
# standard errors and confidence intervals
# ---------------------------------------------------------------------------

def bound_standard_error(v_hat: np.ndarray, n: int) -> tuple[float, bool]:
    """SE of (mu1 - mu0) from a parameter covariance; clips negatives to 0."""
    sigma2 = float(v_hat[0, 0] + v_hat[1, 1] - 2.0 * v_hat[0, 1])
    clipped = sigma2 < 0.0
    return math.sqrt(max(sigma2, 0.0) / n), clipped


def set_critical_value(width: float, sigma: float, alpha: float) -> float:
    """Critical value c solving ndtr(c + width/sigma) - ndtr(-c) = 1 - alpha.

    Bisection on [z_{1-a}, z_{1-a/2}] to an interval of 1e-10. With sigma = 0
    the interval degenerates and the one-sided value z_{1-a} is returned.
    """
    if sigma <= 0.0:
        return float(ndtri(1.0 - alpha))
    ratio = max(width, 0.0) / sigma
    lo = float(ndtri(1.0 - alpha))
    hi = float(ndtri(1.0 - alpha / 2.0))

    def gap(c: float) -> float:
        return float(ndtr(c + ratio) - ndtr(-c) - (1.0 - alpha))

    if gap(hi) < 0.0:  # cannot happen analytically; float safety
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class IntervalReport:
    """Per-bound normal intervals plus the identified-set interval."""

    ci_lb: tuple[float, float]
    ci_ub: tuple[float, float]
    ci_set: tuple[float, float]
    z_per_bound: float
    critical_set: float
    degenerate: bool


def confidence_intervals(
    delta_lb: float,
    delta_ub: float,
    se_lb: float,
    se_ub: float,
    alpha: float,
) -> IntervalReport:
    """Two-sided per-bound intervals and the width-adjusted set interval."""
    z = float(ndtri(1.0 - alpha / 2.0))
    sigma = max(se_lb, se_ub)
    crit = set_critical_value(delta_ub - delta_lb, sigma, alpha)
    return IntervalReport(
        ci_lb=(delta_lb - z * se_lb, delta_lb + z * se_lb),
        ci_ub=(delta_ub - z * se_ub, delta_ub + z * se_ub),
        ci_set=(delta_lb - crit * se_lb, delta_ub + crit * se_ub),
        z_per_bound=z,
        critical_set=crit,
        degenerate=sigma <= 0.0,
    )


# ---------------------------------------------------------------------------
# the estimator x variance dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VarianceReport:
    """Sandwich variance of both bounds under one meat method.

    flags holds the estimate's flags, then variance_clipped_lb and _ub and
    degenerate_ci where they apply.
    """

    method: str
    alpha: float
    se_lb: float
    se_ub: float
    intervals: IntervalReport
    v_hat_lb: np.ndarray
    v_hat_ub: np.ndarray
    meat_lb: MeatReport | None
    meat_ub: MeatReport | None
    fit_lb: FitResult
    fit_ub: FitResult
    flags: tuple[str, ...]

    @property
    def ci_lb(self):
        return self.intervals.ci_lb

    @property
    def ci_ub(self):
        return self.intervals.ci_ub

    @property
    def ci_set(self):
        return self.intervals.ci_set


def sandwich_report(
    data: Dataset,
    design: BlockDesign,
    kind: str,
    method: str,
    alpha: float = 0.05,
) -> VarianceReport:
    """Fit both systems of one estimator kind and assemble the variance.

    kind is "lee" or "ipw"; method is "design", "iid", or "label".
    """
    name = "lee-ipw" if kind == "ipw" else kind
    _, reports = estimate_bounds(data, design, name, (method,), alpha)
    report = reports[method]
    if isinstance(report, EstimationError):
        raise report
    return report


def estimate_bounds(
    data: Dataset,
    design: BlockDesign,
    name: str,
    methods: tuple[str, ...] = (),
    alpha: float = 0.05,
) -> tuple[BoundsEstimate, dict[str, VarianceReport | EstimationError]]:
    """One estimator (of ESTIMATORS) and its variance under each method.

    The point estimator runs once; an error it raises propagates. With
    methods, each bound's system is fitted and differentiated once, and each
    method forms its own meat and sandwich. The dict maps each method to its
    report, or to the EstimationError that stopped it alone.
    """
    for method in methods:
        if method not in VARIANCE_METHODS:
            raise ValueError(
                f"method must be one of {VARIANCE_METHODS}, got {method!r}"
            )
    if name == "lee":
        estimate, components = lee_bounds(data, design), None
    elif name == "lee-ipw":
        estimate, components = lee_ipw_bounds(data, design)
    elif name == "conditional-lee" and not methods:
        return conditional_lee_bounds(data, design), {}
    else:
        raise ValueError(
            f"estimator must be one of {ESTIMATORS}, and conditional-lee "
            f"takes no variance method; got {name!r} with {methods}"
        )
    if not methods:
        return estimate, {}

    kind = "lee" if name == "lee" else "ipw"
    sides = []  # per bound: (fit, jacobian), or the error that stopped it
    for side in ("lb", "ub"):
        try:
            fit = fit_from_estimate(
                data, design, f"{kind}_{side}", estimate, components
            )
            sides.append((fit, jacobian(data, design, fit.theta, fit.system)))
        except EstimationError as exc:
            sides.append(exc)
    reports = {}
    for method in methods:
        try:
            reports[method] = _variance_report(
                data, design, sides, method, alpha
            )
        except EstimationError as exc:
            reports[method] = exc
    return estimate, reports


def _variance_report(data, design, sides, method, alpha) -> VarianceReport:
    """One method's meat and sandwich, lower bound first, then the intervals."""
    fields, clipped = {}, []
    for side, fitted in zip(("lb", "ub"), sides):
        if isinstance(fitted, EstimationError):
            raise fitted
        fit, jac = fitted
        meat = None
        if method == "iid":
            omega = meat_iid(fit.matrix.values)
        else:
            mode = "paired" if method == "design" else "label"
            meat = meat_design(data, design, fit.matrix.values, mode=mode)
            omega = meat.omega
        v_hat = solve_sandwich(jac, omega)
        se, clip = bound_standard_error(v_hat, data.n)
        if clip:
            clipped.append(f"variance_clipped_{side}")
        fields.update({
            f"fit_{side}": fit, f"meat_{side}": meat,
            f"v_hat_{side}": v_hat, f"se_{side}": se,
        })

    fit_lb = fields["fit_lb"]
    intervals = confidence_intervals(
        fit_lb.estimate.delta_lb, fields["fit_ub"].estimate.delta_ub,
        fields["se_lb"], fields["se_ub"], alpha,
    )
    flags = [*fit_lb.flags, *clipped]
    if intervals.degenerate:
        flags.append("degenerate_ci")
    return VarianceReport(
        method=method, alpha=alpha, intervals=intervals, flags=tuple(flags),
        **fields,
    )
