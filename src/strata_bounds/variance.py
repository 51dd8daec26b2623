"""Design-consistent variance for the bound estimators.

The meat matrix combines per-arm second moments with a between-block
correction built from within-block cross products. Blocks where an arm has a
single unit cannot form within-arm products, so such blocks are paired (by
covariate means, then labels) and borrow the partner's unit; the label-mode
variant refuses singleton arms instead, and an i.i.d.-style meat that drops
the block correction is available as a conservative comparator. A scalar
label-based estimator of the squared between-arm mean gap is also provided.
Standard errors, per-bound confidence intervals, and the width-adjusted
identified-set interval complete the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .data_model import BlockDesign, Dataset
from .errors import FeasibilityError, PairingError
from .gmm_core import FitResult, fit_theta, jacobian, solve_sandwich

VARIANCE_METHODS = ("design", "iid", "label")


# ---------------------------------------------------------------------------
# pairing of singleton-arm blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Involution:
    """Fixed-point-free partner map over block indices.

    pairs lists (block, partner); in-set pairs appear once and are mutual,
    an odd leftover maps to an out-of-set partner block.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(i == j for i, j in self.pairs):
            raise PairingError("involution must be fixed-point-free")

    def partner_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, j in self.pairs:
            out[i] = j
            out.setdefault(j, i)
        return out


def pair_blocks(design: BlockDesign, needs: list[int]) -> Involution:
    """Pair the listed blocks among themselves, consecutively by sort key.

    Blocks sort by covariate means (first coordinate first), label as the
    final tiebreak; without covariates, label order. An odd leftover block is
    paired with the nearest block outside the set (by first covariate-mean
    coordinate, or by position in label order; ties go to the first label);
    if no outside block exists, pairing fails. Block indices follow label
    order, so the index stands in for the label throughout.
    """
    blocks = design.blocks
    needs = np.unique(np.asarray(needs, dtype=np.int64))
    has_x = blocks[0].x_mean is not None
    if has_x and needs.size:
        x = np.array([blocks[g].x_mean for g in needs.tolist()])
        # lexsort takes its primary key last
        needs = needs[np.lexsort((needs, *x.T[::-1]))]
    order = needs.tolist()
    pairs = list(zip(order[0::2], order[1::2]))
    if len(order) % 2 == 1:
        last = order[-1]
        outside = np.ones(design.n_blocks, dtype=bool)
        outside[needs] = False
        candidates = np.flatnonzero(outside)
        if not candidates.size:
            raise PairingError(
                f"cannot pair block {blocks[last].label!r}: "
                "no block outside the singleton set"
            )
        if has_x:
            first = np.fromiter(
                (b.x_mean[0] for b in blocks), dtype=float, count=len(blocks)
            )
            distance = np.abs(first[candidates] - first[last])
        else:
            distance = np.abs(candidates - last)
        pairs.append((last, int(candidates[np.argmin(distance)])))
    return Involution(pairs=tuple(pairs))


# ---------------------------------------------------------------------------
# meat matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeatReport:
    """Pieces of the design-consistent meat.

    omega = a1 + a0 + b_n - a3 and b_n = -(zeta_11 + zeta_00 - 2 zeta_10)
    hold exactly by construction. singleton_treated / singleton_control list
    the labels of blocks whose arm had one unit (paired mode only).
    """

    a1: np.ndarray
    a0: np.ndarray
    a3: np.ndarray
    zeta_10: np.ndarray
    zeta_11: np.ndarray
    zeta_00: np.ndarray
    b_n: np.ndarray
    omega: np.ndarray
    singleton_treated: tuple[str, ...]
    singleton_control: tuple[str, ...]
    involution_treated: Involution | None
    involution_control: Involution | None
    mode: str


def _block_arm_stats(moments, codes, mask, n_blocks):
    """Per-block arm sums, per-block sums of outer products, and counts."""
    k = moments.shape[1]
    codes_arm = codes[mask]
    rows = moments[mask]
    counts = np.bincount(codes_arm, minlength=n_blocks)
    sums = np.zeros((n_blocks, k))
    for j in range(k):
        sums[:, j] = np.bincount(codes_arm, weights=rows[:, j], minlength=n_blocks)
    outer_sums = np.zeros((n_blocks, k, k))
    for j in range(k):
        for l in range(j, k):
            col = np.bincount(
                codes_arm, weights=rows[:, j] * rows[:, l], minlength=n_blocks
            )
            outer_sums[:, j, l] = col
            outer_sums[:, l, j] = col
    return counts, sums, outer_sums


def _singleton_cross(inv, single, coef, sums, means):
    """Symmetrized sum over singleton-arm blocks g of coef_g own_g partner_g'.

    A singleton arm's sum is its single row (own_g); partner_g is the arm
    mean of the block it is paired with.
    """
    partner = inv.partner_map()
    cross = np.einsum(
        "g,gi,gj->ij",
        coef[single],
        sums[single],
        means[[partner[g] for g in single]],
    )
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
    n, k = moments.shape
    codes = design.codes
    d = data.d
    n_blocks = design.n_blocks

    treated_rows = moments[d == 1]
    control_rows = moments[d == 0]
    a1 = treated_rows.T @ treated_rows / n
    a0 = control_rows.T @ control_rows / n
    mbar = moments.mean(axis=0)
    a3 = np.outer(mbar, mbar)

    cnt1, sum1, outer1 = _block_arm_stats(moments, codes, d == 1, n_blocks)
    cnt0, sum0, outer0 = _block_arm_stats(moments, codes, d == 0, n_blocks)

    sizes = np.array([b.n_g for b in design.blocks], dtype=float)
    etas = np.array([b.eta_g for b in design.blocks])
    coef = (sizes / n) * etas * (1.0 - etas)

    mean1 = sum1 / cnt1[:, None]
    mean0 = sum0 / cnt0[:, None]
    cross = np.einsum("g,gi,gj->ij", coef, mean1, mean0)
    zeta_10 = 0.5 * (cross + cross.T)

    def zeta_within(counts, sums, outers):
        multi = counts >= 2
        c = counts[multi].astype(float)
        zeta = np.einsum(
            "g,gi,gj->ij",
            coef[multi] / (c * (c - 1.0)),
            sums[multi],
            sums[multi],
        )
        zeta -= np.einsum(
            "g,gij->ij", coef[multi] / (c * (c - 1.0)), outers[multi]
        )
        return zeta, np.flatnonzero(counts == 1).tolist()

    zeta_11, single1 = zeta_within(cnt1, sum1, outer1)
    zeta_00, single0 = zeta_within(cnt0, sum0, outer0)

    inv1 = inv0 = None
    if mode == "label":
        if single1 or single0:
            bad = sorted(
                {design.blocks[g].label for g in single1}
                | {design.blocks[g].label for g in single0}
            )
            raise FeasibilityError(
                "label-mode variance needs at least 2 units per arm per "
                f"block; singleton arms in: {', '.join(bad)}"
            )
    else:
        if single1:
            inv1 = pair_blocks(design, single1)
            zeta_11 = zeta_11 + _singleton_cross(inv1, single1, coef, sum1, mean1)
        if single0:
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
        singleton_treated=tuple(design.blocks[g].label for g in single1),
        singleton_control=tuple(design.blocks[g].label for g in single0),
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
    bad = [
        b.label for b in design.blocks if b.t_g < 2 or b.n_g - b.t_g < 2
    ]
    if bad:
        raise FeasibilityError(
            "label-based variance needs at least 2 treated and 2 control "
            f"units per block; violated by: {', '.join(bad)}"
        )
    codes = design.codes
    d = data.d
    v = np.where(data.s == 1, np.nan_to_num(data.y, nan=0.0), 0.0)
    n_blocks = design.n_blocks
    n = data.n

    sizes = np.array([b.n_g for b in design.blocks], dtype=float)
    t1 = np.array([b.t_g for b in design.blocks], dtype=float)
    t0 = sizes - t1

    sum1 = np.bincount(codes[d == 1], weights=v[d == 1], minlength=n_blocks)
    sum0 = np.bincount(codes[d == 0], weights=v[d == 0], minlength=n_blocks)
    ss1 = np.bincount(codes[d == 1], weights=v[d == 1] ** 2, minlength=n_blocks)
    ss0 = np.bincount(codes[d == 0], weights=v[d == 0] ** 2, minlength=n_blocks)

    w = sizes / n
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
# full sandwich report for one estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VarianceReport:
    """Sandwich variance of both bounds under one meat method."""

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
    if method not in VARIANCE_METHODS:
        raise ValueError(
            f"method must be one of {VARIANCE_METHODS}, got {method!r}"
        )
    n = data.n
    flags: list[str] = []
    results = {}
    meats = {}
    for side in ("lb", "ub"):
        fit = fit_theta(data, design, f"{kind}_{side}")
        jac = jacobian(data, design, fit.theta, f"{kind}_{side}")
        if method == "iid":
            omega = meat_iid(fit.matrix.values)
            meat = None
        else:
            meat = meat_design(
                data,
                design,
                fit.matrix.values,
                mode="paired" if method == "design" else "label",
            )
            omega = meat.omega
        v_hat = solve_sandwich(jac, omega)
        se, clipped = bound_standard_error(v_hat, n)
        if clipped:
            flags.append(f"variance_clipped_{side}")
        results[side] = (fit, v_hat, se)
        meats[side] = meat

    fit_lb, v_lb, se_lb = results["lb"]
    fit_ub, v_ub, se_ub = results["ub"]
    delta_lb = fit_lb.estimate.delta_lb
    delta_ub = fit_ub.estimate.delta_ub
    intervals = confidence_intervals(delta_lb, delta_ub, se_lb, se_ub, alpha)
    if intervals.degenerate:
        flags.append("degenerate_ci")
    flags.extend(f for f in fit_lb.flags if f not in flags)
    return VarianceReport(
        method=method,
        alpha=alpha,
        se_lb=se_lb,
        se_ub=se_ub,
        intervals=intervals,
        v_hat_lb=v_lb,
        v_hat_ub=v_ub,
        meat_lb=meats["lb"],
        meat_ub=meats["ub"],
        fit_lb=fit_lb,
        fit_ub=fit_ub,
        flags=tuple(flags),
    )
