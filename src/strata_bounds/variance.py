"""Design-consistent variance for the bound estimators.

The meat matrix is the i.i.d. meat, the moments' Gram a = M'M/n less the
outer product a3 of their means, plus a between-block correction b_n built
from within-block cross products. Blocks where an arm has a single unit
cannot form within-arm products, so such blocks are paired (by covariate
means, then labels) and borrow the partner's unit; the label variance
refuses singleton arms instead, and where it does not it is this meat,
which then pairs nothing. An i.i.d.-style meat that drops the block
correction is available as a conservative comparator.
Standard errors, per-bound confidence intervals, and the width-adjusted
identified-set interval complete the report. estimate_bounds runs one
estimator with any number of variance methods; the command line and the
Monte Carlo driver both go through it. It fits and differentiates both
bounds in one pass, inverts each bound's Jacobian once for every method's
sandwich, and forms one meat for design and label, on both bounds' stacked
moments; each bound's meat is the block on its five columns. Every meat
reads the fit's moments as moment_matrix wrote them, by arm, on the columns
not zero on each arm (of a fit's 7, the pooled arms keep 5 and 2, the
weighted 6 and 3): the column means, the Gram and the block sums come from
those arm rows, and no dense n x 7 matrix is formed.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .data_model import BlockDesign, Dataset, _name_blocks
from .errors import EstimationError, FeasibilityError, PairingError
from .gmm_core import (
    MOMENT_SYSTEMS,
    POOLED,
    WEIGHTED,
    Arm,
    ArmRows,
    FitResult,
    MomentMatrix,
    _sandwich,
    _split_arms,
    differentiate,
    fit_from_estimate,
)
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

    omega = a + b_n - a3 and b_n = -(zeta_11 + zeta_00 - 2 zeta_10) hold
    exactly by construction: a is the moments' Gram M'M/n and a3 the outer
    product of their means, formed as meat_iid forms them, so omega is the
    i.i.d. meat a - a3 plus the between-block correction b_n.
    singleton_treated / singleton_control hold the indices of blocks whose
    arm had one unit; their labels are design.labels[g].
    For several bounds' moments, bound(columns) gives one bound's blocks.
    """

    a: np.ndarray
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

    def bound(self, columns) -> MeatReport:
        """The 5x5 blocks of the bound whose rows are these moment columns."""
        block = np.ix_(columns, columns)
        return replace(self, **{
            name: getattr(self, name)[block]
            for name in ("a", "a3", "zeta_10", "zeta_11", "zeta_00", "b_n", "omega")
        })


def _within(arm: Arm, coef: np.ndarray) -> np.ndarray | None:
    """Per block, coef_g / (c_g (c_g - 1)), which weights the arm's
    within-block pair term, zero where the arm has c_g < 2 units; None when
    no block has two."""
    multi = arm.counts >= 2
    if not multi.any():
        return None
    c = arm.counts[multi].astype(float)
    within = np.zeros(arm.counts.size)
    within[multi] = coef[multi] / (c * (c - 1.0))
    return within


def _pairing(design: BlockDesign, arm: Arm):
    """The arm's singleton blocks' involution and the partner block of each,
    or None when the arm has no singleton block."""
    if not arm.single.size:
        return None
    inv = pair_blocks(design, arm.single)
    partner = np.empty(design.n_blocks, dtype=np.int64)
    partner[inv.pairs[:, 1]] = inv.pairs[:, 0]
    partner[inv.pairs[:, 0]] = inv.pairs[:, 1]  # in-set blocks win
    return inv, partner[arm.single]


def _arm_rows(
    data: Dataset, design: BlockDesign, moments: np.ndarray
) -> tuple[ArmRows, ArmRows]:
    """Dense (n, m) moments split by arm: each arm's rows of the columns not
    identically zero on it, over its units in moment_matrix's order."""
    parts = []
    for arm in _split_arms(data, design):
        rows = moments[arm.units].T
        live = np.flatnonzero(rows.any(axis=1))
        parts.append(ArmRows(arm=arm, live=tuple(live.tolist()), rows=rows[live]))
    return parts[0], parts[1]


def meat_design(
    data: Dataset,
    design: BlockDesign,
    moments: np.ndarray | MomentMatrix,
) -> MeatReport:
    """Design-consistent meat: the i.i.d. meat a - a3 plus the
    between-block correction b_n.

    Singleton arms are resolved by pairing blocks. moments is a
    MomentMatrix, whose arm rows the meat reads as they are, or dense
    (n, m), one bound's five columns or several bounds' side by side, which
    it first splits into the same arm rows on the columns not identically
    zero on each arm. The weights and singleton pairings are built from the
    design on each call. An arm with one unit in every block has its rows
    in block order, so they are its block sums, means and singleton rows;
    when both arms have the same singleton blocks, as in matched pairs,
    pair_blocks runs once and both arms use its pairing. Each arm's block
    terms run on its rows alone, and the other entries are exact zeros. a
    and a3 are _second_moments' of the moments.
    """
    if isinstance(moments, MomentMatrix):
        parts = moments.arms
    else:
        moments = np.asarray(moments, dtype=float)
        parts = _arm_rows(data, design, moments)
    treated, control = (part.arm for part in parts)
    # arms with the same singleton blocks (matched pairs) share a pairing
    first = _pairing(design, treated)
    same = np.array_equal(control.single, treated.single)
    pairing = first, first if same else _pairing(design, control)

    a, a3 = _second_moments(moments)
    m = a.shape[0]
    etas = design.eta_g
    coef = (design.n_g / data.n) * etas * (1.0 - etas)
    per_arm = []  # (zeta, means) of the treated, then the control arm
    for part, paired in zip(parts, pairing):
        arm, rows = part.arm, part.rows
        k = len(part.live)
        # with one unit in every block, listed in block order, the rows are
        # the arm's block sums, its block means and its singleton rows; they
        # are only read, since a MomentMatrix's are the fit's own
        sums = rows
        if not arm.one_each:
            sums = np.empty((k, arm.counts.size))
            for row, total in zip(rows, sums):
                total[:] = np.bincount(arm.codes, weights=row, minlength=total.size)
        zeta = np.zeros((k, k))
        within = _within(arm, coef)
        if within is not None:
            # sum_g w_g (S_g S_g' - sum_i r_i r_i') over blocks with two or
            # more units in the arm, one column at a time: Gram products of
            # the block sums S_g and of the rows r_i, so no per-block outer
            # products and no weighted copy of the rows are formed
            w_unit = within[arm.codes]
            for j, (total, row) in enumerate(zip(sums, rows)):
                zeta[:, j] = sums @ (within * total) - rows @ (w_unit * row)
            zeta = 0.5 * (zeta + zeta.T)
        means = sums
        if not arm.one_each:
            means /= arm.counts  # in place: the sums are not needed any more
        if paired is not None:
            # a singleton arm's sum is its single row, which is also its
            # mean; its partner term is the arm mean of the block it is
            # paired with
            _, partner = paired
            weighted = np.take(means, partner, axis=1)
            weighted *= coef[arm.single]
            single = means if arm.one_each else np.take(means, arm.single, axis=1)
            cross = single @ weighted.T
            zeta = zeta + 0.5 * (cross + cross.T)
        per_arm.append((zeta, means))
    (zeta1, mean1), (zeta0, mean0) = per_arm
    live1, live0 = (part.live for part in parts)

    zeta_11, zeta_00, cross = np.zeros((3, m, m))
    zeta_11[np.ix_(live1, live1)] = zeta1
    zeta_00[np.ix_(live0, live0)] = zeta0
    cross[np.ix_(live1, live0)] = mean1 @ (mean0 * coef).T
    zeta_10 = 0.5 * (cross + cross.T)
    b_n = -(zeta_11 + zeta_00 - 2.0 * zeta_10)
    omega = a + b_n - a3
    return MeatReport(
        a=a,
        a3=a3,
        zeta_10=zeta_10,
        zeta_11=zeta_11,
        zeta_00=zeta_00,
        b_n=b_n,
        omega=omega,
        singleton_treated=treated.single,
        singleton_control=control.single,
        involution_treated=None if pairing[0] is None else pairing[0][0],
        involution_control=None if pairing[1] is None else pairing[1][0],
    )


def _refuse_singleton_arms(design: BlockDesign) -> None:
    """The label variance's condition: at least two units per arm in every
    block. Then the paired meat pairs nothing and is the label meat."""
    single = (design.t_g == 1) | (design.n_g - design.t_g == 1)
    if single.any():
        raise FeasibilityError(
            "label-mode variance needs at least 2 units per arm per block; "
            "singleton arms in: "
            + _name_blocks(design.labels, np.flatnonzero(single).tolist())
        )


def _second_moments(
    moments: np.ndarray | MomentMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """The Gram a = M'M/n of (n, m) moments and the outer product a3 of
    their column means. A MomentMatrix's Gram is the sum of its arms', each
    on its rows, and its means are its residuals."""
    if isinstance(moments, MomentMatrix):
        a = np.zeros((moments.width, moments.width))
        for part in moments.arms:
            a[np.ix_(part.live, part.live)] += part.rows @ part.rows.T
        a /= moments.n
        mbar = moments.residuals
        return a, np.outer(mbar, mbar)
    n = moments.shape[0]
    mbar = moments.mean(axis=0)
    return moments.T @ moments / n, np.outer(mbar, mbar)


def meat_iid(moments: np.ndarray | MomentMatrix) -> np.ndarray:
    """Centered second-moment meat that ignores the block structure: a - a3.

    moments is dense (n, m) or a MomentMatrix; for several bounds stacked
    side by side, each bound's meat is a diagonal block of the result. A
    design meat on the same moments holds the same a and a3, bit for bit.
    """
    a, a3 = _second_moments(moments)
    return a - a3


# ---------------------------------------------------------------------------
# standard errors and confidence intervals
# ---------------------------------------------------------------------------

def bound_standard_error(v_hat: np.ndarray, n: int) -> tuple[float, bool]:
    """SE of (mu1 - mu0) from a parameter covariance; clips negatives to 0."""
    sigma2 = float(v_hat[0, 0] + v_hat[1, 1] - 2.0 * v_hat[0, 1])
    clipped = sigma2 < 0.0
    return math.sqrt(max(sigma2, 0.0) / n), clipped


def _normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def _normal_quantile(p: float) -> float:
    """Phi^{-1}(p); +inf for p >= 1, which 1 - alpha/2 rounds to when alpha
    is below about 1e-16, so such an alpha gives infinite intervals."""
    return math.inf if p >= 1.0 else NormalDist().inv_cdf(p)


def set_critical_value(width: float, sigma: float, alpha: float) -> float:
    """Critical value c solving Phi(c + width/sigma) - Phi(-c) = 1 - alpha.

    Bisection on [z_{1-a}, z_{1-a/2}] to an interval of 1e-10. With sigma = 0
    the interval degenerates and the one-sided value z_{1-a} is returned.
    """
    if sigma <= 0.0:
        return _normal_quantile(1.0 - alpha)
    ratio = max(width, 0.0) / sigma
    lo = _normal_quantile(1.0 - alpha)
    hi = _normal_quantile(1.0 - alpha / 2.0)

    def gap(c: float) -> float:
        return _normal_cdf(c + ratio) - _normal_cdf(-c) - (1.0 - alpha)

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
    """Two-sided per-bound intervals and the width-adjusted set interval;
    a zero SE gives the point, even where the critical value is infinite."""
    z = _normal_quantile(1.0 - alpha / 2.0)
    sigma = max(se_lb, se_ub)
    crit = set_critical_value(delta_ub - delta_lb, sigma, alpha)
    half_lb, half_ub, set_lb, set_ub = (
        c * se if se else 0.0  # never inf * 0
        for c, se in ((z, se_lb), (z, se_ub), (crit, se_lb), (crit, se_ub))
    )
    return IntervalReport(
        ci_lb=(delta_lb - half_lb, delta_lb + half_lb),
        ci_ub=(delta_ub - half_ub, delta_ub + half_ub),
        ci_set=(delta_lb - set_lb, delta_ub + set_ub),
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
    system = MOMENT_SYSTEMS.get(kind)
    name = kind if system is None else system.estimator
    _, reports = estimate_bounds(data, design, name, (method,), alpha)
    report = reports[method]
    if isinstance(report, EstimationError):
        raise report
    return report


@contextlib.contextmanager
def _float_errors_refused():
    """Within the block, a float overflow or invalid operation raises
    EstimationError instead of warning and carrying inf or nan on."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise EstimationError(f"values out of floating-point range ({exc})") from None


@_float_errors_refused()
def estimate_bounds(
    data: Dataset,
    design: BlockDesign,
    name: str,
    methods: tuple[str, ...] = (),
    alpha: float = 0.05,
) -> tuple[BoundsEstimate, dict[str, VarianceReport | EstimationError]]:
    """One estimator (of ESTIMATORS) and its variance under each method.

    The point estimator runs once; an error it raises propagates. With
    methods, both bounds' systems are fitted in one moment_matrix pass and
    differentiated together, from what that pass kept, in one normal-CDF
    kernel call; each Jacobian is inverted once, and every method's sandwich
    for that bound uses the inverse. One design meat is formed on both
    bounds' stacked moments, leaving out a bound whose fit failed, and
    serves design and label: label first refuses singleton arms, and with
    none the paired meat pairs nothing. The i.i.d. meat is a - a3 of that
    design meat, when there is one, else meat_iid's. The dict maps each
    method to its report, or to the EstimationError that stopped it alone.
    A float overflow or invalid operation anywhere stops the call with an
    EstimationError.
    """
    for method in methods:
        if method not in VARIANCE_METHODS:
            raise ValueError(
                f"method must be one of {VARIANCE_METHODS}, got {method!r}"
            )
    # per estimator, its point estimator and moment system; looked up on each
    # call, so a wrapper bound to a name here is used
    estimators = {
        "lee": (lee_bounds, POOLED),
        "conditional-lee": (conditional_lee_bounds, None),
        "lee-ipw": (lee_ipw_bounds, WEIGHTED),
    }
    if name not in estimators or (estimators[name][1] is None and methods):
        raise ValueError(
            f"estimator must be one of {ESTIMATORS}, and conditional-lee "
            f"takes no variance method; got {name!r} with {methods}"
        )
    estimator, system = estimators[name]
    estimate = estimator(data, design)
    if not methods:
        return estimate, {}

    stack, fits = fit_from_estimate(
        data, design, (f"{system.kind}_lb", f"{system.kind}_ub"), estimate
    )
    breads = iter(differentiate([
        (fit.theta, fit.system, fit.matrix.context)
        for fit in fits if not isinstance(fit, EstimationError)
    ]))
    sides = []  # per bound: (fit, inverse Jacobian), or the error that stopped it
    for fit in fits:
        side = fit
        if not isinstance(fit, EstimationError):
            bread = next(breads)
            side = bread if isinstance(bread, EstimationError) else (fit, bread[1])
        sides.append(side)
    # the moments the meats see: the lower bound's columns, then the upper
    # bound's unless its fit failed (a method whose lower bound failed
    # forms no meat)
    meats = {}  # per method: (MeatReport or None, omega), or the meat's error
    if not isinstance(sides[0], EstimationError):
        fitted_ub = not isinstance(sides[1], EstimationError)
        moments = stack if fitted_ub else stack.bound(0)
        meat = None  # formed once: label is design where no arm is a singleton
        for method in methods:
            if method != "iid":
                try:
                    if method == "label":
                        _refuse_singleton_arms(design)
                    meat = meat or meat_design(data, design, moments)
                    meats[method] = (meat, meat.omega)
                except EstimationError as exc:
                    meats[method] = exc
        if "iid" in methods:
            # a design meat's a and a3 are meat_iid's own, bit for bit
            omega = meat_iid(moments) if meat is None else meat.a - meat.a3
            meats["iid"] = (None, omega)
    reports = {}
    for method in methods:
        try:
            reports[method] = _variance_report(
                data, sides, meats.get(method), stack.columns, method, alpha
            )
        except EstimationError as exc:
            reports[method] = exc
    return estimate, reports


def _variance_report(data, sides, formed, columns, method, alpha) -> VarianceReport:
    """One method's sandwich per bound, lower bound first, from the meat
    formed on the stacked moments (its MeatReport or None, and omega), then
    the intervals. columns[k] lists bound k's five columns of those moments.

    The errors come in the order a bound-by-bound pass would meet them: the
    lower bound's fit or Jacobian, the meat's design-only error, the upper
    bound's fit or Jacobian.
    """
    if isinstance(sides[0], EstimationError):
        raise sides[0]
    if isinstance(formed, EstimationError):
        raise formed
    meat, omega = formed
    fields, clipped = {}, []
    for k, (side, fitted) in enumerate(zip(("lb", "ub"), sides)):
        if isinstance(fitted, EstimationError):
            raise fitted
        fit, jac_inv = fitted
        v_hat = _sandwich(jac_inv, omega[np.ix_(columns[k], columns[k])])
        se, clip = bound_standard_error(v_hat, data.n)
        if clip:
            clipped.append(f"variance_clipped_{side}")
        fields.update({
            f"fit_{side}": fit,
            f"meat_{side}": None if meat is None else meat.bound(columns[k]),
            f"v_hat_{side}": v_hat, f"se_{side}": se,
        })

    fit_lb = fields["fit_lb"]
    intervals = confidence_intervals(
        fit_lb.estimate.delta_lb, fields["fit_ub"].estimate.delta_ub,
        fields["se_lb"], fields["se_ub"], alpha,
    )
    flags = [*fit_lb.estimate.flags, *clipped]
    if intervals.degenerate:
        flags.append("degenerate_ci")
    return VarianceReport(
        method=method, alpha=alpha, intervals=intervals, flags=tuple(flags),
        **fields,
    )
