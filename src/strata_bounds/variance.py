"""Design-consistent variance for the bound estimators.

The meat matrix is the i.i.d. meat, the moments' Gram a = M'M/n less the
outer product a3 of their means, plus a between-block correction b_n built
from within-block cross products. Blocks where an arm has a single unit
cannot form within-arm products, so such blocks are paired (by covariate
means, then labels) and borrow the partner's unit; the label-mode
variant refuses singleton arms instead, and an i.i.d.-style meat that drops
the block correction is available as a conservative comparator. A scalar
label-based estimator of the squared between-arm mean gap is also provided.
Standard errors, per-bound confidence intervals, and the width-adjusted
identified-set interval complete the report. estimate_bounds runs one
estimator with any number of variance methods; the command line and the
Monte Carlo driver both go through it. It fits and differentiates both
bounds in one pass, inverts each bound's Jacobian once for every method's
sandwich, and forms each method's meat once, on both bounds' moments
stacked side by side; each bound's meat is a diagonal block of it. The
i.i.d. meat takes its Gram from a design meat formed for the same fit. The
meat's design-only part, from each arm's units to the singleton pairings,
is built on each call. An arm with one unit in every block, as each arm of
matched pairs, lists its units in block order, so their rows are its block
sums and means; arms with the same singleton blocks share one pairing.
Inside _reusing_work_arrays, as each Monte Carlo replication runs, the meat
takes its per-arm work arrays from one store per thread instead of fresh
memory; the store keeps them after the context exits, for the next call.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .data_model import BlockDesign, Dataset, _name_blocks
from .errors import EstimationError, FeasibilityError, PairingError
from .gmm_core import FitResult, _sandwich, differentiate, fit_from_estimate
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
    arm had one unit (paired mode only); their labels are design.labels[g]. For moments of several stacked bounds, each
    matrix is over all their columns and bound(k) gives one bound's block.
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
    mode: str

    def bound(self, k: int) -> MeatReport:
        """The report of the k-th bound: the diagonal 5x5 block of each matrix."""
        block = slice(5 * k, 5 * k + 5)
        return replace(self, **{
            name: getattr(self, name)[block, block]
            for name in ("a", "a3", "zeta_10", "zeta_11", "zeta_00", "b_n", "omega")
        })


@dataclass(frozen=True, eq=False)
class _Arm:
    """One arm's units and the meat's design-only weights for them.

    units lists the arm's unit indices in dataset order, or in block order
    when every block has one (as in matched pairs), and codes their blocks;
    counts[g] >= 1 is block g's size in the arm. within[g] =
    coef_g / (c_g (c_g - 1)) weights the within-arm pair term, zero where
    c_g < 2; it is None when no block has two units in the arm. single lists
    the blocks with one.
    """

    units: np.ndarray
    codes: np.ndarray
    counts: np.ndarray
    within: np.ndarray | None
    single: np.ndarray


def _arm(design: BlockDesign, in_arm: np.ndarray, coef: np.ndarray) -> _Arm:
    units = np.flatnonzero(in_arm)
    codes = design.codes[units]
    counts = np.bincount(codes, minlength=design.n_blocks)
    single = np.flatnonzero(counts == 1)
    if single.size == counts.size:
        units[codes] = units.copy()  # one scatter puts them in block order
        codes = single
    multi = counts >= 2
    within = None
    if multi.any():
        c = counts[multi].astype(float)
        within = np.zeros(counts.size)
        within[multi] = coef[multi] / (c * (c - 1.0))
    return _Arm(
        units=units, codes=codes, counts=counts, within=within, single=single
    )


def _pairing(design: BlockDesign, arm: _Arm):
    """The arm's singleton blocks' involution and the partner block of each,
    or None when the arm has no singleton block."""
    if not arm.single.size:
        return None
    inv = pair_blocks(design, arm.single)
    partner = np.empty(design.n_blocks, dtype=np.int64)
    partner[inv.pairs[:, 1]] = inv.pairs[:, 0]
    partner[inv.pairs[:, 0]] = inv.pairs[:, 1]  # in-set blocks win
    return inv, partner[arm.single]


# per thread: whether meat_design reuses its work arrays (set by
# _reusing_work_arrays), and the stored arrays themselves
_work = threading.local()


@contextlib.contextmanager
def _reusing_work_arrays():
    """Within the block, meat_design takes its work arrays from this thread's
    store instead of fresh memory; the store keeps them after the block, so
    the next replication finds them, and is freed with its thread."""
    previous = getattr(_work, "reusing", False)
    _work.reusing = True
    try:
        yield
    finally:
        _work.reusing = previous


def _work_array(key: tuple[str, int], shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized float array: fresh, or inside _reusing_work_arrays
    the thread's stored one for key (a role and an arm), replaced when the
    shape asked for changes. No caller may let it escape into a result."""
    if not getattr(_work, "reusing", False):
        return np.empty(shape)
    store = _work.__dict__.setdefault("arrays", {})
    if key not in store or store[key].shape != shape:
        store.pop(key, None)  # free the old array before making the new one
        store[key] = np.empty(shape)
    return store[key]


def meat_design(
    data: Dataset,
    design: BlockDesign,
    moments: np.ndarray,
    mode: str = "paired",
) -> MeatReport:
    """Design-consistent meat: the i.i.d. meat a - a3 plus the
    between-block correction b_n.

    mode="paired" resolves singleton arms by pairing blocks; mode="label"
    requires at least two units per arm in every block and fails otherwise.
    moments is (n, m): one bound's five columns or several bounds' stacked
    side by side, best Fortran-ordered, since the meat works on columns.
    The design-only part (each arm's units and their blocks, its weights,
    singleton sets and pairings) is built from the design and the treatment
    column on each call. An arm with one unit in every block takes its rows,
    gathered in block order, as its block sums, means and singleton rows;
    when both arms have the same singleton blocks, as in matched pairs,
    pair_blocks runs once and both arms use its pairing. The Gram a and a3
    are formed once, over all units, by meat_iid's operations.
    """
    if mode not in ("paired", "label"):
        raise ValueError(f"mode must be 'paired' or 'label', got {mode!r}")
    etas = design.eta_g
    coef = (design.n_g / data.n) * etas * (1.0 - etas)
    arms = _arm(design, data.d == 1, coef), _arm(design, data.d == 0, coef)
    treated, control = arms
    pairing = (None, None)
    if mode == "label":
        if treated.single.size or control.single.size:
            bad = np.union1d(treated.single, control.single).tolist()
            raise FeasibilityError(
                "label-mode variance needs at least 2 units per arm per "
                f"block; singleton arms in: {_name_blocks(design.labels, bad)}"
            )
    else:
        # arms with the same singleton blocks (matched pairs) share a pairing
        first = _pairing(design, treated)
        same = np.array_equal(control.single, treated.single)
        pairing = first, first if same else _pairing(design, control)

    moments = np.asarray(moments, dtype=float)  # as the work arrays are
    a, a3 = _second_moments(moments)
    cols = moments.T  # (m, n), C-contiguous for Fortran moments
    m = cols.shape[0]
    per_arm = []  # (zeta, means) of the treated, then the control arm
    for side, (arm, paired) in enumerate(zip(arms, pairing)):
        # every gather's indices are valid by construction: mode="clip"
        # lets take write straight into out, where "raise" would buffer it
        rows = np.take(
            cols, arm.units, axis=1, mode="clip",
            out=_work_array(("rows", side), (m, arm.units.size)),
        )
        # with one unit in every block, listed in block order, the rows are
        # the arm's block sums, its block means and its singleton rows
        one_each = arm.single.size == arm.counts.size
        sums = rows
        if not one_each:
            sums = _work_array(("sums", side), (m, arm.counts.size))
            for row, total in zip(rows, sums):
                total[:] = np.bincount(arm.codes, weights=row, minlength=total.size)
        zeta = np.zeros((m, m))
        if arm.within is not None:
            # sum_g w_g (S_g S_g' - sum_i r_i r_i') over blocks with two or
            # more units in the arm, one column at a time: Gram products of
            # the block sums S_g and of the rows r_i, so no per-block outer
            # products and no weighted copy of the rows are formed
            w_unit = arm.within[arm.codes]
            for k, (total, row) in enumerate(zip(sums, rows)):
                zeta[:, k] = sums @ (arm.within * total) - rows @ (w_unit * row)
            zeta = 0.5 * (zeta + zeta.T)
        del rows  # unless they are the sums, the next arm's gather replaces them
        means = sums  # in place: the sums are not needed any more
        if not one_each:
            means /= arm.counts
        if paired is not None:
            # a singleton arm's sum is its single row, which is also its
            # mean; its partner term is the arm mean of the block it is
            # paired with
            _, partner = paired
            shape = (m, arm.single.size)
            weighted = np.take(
                means, partner, axis=1, mode="clip",
                out=_work_array(("partner", side), shape),
            )
            weighted *= coef[arm.single]
            single = means if one_each else np.take(
                means, arm.single, axis=1, mode="clip",
                out=_work_array(("single", side), shape),
            )
            cross = single @ weighted.T
            zeta = zeta + 0.5 * (cross + cross.T)
        per_arm.append((zeta, means))
    (zeta_11, mean1), (zeta_00, mean0) = per_arm

    mean0 *= coef  # in place: the control means are not needed any more
    cross = mean1 @ mean0.T
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
        mode=mode,
    )


def _second_moments(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram a = M'M/n of (n, m) moments and the outer product a3 of
    their column means."""
    n = moments.shape[0]
    mbar = moments.mean(axis=0)
    return moments.T @ moments / n, np.outer(mbar, mbar)


def meat_iid(moments: np.ndarray) -> np.ndarray:
    """Centered second-moment meat that ignores the block structure: a - a3.

    moments is (n, m); for several bounds stacked side by side, each bound's
    meat is a diagonal block of the result. A design meat on the same
    moments holds the same a and a3, bit for bit.
    """
    a, a3 = _second_moments(moments)
    return a - a3


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
            f"units per block; violated by: {_name_blocks(design.labels, bad)}"
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
    methods, both bounds' systems are fitted in one moment_matrix pass and
    differentiated together, from what that pass kept, in one normal-CDF
    kernel call; each Jacobian is inverted once, and every method's sandwich
    for that bound uses the inverse. Each method's meat is formed once on
    both bounds' stacked moments, leaving out a bound whose fit failed; the
    i.i.d. meat is a - a3 of a design meat formed for another method, when
    there is one, else meat_iid's. The dict maps each method to its report,
    or to the EstimationError that stopped it alone.
    """
    for method in methods:
        if method not in VARIANCE_METHODS:
            raise ValueError(
                f"method must be one of {VARIANCE_METHODS}, got {method!r}"
            )
    # looked up on each call, so a wrapper bound to a name here is used
    estimators = {
        "lee": lee_bounds,
        "conditional-lee": conditional_lee_bounds,
        "lee-ipw": lee_ipw_bounds,
    }
    if name not in estimators or (name == "conditional-lee" and methods):
        raise ValueError(
            f"estimator must be one of {ESTIMATORS}, and conditional-lee "
            f"takes no variance method; got {name!r} with {methods}"
        )
    estimate = estimators[name](data, design)
    if not methods:
        return estimate, {}

    kind = "lee" if name == "lee" else "ipw"
    stack, fits = fit_from_estimate(
        data, design, (f"{kind}_lb", f"{kind}_ub"), estimate
    )
    breads = iter(differentiate([
        (fit.theta, fit.system, fit.matrix.contexts[0])
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
        moments = stack.values if fitted_ub else stack.bound(0).values
        for method in methods:
            if method != "iid":
                mode = "paired" if method == "design" else "label"
                try:
                    meat = meat_design(data, design, moments, mode=mode)
                    meats[method] = (meat, meat.omega)
                except EstimationError as exc:
                    meats[method] = exc
        if "iid" in methods:
            # a design meat's a and a3 are meat_iid's own, bit for bit
            formed = [meat[0] for meat in meats.values() if isinstance(meat, tuple)]
            omega = formed[0].a - formed[0].a3 if formed else meat_iid(moments)
            meats["iid"] = (None, omega)
    reports = {}
    for method in methods:
        try:
            reports[method] = _variance_report(
                data, sides, meats.get(method), method, alpha
            )
        except EstimationError as exc:
            reports[method] = exc
    return estimate, reports


def _variance_report(data, sides, formed, method, alpha) -> VarianceReport:
    """One method's sandwich per bound, lower bound first, from the meat
    formed on the stacked moments (its MeatReport or None, and omega), then
    the intervals.

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
        block = slice(5 * k, 5 * k + 5)
        v_hat = _sandwich(jac_inv, omega[block, block])
        se, clip = bound_standard_error(v_hat, data.n)
        if clip:
            clipped.append(f"variance_clipped_{side}")
        fields.update({
            f"fit_{side}": fit, f"meat_{side}": None if meat is None else meat.bound(k),
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
