"""Just-identified moment systems behind the bound estimators.

Each bound is characterized by five stacked moments: the trimmed treated
mean, the control mean, the trimmed tail share, a selection-rate relation,
and the control selection rate (pooled system) or the weighted analogues
(weighted system, where the rescaled treated outcome depends on the
always-observed treated share parameter). Point estimates come from closed
forms; the moment matrix evaluated at the fit certifies them via column-mean
residuals. Both bounds of one estimate are fitted in one pass: moment_matrix
fills one moment-major buffer, five rows per bound, from columns it computes
once, and each bound's fit holds its five-column block. Standard errors use a
smoothed analytic Jacobian: indicator terms are replaced by normal-kernel
CDFs with a Silverman bandwidth, differentiated exactly in the parameters.
The moment pass keeps what the Jacobian reads of the data (the trimming
sample and a few sums, not the n-sized columns), so a fit is differentiated
without building its columns again, both bounds in one normal-CDF kernel
call. Each Jacobian is inverted once: the inverse decides its refusal (the
1-norm condition number) and serves every variance method's sandwich for
that bound. Point estimates are never smoothed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data_model import BlockDesign, Dataset
from .errors import (
    DegenerateTrimError,
    EstimationError,
    InternalConsistencyError,
    SingularJacobianError,
)
from .ipw_estimator import (
    _per_unit_block_arrays,
    always_observed_treat_prob,
    lee_ipw_bounds,
)
from .lee_estimator import BoundsEstimate, lee_bounds

SYSTEMS = ("lee_lb", "lee_ub", "ipw_lb", "ipw_ub")

EXACT_ROW_TOL = 1e-8
CONDITION_LIMIT = 1e12
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LeeTheta:
    """Parameters of the pooled system.

    mu1 is the trimmed treated mean for the chosen bound, mu0 the control
    mean, cutoff the trimming boundary, p the trimmed tail share, alpha the
    control observed-selection rate.
    """

    mu1: float
    mu0: float
    cutoff: float
    p: float
    alpha: float


@dataclass(frozen=True)
class LeeIpwTheta:
    """Parameters of the weighted system.

    delta is the always-observed treated share (in (0,1)); q the trimming
    share (in [0,1)); cutoff lives on the rescaled outcome scale.
    """

    mu1: float
    mu0: float
    cutoff: float
    delta: float
    q: float

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise DegenerateTrimError(f"q must be in [0, 1), got {self.q}")
        if not (0.0 < self.delta < 1.0):
            raise InternalConsistencyError(
                f"delta must be in (0, 1), got {self.delta}"
            )


@dataclass(frozen=True, eq=False)
class FitContext:
    """What jacobian reads of the data at one rescaling of the treated
    outcome; the moment pass keeps one, shared by the bounds it fits.

    sample is the observed-treated trimming sample and bandwidth its
    Silverman bandwidth, or None where it is too small for one. n counts the
    units and n_treated the treated ones. control is the sum of s(1 - d),
    weighted by w_c in the weighted system, which also reads m_sum, the sum
    of m_i, and the pooled treated share p_hat.
    """

    n: int
    sample: np.ndarray
    bandwidth: float | None
    n_treated: float
    control: float
    m_sum: float = 0.0
    p_hat: float = 0.0


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Per-unit moment values of one or more bounds, with residual checks.

    values is (n, 5k), five columns per bound: the Fortran-ordered view of
    one (5k, n) moment-major buffer, so each column is contiguous. residuals
    are the column means. Entries flagged in `checked` must satisfy
    |residual| <= bound: rows solved exactly get 1e-8; the trimmed-mean and
    tail-share rows get boundary-tie bounds; a clamped trimming share exempts
    the selection-rate relation row (its mean is the monotonicity violation).
    contexts holds per bound the FitContext its Jacobian reads.
    """

    values: np.ndarray
    residuals: np.ndarray
    bounds: np.ndarray
    checked: np.ndarray
    contexts: tuple[FitContext, ...]

    @property
    def bandwidths(self) -> tuple[float | None, ...]:
        """Per bound, the Silverman bandwidth of its observed-treated
        trimming sample, or None where that sample is too small for one."""
        return tuple(context.bandwidth for context in self.contexts)

    @property
    def ok(self) -> bool:
        viol = self.checked & (np.abs(self.residuals) > self.bounds)
        return not bool(viol.any())

    @property
    def notes(self) -> tuple[str, ...]:
        return tuple(
            "clamped trimming share: selection-rate relation row carries the "
            f"monotonicity violation (mean {self.residuals[i]:.3e})"
            for i in np.flatnonzero(~self.checked).tolist()
        )

    def bound(self, k: int) -> MomentMatrix:
        """The k-th bound's five columns, as views."""
        rows = slice(5 * k, 5 * k + 5)
        return MomentMatrix(
            values=self.values[:, rows],
            residuals=self.residuals[rows],
            bounds=self.bounds[rows],
            checked=self.checked[rows],
            contexts=self.contexts[k : k + 1],
        )


@dataclass(frozen=True, eq=False)
class FitResult:
    """Closed-form fit of one system plus its certifying moment matrix."""

    system: str
    theta: LeeTheta | LeeIpwTheta
    matrix: MomentMatrix
    estimate: BoundsEstimate
    flags: tuple[str, ...] = ()


def _split_system(system: str) -> tuple[str, str]:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    kind, side = system.split("_")
    return kind, side


# ---------------------------------------------------------------------------
# vectorized moment matrices with residual certification
# ---------------------------------------------------------------------------

def moment_matrix(
    data: Dataset,
    design: BlockDesign,
    thetas: Sequence[LeeTheta | LeeIpwTheta],
    systems: Sequence[str],
    clamped: bool = False,
) -> MomentMatrix:
    """Evaluate the unit moments of one or more bounds and check their means.

    thetas and systems hold one entry per bound, all of one kind (pooled or
    weighted); bound k fills rows 5k..5k+4 of one (5k, n) moment-major
    buffer. The columns every bound uses (filled outcome, s, d, their
    products, the weighted system's per-unit block arrays and the
    observed-treated trimming sample with its bandwidth) are computed once;
    of them, only the sample and a few sums outlive the call, in each
    bound's FitContext.
    """
    if len(thetas) != len(systems) or not systems:
        raise ValueError("moment_matrix needs one theta per system")
    kinds, sides = zip(*map(_split_system, systems))
    if len(set(kinds)) != 1:
        raise ValueError(f"systems must share one kind, got {systems}")
    kind = kinds[0]
    n = data.n
    y0 = np.nan_to_num(data.y, nan=0.0)  # zero where unobserved
    s = data.s.astype(float)
    d = data.d.astype(float)
    d0 = 1.0 - d
    sd = s * d
    s0d = s * d0
    treated = sd > 0
    sums = dict(n_treated=float(d.sum()), control=float(s0d.sum()))
    if kind == "ipw":
        eta_i, m_i, w_c, w_q = _per_unit_block_arrays(data, design)
        p_hat = design.p_hat
        control_rate = (1.0 / (1.0 - p_hat)) * s0d * w_q
        sums.update(  # the weighted system weights its controls by w_c
            control=float((s0d * w_c).sum()), m_sum=float(m_i.sum()), p_hat=p_hat
        )

    # each row is written in place, so a bound adds no n-sized temporaries
    # beyond its kept indicator
    buf = np.empty((5 * len(systems), n))
    bounds = np.full(buf.shape[0], EXACT_ROW_TOL)
    checked = np.ones(buf.shape[0], dtype=bool)
    contexts = []
    # per rescaling of the treated outcome (delta; None for the pooled
    # system): the trimmed values, the FitContext of their observed-treated
    # sample and the sample's largest magnitude, which the bounds of one fit
    # share
    samples = {}
    for k, (theta, side) in enumerate(zip(thetas, sides)):
        rows = buf[5 * k : 5 * k + 5]
        rescale = theta.delta if kind == "ipw" else None
        if rescale not in samples:
            trim_values = y0 if kind == "lee" else (theta.delta / eta_i) * y0
            sample = trim_values[treated]
            sample.setflags(write=False)
            context = FitContext(
                n=n, sample=sample,
                bandwidth=silverman_bandwidth(sample) if sample.size >= 2 else None,
                **sums,
            )
            max_abs = float(np.max(np.abs(sample))) if sample.size else 0.0
            samples[rescale] = (trim_values, context, max_abs)
        trim_values, context, max_abs = samples[rescale]
        sample = context.sample
        if side == "lb":
            kept = trim_values <= theta.cutoff
        else:
            kept = trim_values >= theta.cutoff
        np.subtract(trim_values, theta.mu1, out=rows[0])
        rows[0] *= sd
        rows[0] *= kept
        np.subtract(y0, theta.mu0, out=rows[1])
        rows[1] *= s0d
        np.subtract(1.0, kept, out=rows[2])  # the trimmed tail
        if kind == "lee":
            assert isinstance(theta, LeeTheta)
            rows[2] -= theta.p
            rows[2] *= sd
            np.subtract(s, theta.alpha / (1.0 - theta.p), out=rows[3])
            rows[3] *= d
            np.subtract(s, theta.alpha, out=rows[4])
            rows[4] *= d0
            rate_row = 3
        else:
            assert isinstance(theta, LeeIpwTheta)
            rows[1] *= w_c
            rows[2] -= theta.q
            rows[2] *= sd
            np.subtract(d, theta.delta, out=rows[3])
            rows[3] *= m_i
            np.multiply(sd, (1.0 - theta.q) / p_hat, out=rows[4])
            rows[4] -= control_rate
            rate_row = 4

        contexts.append(context)
        ties = int(np.count_nonzero(sample == theta.cutoff))
        slack = 1e-9 * (1.0 + max_abs)
        bounds[5 * k] = (2.0 * ties * max_abs + slack) / n
        bounds[5 * k + 2] = (ties + 1e-9) / n
        if clamped:
            checked[5 * k + rate_row] = False

    return MomentMatrix(
        values=buf.T,
        residuals=buf.mean(axis=1),
        bounds=bounds,
        checked=checked,
        contexts=tuple(contexts),
    )


def fit_theta(data: Dataset, design: BlockDesign, system: str) -> FitResult:
    """Closed-form fit of one system, certified by its moment residuals."""
    kind, _ = _split_system(system)
    estimator = lee_bounds if kind == "lee" else lee_ipw_bounds
    _, (fit,) = fit_from_estimate(data, design, (system,), estimator(data, design))
    if isinstance(fit, EstimationError):
        raise fit
    return fit


def fit_from_estimate(
    data: Dataset,
    design: BlockDesign,
    systems: Sequence[str],
    estimate: BoundsEstimate,
) -> tuple[MomentMatrix | None, tuple[FitResult | EstimationError, ...]]:
    """fit_theta for several systems of one kind from a point estimate
    already in hand: lee_bounds' for the pooled systems, lee_ipw_bounds'
    for the weighted.

    The parameter the estimate does not carry comes from the design, exactly:
    the control observed-selection rate from the integers
    trimming_share_pooled divides, or always_observed_treat_prob. The bounds
    share every parameter that can stop a fit, so either all the systems
    are fitted in one moment_matrix call, whose stacked matrix is returned,
    or none is and None is returned with that error for each. Per system,
    the result is its FitResult, whose matrix is its bound's block of the
    stacked one, or the residual error that stopped it alone.
    """
    kinds, sides = zip(*map(_split_system, systems))
    if len(set(kinds)) != 1:
        raise ValueError(f"systems must share one kind, got {systems}")
    bounds = [
        dict(
            mu1=estimate.mu1_lb if side == "lb" else estimate.mu1_ub,
            mu0=estimate.mu0,
            cutoff=estimate.cutoff_lb if side == "lb" else estimate.cutoff_ub,
        )
        for side in sides
    ]
    try:
        if kinds[0] == "lee":
            control = int((design.n_g - design.t_g).sum())
            alpha = int(design.n0s_g.sum()) / control
            thetas = [LeeTheta(**b, p=estimate.q, alpha=alpha) for b in bounds]
        else:
            delta = always_observed_treat_prob(design)
            thetas = [LeeIpwTheta(**b, delta=delta, q=estimate.q) for b in bounds]
    except EstimationError as exc:
        return None, (exc,) * len(systems)

    stack = moment_matrix(
        data, design, thetas, systems,
        clamped="trimming_share_clamped" in estimate.flags,
    )
    results = []
    for k, (system, theta) in enumerate(zip(systems, thetas)):
        matrix = stack.bound(k)
        if matrix.ok:
            results.append(FitResult(
                system=system,
                theta=theta,
                matrix=matrix,
                estimate=estimate,
                flags=tuple(estimate.flags),
            ))
            continue
        bad = [
            f"row {r + 1}: |{matrix.residuals[r]:.3e}| > {matrix.bounds[r]:.3e}"
            for r in range(5)
            if matrix.checked[r] and abs(matrix.residuals[r]) > matrix.bounds[r]
        ]
        results.append(InternalConsistencyError(
            f"moment residuals violated for {system}: " + "; ".join(bad)
        ))
    return stack, tuple(results)


# ---------------------------------------------------------------------------
# smoothed analytic Jacobian
# ---------------------------------------------------------------------------

def silverman_bandwidth(sample: np.ndarray) -> float:
    """1.06 * sd * m^(-1/5) on the trimmed outcome sample."""
    m = sample.size
    if m < 2:
        raise DegenerateTrimError("bandwidth needs at least 2 trimmed outcomes")
    sd = float(sample.std(ddof=1))
    h = 1.06 * sd * m ** (-0.2)
    if not (h > 0.0) or not math.isfinite(h):
        h = 1e-9 * max(1.0, float(np.max(np.abs(sample))))
    return h


def _phi(u: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * u * u) / _SQRT_2PI


# Cephes' rational approximations, as scipy.special.ndtr evaluates them:
# erf(x) = x T(x^2) / U(x^2) for |x| < 1, and erfc(x) = e^{-x^2} P(x) / Q(x)
# for 1 <= x < 8, e^{-x^2} R(x) / S(x) for x >= 8. erfc is 0 where e^{-x^2}
# would pass exp's underflow limit, from x = sqrt(709.78...).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_BRANCHES = (  # lower and upper end in x, numerator, denominator
    (1.0, 8.0,
     (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2),
     (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)),
    (8.0, math.sqrt(7.09782712893383996843e2),
     (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0),
     (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)),
)


def _horner(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """coefs[0] x^k + ... + coefs[k] by Horner's rule."""
    p = x * coefs[0]
    p += coefs[1]
    for c in coefs[2:]:
        p *= x
        p += c
    return p


def _big_phi(u: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise. Cephes' operations run in their
    order, so the result is ndtr's wherever np.exp rounds as libm's exp
    does. Each branch runs on its own elements only, gathered by index,
    which costs a fraction of a boolean-mask gather, and a branch with no
    elements is skipped."""
    x = u * math.sqrt(0.5)
    # from x = 6 on, 1 - erfc(x)/2 rounds to 1 (erfc(6)/2 < 2^-54), so such
    # elements skip every branch, as if erfc had underflowed
    z = np.where(x >= 6.0, np.inf, np.abs(x))
    half_erfc = np.minimum(z, 0.0)  # 0 where erfc underflows; nan stays nan
    for lo, hi, num, den in _ERFC_BRANCHES:
        at = np.flatnonzero((z >= lo) & (z < hi))
        if not at.size:
            continue
        zs = z[at]
        y = np.exp(-zs * zs)
        y *= _horner(zs, num)
        y /= _horner(zs, den)
        y *= 0.5
        half_erfc[at] = y
    out = np.where(x > 0.0, 1.0 - half_erfc, half_erfc)
    at = np.flatnonzero(z < 1.0)
    if at.size:
        xs = x[at]
        zs = xs * xs
        y = _horner(zs, _ERF_T)
        y *= xs
        y /= _horner(zs, _ERF_U)
        out[at] = 0.5 + 0.5 * y
    return out


def _inverse(m_hat: np.ndarray) -> np.ndarray | None:
    """M^{-1}, or None where M is not finite or numerically singular.

    The refusal is np.linalg.cond(M, 1) > 1e12, read off this one inverse:
    cond multiplies the 1-norms of M and of the same inverse, and a matrix
    inv finds exactly singular has condition inf. A nan product, which cond
    returns as inf or nan, refuses as well.
    """
    try:
        m_inv = np.linalg.inv(m_hat)
    except np.linalg.LinAlgError:
        return None
    # cond's 1-norm: the largest column sum of absolute values; Python
    # floats, so inf * 0 gives nan without a warning
    condition = float(np.abs(m_hat).sum(axis=0).max()) * float(
        np.abs(m_inv).sum(axis=0).max()
    )
    return m_inv if condition <= CONDITION_LIMIT else None


def differentiate(
    bounds: Sequence[tuple[LeeTheta | LeeIpwTheta, str, FitContext]],
    bandwidth: float | None = None,
) -> list[tuple[np.ndarray, np.ndarray] | EstimationError]:
    """Smoothed Jacobians of several bounds, each with its inverse.

    bounds holds per bound its parameters, its system and the FitContext
    the moment pass of a fit at those parameters kept. One normal-CDF kernel
    call covers every bound's trimming sample, and each bound's entries are
    the ones it would get alone, bit for bit. bandwidth defaults to each
    context's. Per bound, the result is the pair (Jacobian, inverse), or
    the EstimationError that stopped it alone: too few trimmed outcomes for
    a bandwidth, or a Jacobian that is not finite or numerically singular
    (1-norm condition > 1e12), decided from its one inverse.
    """
    staged = []  # per bound: (kind, sign, h, u), or the error that stopped it
    for theta, system, context in bounds:
        kind, side = _split_system(system)
        h = bandwidth if bandwidth is not None else context.bandwidth
        if h is None:
            try:
                h = silverman_bandwidth(context.sample)  # raises: too few outcomes
            except EstimationError as exc:
                staged.append(exc)
                continue
        sign = 1.0 if side == "lb" else -1.0  # the kept tail: below, above
        u = (theta.cutoff - context.sample) / h  # positive inside the kept lower tail
        staged.append((kind, sign, h, u))
    # one kernel call on every bound's arguments; each reads its own slice
    ready = [stage for stage in staged if isinstance(stage, tuple)]
    args = [sign * u for _, sign, _, u in ready]
    kept = iter(())
    if args:
        big_phi = _big_phi(np.concatenate(args))
        ends = np.cumsum([arg.size for arg in args]).tolist()
        kept = (big_phi[end - arg.size : end] for arg, end in zip(args, ends))

    results = []
    for (theta, system, context), stage in zip(bounds, staged):
        if not isinstance(stage, tuple):
            results.append(stage)
            continue
        kind, sign, h, u = stage
        n = context.n
        sample = context.sample
        big_phi_kept = next(kept)
        small_phi = _phi(u) / h
        dev_phi = (sample - theta.mu1) * small_phi
        n1 = float(sample.size)

        jac = np.zeros((5, 5))
        jac[0, 0] = -big_phi_kept.sum() / n
        jac[0, 2] = sign * dev_phi.sum() / n
        jac[1, 1] = -context.control / n
        jac[2, 2] = -sign * small_phi.sum() / n
        if kind == "lee":
            assert isinstance(theta, LeeTheta)
            jac[2, 3] = -n1 / n
            n_treated = context.n_treated
            jac[3, 3] = -theta.alpha * n_treated / ((1.0 - theta.p) ** 2 * n)
            jac[3, 4] = -n_treated / ((1.0 - theta.p) * n)
            jac[4, 4] = -float(n - n_treated) / n
        else:
            assert isinstance(theta, LeeIpwTheta)
            v_over_delta = sample / theta.delta  # d(rescaled outcome)/d(delta)
            jac[0, 3] = (v_over_delta * (big_phi_kept - sign * dev_phi)).sum() / n
            jac[2, 3] = sign * (v_over_delta * small_phi).sum() / n
            jac[2, 4] = -n1 / n
            jac[3, 3] = -context.m_sum / n
            jac[4, 4] = -n1 / (context.p_hat * n)

        jac_inv = _inverse(jac)
        if jac_inv is None:
            results.append(SingularJacobianError(
                f"moment Jacobian for {system} is numerically singular "
                f"(1-norm condition above {CONDITION_LIMIT:.0e})"
            ))
            continue
        results.append((jac, jac_inv))
    return results


def jacobian(
    data: Dataset,
    design: BlockDesign,
    theta: LeeTheta | LeeIpwTheta,
    system: str,
    bandwidth: float | None = None,
    context: FitContext | None = None,
) -> np.ndarray:
    """Mean derivative matrix of the smoothed system at theta.

    Indicators 1{v <= c} / 1{v >= c} become normal CDFs at bandwidth h; every
    entry is the exact derivative of the smoothed column mean. context is
    what the moment pass of a fit at theta kept (FitResult.matrix.contexts);
    without it, one is built from data and design. bandwidth defaults to the
    Silverman bandwidth of its sample. Raises if the result is not finite or
    numerically singular (1-norm condition > 1e12); differentiate gives the
    inverse the decision was read from, with the matrix.
    """
    if context is None:
        (context,) = moment_matrix(data, design, (theta,), (system,)).contexts
    (result,) = differentiate(((theta, system, context),), bandwidth)
    if isinstance(result, EstimationError):
        raise result
    return result[0]


def _sandwich(m_inv: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """M^{-1} Omega M^{-T} from the inverse, symmetrized."""
    v = m_inv @ omega @ m_inv.T
    return 0.5 * (v + v.T)


def solve_sandwich(m_hat: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Sandwich M^{-1} Omega M^{-T}, symmetrized; refuses an M that is not
    finite or has a 1-norm condition number above 1e12."""
    m_inv = _inverse(m_hat)
    if m_inv is None:
        raise SingularJacobianError(
            "moment Jacobian is numerically singular in solve_sandwich"
        )
    return _sandwich(m_inv, omega)
