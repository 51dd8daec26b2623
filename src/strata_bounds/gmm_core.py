"""Just-identified moment systems behind the bound estimators.

Each bound is characterized by five stacked moments: the trimmed treated
mean, the control mean, the trimmed tail share, a selection-rate relation,
and the control selection rate (pooled system) or the weighted analogues
(weighted system, where the rescaled treated outcome depends on the
always-observed treated share parameter). Point estimates come from closed
forms; the moment matrix evaluated at the fit certifies them via column-mean
residuals. Standard errors use a smoothed analytic Jacobian: indicator terms
are replaced by normal-kernel CDFs with a Silverman bandwidth, differentiated
exactly in the parameters. Point estimates are never smoothed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data_model import BlockDesign, Dataset
from .errors import (
    DegenerateTrimError,
    InternalConsistencyError,
    SingularJacobianError,
)
from .ipw_estimator import (
    IpwComponents,
    _per_unit_block_arrays,
    lee_ipw_bounds,
)
from .lee_estimator import (
    BoundsEstimate,
    lee_bounds,
    trimming_share_pooled,
)

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
class MomentMatrix:
    """Per-unit moment values at a parameter vector, with residual checks.

    residuals are the column means. Rows flagged in `checked` must satisfy
    |residual| <= bound: rows solved exactly get 1e-8; the trimmed-mean and
    tail-share rows get boundary-tie bounds; a clamped trimming share exempts
    the selection-rate relation row (its mean is the monotonicity violation).
    """

    values: np.ndarray
    residuals: np.ndarray
    bounds: np.ndarray
    checked: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        viol = self.checked & (np.abs(self.residuals) > self.bounds)
        return not bool(viol.any())


@dataclass(frozen=True, eq=False)
class FitResult:
    """Closed-form fit of one system plus its certifying moment matrix."""

    system: str
    theta: LeeTheta | LeeIpwTheta
    matrix: MomentMatrix
    estimate: BoundsEstimate
    components: IpwComponents | None = None
    flags: tuple[str, ...] = ()


def _split_system(system: str) -> tuple[str, str]:
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    kind, side = system.split("_")
    return kind, side


def _filled_outcome(data: Dataset) -> np.ndarray:
    """Outcome column with zeros where unobserved (every use carries an s factor)."""
    return np.where(data.s == 1, np.nan_to_num(data.y, nan=0.0), 0.0)


# ---------------------------------------------------------------------------
# vectorized moment matrices with residual certification
# ---------------------------------------------------------------------------

def moment_matrix(
    data: Dataset,
    design: BlockDesign,
    theta: LeeTheta | LeeIpwTheta,
    system: str,
    clamped: bool = False,
) -> MomentMatrix:
    """Evaluate all unit moments at theta and check the column means."""
    kind, side = _split_system(system)
    n = data.n
    y0 = _filled_outcome(data)
    s = data.s.astype(float)
    d = data.d.astype(float)
    sd = s * d
    s0d = s * (1.0 - d)

    values = np.empty((n, 5))
    if kind == "lee":
        assert isinstance(theta, LeeTheta)
        if side == "lb":
            kept = (y0 <= theta.cutoff).astype(float)
        else:
            kept = (y0 >= theta.cutoff).astype(float)
        tail = 1.0 - kept
        values[:, 0] = (y0 - theta.mu1) * sd * kept
        values[:, 1] = (y0 - theta.mu0) * s0d
        values[:, 2] = (tail - theta.p) * sd
        values[:, 3] = (s - theta.alpha / (1.0 - theta.p)) * d
        values[:, 4] = (s - theta.alpha) * (1.0 - d)
        trim_values = y0
        rate_row = 3
    else:
        assert isinstance(theta, LeeIpwTheta)
        eta_i, m_i, w_c, w_q = _per_unit_block_arrays(data, design)
        p_hat = design.p_hat
        y_til = (theta.delta / eta_i) * y0
        if side == "lb":
            kept = (y_til <= theta.cutoff).astype(float)
        else:
            kept = (y_til >= theta.cutoff).astype(float)
        tail = 1.0 - kept
        values[:, 0] = (y_til - theta.mu1) * sd * kept
        values[:, 1] = (y0 - theta.mu0) * s0d * w_c
        values[:, 2] = (tail - theta.q) * sd
        values[:, 3] = m_i * (d - theta.delta)
        values[:, 4] = ((1.0 - theta.q) / p_hat) * sd - (
            1.0 / (1.0 - p_hat)
        ) * s0d * w_q
        trim_values = y_til
        rate_row = 4

    residuals = values.mean(axis=0)

    mask1 = sd > 0
    sample = trim_values[mask1]
    ties = int(np.count_nonzero(sample == theta.cutoff))
    max_abs = float(np.max(np.abs(sample))) if sample.size else 0.0
    slack = 1e-9 * (1.0 + max_abs)

    bounds = np.full(5, EXACT_ROW_TOL)
    bounds[0] = (2.0 * ties * max_abs + slack) / n
    bounds[2] = (ties + 1e-9) / n

    checked = np.ones(5, dtype=bool)
    notes = []
    if clamped:
        checked[rate_row] = False
        notes.append(
            "clamped trimming share: selection-rate relation row carries the "
            f"monotonicity violation (mean {residuals[rate_row]:.3e})"
        )
    return MomentMatrix(
        values=values,
        residuals=residuals,
        bounds=bounds,
        checked=checked,
        notes=tuple(notes),
    )


def fit_theta(data: Dataset, design: BlockDesign, system: str) -> FitResult:
    """Closed-form fit of one system, certified by its moment residuals."""
    kind, _ = _split_system(system)
    if kind == "lee":
        return fit_from_estimate(data, design, system, lee_bounds(data, design))
    estimate, components = lee_ipw_bounds(data, design)
    return fit_from_estimate(data, design, system, estimate, components)


def fit_from_estimate(
    data: Dataset,
    design: BlockDesign,
    system: str,
    estimate: BoundsEstimate,
    components: IpwComponents | None = None,
) -> FitResult:
    """fit_theta from a point estimate already in hand: lee_bounds' for the
    pooled systems, lee_ipw_bounds' with its components for the weighted."""
    kind, side = _split_system(system)
    if kind == "lee":
        share = trimming_share_pooled(data)
        theta = LeeTheta(
            mu1=estimate.mu1_lb if side == "lb" else estimate.mu1_ub,
            mu0=estimate.mu0,
            cutoff=estimate.cutoff_lb if side == "lb" else estimate.cutoff_ub,
            p=estimate.q,
            alpha=share.rate_control,
        )
        clamped = share.clamped
    else:
        theta = LeeIpwTheta(
            mu1=estimate.mu1_lb if side == "lb" else estimate.mu1_ub,
            mu0=estimate.mu0,
            cutoff=components.cutoff_lo if side == "lb" else components.cutoff_hi,
            delta=components.delta_hat,
            q=components.q_hat,
        )
        clamped = components.clamped

    matrix = moment_matrix(data, design, theta, system, clamped=clamped)
    if not matrix.ok:
        bad = [
            f"row {i + 1}: |{matrix.residuals[i]:.3e}| > {matrix.bounds[i]:.3e}"
            for i in range(5)
            if matrix.checked[i] and abs(matrix.residuals[i]) > matrix.bounds[i]
        ]
        raise InternalConsistencyError(
            f"moment residuals violated for {system}: " + "; ".join(bad)
        )
    return FitResult(
        system=system,
        theta=theta,
        matrix=matrix,
        estimate=estimate,
        components=components,
        flags=tuple(estimate.flags),
    )


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


def jacobian(
    data: Dataset,
    design: BlockDesign,
    theta: LeeTheta | LeeIpwTheta,
    system: str,
    bandwidth: float | None = None,
) -> np.ndarray:
    """Mean derivative matrix of the smoothed system at theta.

    Indicators 1{v <= c} / 1{v >= c} become normal CDFs at bandwidth h; every
    entry is the exact derivative of the smoothed column mean. Raises if the
    result is not finite or numerically singular (1-norm condition > 1e12).
    """
    kind, side = _split_system(system)
    n = data.n
    y0 = _filled_outcome(data)
    s = data.s.astype(float)
    d = data.d.astype(float)
    mask1 = (s * d) > 0
    n1 = float(mask1.sum())
    n_treated = float(d.sum())
    n_control = float(n - n_treated)

    jac = np.zeros((5, 5))
    if kind == "lee":
        assert isinstance(theta, LeeTheta)
        v = y0
        sample = v[mask1]
        h = bandwidth if bandwidth is not None else silverman_bandwidth(sample)
        u = (theta.cutoff - sample) / h  # positive inside the kept lower tail
        big_phi_kept = ndtr(u) if side == "lb" else ndtr(-u)
        small_phi = _phi(u) / h
        dev = sample - theta.mu1

        jac[0, 0] = -big_phi_kept.sum() / n
        jac[0, 2] = (
            (dev * small_phi).sum() / n
            if side == "lb"
            else -(dev * small_phi).sum() / n
        )
        jac[1, 1] = -float((s * (1.0 - d)).sum()) / n
        jac[2, 2] = (-small_phi.sum() if side == "lb" else small_phi.sum()) / n
        jac[2, 3] = -n1 / n
        jac[3, 3] = -theta.alpha * n_treated / ((1.0 - theta.p) ** 2 * n)
        jac[3, 4] = -n_treated / ((1.0 - theta.p) * n)
        jac[4, 4] = -n_control / n
    else:
        assert isinstance(theta, LeeIpwTheta)
        eta_i, m_i, w_c, w_q = _per_unit_block_arrays(data, design)
        p_hat = design.p_hat
        v = (theta.delta / eta_i) * y0
        sample = v[mask1]
        h = bandwidth if bandwidth is not None else silverman_bandwidth(sample)
        u = (theta.cutoff - sample) / h
        big_phi_kept = ndtr(u) if side == "lb" else ndtr(-u)
        small_phi = _phi(u) / h
        dev = sample - theta.mu1
        v_over_delta = sample / theta.delta  # d(rescaled outcome)/d(delta)

        jac[0, 0] = -big_phi_kept.sum() / n
        if side == "lb":
            jac[0, 2] = (dev * small_phi).sum() / n
            jac[0, 3] = (
                v_over_delta * (big_phi_kept - dev * small_phi)
            ).sum() / n
            jac[2, 2] = -small_phi.sum() / n
            jac[2, 3] = (v_over_delta * small_phi).sum() / n
        else:
            jac[0, 2] = -(dev * small_phi).sum() / n
            jac[0, 3] = (
                v_over_delta * (big_phi_kept + dev * small_phi)
            ).sum() / n
            jac[2, 2] = small_phi.sum() / n
            jac[2, 3] = -(v_over_delta * small_phi).sum() / n
        jac[1, 1] = -float((s * (1.0 - d) * w_c).sum()) / n
        jac[2, 4] = -n1 / n
        jac[3, 3] = -float(m_i.sum()) / n
        jac[4, 4] = -n1 / (p_hat * n)

    if not (np.linalg.cond(jac, 1) <= CONDITION_LIMIT):  # nan fails too
        raise SingularJacobianError(
            f"moment Jacobian for {system} is numerically singular "
            f"(1-norm condition above {CONDITION_LIMIT:.0e})"
        )
    return jac


def solve_sandwich(m_hat: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Sandwich M^{-1} Omega M^{-T}, symmetrized; refuses an M that is not
    finite or has a 1-norm condition number above 1e12."""
    if not (np.linalg.cond(m_hat, 1) <= CONDITION_LIMIT):
        raise SingularJacobianError(
            "moment Jacobian is numerically singular in solve_sandwich"
        )
    m_inv = np.linalg.inv(m_hat)
    v = m_inv @ omega @ m_inv.T
    return 0.5 * (v + v.T)
