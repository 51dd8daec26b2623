"""Just-identified moment systems behind the bound estimators.

Each bound is characterized by five stacked moments: the trimmed treated
mean, the control mean, the trimmed tail share, and two rows of its
system's own. Each system is one MomentSystem value, POOLED (lee_bounds)
or WEIGHTED (lee_ipw_bounds), which declares everything that differs: its
theta, its per-arm inputs, its rows with the arms they are not zero on,
and its Jacobian entries; fit_from_estimate, moment_matrix and
differentiate run over what it declares. Point estimates come from closed
forms; the moment matrix evaluated at the fit certifies them via
column-mean residuals. Both bounds of one estimate are fitted in one pass,
on one trimming sample, with the rows they share (rows 2, 4 and 5) once: 7
columns, which moment_matrix writes by arm, each arm's over its units on
the columns not zero on it; the dense n x 7 matrix is formed only when
MomentMatrix.values is read.
Standard errors use a smoothed analytic Jacobian: indicator terms are
replaced by normal-kernel CDFs with a Silverman bandwidth, differentiated
exactly in the parameters.
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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .data_model import BlockDesign, Dataset
from .errors import (
    DegenerateTrimError,
    EstimationError,
    InternalConsistencyError,
    SingularJacobianError,
)
from .ipw_estimator import _block_weights, always_observed_treat_prob, lee_ipw_bounds
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
    """What jacobian reads of the data at one fit's trimming; the moment
    pass keeps one, shared by the bounds it fits.

    sample is the observed-treated trimming sample and bandwidth its
    Silverman bandwidth, or None where it is too small for one. n counts the
    units and n_treated the treated ones. control is the sum of s(1 - d)
    times row 2's weight; the weighted system also reads m_sum, the sum of
    m_i, and the pooled treated share p_hat.
    """

    n: int
    sample: np.ndarray
    bandwidth: float | None
    n_treated: float
    control: float
    m_sum: float = 0.0
    p_hat: float = 0.0


@dataclass(frozen=True, eq=False)
class Arm:
    """One arm's units and their blocks.

    units lists the arm's unit indices in dataset order, or in block order
    when every block has one (as in matched pairs), and codes their blocks;
    counts[g] >= 1 is block g's size in the arm and single lists the blocks
    where it is 1.
    """

    units: np.ndarray
    codes: np.ndarray
    counts: np.ndarray
    single: np.ndarray

    @property
    def one_each(self) -> bool:
        """Whether every block has one unit in the arm."""
        return self.single.size == self.counts.size


def _split_arms(data: Dataset, design: BlockDesign) -> tuple[Arm, Arm]:
    """The treated arm, then the control arm."""
    arms = []
    for treated in (1, 0):
        units = np.flatnonzero(data.d == treated)
        codes = design.codes[units]
        counts = np.bincount(codes, minlength=design.n_blocks)
        single = np.flatnonzero(counts == 1)
        if single.size == counts.size:
            units[codes] = units.copy()  # one scatter puts them in block order
            codes = single
        arms.append(Arm(units=units, codes=codes, counts=counts, single=single))
    return arms[0], arms[1]


@dataclass(frozen=True, eq=False)
class ArmRows:
    """The moment columns that are not zero on one arm, over its units.

    live lists those columns; rows is (len(live), arm.units.size), row i
    holding column live[i] at arm.units. Every other column is zero on
    the arm.
    """

    arm: Arm
    live: tuple[int, ...]
    rows: np.ndarray

    def select(self, columns: Sequence[int]) -> ArmRows:
        """The rows of these columns, live renumbered to their positions in
        columns; a view where they are consecutive rows, as a fit's are."""
        position = {c: i for i, c in enumerate(columns)}
        at = [i for i, c in enumerate(self.live) if c in position]
        if at and at == list(range(at[0], at[-1] + 1)):
            rows = self.rows[at[0] : at[-1] + 1]
        else:
            rows = self.rows[at]
        return ArmRows(self.arm, tuple(position[self.live[i]] for i in at), rows)


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Per-unit moment values of one or more bounds, with residual checks.

    The moments are stored by arm: arms holds the treated arm's rows, then
    the control arm's, each on the columns not zero on that arm. For
    several bounds the columns are one stack, where columns[k] lists bound
    k's rows 1-5 (rows 2, 4 and 5 are the first bound's); for one bound
    they are its rows 1-5. values is the dense (n, width) matrix, formed on
    first read. residuals (the column means), bounds and checked follow the
    columns. Entries flagged in `checked` must satisfy |residual| <= bound:
    rows solved exactly get 1e-8; the trimmed-mean and tail-share rows get
    boundary-tie bounds; a clamped trimming share exempts the selection-rate
    relation row (its mean is the monotonicity violation). context is the
    FitContext every bound's Jacobian reads.
    """

    n: int
    arms: tuple[ArmRows, ArmRows]
    columns: tuple[tuple[int, ...], ...]
    residuals: np.ndarray
    bounds: np.ndarray
    checked: np.ndarray
    context: FitContext

    @property
    def width(self) -> int:
        return self.residuals.size

    @cached_property
    def values(self) -> np.ndarray:
        """The (n, width) moments, Fortran-ordered."""
        dense = np.zeros((self.width, self.n))
        for part in self.arms:
            for col, row in zip(part.live, part.rows):
                dense[col, part.arm.units] = row
        return dense.T

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
        """The k-th bound's matrix, on its arm rows of these."""
        cols = self.columns[k]
        at = list(cols)
        return MomentMatrix(
            n=self.n,
            arms=(self.arms[0].select(cols), self.arms[1].select(cols)),
            columns=(tuple(range(len(cols))),),
            residuals=self.residuals[at],
            bounds=self.bounds[at],
            checked=self.checked[at],
            context=self.context,
        )


@dataclass(frozen=True, eq=False)
class FitResult:
    """Closed-form fit of one system plus its certifying moment matrix."""

    system: str
    theta: LeeTheta | LeeIpwTheta
    matrix: MomentMatrix
    estimate: BoundsEstimate


# ---------------------------------------------------------------------------
# the two moment systems
# ---------------------------------------------------------------------------

class MomentSystem:
    """What one moment system declares beyond rows 1-3 (the trimmed treated
    mean, the control mean, the trimmed tail share) and Jacobian entries
    (0, 0), (0, 2), (1, 1) and (2, 2), which have one form in every system.

    kind names its bounds, kind_lb and kind_ub, and estimator its point
    estimator in ESTIMATORS. row_arms holds per row 1-5 the arms the row is
    not zero on (0 treated, 1 control); exempt is the row a clamped trimming
    share exempts, and tail names the share row 3 trims. The methods give its
    point estimate, its bounds' thetas, its per-arm inputs with its
    FitContext sums, its trimming values over the treated arm with its
    trimming sample, row 2's weight with rows 4 and 5, and its own Jacobian
    entries. A system holds no state of its own: its instances take no
    attribute.
    """

    __slots__ = ()
    kind: ClassVar[str]
    estimator: ClassVar[str]
    row_arms: ClassVar[tuple[tuple[int, ...], ...]]
    exempt: ClassVar[int]
    tail: ClassVar[str]


class _Pooled(MomentSystem):
    """lee_bounds' system, at a LeeTheta: row 4 is the selection-rate
    relation (s - alpha/(1 - p)) d, row 5 the control selection rate
    (s - alpha)(1 - d)."""

    __slots__ = ()
    kind, estimator, exempt, tail = "lee", "lee", 3, "p"
    row_arms = ((0,), (1,), (0,), (0,), (1,))

    def point_estimate(self, data, design):
        return lee_bounds(data, design)

    def thetas(self, estimate, design, bounds):
        # alpha from the integers trimming_share_pooled divides
        alpha = int(design.n0s_g.sum()) / int((design.n_g - design.t_g).sum())
        return [LeeTheta(**b, p=estimate.q, alpha=alpha) for b in bounds]

    def inputs(self, data, design, arms, observed, s_c):
        return {}, dict(control=float(design.n0s_g.sum()))

    def trimming(self, theta, y_t, y_obs, inputs):
        return y_t, y_obs

    def rows(self, theta, row_t, row_c, cols, s_t, s_c, inputs):
        np.subtract(s_t, theta.alpha / (1.0 - theta.p), out=row_t[cols[3]])
        np.subtract(s_c, theta.alpha, out=row_c[cols[4]])

    def entries(self, jac, theta, context, sign, kept, small_phi, dev_phi):
        n, n_treated = context.n, context.n_treated
        jac[2, 3] = -float(context.sample.size) / n
        jac[3, 3] = -theta.alpha * n_treated / ((1.0 - theta.p) ** 2 * n)
        jac[3, 4] = -n_treated / ((1.0 - theta.p) * n)
        jac[4, 4] = -float(n - n_treated) / n


class _Weighted(MomentSystem):
    """lee_ipw_bounds' system, at a LeeIpwTheta: the treated outcome is
    rescaled by delta/eta_g, row 2 is weighted by w_c, row 4 is
    (d - delta) m_i and row 5 the selection-rate relation
    ((1 - q)/p_hat) s d - s (1 - d) w_q/(1 - p_hat)."""

    __slots__ = ()
    kind, estimator, exempt, tail = "ipw", "lee-ipw", 4, "q"
    row_arms = ((0,), (1,), (0,), (0, 1), (0, 1))

    def point_estimate(self, data, design):
        return lee_ipw_bounds(data, design)

    def thetas(self, estimate, design, bounds):
        delta = always_observed_treat_prob(design)
        return [LeeIpwTheta(**b, delta=delta, q=estimate.q) for b in bounds]

    def inputs(self, data, design, arms, observed, s_c):
        (treated, control), p_hat = arms, design.p_hat
        w_c_g, w_q_g = _block_weights(design)
        inputs = dict(
            p_hat=p_hat, w_c=w_c_g[control.codes],
            m_t=design.m_g[treated.codes], m_c=design.m_g[control.codes],
            eta_t=design.eta_g[treated.codes],
            eta_obs=design.eta_g[design.codes[observed]],
            control_rate=(1.0 / (1.0 - p_hat)) * s_c * w_q_g[control.codes],
        )
        # the controls weighted by w_c; both sums run over every unit in
        # dataset order
        return inputs, dict(
            control=float(np.where(
                (data.d == 0) & (data.s == 1), w_c_g[design.codes], 0.0
            ).sum()),
            m_sum=float(design.m_g[design.codes].sum()),
            p_hat=p_hat,
        )

    def trimming(self, theta, y_t, y_obs, inputs):
        delta = theta.delta
        return (delta / inputs["eta_t"]) * y_t, (delta / inputs["eta_obs"]) * y_obs

    def rows(self, theta, row_t, row_c, cols, s_t, s_c, inputs):
        row_c[cols[1]] *= inputs["w_c"]
        # (d - delta) m_i, and the selection-rate relation
        np.multiply(inputs["m_t"], 1.0 - theta.delta, out=row_t[cols[3]])
        np.multiply(inputs["m_c"], 0.0 - theta.delta, out=row_c[cols[3]])
        np.multiply(s_t, (1.0 - theta.q) / inputs["p_hat"], out=row_t[cols[4]])
        np.subtract(0.0, inputs["control_rate"], out=row_c[cols[4]])

    def entries(self, jac, theta, context, sign, kept, small_phi, dev_phi):
        n, sample = context.n, context.sample
        n1 = float(sample.size)
        v_over_delta = sample / theta.delta  # d(rescaled outcome)/d(delta)
        jac[0, 3] = (v_over_delta * (kept - sign * dev_phi)).sum() / n
        jac[2, 3] = sign * (v_over_delta * small_phi).sum() / n
        jac[2, 4] = -n1 / n
        jac[3, 3] = -context.m_sum / n
        jac[4, 4] = -n1 / (context.p_hat * n)


POOLED, WEIGHTED = _Pooled(), _Weighted()
MOMENT_SYSTEMS = {system.kind: system for system in (POOLED, WEIGHTED)}


def _split_systems(systems: Sequence[str]) -> tuple[MomentSystem, tuple[str, ...]]:
    """The one moment system of these bounds' names (of SYSTEMS), and each
    bound's side."""
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    kinds, sides = zip(*(system.split("_") for system in systems))
    if len(set(kinds)) != 1:
        raise ValueError(f"systems must share one kind, got {systems}")
    return MOMENT_SYSTEMS[kinds[0]], sides


# ---------------------------------------------------------------------------
# vectorized moment matrices with residual certification
# ---------------------------------------------------------------------------

def _kept(values: np.ndarray, cutoff: float, side: str) -> np.ndarray:
    """Which values a bound keeps: those at or below its cutoff for the
    lower bound, at or above it for the upper."""
    return values <= cutoff if side == "lb" else values >= cutoff


def moment_matrix(
    data: Dataset,
    design: BlockDesign,
    thetas: Sequence[LeeTheta | LeeIpwTheta],
    systems: Sequence[str],
    clamped: bool = False,
) -> MomentMatrix:
    """Evaluate the unit moments of one or more bounds and check their means.

    thetas and systems hold one entry per bound, all of one MomentSystem and
    one estimate: the thetas may differ in mu1 and cutoff only, else the
    call raises ValueError. The bounds form one stack of columns: the first
    bound's rows 1-5, then each later bound's rows 1 and 3. Each arm's rows
    are written over its units on the columns the system's row_arms put
    there, in column order. The per-unit inputs, and the observed-treated
    trimming sample with its bandwidth, are formed once for every bound;
    only the sample and a few sums outlive the call, in a FitContext, beside
    the rows.
    """
    if len(thetas) != len(systems) or not systems:
        raise ValueError("moment_matrix needs one theta per system")
    system, sides = _split_systems(systems)
    first = thetas[0]
    shared = [f.name for f in fields(first) if f.name not in ("mu1", "cutoff")]
    # tuples compare items by identity first, so one estimate's nan agrees
    key = [tuple(getattr(theta, name) for name in shared) for theta in thetas]
    if any(other != key[0] for other in key[1:]):
        raise ValueError(
            "moment_matrix fits the bounds of one estimate: their thetas "
            f"may differ in mu1 and cutoff only, got {thetas}"
        )
    n = data.n
    arms = _split_arms(data, design)
    # the observed treated units, in dataset order: the trimming sample's
    observed = np.flatnonzero((data.d == 1) & (data.s == 1))
    # per arm: outcome (zero where unobserved) and selection over its units
    y_t, y_c = (np.nan_to_num(data.y[arm.units], nan=0.0) for arm in arms)
    s_t, s_c = (data.s[arm.units].astype(float) for arm in arms)
    inputs, sums = system.inputs(data, design, arms, observed, s_c)
    sums.update(n_treated=float(arms[0].units.size))

    # per bound, the stack's columns of its rows 1-5; per arm, the columns
    # not zero on it
    width = 3 + 2 * len(thetas)
    columns = [(0, 1, 2, 3, 4)]
    columns += [(w, 1, w + 1, 3, 4) for w in range(5, width, 2)]
    live = ([], [])
    for k, cols in enumerate(columns):
        for r in (0, 2) if k else (0, 1, 2, 3, 4):
            for side in system.row_arms[r]:
                live[side].append(cols[r])
    # per arm, its rows in column order
    parts = []
    for side, arm in enumerate(arms):
        cols = tuple(sorted(live[side]))
        rows = np.empty((len(cols), arm.units.size))
        parts.append(ArmRows(arm=arm, live=cols, rows=rows))
    row_t, row_c = (dict(zip(part.live, part.rows)) for part in parts)

    # the trimmed values over the treated arm, and the observed-treated
    # sample, in dataset order, with its largest magnitude
    trim_values, sample = system.trimming(first, y_t, data.y[observed], inputs)
    sample.setflags(write=False)
    context = FitContext(
        n=n, sample=sample,
        bandwidth=silverman_bandwidth(sample) if sample.size >= 2 else None,
        **sums,
    )
    max_abs = float(np.max(np.abs(sample))) if sample.size else 0.0
    bounds = np.full(width, EXACT_ROW_TOL)
    checked = np.ones(width, dtype=bool)
    for k, (theta, side, cols) in enumerate(zip(thetas, sides, columns)):
        kept = _kept(trim_values, theta.cutoff, side)
        # d = 1 and s(1 - d) = 0 on the treated arm, the reverse on the
        # control arm: each row leaves out the factors that are 1 on its arm,
        # and its values are the ones the full expression gives
        np.subtract(trim_values, theta.mu1, out=row_t[cols[0]])
        row_t[cols[0]] *= s_t
        row_t[cols[0]] *= kept
        np.subtract(1.0, kept, out=row_t[cols[2]])  # the trimmed tail
        row_t[cols[2]] -= getattr(theta, system.tail)
        row_t[cols[2]] *= s_t
        if not k:  # rows 2, 4 and 5, which every bound shares
            np.subtract(y_c, theta.mu0, out=row_c[cols[1]])
            row_c[cols[1]] *= s_c
            system.rows(theta, row_t, row_c, cols, s_t, s_c, inputs)

        ties = int(np.count_nonzero(sample == theta.cutoff))
        slack = 1e-9 * (1.0 + max_abs)
        bounds[cols[0]] = (2.0 * ties * max_abs + slack) / n
        bounds[cols[2]] = (ties + 1e-9) / n
        if clamped:
            checked[cols[system.exempt]] = False

    total = np.zeros(width)  # the column sums, arm by arm
    for part in parts:
        total[list(part.live)] += part.rows.sum(axis=1)
    return MomentMatrix(
        n=n,
        arms=(parts[0], parts[1]),
        columns=tuple(columns),
        residuals=total / n,
        bounds=bounds,
        checked=checked,
        context=context,
    )


def fit_theta(data: Dataset, design: BlockDesign, system: str) -> FitResult:
    """Closed-form fit of one system, certified by its moment residuals."""
    estimate = _split_systems((system,))[0].point_estimate(data, design)
    _, (fit,) = fit_from_estimate(data, design, (system,), estimate)
    if isinstance(fit, EstimationError):
        raise fit
    return fit


def fit_from_estimate(
    data: Dataset,
    design: BlockDesign,
    systems: Sequence[str],
    estimate: BoundsEstimate,
) -> tuple[MomentMatrix, tuple[FitResult | EstimationError, ...]]:
    """fit_theta for several bounds of one moment system from its point
    estimate, already in hand; the system forms their thetas from it and
    the design. Every bound is fitted in one moment_matrix call, whose
    stacked matrix is
    returned; the bounds share its rows 2, 4 and 5. Per bound, the result
    is its FitResult, whose matrix is its bound's (MomentMatrix.bound), or
    the residual error that stopped it alone.
    """
    system, sides = _split_systems(systems)
    bounds = [
        dict(
            mu1=estimate.mu1_lb if side == "lb" else estimate.mu1_ub,
            mu0=estimate.mu0,
            cutoff=estimate.cutoff_lb if side == "lb" else estimate.cutoff_ub,
        )
        for side in sides
    ]
    thetas = system.thetas(estimate, design, bounds)
    stack = moment_matrix(
        data, design, thetas, systems,
        clamped="trimming_share_clamped" in estimate.flags,
    )
    results = []
    for k, (name, theta) in enumerate(zip(systems, thetas)):
        matrix = stack.bound(k)
        if matrix.ok:
            results.append(FitResult(
                system=name,
                theta=theta,
                matrix=matrix,
                estimate=estimate,
            ))
            continue
        bad = [
            f"row {r + 1}: |{matrix.residuals[r]:.3e}| > {matrix.bounds[r]:.3e}"
            for r in range(5)
            if matrix.checked[r] and abs(matrix.residuals[r]) > matrix.bounds[r]
        ]
        results.append(InternalConsistencyError(
            f"moment residuals violated for {name}: " + "; ".join(bad)
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
    staged = []  # per bound: (system, sign, h, u), or the error that stopped it
    for theta, name, context in bounds:
        system, (side,) = _split_systems((name,))
        h = bandwidth if bandwidth is not None else context.bandwidth
        if h is None:
            try:
                h = silverman_bandwidth(context.sample)  # raises: too few outcomes
            except EstimationError as exc:
                staged.append(exc)
                continue
        sign = 1.0 if side == "lb" else -1.0  # the kept tail: below, above
        u = (theta.cutoff - context.sample) / h  # positive inside the kept lower tail
        staged.append((system, sign, h, u))
    # one kernel call on every bound's arguments; each reads its own slice
    ready = [stage for stage in staged if isinstance(stage, tuple)]
    args = [sign * u for _, sign, _, u in ready]
    kept = iter(())
    if args:
        big_phi = _big_phi(np.concatenate(args))
        ends = np.cumsum([arg.size for arg in args]).tolist()
        kept = (big_phi[end - arg.size : end] for arg, end in zip(args, ends))

    results = []
    for (theta, name, context), stage in zip(bounds, staged):
        if not isinstance(stage, tuple):
            results.append(stage)
            continue
        system, sign, h, u = stage
        n = context.n
        big_phi_kept = next(kept)
        small_phi = _phi(u) / h
        dev_phi = (context.sample - theta.mu1) * small_phi

        jac = np.zeros((5, 5))
        jac[0, 0] = -big_phi_kept.sum() / n
        jac[0, 2] = sign * dev_phi.sum() / n
        jac[1, 1] = -context.control / n
        jac[2, 2] = -sign * small_phi.sum() / n
        system.entries(jac, theta, context, sign, big_phi_kept, small_phi, dev_phi)

        jac_inv = _inverse(jac)
        if jac_inv is None:
            results.append(SingularJacobianError(
                f"moment Jacobian for {name} is numerically singular "
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
) -> np.ndarray:
    """Mean derivative matrix of the smoothed system at theta.

    Indicators 1{v <= c} / 1{v >= c} become normal CDFs at bandwidth h; every
    entry is the exact derivative of the smoothed column mean. bandwidth
    defaults to the Silverman bandwidth of the trimming sample of a moment
    pass at theta. Raises if the result is not finite or numerically
    singular (1-norm condition > 1e12); differentiate gives the inverse the
    decision was read from, with the matrix.
    """
    context = moment_matrix(data, design, (theta,), (system,)).context
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
