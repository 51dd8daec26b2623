"""Trimming bounds for the always-observed treatment effect.

The pooled estimator compares the observed-control mean with trimmed means of
the observed-treated outcomes, where the trimming share is one minus the
ratio of observed-selection rates. Trimming is fractional: the boundary order
statistic receives partial weight so the retained mass is exact, and tied
boundary values share that partial weight equally. The per-stratum variant
applies the same construction inside each block and aggregates with block
sizes as weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import BlockDesign, Dataset
from .errors import DegenerateTrimError, EstimationError, UndefinedTrimmingError

METHOD_LEE = "lee"
METHOD_CONDITIONAL = "conditional_lee"
METHOD_IPW = "lee_ipw"


@dataclass(frozen=True)
class TrimSpec:
    """Trimming instruction: share q in [0, 1) removed from one tail."""

    q: float
    side: str  # "upper" removes the top tail, "lower" the bottom tail

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0) or not math.isfinite(self.q):
            raise DegenerateTrimError(f"trimming share must be in [0, 1), got {self.q}")
        if self.side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {self.side!r}")


@dataclass(frozen=True)
class TrimmedMeanResult:
    """Fractionally trimmed mean plus boundary diagnostics.

    kept_mass is (1-q)*m. boundary_deficit is the extra mass the hard
    indicator at the cutoff carries beyond kept_mass (in [0, ties)).
    """

    mean: float
    cutoff: float
    kept_mass: float
    boundary_deficit: float
    ties_at_cutoff: int
    n_values: int


def trimmed_mean(values, spec: TrimSpec) -> TrimmedMeanResult:
    """Mean of the retained (1-q) mass after trimming one tail.

    Units strictly inside the retained region count fully; units tied at the
    boundary order statistic share the remaining fractional mass equally;
    everything beyond is dropped. Raises DegenerateTrimError if less than one
    unit of mass would remain.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        y = y.ravel()
    m = y.size
    if m == 0:
        raise DegenerateTrimError("no values to trim")
    k = (1.0 - spec.q) * m
    if k < 1.0:
        raise _degenerate_trim(spec.q, k, m)
    return _trim_sorted(np.sort(y), k, spec.side)


def _trim_both_tails(values, q: float, keeps_unit: bool):
    """Upper- and lower-trimmed means of values at trimming share q.

    The kept mass (1-q)*m rounds to just below one unit where exactly one
    unit is kept, so the caller tests it in exact arithmetic (keeps_unit)
    and the float mass is raised to at least one.
    """
    m = values.size
    k = (1.0 - q) * m
    if not keeps_unit:
        raise _degenerate_trim(q, k, m)
    ys = np.sort(values)
    k = max(k, 1.0)
    return _trim_sorted(ys, k, "upper"), _trim_sorted(ys, k, "lower")


def _degenerate_trim(q: float, k: float, m: int) -> DegenerateTrimError:
    return DegenerateTrimError(
        f"trimming share {q} retains mass {k:.6g} < 1 of {m} values"
    )


def _trim_sorted(ys: np.ndarray, k: float, side: str) -> TrimmedMeanResult:
    """trimmed_mean on ascending values ys, keeping mass k in [1, m]."""
    m = ys.size
    boundary_rank = math.ceil(k)
    if side == "upper":
        cutoff = ys[boundary_rank - 1]
        inside = int(ys.searchsorted(cutoff, side="left"))
        ties = int(ys.searchsorted(cutoff, side="right")) - inside
        total = float(ys[:inside].sum()) + (k - inside) * cutoff
    else:
        cutoff = ys[m - boundary_rank]
        beyond = int(ys.searchsorted(cutoff, side="right"))
        inside = m - beyond
        ties = beyond - int(ys.searchsorted(cutoff, side="left"))
        total = float(ys[m - inside :].sum()) + (k - inside) * cutoff
    if k == m:
        # Nothing is trimmed, so both sides retain the whole sample; one
        # summation order keeps the two means bit-identical.
        total = float(ys.sum())
    return TrimmedMeanResult(
        mean=float(total / k),
        cutoff=float(cutoff),
        kept_mass=float(k),
        boundary_deficit=float(inside + ties - k),
        ties_at_cutoff=ties,
        n_values=m,
    )


@dataclass(frozen=True)
class TrimmingShare:
    """Trimming share with its raw (pre-clamp) value and the arm rates."""

    q: float
    q_raw: float
    clamped: bool
    rate_treated: float
    rate_control: float


def trimming_share_pooled(data: Dataset) -> TrimmingShare:
    """Pooled share: 1 - (observed-control rate)/(observed-treated rate).

    Negative raw values (an in-sample monotonicity violation) are clamped to
    zero with the clamped flag set.
    """
    d = data.d
    s = data.s
    n1 = int(d.sum())
    n0 = data.n - n1
    n1s = int((d * s).sum())
    n0s = int(((1 - d) * s).sum())
    if n1s == 0:
        raise UndefinedTrimmingError("no observed treated outcomes")
    if n0s == 0:
        raise UndefinedTrimmingError("no observed control outcomes")
    # the rate ratio is a ratio of integer cross-products; dividing the
    # exact integer products gives a correctly rounded result
    q_raw = 1.0 - (n0s * n1) / (n1s * n0)
    clamped = q_raw < 0.0
    return TrimmingShare(
        q=max(q_raw, 0.0),
        q_raw=q_raw,
        clamped=clamped,
        rate_treated=n1s / n1,
        rate_control=n0s / n0,
    )


@dataclass(frozen=True)
class UsageCounts:
    treated: int
    control: int
    treated_observed: int
    control_observed: int


@dataclass(frozen=True)
class BoundsEstimate:
    """Lower/upper bound estimates for the always-observed effect.

    delta_lb and delta_ub are exactly mu1_lb - mu0 and mu1_ub - mu0. n_used
    counts the observed outcomes entering the estimate; counts carries the
    full arm breakdown. flags mark clamping and similar conditions; warnings
    are advisory (e.g. heterogeneous treated shares under the pooled method).
    """

    method: str
    delta_lb: float
    delta_ub: float
    mu0: float
    mu1_lb: float
    mu1_ub: float
    q: float
    cutoff_lb: float
    cutoff_ub: float
    n_used: int
    counts: UsageCounts
    flags: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    detail: tuple = ()


def _usage_counts(data: Dataset) -> UsageCounts:
    d, s = data.d, data.s
    n1 = int(d.sum())
    return UsageCounts(
        treated=n1,
        control=data.n - n1,
        treated_observed=int((d * s).sum()),
        control_observed=int(((1 - d) * s).sum()),
    )


def _heterogeneous_shares(design: BlockDesign) -> bool:
    """Exact check (integer cross-products) that treated shares differ."""
    t_g, n_g = design.t_g, design.n_g
    return bool(np.any(t_g * n_g[0] != t_g[0] * n_g))


def lee_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Pooled trimming bounds.

    Valid as-is under a constant treated share across blocks; with
    heterogeneous shares the estimate is still computed but carries a
    warning (the weighted variant removes the imbalance).
    """
    share = trimming_share_pooled(data)
    counts = _usage_counts(data)
    obs_treated = (data.d == 1) & (data.s == 1)
    obs_control = (data.d == 0) & (data.s == 1)
    y1 = data.y[obs_treated]
    y0 = data.y[obs_control]
    mu0 = float(y0.mean())
    # the kept mass is exactly n0s n1 / n0
    keeps_unit = share.clamped or (
        counts.control_observed * counts.treated >= counts.control
    )
    lb, ub = _trim_both_tails(y1, share.q, keeps_unit)

    flags = ("trimming_share_clamped",) if share.clamped else ()
    warnings = ()
    if _heterogeneous_shares(design):
        warnings = (
            "heterogeneous_treated_shares: pooled trimming is biased for the "
            "always-observed effect; consider the weighted estimator",
        )
    return BoundsEstimate(
        method=METHOD_LEE,
        delta_lb=lb.mean - mu0,
        delta_ub=ub.mean - mu0,
        mu0=mu0,
        mu1_lb=lb.mean,
        mu1_ub=ub.mean,
        q=share.q,
        cutoff_lb=lb.cutoff,
        cutoff_ub=ub.cutoff,
        n_used=counts.treated_observed + counts.control_observed,
        counts=counts,
        flags=flags,
        warnings=warnings,
    )


@dataclass(frozen=True)
class StratumBound:
    """Per-stratum cell of the conditional estimator."""

    label: str
    n_g: int
    tau: float
    clamped: bool
    mu0: float
    mu1_lb: float
    mu1_ub: float
    used: bool
    reason: str = ""


def conditional_lee_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Per-stratum trimming bounds aggregated with block-size weights.

    Each stratum gets its own trimming share from its own observed-selection
    rates. Strata whose cells are undefined (an arm with no observed
    outcome, or a trim that keeps less than one unit of treated mass) are
    dropped from the aggregate and listed in the warnings; if every stratum
    fails, estimation fails.
    """
    # one stable sort puts each block's observed treated outcomes, then its
    # observed control outcomes, then its unobserved rows, in contiguous
    # runs that keep dataset order
    cell = np.where(data.s == 1, 1 - data.d, 2)
    key = design.codes * 3 + cell
    y = data.y[np.argsort(key, kind="stable")]
    edges = np.concatenate(
        ([0], np.cumsum(np.bincount(key, minlength=3 * design.n_blocks)))
    ).tolist()
    strata: list[StratumBound] = []
    clamp_count = 0
    blocks = zip(design.labels, design.n_g.tolist(), design.t_g.tolist())
    for g, (label, n_g, t_g) in enumerate(blocks):
        start, mid, stop = edges[3 * g : 3 * g + 3]
        n1s = mid - start
        n0s = stop - mid
        if n1s == 0 or n0s == 0:
            strata.append(
                StratumBound(
                    label=label, n_g=n_g, tau=float("nan"), clamped=False,
                    mu0=float("nan"), mu1_lb=float("nan"), mu1_ub=float("nan"),
                    used=False, reason="no observed outcomes in one arm",
                )
            )
            continue
        tau_raw = 1.0 - (n0s * t_g) / (n1s * (n_g - t_g))
        clamped = tau_raw < 0.0
        tau = max(tau_raw, 0.0)
        # the kept mass is exactly min(n0s t_g / (n_g - t_g), n1s)
        try:
            lb, ub = _trim_both_tails(
                y[start:mid], tau, clamped or n0s * t_g >= n_g - t_g
            )
        except DegenerateTrimError as exc:
            strata.append(
                StratumBound(
                    label=label, n_g=n_g, tau=tau, clamped=clamped,
                    mu0=float("nan"), mu1_lb=float("nan"), mu1_ub=float("nan"),
                    used=False, reason=str(exc),
                )
            )
            continue
        mu0_g = float(y[mid:stop].sum()) / n0s  # .mean(), bit for bit
        clamp_count += int(clamped)
        strata.append(
            StratumBound(
                label=label, n_g=n_g, tau=tau, clamped=clamped,
                mu0=mu0_g, mu1_lb=lb.mean, mu1_ub=ub.mean, used=True,
            )
        )

    used = [st for st in strata if st.used]
    if not used:
        raise EstimationError(
            "conditional bounds undefined in every stratum: "
            + "; ".join(f"{st.label}: {st.reason}" for st in strata)
        )
    weight = float(sum(st.n_g for st in used))
    mu0 = sum(st.n_g * st.mu0 for st in used) / weight
    mu1_lb = sum(st.n_g * st.mu1_lb for st in used) / weight
    mu1_ub = sum(st.n_g * st.mu1_ub for st in used) / weight
    q_agg = sum(st.n_g * st.tau for st in used) / weight

    flags = []
    if clamp_count:
        flags.append(f"stratum_trimming_clamped:{clamp_count}")
    warnings = []
    dropped = [st for st in strata if not st.used]
    if dropped:
        flags.append(f"strata_dropped:{len(dropped)}")
        warnings.append(
            "dropped strata: "
            + "; ".join(f"{st.label} ({st.reason})" for st in dropped)
        )
    counts = _usage_counts(data)
    return BoundsEstimate(
        method=METHOD_CONDITIONAL,
        delta_lb=mu1_lb - mu0,
        delta_ub=mu1_ub - mu0,
        mu0=mu0,
        mu1_lb=mu1_lb,
        mu1_ub=mu1_ub,
        q=q_agg,
        cutoff_lb=float("nan"),
        cutoff_ub=float("nan"),
        n_used=counts.treated_observed + counts.control_observed,
        counts=counts,
        flags=tuple(flags),
        warnings=tuple(warnings),
        detail=tuple(strata),
    )
