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

from .data_model import LABELS_IN_MESSAGE, BlockDesign, Dataset
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
class BoundsEstimate:
    """Lower/upper bound estimates for the always-observed effect.

    delta_lb and delta_ub are exactly mu1_lb - mu0 and mu1_ub - mu0. n_used
    counts the observed outcomes entering the estimate. flags mark clamping
    (trimming_share_clamped for the pooled and weighted estimators) and
    similar conditions; warnings are advisory (e.g. heterogeneous treated
    shares under the pooled method). detail holds the per-stratum cells of
    the conditional method, else None.
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
    flags: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    detail: StrataDetail | None = None


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
    obs_treated = (data.d == 1) & (data.s == 1)
    obs_control = (data.d == 0) & (data.s == 1)
    y1 = data.y[obs_treated]
    y0 = data.y[obs_control]
    mu0 = float(y0.mean())
    # the kept mass is exactly n0s n1 / n0
    n1 = int(design.t_g.sum())
    keeps_unit = share.clamped or y0.size * n1 >= data.n - n1
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
        n_used=int(data.s.sum()),
        flags=flags,
        warnings=warnings,
    )


@dataclass(frozen=True, eq=False)
class StrataDetail:
    """Per-block cells of the conditional estimator, in design.labels order.

    tau is the stratum's trimming share, nan where an arm has no observed
    outcome; clamped marks a negative raw share set to zero; mu0, mu1_lb and
    mu1_ub are the observed-control mean and the two trimmed treated means,
    nan where the stratum is unused; used marks the strata in the aggregate.
    Every field is a read-only array.
    """

    tau: np.ndarray
    clamped: np.ndarray
    mu0: np.ndarray
    mu1_lb: np.ndarray
    mu1_ub: np.ndarray
    used: np.ndarray

    def __post_init__(self):
        for name in ("tau", "clamped", "mu0", "mu1_lb", "mu1_ub", "used"):
            getattr(self, name).setflags(write=False)


def _segment_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of values[lo[i]:hi[i]] for each i; an empty segment sums to 0.

    Each segment is summed on its own, so no sum cancels against another.
    """
    padded = np.append(values, 0.0)  # a segment may end at values.size
    sums = np.add.reduceat(padded, np.column_stack((lo, hi)).ravel())[::2]
    sums[lo == hi] = 0.0
    return sums


def _tie_runs(y: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of the run of equal (key, y) that holds each
    position of the sorted arrays."""
    n = y.size
    idx = np.arange(n)
    tied = (key[1:] == key[:-1]) & (y[1:] == y[:-1])  # position i+1 ties i
    first = np.maximum.accumulate(np.where(np.append(False, tied), 0, idx))
    last = np.minimum.accumulate(np.where(np.append(tied, False), n, idx)[::-1])
    return first, last[::-1]


def conditional_lee_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Per-stratum trimming bounds aggregated with block-size weights.

    Each stratum gets its own trimming share from its own observed-selection
    rates. Strata whose cells are undefined (an arm with no observed
    outcome, or a trim that keeps less than one unit of treated mass) are
    dropped from the aggregate and named in the warnings, the first
    LABELS_IN_MESSAGE of them with their reasons; if every stratum fails,
    estimation fails. All strata are trimmed at once, with the
    fractional boundary mass of trimmed_mean.
    """
    # one sort puts each block's observed treated outcomes in ascending
    # order, then its observed control outcomes in dataset order, then its
    # unobserved rows, in contiguous runs
    cell = np.where(data.s == 1, 1 - data.d, 2)
    key = design.codes * 3 + cell
    order = np.lexsort((np.where(cell == 0, data.y, 0.0), key))
    y, key = data.y[order], key[order]
    sizes = np.bincount(key, minlength=3 * design.n_blocks)
    starts = (np.cumsum(sizes) - sizes).reshape(-1, 3)
    n1s, n0s = design.n1s_g, design.n0s_g
    t_g, c_g = design.t_g, design.n_g - design.t_g

    defined = (n1s > 0) & (n0s > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = 1.0 - (n0s * t_g) / (n1s * c_g)
    tau[~defined] = np.nan
    clamped = tau < 0.0
    tau = np.maximum(tau, 0.0)
    # the kept mass is exactly min(n0s t_g / c_g, n1s)
    used = defined & (clamped | (n0s * t_g >= c_g))

    g = np.flatnonzero(used)
    dropped = np.flatnonzero(~used)
    if not g.size:
        raise EstimationError(
            "conditional bounds undefined in every stratum: "
            + _name_dropped(design, n1s, tau, dropped, "{}: {}")
        )
    m = n1s[g]
    # (1 - tau) m rounds to just below one unit where exactly one unit is kept
    k = np.maximum((1.0 - tau[g]) * m, 1.0)
    rank = np.ceil(k).astype(np.int64)  # rank of the boundary value
    lo, hi = starts[g, 0], starts[g, 0] + m
    run_first, run_last = _tie_runs(y, key)
    # lower bound: keep the bottom mass k; the values below the cutoff count
    # fully and its tied run shares what is left
    cut_lb = lo + rank - 1
    inside_lb = run_first[cut_lb]
    # upper bound: keep the top mass k
    cut_ub = hi - rank
    inside_ub = run_last[cut_ub] + 1
    lo0 = starts[g, 1]
    sums = _segment_sums(
        y,
        np.concatenate((lo, inside_ub, lo, lo0)),
        np.concatenate((inside_lb, hi, hi, lo0 + n0s[g])),
    ).reshape(4, -1)
    total_lb = sums[0] + (k - (inside_lb - lo)) * y[cut_lb]
    total_ub = sums[1] + (k - (hi - inside_ub)) * y[cut_ub]
    # nothing trimmed: both sides keep the whole sample, summed once
    whole = k == m
    total_lb[whole] = total_ub[whole] = sums[2][whole]

    mu0_g = np.full(design.n_blocks, np.nan)
    mu1_lb_g = np.full(design.n_blocks, np.nan)
    mu1_ub_g = np.full(design.n_blocks, np.nan)
    mu0_g[g] = sums[3] / n0s[g]
    mu1_lb_g[g] = total_lb / k
    mu1_ub_g[g] = total_ub / k

    # block-size weights; np.cumsum adds left to right
    w = design.n_g[g]
    weight = float(w.sum())
    mu0, mu1_lb, mu1_ub, q_agg = (
        float(np.cumsum(w * col[g])[-1]) / weight
        for col in (mu0_g, mu1_lb_g, mu1_ub_g, tau)
    )

    flags = []
    clamp_count = int(clamped.sum())
    if clamp_count:
        flags.append(f"stratum_trimming_clamped:{clamp_count}")
    warnings = []
    if dropped.size:
        flags.append(f"strata_dropped:{dropped.size}")
        warnings.append(
            "dropped strata: "
            + _name_dropped(design, n1s, tau, dropped, "{} ({})")
        )
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
        n_used=int(data.s.sum()),
        flags=tuple(flags),
        warnings=tuple(warnings),
        detail=StrataDetail(
            tau=tau, clamped=clamped, mu0=mu0_g, mu1_lb=mu1_lb_g,
            mu1_ub=mu1_ub_g, used=used,
        ),
    )


def _name_dropped(design, n1s, tau, dropped, form: str) -> str:
    """The dropped strata for a message, each as form.format(label, reason),
    joined by "; ". Up to LABELS_IN_MESSAGE are listed in full; a longer
    list is cut to its count and first few, "2968 blocks: a (...); ...".
    """
    shown = []
    for g in dropped[:LABELS_IN_MESSAGE].tolist():
        q = float(tau[g])
        if math.isnan(q):
            reason = "no observed outcomes in one arm"
        else:
            m = int(n1s[g])
            reason = str(_degenerate_trim(q, (1.0 - q) * m, m))
        shown.append(form.format(design.labels[g], reason))
    if dropped.size <= LABELS_IN_MESSAGE:
        return "; ".join(shown)
    return f"{dropped.size} blocks: {'; '.join(shown)}; ..."
