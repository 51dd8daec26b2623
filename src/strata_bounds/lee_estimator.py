"""Trimming bounds for the always-observed treatment effect.

The pooled estimator compares the observed-control mean with trimmed means of
the observed-treated outcomes, where the trimming share is one minus the
ratio of observed-selection rates; it and the weighted estimator trim through
one path, to a kept mass formed exactly from the block counts. Trimming is
fractional: the boundary order statistic receives partial weight so the
retained mass is exact, and tied boundary values share that partial weight
equally. The per-stratum variant applies the same construction inside each
block, sorting only observed treated outcomes, and weights blocks by size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    y = np.asarray(values, dtype=float).ravel()
    m = y.size
    if m == 0:
        raise DegenerateTrimError("no values to trim")
    k = (1.0 - spec.q) * m
    if k < 1.0:
        raise _degenerate_trim(spec.q, k, m)
    return _trim_sorted(np.sort(y), k, spec.side)


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
    """Trimming share with its raw (pre-clamp) value, the arm rates and the
    exact kept treated mass (before the clamp)."""

    q: float
    q_raw: float
    clamped: bool
    rate_treated: float
    rate_control: float
    kept: Fraction


def _trimming_share(design: BlockDesign, kept: Fraction) -> TrimmingShare:
    """The share that keeps treated mass kept of the n1s observed treated
    outcomes: q_raw = 1 - kept/n1s, rounded once from the exact ratio.

    Negative raw values (an in-sample monotonicity violation) are clamped to
    zero with the clamped flag set.
    """
    n1s = int(design.n1s_g.sum())
    if n1s == 0:
        raise UndefinedTrimmingError("no observed treated outcomes")
    n1 = int(design.t_g.sum())
    q_raw = 1.0 - float(kept / n1s)
    return TrimmingShare(
        q=max(q_raw, 0.0),
        q_raw=q_raw,
        clamped=q_raw < 0.0,
        rate_treated=n1s / n1,
        rate_control=int(design.n0s_g.sum()) / (int(design.n_g.sum()) - n1),
        kept=kept,
    )


def trimming_share_pooled(design: BlockDesign) -> TrimmingShare:
    """Pooled share: 1 - (observed-control rate)/(observed-treated rate),
    which keeps treated mass n0s n1 / n0."""
    n1, n0s = int(design.t_g.sum()), int(design.n0s_g.sum())
    share = _trimming_share(design, Fraction(n0s * n1, int(design.n_g.sum()) - n1))
    if n0s == 0:  # checked second: a missing treated arm is named first
        raise UndefinedTrimmingError("no observed control outcomes")
    return share


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


def _pooled_bounds(method, design, share, values, mu0, warnings=()) -> BoundsEstimate:
    """Bounds of a pooled estimator (lee, lee_ipw): its trimming sample,
    values, trimmed in either tail to the share's kept mass, against its
    control mean mu0.

    The exact kept mass is rounded once, so a whole-number mass stays whole
    and the cutoff takes its exact rank; a clamped share keeps every value.
    """
    if not (share.clamped or share.kept >= 1):
        raise _degenerate_trim(share.q, float(share.kept), values.size)
    k = float(values.size if share.clamped else share.kept)
    ys = np.sort(values)
    lb, ub = (_trim_sorted(ys, k, side) for side in ("upper", "lower"))
    return BoundsEstimate(
        method=method,
        delta_lb=lb.mean - mu0,
        delta_ub=ub.mean - mu0,
        mu0=mu0,
        mu1_lb=lb.mean,
        mu1_ub=ub.mean,
        q=share.q,
        cutoff_lb=lb.cutoff,
        cutoff_ub=ub.cutoff,
        n_used=int(design.n1s_g.sum() + design.n0s_g.sum()),
        flags=("trimming_share_clamped",) if share.clamped else (),
        warnings=warnings,
    )


def lee_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Pooled trimming bounds.

    Valid as-is under a constant treated share across blocks; with
    heterogeneous shares the estimate is still computed but carries a
    warning (the weighted variant removes the imbalance).
    """
    share = trimming_share_pooled(design)
    observed = data.s == 1
    mu0 = float(data.y[observed & (data.d == 0)].mean())
    warnings = ()
    if _heterogeneous_shares(design):
        warnings = (
            "heterogeneous_treated_shares: pooled trimming is biased for the "
            "always-observed effect; consider the weighted estimator",
        )
    return _pooled_bounds(
        METHOD_LEE, design, share, data.y[observed & (data.d == 1)], mu0, warnings
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
    fractional boundary mass of trimmed_mean, after one sort of the observed
    treated outcomes by (block, value); controls are summed in dataset order.
    """
    observed = data.s == 1
    at = np.flatnonzero(observed & (data.d == 1))
    codes1, y1 = design.codes[at], data.y[at]
    # one sort by (block, value), on the key codes1 * m + the value's rank,
    # which is unique and below n^2 < 2^63
    rank = np.empty(at.size, dtype=np.int64)
    rank[np.argsort(y1)] = np.arange(at.size)
    order = np.argsort(codes1 * at.size + rank)
    y1, codes1 = y1[order], codes1[order]
    at = np.flatnonzero(observed & (data.d == 0))
    y0 = data.y[at[np.argsort(design.codes[at], kind="stable")]]
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
    # the kept mass n0s t_g / c_g, rounded once by the integer division, or
    # every value where the stratum is clamped
    k = np.where(clamped[g], m, (n0s[g] * t_g[g]) / c_g[g])
    rank = np.ceil(k).astype(np.int64)  # rank of the boundary value
    hi = np.cumsum(n1s)[g]
    lo = hi - m
    run_first, run_last = _tie_runs(y1, codes1)
    # lower bound: keep the bottom mass k; the values below the cutoff count
    # fully and its tied run shares what is left
    cut_lb = lo + rank - 1
    inside_lb = run_first[cut_lb]
    # upper bound: keep the top mass k
    cut_ub = hi - rank
    inside_ub = run_last[cut_ub] + 1
    hi0 = y1.size + np.cumsum(n0s)[g]
    sums = _segment_sums(
        np.concatenate((y1, y0)),
        np.concatenate((lo, inside_ub, lo, hi0 - n0s[g])),
        np.concatenate((inside_lb, hi, hi, hi0)),
    ).reshape(4, -1)
    total_lb = sums[0] + (k - (inside_lb - lo)) * y1[cut_lb]
    total_ub = sums[1] + (k - (hi - inside_ub)) * y1[cut_ub]
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
