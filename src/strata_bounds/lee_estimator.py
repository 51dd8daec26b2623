"""Trimming bounds for the always-observed treatment effect.

The pooled estimator compares the observed-control mean with trimmed means of
the observed-treated outcomes, where the trimming share is one minus the
ratio of observed-selection rates; the weighted estimator trims reweighted
outcomes the same way. The per-stratum estimator trims inside each block and
weights blocks by size. All of them trim through one kernel, _trim_segments:
values sorted by (segment, value), each segment trimmed in both tails to a
kept mass formed exactly from the block counts and rounded once. The pooled
estimators and trimmed_mean pass one segment, the per-stratum estimator one
per used block. Trimming is fractional: the boundary order statistic
receives partial weight so the retained mass is exact, and tied boundary
values share that partial weight equally.
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
    side = 0 if spec.side == "upper" else 1  # "upper" keeps the bottom mass
    trim = _trim_segments(np.sort(y), np.array([0]), np.array([m]), np.array([k]))
    mean, cutoff, ties, deficit = (part[side, 0].item() for part in trim)
    return TrimmedMeanResult(mean, cutoff, float(k), deficit, ties, m)


def _degenerate_trim(q: float, k: float, m: int) -> DegenerateTrimError:
    return DegenerateTrimError(
        f"trimming share {q} retains mass {k:.6g} < 1 of {m} values"
    )


def _segment_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of values[lo[i]:hi[i]] for each i; an empty segment sums to 0.

    Each segment is summed on its own, so no sum cancels against another.
    """
    padded = np.append(values, 0.0)  # a segment may end at values.size
    sums = np.add.reduceat(padded, np.column_stack((lo, hi)).ravel())[::2]
    sums[lo == hi] = 0.0
    return sums


def _trim_segments(ys, lo, hi, kept) -> tuple[np.ndarray, ...]:
    """Fractionally trimmed means of the segments ys[lo[i]:hi[i]], each
    trimmed in either tail to keep mass k = min(kept[i], m) of its m values.

    ys is sorted by (segment, value); each segment holds a value and
    kept >= 1, rounded once by the caller, so a whole-number mass takes its
    exact rank. The cutoff is the value at rank ceil(k) from the kept end;
    the values before its run of ties count fully and the run shares the
    mass left. Where nothing is trimmed, k = m, one sum serves both sides,
    so their means are bit-identical. Returns the means, the cutoffs, the
    ties at each cutoff and the boundary deficits (the mass the whole run
    adds beyond k), each (2, segments): row 0 keeps the bottom mass, which
    gives the lower bound, and row 1 the top mass.
    """
    m = hi - lo
    k = np.minimum(kept, m)
    rank = np.ceil(k).astype(np.int64)
    # a run of ties starts where the value changes and at each segment bound
    starts = np.ones(ys.size + 1, dtype=bool)
    starts[1:-1] = ys[1:] != ys[:-1]
    starts[lo] = starts[hi] = True
    starts = np.flatnonzero(starts)
    cut = np.stack((lo + rank - 1, hi - rank))
    at = starts.searchsorted(cut, side="right")
    first, end = starts[at - 1], starts[at]  # the run of the cutoff
    inside = np.stack((first[0] - lo, hi - end[1]))
    sums = _segment_sums(
        ys, np.concatenate((lo, end[1], lo)), np.concatenate((first[0], hi, hi))
    ).reshape(3, -1)
    cutoff = ys[cut]
    total = sums[:2] + (k - inside) * cutoff
    whole = k == m
    total[:, whole] = sums[2, whole]
    ties = end - first
    return total / k, cutoff, ties, inside + ties - k


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

    def __post_init__(self):
        # Python floats overflow to inf, and inf - inf is nan, without raising
        for name in ("delta_lb", "delta_ub", "mu0", "mu1_lb", "mu1_ub"):
            if not math.isfinite(value := getattr(self, name)):
                raise EstimationError(
                    f"values out of floating-point range ({name} is {value})"
                )


def _heterogeneous_shares(design: BlockDesign) -> bool:
    """Exact check (integer cross-products) that treated shares differ."""
    t_g, n_g = design.t_g, design.n_g
    return bool(np.any(t_g * n_g[0] != t_g[0] * n_g))


def _pooled_bounds(method, design, share, values, mu0, warnings=()) -> BoundsEstimate:
    """Bounds of a pooled estimator (lee, lee_ipw): its trimming sample,
    values, trimmed in either tail to the share's exact kept mass, rounded
    once, against its control mean mu0."""
    if not (share.clamped or share.kept >= 1):
        raise _degenerate_trim(share.q, float(share.kept), values.size)
    means, cutoffs, _, _ = _trim_segments(
        np.sort(values), np.array([0]), np.array([values.size]),
        np.array([float(share.kept)]),
    )
    (mu1_lb,), (mu1_ub,) = means.tolist()
    (cutoff_lb,), (cutoff_ub,) = cutoffs.tolist()
    return BoundsEstimate(
        method=method,
        delta_lb=mu1_lb - mu0,
        delta_ub=mu1_ub - mu0,
        mu0=mu0,
        mu1_lb=mu1_lb,
        mu1_ub=mu1_ub,
        q=share.q,
        cutoff_lb=cutoff_lb,
        cutoff_ub=cutoff_ub,
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


def conditional_lee_bounds(data: Dataset, design: BlockDesign) -> BoundsEstimate:
    """Per-stratum trimming bounds aggregated with block-size weights.

    Each stratum gets its own trimming share from its own observed-selection
    rates. Strata whose cells are undefined (an arm with no observed
    outcome, or a trim that keeps less than one unit of treated mass) are
    dropped from the aggregate and named in the warnings, the first
    LABELS_IN_MESSAGE of them with their reasons; if every stratum fails,
    estimation fails. All strata are trimmed in one _trim_segments call,
    after one sort of the observed treated outcomes by (block, value), one
    segment per used stratum; controls are summed in dataset order.
    """
    observed = data.s == 1
    at = np.flatnonzero(observed & (data.d == 1))
    codes1, y1 = design.codes[at], data.y[at]
    # one sort by (block, value), on the key codes1 * m + the value's rank,
    # which is unique and below n^2 < 2^63
    rank = np.empty(at.size, dtype=np.int64)
    rank[np.argsort(y1)] = np.arange(at.size)
    order = np.argsort(codes1 * at.size + rank)
    y1 = y1[order]
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
    hi = np.cumsum(n1s)[g]
    # the kept mass n0s t_g / c_g, rounded once by the division
    means, _, _, _ = _trim_segments(y1, hi - n1s[g], hi, (n0s[g] * t_g[g]) / c_g[g])
    hi0 = np.cumsum(n0s)[g]
    mu0_g, mu1_lb_g, mu1_ub_g = np.full((3, design.n_blocks), np.nan)
    mu0_g[g] = _segment_sums(y0, hi0 - n0s[g], hi0) / n0s[g]
    mu1_lb_g[g], mu1_ub_g[g] = means

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
