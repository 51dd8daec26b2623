"""Independent reference implementations used to check the package.

Everything here is deliberately written by a different route than the library
code: position-weight trimming instead of tie-group weighting, per-display
spreadsheet evaluation instead of shared helpers, brute-force enumeration of
treatment assignments, and closed-form truncated-normal calculus for the
population Jacobians. Tests compare library output against these.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, stats
from scipy.optimize import brentq


# ---------------------------------------------------------------------------
# CSV input, read whole
# ---------------------------------------------------------------------------

class OracleParseError(Exception):
    """The message parse_csv's ParseError should carry for the same text."""


def oracle_parse_csv(text):
    """Read CSV text the plain way: csv.reader over all of it, then each row
    in turn, with no chunks and no fast path.

    Returns (y, s, d, blocks, x) as lists, one entry per data row kept, with
    y nan where s = 0 and x a list of covariate rows; raises
    OracleParseError with the message parse_csv gives. Rows count records
    and lines count lines, from 1; a csv.Error or a lone surrogate (a byte
    that was not UTF-8, kept by errors="surrogateescape") names its line.
    Meant for text with at most one fault: parse_csv reads in chunks, so
    which of two faults it reports first can depend on the chunk size.
    """
    text = text.removeprefix("\ufeff")
    lines = io.StringIO(text, newline="").readlines()
    for number, line in enumerate(lines, start=1):
        if any(0xD800 <= ord(ch) <= 0xDFFF for ch in line):
            raise OracleParseError(f"line {number}: input is not valid UTF-8")
    reader = csv.reader(lines)
    try:
        records = list(reader)
    except csv.Error as exc:
        raise OracleParseError(f"line {reader.line_num}: {exc}") from None
    if not records:
        raise OracleParseError("empty file: no header row")
    header = [name.strip() for name in records[0]]
    missing = [c for c in ("y", "s", "d", "block") if c not in header]
    if missing:
        raise OracleParseError(f"missing required columns: {', '.join(missing)}")
    if len(set(header)) != len(header):
        raise OracleParseError("duplicate column names in header")
    extras = sorted(c for c in header if c not in ("y", "s", "d", "block"))
    k = len(extras)
    if extras != sorted(f"x{j}" for j in range(1, k + 1)):
        raise OracleParseError(
            "covariate columns must be named x1..xk with no gaps; "
            f"got {', '.join(extras)}"
        )

    def fail(row, what):
        raise OracleParseError(f"row {row}: {what}")

    def number(raw, row, name, show):
        try:
            value = float(raw)
        except ValueError:
            fail(row, f"{name} must be numeric, got {raw!r}")
        if not math.isfinite(value):
            fail(row, f"{name} must be finite" + (f", got {raw!r}" if show else ""))
        return value

    ys, ss, ds, blocks, xs = [], [], [], [], []
    for row, record in enumerate(records[1:], start=1):
        if not any(raw.strip() for raw in record):
            continue
        cell = {name: raw.strip() for name, raw in zip(header, record)}
        if len(record) != len(header):
            fail(row, f"expected {len(header)} cells, got {len(record)}")
        for name in ("s", "d"):
            if cell[name] not in ("0", "1"):
                fail(row, f"{name} must be 0 or 1, got {cell[name]!r}")
        missing_y = cell["y"].upper() in ("", "NA")
        if cell["s"] == "1" and missing_y:
            fail(row, "y is missing but s = 1")
        if cell["s"] == "0" and not missing_y:
            fail(row, "y is present but s = 0")
        y = math.nan if missing_y else number(cell["y"], row, "y", True)
        if not cell["block"]:
            fail(row, "block label is empty")
        xs.append([number(cell[f"x{j}"], row, f"x{j}", False) for j in range(1, k + 1)])
        ys.append(y)
        ss.append(int(cell["s"]))
        ds.append(int(cell["d"]))
        blocks.append(cell["block"])
    if not ys:
        raise OracleParseError("no data rows")
    return ys, ss, ds, blocks, xs


# ---------------------------------------------------------------------------
# trimming
# ---------------------------------------------------------------------------

def oracle_trimmed_mean(values, q, side):
    """Mean of the (1-q) mass kept after trimming one tail, fractionally.

    Returns (mean, cutoff); see oracle_kept_mean.
    """
    return oracle_kept_mean(values, (1.0 - float(q)) * len(values), side)


def oracle_kept_mean(values, k, side):
    """Mean of the kept mass k after trimming one tail, fractionally.

    Position-weight construction: after sorting so the kept tail comes first,
    unit at 0-based position j carries weight clip(k - j, 0, 1). Equivalent
    to splitting the boundary weight across ties because tied units share a
    value. Returns (mean, cutoff).
    """
    y = np.sort(np.asarray(values, dtype=float))
    if side == "lower":
        y = y[::-1]
    elif side != "upper":
        raise ValueError(f"unknown side {side!r}")
    m = y.size
    if k < 1.0:
        raise ValueError("degenerate trim: retained mass below one unit")
    w = np.clip(k - np.arange(m, dtype=float), 0.0, 1.0)
    cutoff = y[math.ceil(k) - 1]
    return float(np.dot(w, y) / k), float(cutoff)


# ---------------------------------------------------------------------------
# pooled trimming-bounds arithmetic, straight from the definitions
# ---------------------------------------------------------------------------

def oracle_lee(y, s, d):
    """Pooled bounds: (q, mu0, mu1_lb, mu1_ub, cut_lb, cut_ub, clamped)."""
    y = np.asarray(y, dtype=float)
    s = np.asarray(s)
    d = np.asarray(d)
    rate1 = s[d == 1].mean()
    rate0 = s[d == 0].mean()
    q_raw = 1.0 - rate0 / rate1
    clamped = q_raw < 0.0
    q = max(q_raw, 0.0)
    y1 = y[(d == 1) & (s == 1)]
    y0 = y[(d == 0) & (s == 1)]
    mu0 = float(y0.mean())
    # exact kept mass: min(rate ratio, 1) times the observed treated
    ratio = Fraction(y0.size * int(d.sum()), y1.size * int((d == 0).sum()))
    keep = float(min(ratio, 1) * y1.size)
    mu1_lb, cut_lb = oracle_kept_mean(y1, keep, "upper")
    mu1_ub, cut_ub = oracle_kept_mean(y1, keep, "lower")
    return q, mu0, mu1_lb, mu1_ub, cut_lb, cut_ub, clamped


def oracle_conditional_lee(y, s, d, block):
    """Size-weighted aggregate of per-stratum trimming bounds.

    Strata whose cells are undefined (an arm with no observed outcome, or a
    degenerate trim) are dropped. Returns (lb, ub, used_labels).
    """
    y = np.asarray(y, dtype=float)
    s = np.asarray(s)
    d = np.asarray(d)
    block = np.asarray(block)
    labels = sorted(set(block.tolist()), key=str)
    num_lb = num_ub = num0 = den = 0.0
    used = []
    for g in labels:
        idx = block == g
        yg, sg, dg = y[idx], s[idx], d[idx]
        n_g = int(idx.sum())
        if sg[dg == 1].sum() == 0 or sg[dg == 0].sum() == 0:
            continue
        # exact kept mass: min(rate ratio, 1) times the observed treated
        ratio = Fraction(int(sg[dg == 0].sum()) * int(dg.sum()),
                         int(sg[dg == 1].sum()) * int((dg == 0).sum()))
        y1 = yg[(dg == 1) & (sg == 1)]
        keep = min(ratio, 1) * y1.size
        if keep < 1:
            continue
        lb_g, _ = oracle_kept_mean(y1, float(keep), "upper")
        ub_g, _ = oracle_kept_mean(y1, float(keep), "lower")
        mu0_g = yg[(dg == 0) & (sg == 1)].mean()
        num_lb += n_g * lb_g
        num_ub += n_g * ub_g
        num0 += n_g * mu0_g
        den += n_g
        used.append(g)
    if den == 0:
        raise ValueError("no stratum with defined cells")
    return (num_lb - num0) / den, (num_ub - num0) / den, used


def oracle_dgp1_truth():
    """Matched-pairs population bounds by numerical integration.

    The observed treated outcome W = 2X + 2 + noise + Uniform(0, 2) has
    density f(w) = [Phi((w - 2)/sqrt 5) - Phi((w - 4)/sqrt 5)] / 2; the
    bounds are the means of W below its 0.875 quantile and above its 0.125
    quantile, minus the control mean 2. Returns (lb, ub).
    """
    sigma = math.sqrt(5.0)

    def pdf(w):
        return 0.5 * (stats.norm.cdf((w - 2.0) / sigma) - stats.norm.cdf((w - 4.0) / sigma))

    def integral(fun, lo, hi):
        return integrate.quad(fun, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    def quantile(p):
        return brentq(lambda w: integral(pdf, -np.inf, w) - p, -30.0, 40.0, xtol=1e-14)

    keep = 0.875
    lb = integral(lambda w: w * pdf(w), -np.inf, quantile(keep)) / keep
    ub = integral(lambda w: w * pdf(w), quantile(1.0 - keep), np.inf) / keep
    return lb - 2.0, ub - 2.0


# ---------------------------------------------------------------------------
# inverse-probability-weighted route, one display at a time
# ---------------------------------------------------------------------------

def oracle_ipw(y, s, d, block):
    """Evaluate every weighted display directly; returns a dict."""
    y = np.asarray(y, dtype=float)
    s = np.asarray(s).astype(int)
    d = np.asarray(d).astype(int)
    block = np.asarray(block)
    n = y.size
    p = d.sum() / n

    labels = sorted(set(block.tolist()), key=str)
    eta = {}
    m_rate = {}
    for g in labels:
        idx = block == g
        n_g = int(idx.sum())
        t_g = int(d[idx].sum())
        eta[g] = t_g / n_g
        m_rate[g] = float(s[idx & (d == 0)].sum() / (n_g - t_g))
    eta_i = np.array([eta[g] for g in block])
    m_i = np.array([m_rate[g] for g in block])

    w_c = (1.0 - p) / (1.0 - eta_i)
    w_q = eta_i * (1.0 - p) / ((1.0 - eta_i) * p)

    q_raw = 1.0 - (p * np.sum((1 - d) * s * w_q)) / ((1.0 - p) * np.sum(d * s))
    clamped = q_raw < 0.0
    q = max(q_raw, 0.0)

    delta = float(np.sum(d * m_i) / np.sum(m_i))

    tr_obs = (d == 1) & (s == 1)
    y_til = (delta / eta_i[tr_obs]) * y[tr_obs]
    # exact kept mass: sum over blocks of observed controls times
    # t_g / (n_g - t_g), at most the observed treated
    kept = sum(
        Fraction(int(s[(block == g) & (d == 0)].sum()) * int(d[block == g].sum()),
                 int(((block == g) & (d == 0)).sum()))
        for g in labels
    )
    keep = float(min(kept, int(tr_obs.sum())))
    mu1_lb, cut_lb = oracle_kept_mean(y_til, keep, "upper")
    mu1_ub, cut_ub = oracle_kept_mean(y_til, keep, "lower")

    ct_obs = (d == 0) & (s == 1)
    mu0 = float(np.sum(w_c[ct_obs] * y[ct_obs]) / np.sum(w_c[ct_obs]))

    return {
        "p": p,
        "q": q,
        "clamped": clamped,
        "delta": delta,
        "mu0": mu0,
        "mu1_lb": mu1_lb,
        "mu1_ub": mu1_ub,
        "cut_lb": cut_lb,
        "cut_ub": cut_ub,
        "w_c": w_c,
        "w_q": w_q,
        "y_tilde": y_til,
    }


# ---------------------------------------------------------------------------
# exhaustive-assignment expectations for the block covariance pieces
# ---------------------------------------------------------------------------

def assignments(n_units, n_treated):
    """All 0/1 assignment vectors with exactly n_treated ones."""
    out = []
    for chosen in itertools.combinations(range(n_units), n_treated):
        vec = np.zeros(n_units, dtype=int)
        vec[list(chosen)] = 1
        out.append(vec)
    return out


def enum_mean_cross_term(mu1, mu0, n_treated):
    """Exhaustive mean of sym(treated-mean x control-mean outer product).

    mu1[i], mu0[i] are the unit-i moment vectors under treatment / control.
    """
    mu1 = np.atleast_2d(np.asarray(mu1, dtype=float))
    mu0 = np.atleast_2d(np.asarray(mu0, dtype=float))
    n = mu1.shape[0]
    acc = 0.0
    plans = assignments(n, n_treated)
    for dvec in plans:
        m1 = mu1[dvec == 1].mean(axis=0)
        m0 = mu0[dvec == 0].mean(axis=0)
        acc = acc + 0.5 * (np.outer(m1, m0) + np.outer(m0, m1))
    return acc / len(plans)


def rhs_cross_term(mu1, mu0):
    """Closed-form conditional mean of the symmetrized cross product."""
    mu1 = np.atleast_2d(np.asarray(mu1, dtype=float))
    mu0 = np.atleast_2d(np.asarray(mu0, dtype=float))
    n = mu1.shape[0]
    acc = 0.0
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            acc = acc + 0.5 * (np.outer(mu1[i], mu0[k]) + np.outer(mu0[i], mu1[k]))
    return acc / (n * (n - 1))


def enum_mean_within_arm(mu_d, n_treated, arm):
    """Exhaustive mean of the within-arm pair-product matrix for one arm."""
    mu_d = np.atleast_2d(np.asarray(mu_d, dtype=float))
    n = mu_d.shape[0]
    acc = 0.0
    plans = assignments(n, n_treated)
    for dvec in plans:
        rows = mu_d[dvec == arm]
        n_arm = rows.shape[0]
        if n_arm < 2:
            raise ValueError("arm count below two")
        tot = rows.sum(axis=0)
        acc = acc + (np.outer(tot, tot) - rows.T @ rows) / (n_arm * (n_arm - 1))
    return acc / len(plans)


def rhs_within_arm(mu_d):
    """Closed-form conditional mean of the within-arm pair product."""
    mu_d = np.atleast_2d(np.asarray(mu_d, dtype=float))
    n = mu_d.shape[0]
    tot = mu_d.sum(axis=0)
    return (np.outer(tot, tot) - mu_d.T @ mu_d) / (n * (n - 1))


def enum_mean_label_cross(yvals, n_treated):
    """Exhaustive mean of (treated mean of y) * (control mean of y)."""
    y = np.asarray(yvals, dtype=float)
    n = y.size
    plans = assignments(n, n_treated)
    acc = 0.0
    for dvec in plans:
        acc += y[dvec == 1].mean() * y[dvec == 0].mean()
    return acc / len(plans)


def enum_mean_label_within(yvals, n_treated, arm):
    """Exhaustive mean of the within-arm scalar pair-product average."""
    y = np.asarray(yvals, dtype=float)
    n = y.size
    plans = assignments(n, n_treated)
    acc = 0.0
    for dvec in plans:
        v = y[dvec == arm]
        n_arm = v.size
        if n_arm < 2:
            raise ValueError("arm count below two")
        acc += (v.sum() ** 2 - np.dot(v, v)) / (n_arm * (n_arm - 1))
    return acc / len(plans)


def rhs_label_pairs(yvals):
    """Closed-form conditional mean shared by every label pair product."""
    y = np.asarray(yvals, dtype=float)
    n = y.size
    return (y.sum() ** 2 - np.dot(y, y)) / (n * (n - 1))


def label_variance(data, design):
    """Size-weighted estimator of E[(mean gap between arms given block)^2].

    Works on the per-unit value Y*S (observed outcome, zero when missing).
    Every block needs at least two treated and two control units.
    """
    from strata_bounds import FeasibilityError

    n_g, t1 = design.n_g, design.t_g
    t0 = n_g - t1
    bad = np.flatnonzero((t1 < 2) | (t0 < 2)).tolist()
    if bad:
        raise FeasibilityError(
            "label-based variance needs at least 2 treated and 2 control "
            "units per block; violated by: "
            + ", ".join(design.labels[g] for g in bad)
        )
    codes, d = design.codes, data.d
    v = np.where(data.s == 1, np.nan_to_num(data.y, nan=0.0), 0.0)
    n_blocks = design.n_blocks

    sum1 = np.bincount(codes[d == 1], weights=v[d == 1], minlength=n_blocks)
    sum0 = np.bincount(codes[d == 0], weights=v[d == 0], minlength=n_blocks)
    ss1 = np.bincount(codes[d == 1], weights=v[d == 1] ** 2, minlength=n_blocks)
    ss0 = np.bincount(codes[d == 0], weights=v[d == 0] ** 2, minlength=n_blocks)

    w = n_g / data.n
    rho_11 = float((w * (sum1**2 - ss1) / (t1 * (t1 - 1.0))).sum())
    rho_00 = float((w * (sum0**2 - ss0) / (t0 * (t0 - 1.0))).sum())
    rho_10 = float((w * (sum1 / t1) * (sum0 / t0)).sum())
    return rho_11 + rho_00 - 2.0 * rho_10


def pair_probability(n_units, n_treated, arm_i, arm_k):
    """Pr(D_i = arm_i, D_k = arm_k) for i != k under complete randomization."""
    t = n_treated if arm_i == 1 else n_units - n_treated
    u = n_treated if arm_k == 1 else n_units - n_treated
    if arm_i == arm_k:
        return t * (t - 1) / (n_units * (n_units - 1))
    return t * u / (n_units * (n_units - 1))


# ---------------------------------------------------------------------------
# interval-width-adjusted critical value, solved independently
# ---------------------------------------------------------------------------

def oracle_set_critical(width, sigma, alpha):
    """Critical value c with Phi(c + width/sigma) - Phi(-c) = 1 - alpha."""
    if sigma <= 0.0:
        return stats.norm.ppf(1.0 - alpha)
    ratio = width / sigma

    def g(c):
        return stats.norm.cdf(c + ratio) - stats.norm.cdf(-c) - (1.0 - alpha)

    lo = stats.norm.ppf(1.0 - alpha) - 0.5
    hi = stats.norm.ppf(1.0 - alpha / 2.0) + 1e-9
    return brentq(g, lo, hi, xtol=1e-12)


# ---------------------------------------------------------------------------
# population Jacobians for a pair design with normal outcomes
# ---------------------------------------------------------------------------
#
# Design used by the large-sample Jacobian check: blocks of 2 with exactly one
# treated unit (Pr(D=1) = 1/2, equal shares so the weighted system has unit
# weights, delta = eta = 1/2, rescaled outcomes coincide with raw outcomes).
# Treated-observed outcomes are N(m1, sd1^2); control-observed are
# N(m0, sd0^2); selection is Bernoulli(s1) / Bernoulli(s0) independent of
# outcomes. All derivative formulas below follow from replacing the smoothed
# indicator with the limit indicator and the smoothed density spike with the
# normal density at the cutoff.

def _normal_tail_pieces(m1, sd1, q, side):
    """Cutoff, kept-tail mean, and density at the cutoff for a normal law."""
    if side == "lb":
        z = stats.norm.ppf(1.0 - q)
        cut = m1 + sd1 * z
        mu1 = m1 - sd1 * stats.norm.pdf(z) / (1.0 - q)
    else:
        z = stats.norm.ppf(q)
        cut = m1 + sd1 * z
        mu1 = m1 + sd1 * stats.norm.pdf(z) / (1.0 - q)
    dens = stats.norm.pdf((cut - m1) / sd1) / sd1
    return cut, mu1, dens


def oracle_population_jacobian_lee(side, s1, s0, m1, sd1):
    """5x5 population Jacobian of the pooled system on the pair design."""
    pi_d = 0.5
    q = 1.0 - s0 / s1
    p1 = pi_d * s1
    p0 = (1.0 - pi_d) * s0
    alpha = s0
    cut, mu1, dens = _normal_tail_pieces(m1, sd1, q, side)
    jac = np.zeros((5, 5))
    jac[0, 0] = -(1.0 - q) * p1
    jac[0, 2] = (cut - mu1) * dens * p1 if side == "lb" else -(cut - mu1) * dens * p1
    jac[1, 1] = -p0
    jac[2, 2] = -dens * p1 if side == "lb" else dens * p1
    jac[2, 3] = -p1
    jac[3, 3] = -alpha * pi_d / (1.0 - q) ** 2
    jac[3, 4] = -pi_d / (1.0 - q)
    jac[4, 4] = -(1.0 - pi_d)
    return jac


def oracle_population_jacobian_ipw(side, s1, s0, m1, sd1):
    """5x5 population Jacobian of the weighted system on the pair design."""
    pi_d = 0.5
    eta = 0.5
    delta = eta
    q = 1.0 - s0 / s1
    p1 = pi_d * s1
    cut, mu1, dens = _normal_tail_pieces(m1, sd1, q, side)
    jac = np.zeros((5, 5))
    jac[0, 0] = -(1.0 - q) * p1
    if side == "lb":
        jac[0, 2] = (cut - mu1) * dens * p1
        jac[0, 3] = (p1 / delta) * ((1.0 - q) * mu1 - cut * (cut - mu1) * dens)
        jac[2, 2] = -dens * p1
        jac[2, 3] = (cut / delta) * dens * p1
    else:
        jac[0, 2] = -(cut - mu1) * dens * p1
        jac[0, 3] = (p1 / delta) * ((1.0 - q) * mu1 + cut * (cut - mu1) * dens)
        jac[2, 2] = dens * p1
        jac[2, 3] = -(cut / delta) * dens * p1
    jac[1, 1] = -(1.0 - pi_d) * s0
    jac[2, 4] = -p1
    jac[3, 3] = -s0
    jac[4, 4] = -p1 / eta
    return jac


# ---------------------------------------------------------------------------
# block-level helpers, one block at a time
# ---------------------------------------------------------------------------

def pair_blocks_oracle(design, needs):
    """Pairs of singleton-arm blocks, built with Python sorts and scans.

    Sort key: covariate means compared as tuples, then the label. An odd
    leftover takes the outside block nearest by first covariate mean (or by
    index without covariates), the label breaking ties. Returns the pairs
    tuple; raises PairingError when no outside block exists.
    """
    from strata_bounds import PairingError

    labels = design.labels
    x_mean = None if design.x_mean is None else design.x_mean.tolist()

    def sort_key(g):
        if x_mean is not None:
            return tuple(x_mean[g]) + (labels[g],)
        return (labels[g],)

    needs = sorted(set(needs), key=sort_key)
    pairs = [(needs[i], needs[i + 1]) for i in range(0, len(needs) - 1, 2)]
    if len(needs) % 2 == 1:
        last = needs[-1]
        outside = [g for g in range(design.n_blocks) if g not in set(needs)]
        if not outside:
            raise PairingError("no block outside the singleton set")
        if x_mean is not None:
            ref = x_mean[last][0]
            partner = min(
                outside, key=lambda g: (abs(x_mean[g][0] - ref), labels[g])
            )
        else:
            partner = min(outside, key=lambda g: (abs(g - last), labels[g]))
        pairs.append((last, partner))
    return tuple(pairs)


def always_observed_treat_prob_oracle(design):
    """sum_g t_g m_g / sum_g n_g m_g as an exact Fraction, block by block,
    with m_g the observed-control rate; None when no control is observed."""
    num = den = Fraction(0)
    blocks = zip(design.n_g.tolist(), design.t_g.tolist(), design.n0s_g.tolist())
    for n_g, t_g, n0s_g in blocks:
        m_g = Fraction(n0s_g, n_g - t_g)
        num += t_g * m_g
        den += n_g * m_g
    return None if den == 0 else num / den


# ---------------------------------------------------------------------------
# moment systems, one unit at a time
# ---------------------------------------------------------------------------

def lee_moments(y, s, d, theta, side):
    """Five pooled moments for one unit at theta (side 'lb' or 'ub')."""
    y = y if s == 1 else 0.0
    if side == "lb":
        kept = 1.0 if y <= theta.cutoff else 0.0
    else:
        kept = 1.0 if y >= theta.cutoff else 0.0
    tail = 1.0 - kept
    sd = s * d
    return np.array(
        [
            (y - theta.mu1) * sd * kept,
            (y - theta.mu0) * s * (1 - d),
            (tail - theta.p) * sd,
            (s - theta.alpha / (1.0 - theta.p)) * d,
            (s - theta.alpha) * (1 - d),
        ]
    )


def lee_ipw_moments(y, s, d, block, theta, design, side):
    """Five weighted moments for one unit of block label `block` at theta."""
    g = design.labels.index(block)
    n_g, t_g = int(design.n_g[g]), int(design.t_g[g])
    eta = t_g / n_g
    m_g = int(design.n0s_g[g]) / (n_g - t_g)
    p_hat = design.p_hat
    w_c = (1.0 - p_hat) / (1.0 - eta)
    w_q = eta * (1.0 - p_hat) / ((1.0 - eta) * p_hat)
    y = y if s == 1 else 0.0
    y_til = (theta.delta / eta) * y
    if side == "lb":
        kept = 1.0 if y_til <= theta.cutoff else 0.0
    else:
        kept = 1.0 if y_til >= theta.cutoff else 0.0
    tail = 1.0 - kept
    sd = s * d
    return np.array(
        [
            (y_til - theta.mu1) * sd * kept,
            (y - theta.mu0) * s * (1 - d) * w_c,
            (tail - theta.q) * sd,
            m_g * (d - theta.delta),
            ((1.0 - theta.q) / p_hat) * sd
            - (1.0 / (1.0 - p_hat)) * s * (1 - d) * w_q,
        ]
    )


# ---------------------------------------------------------------------------
# design meat, one bound and one block at a time
# ---------------------------------------------------------------------------

def meat_design_oracle(data, design, moments, mode="paired"):
    """The design meat of one bound's (n, 5) moments, block by block.

    Per arm and block it forms the rows' sum, mean and every within-arm
    cross product explicitly; singleton arms borrow the arm mean of the
    block pair_blocks_oracle pairs them with. Returns a dict of the
    MeatReport matrices plus the singleton blocks and pairs per arm; raises
    FeasibilityError in label mode where an arm has one unit, and
    PairingError where pairing fails. mode="iid" pairs nothing and refuses
    nothing, for its a and a3.
    """
    from strata_bounds import FeasibilityError

    moments = np.asarray(moments, dtype=float)
    n, m = moments.shape
    codes = design.codes.tolist()
    d = data.d.tolist()
    arms = {1: [[] for _ in range(design.n_blocks)], 0: [[] for _ in range(design.n_blocks)]}
    for i in range(n):
        arms[d[i]][codes[i]].append(moments[i])
    single = {
        arm: [g for g in range(design.n_blocks) if len(members[g]) == 1]
        for arm, members in arms.items()
    }
    if mode == "label" and (single[1] or single[0]):
        raise FeasibilityError("an arm has one unit in some block")
    pairs = {1: (), 0: ()}
    if mode == "paired":
        for arm in (1, 0):
            if single[arm]:
                pairs[arm] = pair_blocks_oracle(design, single[arm])

    def sym(a):
        return 0.5 * (a + a.T)

    out = {"a3": np.outer(moments.mean(axis=0), moments.mean(axis=0))}
    means = {arm: [np.mean(rows, axis=0) for rows in members] for arm, members in arms.items()}
    a = np.zeros((m, m))  # every unit's outer product, arm by arm
    for arm, name in ((1, "11"), (0, "00")):
        zeta = np.zeros((m, m))
        partner = {}
        for g, h in pairs[arm]:
            partner.setdefault(g, h)
            partner.setdefault(h, g)
        for g, rows in enumerate(arms[arm]):
            eta = design.t_g[g] / design.n_g[g]
            coef = design.n_g[g] / n * eta * (1.0 - eta)
            c = len(rows)
            for r in rows:
                a += np.outer(r, r)
            if c >= 2:
                pair_sum = np.zeros((m, m))
                for i, j in itertools.permutations(range(c), 2):
                    pair_sum += np.outer(rows[i], rows[j])
                zeta += sym(coef / (c * (c - 1)) * pair_sum)
            elif g in partner:
                zeta += sym(coef * np.outer(rows[0], means[arm][partner[g]]))
        out[f"zeta_{name}"] = zeta
    out["a"] = a / n
    zeta_10 = np.zeros((m, m))
    for g in range(design.n_blocks):
        eta = design.t_g[g] / design.n_g[g]
        coef = design.n_g[g] / n * eta * (1.0 - eta)
        zeta_10 += sym(coef * np.outer(means[1][g], means[0][g]))
    out["zeta_10"] = zeta_10
    out["b_n"] = -(out["zeta_11"] + out["zeta_00"] - 2.0 * zeta_10)
    out["omega"] = out["a"] + out["b_n"] - out["a3"]
    out.update(
        singleton_treated=single[1] if mode == "paired" else [],
        singleton_control=single[0] if mode == "paired" else [],
        pairs_treated=pairs[1],
        pairs_control=pairs[0],
    )
    return out
