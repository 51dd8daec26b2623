"""Output checks for each workload.

Every check compares the program's output with ``reference`` or with a
property of the method, never with a saved copy of earlier output. Each
function returns a list of problems; an empty list means the output is
correct. ``check_estimate`` also returns the records it counts as failed. Numbers printed by the program carry 12 significant digits, which
sets the tolerance of the point comparisons.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

PRINTED = dict(rel_tol=1e-11, abs_tol=1e-12)
ALPHA = 0.05


def _close(a: float, b: float, **tol) -> bool:
    return math.isclose(a, b, **(tol or PRINTED))


def read_replications(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def failed_rows(rows: list[dict]) -> int:
    return sum(1 for r in rows if r["flags"].startswith("error:"))


def _by_estimator(rows, name):
    return [r for r in rows if r["estimator"] == name]


def _ordered_bounds(rows, name, problems):
    for r in _by_estimator(rows, name):
        if not float(r["delta_lb"]) <= float(r["delta_ub"]):
            problems.append(f"{name} rep {r['rep']}: delta_lb > delta_ub")


def _positive_ses(rows, name, problems):
    for r in _by_estimator(rows, name):
        for col in ("se_lb", "se_ub"):
            v = float(r[col])
            if not (math.isfinite(v) and v > 0.0):
                problems.append(f"{name} rep {r['rep']}: {col} = {r[col]}")


def _match_reference(rows, name, rep, expected, problems):
    row = next(r for r in _by_estimator(rows, name) if int(r["rep"]) == rep)
    got = (float(row["delta_lb"]), float(row["delta_ub"]))
    if not all(_close(g, e) for g, e in zip(got, expected)):
        problems.append(f"{name} rep {rep}: bounds {got}, reference {expected}")


def _block_codes(labels) -> np.ndarray:
    return np.unique(np.asarray(labels), return_inverse=True)[1]


def check_mc_pairs(seed: int, reps: int, n: int, stdout: str,
                   rows: list[dict]) -> list[str]:
    from strata_bounds import child_seed, simulate_dgp1

    problems: list[str] = []
    fields = dict(tok.split("=", 1) for tok in stdout.split("\n", 1)[0].split())
    truth = (float(fields["truth_lb"]), float(fields["truth_ub"]))
    population = ref.dgp1_population_bounds()
    allowance = ref.dgp1_truth_allowance()
    for got, want in zip(truth, population):
        if abs(got - want) > allowance:
            problems.append(f"truth {got} vs quadrature {want} (allowance "
                            f"{allowance:.2g})")

    for rep in sorted({0, reps - 1}):
        data = simulate_dgp1(child_seed(seed, rep), n)
        expected = ref.lee_bounds(data.y, data.s, data.d)
        for name in ("lee:iid", "lee:design"):
            _match_reference(rows, name, rep, expected, problems)

    iid, design = _by_estimator(rows, "lee:iid"), _by_estimator(rows, "lee:design")
    if len(iid) != reps or len(design) != reps:
        problems.append(f"expected {reps} rows per estimator")
    for a, b in zip(iid, design):
        if (a["delta_lb"], a["delta_ub"]) != (b["delta_lb"], b["delta_ub"]):
            problems.append(f"rep {a['rep']}: iid and design point bounds differ")
    for name in ("lee:iid", "lee:design"):
        _ordered_bounds(rows, name, problems)
        _positive_ses(rows, name, problems)
    for col in ("se_lb", "se_ub"):
        mean_iid = np.mean([float(r[col]) for r in iid])
        mean_design = np.mean([float(r[col]) for r in design])
        if not mean_iid > mean_design:
            problems.append(f"mean i.i.d. {col} {mean_iid:.4g} does not exceed "
                            f"the design one {mean_design:.4g}")
    return problems


def check_mc_heavy(seed: int, reps: int, rows: list[dict]) -> list[str]:
    from strata_bounds import child_seed, simulate_dgp2

    problems: list[str] = []
    for rep in sorted({0, reps - 1}):
        data = simulate_dgp2(child_seed(seed, rep))
        codes = _block_codes(data.blocks)
        _match_reference(rows, "lee-ipw:design", rep,
                         ref.lee_ipw_bounds(data.y, data.s, data.d, codes),
                         problems)
        _match_reference(rows, "conditional-lee:none", rep,
                         ref.conditional_lee_bounds(data.y, data.s, data.d,
                                                    codes)[:2],
                         problems)
    for name in ("lee-ipw:design", "conditional-lee:none"):
        _ordered_bounds(rows, name, problems)
    _positive_ses(rows, "lee-ipw:design", problems)

    # the set interval covers the constant effect 1; allow three binomial
    # standard errors below nominal coverage
    covered = [int(r["covered_lb"]) for r in _by_estimator(rows, "lee-ipw:design")]
    floor = 1.0 - ALPHA - 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / len(covered))
    if np.mean(covered) < floor:
        problems.append(f"lee-ipw set coverage {np.mean(covered):.3f} < {floor:.3f}")
    return problems


def check_estimate(arrays: dict, stdout: str) -> tuple[list[str], list[str]]:
    """Problems, and the estimator records that failed.

    A ``conditional-lee`` record that disagrees with the reference counts as
    a failed operation rather than a problem: today's program drops every
    stratum that keeps exactly one unit of treated mass (a floating-point
    retained-mass test), and such strata occur on every seed. Any other
    disagreement is a problem.
    """
    problems: list[str] = []
    failures: list[str] = []
    results = {r["estimator"]: r for r in json.loads(stdout)["results"]}
    if sorted(results) != ["conditional-lee", "lee", "lee-ipw"]:
        return [f"unexpected estimators {sorted(results)}"], []
    y, s, d, codes = arrays["y"], arrays["s"], arrays["d"], arrays["codes"]
    lee_lb, lee_ub = ref.lee_bounds(y, s, d)
    cond_lb, cond_ub, used = ref.conditional_lee_bounds(y, s, d, codes)
    expected = {
        "lee": (lee_lb, lee_ub),
        "conditional-lee": (cond_lb, cond_ub),
        "lee-ipw": ref.lee_ipw_bounds(y, s, d, codes),
    }
    for name, (lb, ub) in expected.items():
        rec = results[name]
        if rec["n"] != y.size:
            problems.append(f"{name}: n = {rec['n']}, rows = {y.size}")
        wrong = []
        if not (_close(rec["delta_lb"], lb) and _close(rec["delta_ub"], ub)):
            wrong.append(f"bounds ({rec['delta_lb']}, {rec['delta_ub']}), "
                         f"reference ({lb}, {ub})")
        if name == "conditional-lee" and rec["strata_used"] != used:
            wrong.append(f"used {rec['strata_used']} strata, reference {used}")
        if wrong:
            message = f"{name}: {'; '.join(wrong)}"
            (failures if name == "conditional-lee" else problems).append(message)
    if not any(w.startswith("heterogeneous_treated_shares")
               for w in results["lee"]["warnings"]):
        problems.append("lee lacks the heterogeneous_treated_shares warning")

    z = ref.normal_quantile(1.0 - ALPHA / 2.0)
    z_one_sided = ref.normal_quantile(1.0 - ALPHA)
    for name in ("lee", "lee-ipw"):
        rec = results[name]
        for bound in ("lb", "ub"):
            est, se = rec[f"delta_{bound}"], rec[f"se_{bound}"]
            lo, hi = rec[f"ci_{bound}"]
            scale = dict(rel_tol=1e-10, abs_tol=1e-11 * (abs(est) + z * se))
            if not (_close(lo, est - z * se, **scale)
                    and _close(hi, est + z * se, **scale)):
                problems.append(f"{name}: ci_{bound} {lo, hi} is not "
                                f"{est} -/+ z * {se}")
        set_lo, set_hi = rec["ci_set"]
        if not (rec["ci_lb"][0] <= set_lo and set_hi <= rec["ci_ub"][1]):
            problems.append(f"{name}: set interval {set_lo, set_hi} outside "
                            f"[{rec['ci_lb'][0]}, {rec['ci_ub'][1]}]")
        crit = rec["critical_set"]
        if not (z_one_sided - 1e-9 <= crit <= z + 1e-9):
            problems.append(f"{name}: critical_set {crit} outside "
                            f"[{z_one_sided}, {z}]")
    return problems, failures
