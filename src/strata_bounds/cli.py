"""Command-line interface.

Two subcommands: ``estimate`` reads a unit-level CSV and prints bound
estimates (JSON by default, CSV or aligned text on request); ``simulate``
runs a seeded Monte Carlo study and writes per-replication and summary CSV
files. Exit codes: 0 success, 1 input/usage problems, 2 estimation failures
on valid input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import click

from .data_model import Dataset, block_design, format_number, parse_csv
from .errors import EstimationError, ValidationError
from .variance import ESTIMATORS, VARIANCE_CHOICES, estimate_bounds

ESTIMATOR_CHOICES = ESTIMATORS + ("all",)
FORMAT_CHOICES = ("json", "csv", "table")

ESTIMATE_CSV_COLUMNS = (
    "estimator",
    "variance",
    "alpha",
    "n",
    "n_used",
    "delta_lb",
    "delta_ub",
    "q",
    "mu0",
    "mu1_lb",
    "mu1_ub",
    "cutoff_lb",
    "cutoff_ub",
    "se_lb",
    "se_ub",
    "ci_lb_lo",
    "ci_lb_hi",
    "ci_ub_lo",
    "ci_ub_hi",
    "ci_set_lo",
    "ci_set_hi",
    "critical_set",
    "flags",
    "warnings",
    "notes",
)


@click.group()
def cli() -> None:
    """Bounds for the always-observed treatment effect under attrition."""


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current stdout, or stderr with err=True.

    The stream is named explicitly: click.echo's default looks it up in a
    cache that keeps every text stream it has seen alive, so each stream a
    caller redirects stdout to would never be freed.
    """
    stream = click.get_text_stream("stderr" if err else "stdout")
    click.echo(message, file=stream, nl=nl)


def _read_stdin() -> Dataset:
    """parse_csv on standard input's bytes, decoded as a path is.

    A stdin that is already a text stream with no byte buffer under it is
    read as it is.
    """
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        return parse_csv(sys.stdin)
    text = io.TextIOWrapper(
        buffer, encoding="utf-8", errors="surrogateescape", newline=""
    )
    try:
        return parse_csv(text)
    finally:
        # leave stdin's buffer open for whoever reads or closes it next
        text.detach()


def flip_treatment(data: Dataset) -> Dataset:
    """Relabel arms (d := 1 - d), keeping outcomes, selection, and blocks."""
    return replace(data, d=1 - data.d)


def run_estimator(data, design, name: str, variance: str, alpha: float) -> dict:
    """One estimator on one dataset, returning a flat result record."""
    notes: list[str] = []
    if name == "conditional-lee":
        if variance != "none":
            notes.append(
                "conditional-lee reports no variance; method set to none"
            )
        variance = "none"
    methods = () if variance == "none" else (variance,)
    estimate, reports = estimate_bounds(data, design, name, methods, alpha)
    report = reports.get(variance)
    if isinstance(report, EstimationError):
        raise report

    record = {
        "estimator": name,
        "variance": variance,
        "alpha": alpha if report is not None else None,
        "n": data.n,
        "n_used": estimate.n_used,
        "delta_lb": estimate.delta_lb,
        "delta_ub": estimate.delta_ub,
        "q": estimate.q,
        "mu0": estimate.mu0,
        "mu1_lb": estimate.mu1_lb,
        "mu1_ub": estimate.mu1_ub,
        "cutoff_lb": estimate.cutoff_lb,
        "cutoff_ub": estimate.cutoff_ub,
        "se_lb": report.se_lb if report is not None else None,
        "se_ub": report.se_ub if report is not None else None,
        "ci_lb": tuple(report.ci_lb) if report is not None else None,
        "ci_ub": tuple(report.ci_ub) if report is not None else None,
        "ci_set": tuple(report.ci_set) if report is not None else None,
        "critical_set": (
            report.intervals.critical_set if report is not None else None
        ),
        "flags": list(report.flags if report is not None else estimate.flags),
        "warnings": list(estimate.warnings),
        "notes": notes,
    }
    if name == "conditional-lee":
        used = int(estimate.detail.used.sum())
        record["strata_used"] = used
        record["strata_dropped"] = estimate.detail.used.size - used
    return record


def _negated_interval(interval):
    if interval is None:
        return None
    lo, hi = interval
    return (-hi, -lo)


def reverse_record(rec: dict) -> dict:
    """Map a relabeled-arm record back to bounds for the original effect.

    Negating and swapping the bounds (and their intervals) is exact; the
    q, mu, and cutoff diagnostics keep their relabeled-arm meaning, which a
    note spells out.
    """
    out = dict(rec)
    out["delta_lb"] = -rec["delta_ub"]
    out["delta_ub"] = -rec["delta_lb"]
    out["se_lb"], out["se_ub"] = rec["se_ub"], rec["se_lb"]
    out["ci_lb"] = _negated_interval(rec["ci_ub"])
    out["ci_ub"] = _negated_interval(rec["ci_lb"])
    out["ci_set"] = _negated_interval(rec["ci_set"])
    out["flags"] = list(rec["flags"]) + ["reverse_monotonicity"]
    out["notes"] = list(rec["notes"]) + [
        "treatment indicator relabeled (d := 1 - d); q, mu, and cutoff "
        "fields describe the relabeled arms"
    ]
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    v = float(value)
    if math.isnan(v):
        return None
    return float(f"{v:.12g}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, bool) or isinstance(value, int):
        return str(value)
    return format_number(value)


def _flat_record(rec: dict) -> dict:
    """The record with each interval split into its _lo and _hi ends."""
    flat = dict(rec)
    for name in ("ci_lb", "ci_ub", "ci_set"):
        pair = flat.pop(name, None)
        flat[f"{name}_lo"] = None if pair is None else pair[0]
        flat[f"{name}_hi"] = None if pair is None else pair[1]
    return flat


def _estimate_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ESTIMATE_CSV_COLUMNS)
    for rec in records:
        flat = _flat_record(rec)
        writer.writerow([_cell(flat.get(col)) for col in ESTIMATE_CSV_COLUMNS])
    return buf.getvalue()


def _estimate_table(records: list[dict]) -> str:
    lines: list[str] = []
    order = [c for c in ESTIMATE_CSV_COLUMNS if c not in ("estimator", "variance")]
    for rec in records:
        lines.append(f"== {rec['estimator']} (variance: {rec['variance']}) ==")
        flat = _flat_record(rec)
        for key in order + ["strata_used", "strata_dropped"]:
            if key not in flat or (key in ("flags", "warnings", "notes") and not flat[key]):
                continue
            lines.append(f"  {key:<14} {_cell(flat[key])}")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


@cli.command()
@click.option(
    "--input", "input_path", required=True,
    help="Unit-level CSV (columns y,s,d,block and optional x1..xk); '-' reads standard input.",
)
@click.option(
    "--estimator", type=click.Choice(ESTIMATOR_CHOICES), default="lee",
    show_default=True, help="Which estimator to run; 'all' runs the three.",
)
@click.option(
    "--variance", type=click.Choice(VARIANCE_CHOICES), default="design",
    show_default=True, help="Variance method for lee and lee-ipw.",
)
@click.option(
    "--alpha", type=float, default=0.05, show_default=True,
    help="Miscoverage level for the confidence intervals.",
)
@click.option(
    "--reverse-monotonicity", is_flag=True,
    help="Assume relabeling the arms restores selection monotonicity; "
    "bounds are computed on the relabeled data and mapped back.",
)
@click.option(
    "--format", "fmt", type=click.Choice(FORMAT_CHOICES), default="json",
    show_default=True,
)
def estimate(input_path, estimator, variance, alpha, reverse_monotonicity, fmt):
    """Estimate bounds (and variance) from a unit-level CSV file."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    data = _read_stdin() if input_path == "-" else parse_csv(input_path)
    if reverse_monotonicity:
        data = flip_treatment(data)
    design = block_design(data)
    names = ESTIMATORS if estimator == "all" else (estimator,)
    records = [
        run_estimator(data, design, name, variance, alpha) for name in names
    ]
    if reverse_monotonicity:
        records = [reverse_record(r) for r in records]

    if fmt == "json":
        _echo(json.dumps({"results": _jsonable(records)}, indent=2))
    elif fmt == "csv":
        _echo(_estimate_csv(records), nl=False)
    else:
        _echo(_estimate_table(records))


@contextlib.contextmanager
def _new_out_dir(path: str):
    """Make the --out directory and its missing parents for the block, and
    remove those, where still empty, if the block fails; a path that cannot
    be made a directory is a ValidationError."""
    made, head = [], os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)  # the innermost first
        head = os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot make --out directory {path!r}: {exc.strerror}"
        ) from None
    try:
        yield
    except BaseException:
        for new in made:
            with contextlib.suppress(OSError):
                os.rmdir(new)
        raise


@cli.command()
@click.option(
    "--dgp", type=click.Choice(["1", "2"]), required=True,
    help="1 = matched pairs; 2 = heavy-tailed stratified design.",
)
@click.option("--reps", type=int, required=True, help="Number of replications.")
@click.option("--seed", type=int, required=True, help="Base seed.")
@click.option(
    "--n", type=int, default=None,
    help="Sample size per replication (matched pairs only; default 10000).",
)
@click.option(
    "--out", "out_dir", required=True,
    help="Directory for replications.csv and summary.csv (created if absent).",
)
@click.option(
    "--estimator", "estimators", multiple=True,
    help="estimator:variance token (repeatable); default panel per process.",
)
@click.option("--alpha", type=float, default=0.05, show_default=True)
def simulate(dgp, reps, seed, n, out_dir, estimators, alpha):
    """Run a seeded Monte Carlo study and write its CSV outputs."""
    # imported here, so that estimate never loads the Monte Carlo code
    from .simulation import (
        DGP_HEAVY_TAILS, DGP_MATCHED_PAIRS, McConfig, _resolve_config, monte_carlo,
    )

    if dgp == "2" and n is not None:
        raise ValidationError(
            "--n applies to --dgp 1 only; the heavy-tails process is fixed "
            "at n = 2000"
        )
    config = McConfig(
        dgp=DGP_MATCHED_PAIRS if dgp == "1" else DGP_HEAVY_TAILS,
        reps=reps,
        seed=seed,
        n=n,
        estimators=tuple(estimators),
        alpha=alpha,
    )
    _resolve_config(config)  # a refused config leaves no --out directory
    with _new_out_dir(out_dir):
        summary = monte_carlo(config, out_dir=out_dir)
    _echo(
        f"process={summary.config.dgp} reps={summary.config.reps} "
        f"seed={summary.config.seed} truth_lb={format_number(summary.truth_lb)} "
        f"truth_ub={format_number(summary.truth_ub)}"
    )
    for est in summary.estimators:
        _echo(
            f"{est.estimator}: failed={est.failed} "
            f"mean_lb={format_number(est.mean_delta_lb)} "
            f"mean_ub={format_number(est.mean_delta_ub)} "
            f"sd_lb={format_number(est.sd_delta_lb)} "
            f"sd_ub={format_number(est.sd_delta_ub)} "
            f"mean_se_lb={format_number(est.mean_se_lb)} "
            f"mean_se_ub={format_number(est.mean_se_ub)} "
            f"coverage_lb={format_number(est.coverage_lb)} "
            f"coverage_ub={format_number(est.coverage_ub)}"
        )
    _echo(f"wrote {os.path.join(out_dir, 'replications.csv')}")
    _echo(f"wrote {os.path.join(out_dir, 'summary.csv')}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        _echo("aborted", err=True)
        return 1
    except ValidationError as exc:
        _echo(f"error: {exc}", err=True)
        return 1
    except MemoryError as exc:  # an input too large to hold, such as --n
        _echo(f"error: out of memory{f': {exc}' if str(exc) else ''}", err=True)
        return 1
    except EstimationError as exc:
        _echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
