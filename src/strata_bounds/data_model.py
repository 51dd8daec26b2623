"""Data containers, CSV parsing/serialization, and block summaries.

A unit record carries the observed outcome (present only when selected), the
selection and treatment indicators, an opaque block label, and optional
numeric covariates. Datasets are immutable; numpy views of the columns are
built once at construction for the estimators.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError, ParseError, ValidationError

REQUIRED_COLUMNS = ("y", "s", "d", "block")


@dataclass(frozen=True)
class UnitRecord:
    """One experimental unit.

    y is the observed outcome and must be present (finite) exactly when
    s == 1. block is an opaque label compared as a trimmed string.
    """

    y: float | None
    s: int
    d: int
    block: str
    x: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.s not in (0, 1):
            raise ValidationError(f"s must be 0 or 1, got {self.s!r}")
        if self.d not in (0, 1):
            raise ValidationError(f"d must be 0 or 1, got {self.d!r}")
        if self.s == 1:
            if self.y is None or not math.isfinite(self.y):
                raise ValidationError(
                    "selected unit (s=1) must carry a finite outcome"
                )
        elif self.y is not None:
            raise ValidationError("unselected unit (s=0) must not carry an outcome")
        if not isinstance(self.block, str) or not self.block.strip():
            raise ValidationError("block label must be a non-empty string")
        if self.block != self.block.strip():
            object.__setattr__(self, "block", self.block.strip())
        if self.x is not None:
            if len(self.x) == 0:
                object.__setattr__(self, "x", None)
            elif not all(math.isfinite(v) for v in self.x):
                raise ValidationError("covariates must be finite numbers")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable collection of unit records with cached column arrays."""

    records: tuple[UnitRecord, ...]
    # cached numpy columns, built in __post_init__
    y: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    d: np.ndarray = field(init=False, repr=False)
    blocks: tuple[str, ...] = field(init=False, repr=False)
    x: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        n = len(records)
        if n < 2:
            raise ValidationError("dataset needs at least 2 units")

        y = np.full(n, np.nan)
        s = np.zeros(n, dtype=np.int64)
        d = np.zeros(n, dtype=np.int64)
        labels = []
        arity = len(records[0].x) if records[0].x is not None else 0
        x = np.empty((n, arity)) if arity else None
        for i, rec in enumerate(records):
            s[i] = rec.s
            d[i] = rec.d
            if rec.s == 1:
                y[i] = rec.y
            labels.append(rec.block)
            rec_arity = len(rec.x) if rec.x is not None else 0
            if rec_arity != arity:
                raise ValidationError(
                    "covariate arity differs across records "
                    f"({rec_arity} vs {arity})"
                )
            if arity:
                x[i] = rec.x

        if d.sum() == 0 or d.sum() == n:
            raise ValidationError("dataset needs at least one treated and one control unit")
        counts: dict[str, int] = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        thin = sorted(lab for lab, c in counts.items() if c < 2)
        if thin:
            raise ValidationError(
                f"every block needs at least 2 units; too small: {', '.join(thin)}"
            )

        y.setflags(write=False)
        s.setflags(write=False)
        d.setflags(write=False)
        if x is not None:
            x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "blocks", tuple(labels))
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.records)


def dataset_from_arrays(y, s, d, block, x=None) -> Dataset:
    """Build a Dataset from parallel sequences (y entries ignored when s=0)."""
    s = np.asarray(s)
    d = np.asarray(d)
    y = np.asarray(y, dtype=float)
    n = s.size
    records = []
    for i in range(n):
        xi = None
        if x is not None:
            row = x[i]
            xi = tuple(float(v) for v in (row if np.ndim(row) else (row,)))
        records.append(
            UnitRecord(
                y=float(y[i]) if s[i] == 1 else None,
                s=int(s[i]),
                d=int(d[i]),
                block=str(block[i]),
                x=xi,
            )
        )
    return Dataset(records=tuple(records))


@dataclass(frozen=True)
class BlockSummary:
    """Counts and rates for one block.

    m_g is the observed-control rate: observed controls / controls.
    """

    label: str
    n_g: int
    t_g: int
    eta_g: float
    m_g: float
    n1s_g: int
    n0s_g: int
    x_mean: tuple[float, ...] | None

    def __post_init__(self):
        if not (1 <= self.t_g <= self.n_g - 1):
            raise DesignError(
                f"block {self.label!r} needs both arms: "
                f"{self.t_g} treated of {self.n_g}"
            )


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """Per-block summaries (sorted by label) plus the pooled treated share."""

    blocks: tuple[BlockSummary, ...]
    p_hat: float
    codes: np.ndarray = field(repr=False)  # record -> block index, dataset order

    def __post_init__(self):
        self.codes.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except AttributeError:
            idx = {b.label: i for i, b in enumerate(self.blocks)}
            object.__setattr__(self, "_label_index", idx)
            return idx[label]


def block_design(data: Dataset) -> BlockDesign:
    """Summarize blocks; every block must contain both arms.

    Blocks are sorted by label (string order) so downstream output is
    deterministic; p_hat is the exact pooled treated share.
    """
    labels = sorted(set(data.blocks))
    label_to_code = {lab: i for i, lab in enumerate(labels)}
    codes = np.fromiter(
        (label_to_code[lab] for lab in data.blocks), dtype=np.int64, count=data.n
    )

    n_blocks = len(labels)
    n_g = np.bincount(codes, minlength=n_blocks)
    t_g = np.bincount(codes, weights=data.d, minlength=n_blocks).astype(np.int64)
    n1s = np.bincount(
        codes, weights=data.d * data.s, minlength=n_blocks
    ).astype(np.int64)
    n0s = np.bincount(
        codes, weights=(1 - data.d) * data.s, minlength=n_blocks
    ).astype(np.int64)

    bad = [labels[g] for g in range(n_blocks) if not (1 <= t_g[g] <= n_g[g] - 1)]
    if bad:
        raise DesignError(
            "every block needs at least one treated and one control unit; "
            f"violated by: {', '.join(bad)}"
        )

    x_means: list[tuple[float, ...] | None] = [None] * n_blocks
    if data.x is not None:
        arity = data.x.shape[1]
        sums = np.zeros((n_blocks, arity))
        for j in range(arity):
            sums[:, j] = np.bincount(codes, weights=data.x[:, j], minlength=n_blocks)
        means = sums / n_g[:, None]
        x_means = [tuple(float(v) for v in means[g]) for g in range(n_blocks)]

    blocks = tuple(
        BlockSummary(
            label=labels[g],
            n_g=int(n_g[g]),
            t_g=int(t_g[g]),
            eta_g=float(t_g[g] / n_g[g]),
            m_g=float(n0s[g] / (n_g[g] - t_g[g])),
            n1s_g=int(n1s[g]),
            n0s_g=int(n0s[g]),
            x_mean=x_means[g],
        )
        for g in range(n_blocks)
    )
    p_hat = float(t_g.sum() / n_g.sum())
    return BlockDesign(blocks=blocks, p_hat=p_hat, codes=codes)


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------

def _x_columns(header: list[str]) -> list[str]:
    """Validate and return the covariate columns x1..xk, in order."""
    extras = [c for c in header if c not in REQUIRED_COLUMNS]
    if not extras:
        return []
    expected = [f"x{j}" for j in range(1, len(extras) + 1)]
    if sorted(extras) != sorted(expected):
        raise ParseError(
            "covariate columns must be named x1..xk with no gaps; "
            f"got {', '.join(sorted(extras))}"
        )
    return expected


def parse_csv(source) -> Dataset:
    """Parse a CSV with columns y, s, d, block and optional x1..xk.

    The outcome cell must be empty or "NA" exactly when s = 0. Errors name
    the 1-based data row. Block labels are trimmed strings and are never
    coerced to numbers.
    """
    if hasattr(source, "read"):
        return _parse_csv_stream(source)
    try:
        # utf-8-sig drops the byte-order mark spreadsheet programs write
        fh = open(source, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    with fh:
        return _parse_csv_stream(fh)


def _parse_csv_stream(fh) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: no header row") from None
    header = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"missing required columns: {', '.join(missing)}")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")
    x_cols = _x_columns(header)
    col = {name: header.index(name) for name in header}

    records = []
    for row_num, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"row {row_num}: expected {len(header)} cells, got {len(row)}"
            )

        def cell(name: str) -> str:
            return row[col[name]].strip()

        s_raw, d_raw = cell("s"), cell("d")
        if s_raw not in ("0", "1"):
            raise ParseError(f"row {row_num}: s must be 0 or 1, got {s_raw!r}")
        if d_raw not in ("0", "1"):
            raise ParseError(f"row {row_num}: d must be 0 or 1, got {d_raw!r}")
        s_val, d_val = int(s_raw), int(d_raw)

        y_raw = cell("y")
        y_missing = y_raw == "" or y_raw.upper() == "NA"
        if s_val == 1 and y_missing:
            raise ParseError(f"row {row_num}: y is missing but s = 1")
        if s_val == 0 and not y_missing:
            raise ParseError(f"row {row_num}: y is present but s = 0")
        y_val = None
        if not y_missing:
            try:
                y_val = float(y_raw)
            except ValueError:
                raise ParseError(
                    f"row {row_num}: y must be numeric, got {y_raw!r}"
                ) from None
            if not math.isfinite(y_val):
                raise ParseError(f"row {row_num}: y must be finite, got {y_raw!r}")

        block = cell("block")
        if not block:
            raise ParseError(f"row {row_num}: block label is empty")

        x_val = None
        if x_cols:
            vals = []
            for name in x_cols:
                raw = cell(name)
                try:
                    v = float(raw)
                except ValueError:
                    raise ParseError(
                        f"row {row_num}: {name} must be numeric, got {raw!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(f"row {row_num}: {name} must be finite")
                vals.append(v)
            x_val = tuple(vals)

        try:
            records.append(UnitRecord(y=y_val, s=s_val, d=d_val, block=block, x=x_val))
        except ValidationError as exc:
            raise ParseError(f"row {row_num}: {exc}") from None

    if not records:
        raise ParseError("no data rows")
    return Dataset(records=tuple(records))


def write_csv(data: Dataset, target) -> None:
    """Serialize a dataset so parse_csv reads back identical records.

    Floats are written with shortest round-trip repr; a missing outcome is an
    empty cell. Writing to a path goes through a temp file + atomic rename.
    """
    arity = 0 if data.x is None else data.x.shape[1]
    header = list(REQUIRED_COLUMNS) + [f"x{j}" for j in range(1, arity + 1)]

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in data.records:
            row = [
                "" if rec.y is None else repr(rec.y),
                str(rec.s),
                str(rec.d),
                rec.block,
            ]
            if arity:
                row.extend(repr(v) for v in rec.x)
            writer.writerow(row)

    if hasattr(target, "write"):
        emit(target)
        return
    tmp = f"{target}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        emit(fh)
    os.replace(tmp, target)


def dataset_to_csv_text(data: Dataset) -> str:
    """Serialize to a CSV string (same format as write_csv)."""
    buf = io.StringIO()
    write_csv(data, buf)
    return buf.getvalue()
