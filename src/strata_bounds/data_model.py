"""Data containers, CSV parsing, and block summaries.

A dataset is a set of validated, read-only columns: the observed outcome
(present only when selected), the selection and treatment indicators, an
opaque block label, and optional numeric covariates. The block design holds
one array entry per block. Both are built once and shared by the
estimators.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError, ParseError, ValidationError

REQUIRED_COLUMNS = ("y", "s", "d", "block")
# rows parse_csv reads and validates at a time; memory grows with this, not
# with the file
CSV_CHUNK_ROWS = 4096
# block labels an error message names before it gives only their count
LABELS_IN_MESSAGE = 5


def _name_blocks(labels, indices) -> str:
    """The labels of the indexed blocks, for an error message.

    Up to LABELS_IN_MESSAGE are listed in full; a longer list is cut to its
    count and first few labels, "5012 blocks: a, b, c, d, e, ...".
    """
    indices = list(indices)
    shown = ", ".join(labels[g] for g in indices[:LABELS_IN_MESSAGE])
    if len(indices) <= LABELS_IN_MESSAGE:
        return shown
    return f"{len(indices)} blocks: {shown}, ..."


def _indicator(values, name: str) -> np.ndarray:
    """A 0/1 column as int64; the first other value is named."""
    col = np.asarray(values)
    bad = (col != 0) & (col != 1)
    if bad.any():
        raise ValidationError(
            f"{name} must be 0 or 1, got {col[bad].tolist()[0]!r}"
        )
    return col.astype(np.int64)


def _covariates(x, n: int) -> np.ndarray | None:
    """Covariates as an (n, k) float matrix, or None when there are none."""
    if x is None:
        return None
    try:
        x = np.array(x, dtype=float)
    except (TypeError, ValueError):
        arities = [np.size(row) for row in x]
        other = next((a for a in arities if a != arities[0]), None)
        if other is None:
            raise ValidationError("covariates must be finite numbers") from None
        raise ValidationError(
            f"covariate arity differs across records ({other} vs {arities[0]})"
        ) from None
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValidationError("covariates need one row per unit")
    if x.shape[1] == 0:
        return None
    if not np.isfinite(x).all():
        raise ValidationError("covariates must be finite numbers")
    return x


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated, read-only unit columns.

    y is the observed outcome, nan exactly where s == 0; s (selected) and d
    (treated) are 0/1 int64 columns; codes is an int64 column mapping each
    unit to its block, an index into labels, the sorted table of distinct
    block labels (opaque strings compared after trimming); x is an (n, k)
    covariate matrix or None.
    """

    y: np.ndarray
    s: np.ndarray
    d: np.ndarray
    codes: np.ndarray
    labels: tuple[str, ...]
    x: np.ndarray | None = None

    def __post_init__(self):
        s = _indicator(self.s, "s")
        d = _indicator(self.d, "d")
        y = np.array(self.y, dtype=float)
        codes = np.array(self.codes)
        n = s.size
        if s.shape != (n,) or y.shape != (n,) or d.shape != (n,) or codes.shape != (n,):
            raise ValidationError("y, s, d and block need one entry per unit")
        if not np.isfinite(y[s == 1]).all():
            raise ValidationError("selected unit (s=1) must carry a finite outcome")
        if not np.isnan(y[s == 0]).all():
            raise ValidationError("unselected unit (s=0) must not carry an outcome")
        labels = self.labels
        if not isinstance(labels, _LabelTable):
            labels = _label_table(labels)
        if n and (
            codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(labels)
        ):
            raise ValidationError("block codes must index the block labels")
        codes = codes.astype(np.int64, copy=False)  # np.array copied it
        x = _covariates(self.x, n)
        if n < 2:
            raise ValidationError("dataset needs at least 2 units")
        if d.sum() == 0 or d.sum() == n:
            raise ValidationError("dataset needs at least one treated and one control unit")
        sizes = np.bincount(codes, minlength=len(labels))
        thin = np.flatnonzero(sizes < 2).tolist()
        if thin:
            raise ValidationError(
                "every block needs at least 2 units; too small: "
                + _name_blocks(labels, thin)
            )

        for col in (y, s, d, codes, x):
            if col is not None:
                col.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def blocks(self) -> tuple[str, ...]:
        """One block label per unit, in dataset order."""
        return tuple(map(self.labels.__getitem__, self.codes.tolist()))


class _LabelTable(tuple):
    """A block label table known to be trimmed non-empty strings, strictly
    increasing. Only code that has checked a table makes one, and Dataset
    takes it without checking it again; a plain tuple gets every check."""

    __slots__ = ()


def _label_table(table) -> _LabelTable:
    """The block labels as trimmed strings, checked non-empty and strictly
    increasing."""
    labels = tuple(map(str.strip, map(str, table)))
    if not all(labels):
        raise ValidationError("block label must be a non-empty string")
    # strictly increasing: sorted and distinct in one pass
    if not all(map(operator.lt, labels, labels[1:])):
        raise ValidationError("block labels must be sorted and distinct")
    return _LabelTable(labels)


def _label_codes(labels: list[str], index: dict[str, int]) -> np.ndarray:
    """Block labels as int64 codes in index, a label -> code table that a
    label not in it joins with the next free code, in order of first
    appearance (so a table read in sorted order stays sorted, and sorting it
    is a single pass)."""
    fresh = [label for label in dict.fromkeys(labels) if label not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(
        map(index.__getitem__, labels), dtype=np.int64, count=len(labels)
    )


def _sorted_codes(
    codes: np.ndarray, index: dict[str, int]
) -> tuple[np.ndarray, _LabelTable]:
    """Codes in index as codes into the sorted table of its labels."""
    table = sorted(index)
    # sorted and distinct by construction, so an empty label comes first
    if table and not table[0]:
        raise ValidationError("block label must be a non-empty string")
    rank = np.empty(len(table), dtype=np.int64)  # per code, its label's rank
    rank[[index[label] for label in table]] = np.arange(len(table))
    return rank[codes], _LabelTable(table)


def dataset_from_arrays(y, s, d, block, x=None) -> Dataset:
    """Build a Dataset from parallel columns, with one block label per unit;
    y is ignored where s = 0."""
    s_col = np.asarray(s)
    y = np.asarray(y, dtype=float)
    if y.shape == s_col.shape:  # Dataset reports a mismatch
        y = np.where(s_col == 1, y, np.nan)
    index: dict[str, int] = {}  # the trimmed labels, coded, then sorted
    codes = _label_codes(list(map(str.strip, map(str, block))), index)
    codes, labels = _sorted_codes(codes, index)
    return Dataset(y=y, s=s_col, d=d, codes=codes, labels=labels, x=x)


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """Per-block columns, blocks sorted by label, plus the pooled treated share.

    Block g has label labels[g] and n_g[g] units, t_g[g] of them treated;
    n1s_g and n0s_g count its observed treated and observed control units.
    eta_g = t_g / n_g is the treated share and m_g = n0s_g / (n_g - t_g) the
    observed-control rate. x_mean holds the covariate means, shape (G, k),
    or None. codes maps each unit, in dataset order, to its block index.
    """

    labels: tuple[str, ...]
    n_g: np.ndarray
    t_g: np.ndarray
    eta_g: np.ndarray
    m_g: np.ndarray
    n1s_g: np.ndarray
    n0s_g: np.ndarray
    x_mean: np.ndarray | None
    codes: np.ndarray = field(repr=False)
    p_hat: float

    def __post_init__(self):
        for name in ("n_g", "t_g", "eta_g", "m_g", "n1s_g", "n0s_g", "x_mean", "codes"):
            col = getattr(self, name)
            if col is not None:
                col.setflags(write=False)

    @property
    def n_blocks(self) -> int:
        return len(self.labels)


def block_design(data: Dataset) -> BlockDesign:
    """Summarize blocks; every block must contain both arms.

    Blocks follow the dataset's sorted label table, so downstream output is
    deterministic; p_hat is the exact pooled treated share.
    """
    codes, labels = data.codes, data.labels
    n_blocks = len(labels)
    # per block, counts of (d, s) = (0, 0), (0, 1), (1, 0), (1, 1)
    cells = np.bincount(
        codes * 4 + data.d * 2 + data.s, minlength=4 * n_blocks
    ).reshape(n_blocks, 4)
    n_g = cells.sum(axis=1)
    t_g = cells[:, 2] + cells[:, 3]
    n1s = cells[:, 3]
    n0s = cells[:, 1]

    bad = np.flatnonzero((t_g < 1) | (t_g > n_g - 1)).tolist()
    if bad:
        raise DesignError(
            "every block needs at least one treated and one control unit; "
            f"violated by: {_name_blocks(labels, bad)}"
        )

    x_mean = None
    if data.x is not None:
        x_mean = np.column_stack([
            np.bincount(codes, weights=col, minlength=n_blocks)
            for col in data.x.T
        ]) / n_g[:, None]

    return BlockDesign(
        labels=labels,
        n_g=n_g,
        t_g=t_g,
        eta_g=t_g / n_g,
        m_g=n0s / (n_g - t_g),
        n1s_g=n1s,
        n0s_g=n0s,
        x_mean=x_mean,
        codes=codes,
        p_hat=float(t_g.sum() / n_g.sum()),
    )


# ---------------------------------------------------------------------------
# CSV input
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

    The outcome cell must be empty or "NA" exactly when s = 0. Cells may be
    quoted, lines may end in CRLF, blank rows are skipped, and a leading
    byte-order mark is ignored. Errors name the 1-based data row, or the
    1-based line for a malformed CSV line, a cell longer than
    csv.field_size_limit() or bytes that are not UTF-8. Block labels are
    trimmed strings and are never coerced to numbers.

    source is a path, read as UTF-8, or a text stream. Bytes a stream
    decoded with errors="surrogateescape" are reported like the path's; a
    stream that decodes strictly fails while it fills its read-ahead, before
    the line that holds them is known, so its error names no line.
    """
    if hasattr(source, "read"):
        try:
            return _parse_csv_stream(source)
        except UnicodeDecodeError:
            raise ParseError("input is not valid UTF-8") from None
    try:
        fh = open(
            source, "r", newline="", encoding="utf-8", errors="surrogateescape"
        )
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    with fh:
        return _parse_csv_stream(fh)


def _parse_csv_stream(fh) -> Dataset:
    """Parse a text stream CSV_CHUNK_ROWS lines at a time.

    A chunk with no '"', whose every '\\r' is in a CRLF line end, holds
    one record a line, so it is tokenized with one str.split of its joined
    text, CRLF read as '\\n' (_split_columns). The first other chunk hands
    itself and the rest of the stream to csv.reader, which joins quoted
    lines into one record. Rows are counted by record and lines by line of
    text, both from the start of the stream, whichever path reads them.
    Each chunk's block labels become codes as it is read, through one
    label -> code table for the stream, remapped to sorted label order once
    at the end, so no row's label string outlives its chunk.
    """
    lines = iter(fh)
    # drop the byte-order mark spreadsheet programs write
    first = next(lines, "").removeprefix("\ufeff")
    reader = csv.reader(itertools.chain((first,), lines) if first else ())
    header = _read_rows(reader, 0, 1)
    if not header:
        raise ParseError("empty file: no header row")
    header = [h.strip() for h in header[0]]
    # the header's cells as one line, the last the reader took
    joined = ",".join(header)
    _check_utf8(joined, [joined], reader.line_num - 1)
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"missing required columns: {', '.join(missing)}")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")
    width = len(header)
    at = tuple(header.index(name) for name in REQUIRED_COLUMNS)
    x_at = tuple((name, header.index(name)) for name in _x_columns(header))
    layout = (width, at, x_at)

    # per chunk, its columns, the block labels as codes in `index`, which
    # every chunk extends, so no chunk's label strings outlive it
    chunks = []
    index: dict[str, int] = {}
    offset = 0  # data rows read, by record
    line_num = reader.line_num  # lines read
    texts = _line_chunks(lines, line_num)
    for chunk, text in texts:
        crlf = "\r" in text
        if crlf and '"' not in text and text.count("\r") == text.count("\r\n"):
            # every '\r' ends a line, so each line is still one record
            text, crlf = text.replace("\r\n", "\n"), False
        if crlf or '"' in text:
            # csv.reader reads this chunk and the rest of the stream
            rest = itertools.chain.from_iterable(later for later, _ in texts)
            reader = csv.reader(itertools.chain(chunk, rest))
            while rows := _read_rows(reader, line_num, CSV_CHUNK_ROWS):
                chunks.append(_coded(
                    _row_columns(rows, *layout)
                    or _check_rows(rows, offset, *layout), index
                ))
                offset += len(rows)
            break
        chunks.append(_coded(
            _split_columns(chunk, text, *layout)
            or _check_rows(
                _read_rows(csv.reader(chunk), line_num), offset, *layout
            ), index
        ))
        offset += len(chunk)
        line_num += len(chunk)

    if not sum(len(chunk[0]) for chunk in chunks):
        raise ParseError("no data rows")
    y, s, d, codes, x = (np.concatenate(column) for column in zip(*chunks))
    del chunks  # Dataset copies the columns; the chunks' are freed first
    codes, labels = _sorted_codes(codes, index)
    return Dataset(
        y=y, s=s, d=d, codes=codes, labels=labels, x=x if x_at else None
    )


def _coded(columns: tuple, index: dict[str, int]) -> tuple:
    """A chunk's columns with its block labels as codes in index."""
    y, s, d, blocks, x = columns
    return y, s, d, _label_codes(blocks, index), x


def _read_rows(reader, line_num: int, count: int | None = None) -> list:
    """Up to count records of a csv.reader (all with None); a csv.Error
    names its line, counting line_num lines read before the reader's."""
    try:
        return list(itertools.islice(reader, count))
    except csv.Error as exc:
        raise ParseError(f"line {line_num + reader.line_num}: {exc}") from None


def _check_utf8(text: str, chunk: list[str], line_num: int) -> None:
    """Refuse text holding bytes that were not UTF-8.

    A stream decoded with errors="surrogateescape" keeps such bytes as lone
    surrogates, which valid UTF-8 never decodes to and str.encode refuses.
    text is the lines of chunk joined; the error names the line of the
    first such byte, counting line_num lines before the chunk.
    """
    if text.isascii():
        return
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        ends = itertools.accumulate(map(len, chunk))
        before = sum(1 for end in ends if end <= exc.start)
        raise ParseError(
            f"line {line_num + before + 1}: input is not valid UTF-8"
        ) from None


def _line_chunks(lines, line_num: int):
    """Chunks of CSV_CHUNK_ROWS lines with their joined text, each checked
    to be UTF-8; line_num counts the lines read before."""
    while chunk := list(itertools.islice(lines, CSV_CHUNK_ROWS)):
        text = "".join(chunk)
        _check_utf8(text, chunk, line_num)
        yield chunk, text
        line_num += len(chunk)


def _split_columns(chunk: list[str], text: str, width: int, at, x_at):
    """The columns of a chunk of quote-free lines, tokenized by one split,
    or None.

    text is the chunk joined, CRLF line ends read as '\\n', and holds no
    '"' and no '\\r', so each line is one record whose cells are its
    comma-separated pieces, as csv.reader gives them, if no cell passes
    csv.field_size_limit(). That holds when every line, the last possibly
    without its newline, has exactly width - 1 commas and no line is longer
    than the limit. Otherwise, or if _columns refuses the cells, None.
    """
    m = len(chunk)
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    # in each line, width - 1 commas and then the newline
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if (
        seps.size != m * width - (not text.endswith("\n"))
        or (raw[seps[width - 1::width]] != ord("\n")).any()
        or max(map(len, chunk)) > csv.field_size_limit()
    ):
        return None
    return _columns(text.replace("\n", ",").split(","), m, width, at, x_at)


def _row_columns(rows: list[list[str]], width: int, at, x_at):
    """The columns of a chunk of csv.reader rows, or None: see _columns."""
    if set(map(len, rows)) != {width}:
        return None
    return _columns(
        list(itertools.chain.from_iterable(rows)), len(rows), width, at, x_at
    )


def _columns(cells: list[str], m: int, width: int, at, x_at):
    """The columns of m full-width rows, validated by column, or None.

    cells holds the rows' cells in order, row after row, and may run on
    past them; width is the header's; at holds the positions of y, s, d and
    block, and x_at the name and position of each covariate.

    This is the fast path for canonical rows: s and d exactly "0" or "1",
    y empty exactly where s = 0 and a finite number elsewhere, non-empty
    block labels and finite covariates. Anything else, including valid
    spaces and "NA", returns None and is left to _check_rows, which gives
    the same columns or the row's error.
    """
    end = m * width
    y_col, s_col, d_col, block_col = (cells[i:end:width] for i in at)
    if not {*s_col, *d_col} <= {"0", "1"}:
        return None
    # each s and d cell is one character, so its column joins to one byte a row
    s, d = (
        np.frombuffer("".join(col).encode(), dtype=np.uint8).astype(np.int64) - ord("0")
        for col in (s_col, d_col)
    )
    if any(itertools.compress(y_col, (s == 0).tolist())):
        return None
    try:
        # numpy converts each string with float(), as _check_rows does; an
        # empty y where s = 1 fails here
        y_obs = np.array(list(itertools.compress(y_col, s.tolist())), dtype=float)
        x = np.array(
            [cells[i:end:width] for _, i in x_at], dtype=float
        ).reshape(-1, m).T
    except ValueError:
        return None
    blocks = list(map(str.strip, block_col))
    if not (np.isfinite(y_obs).all() and np.isfinite(x).all() and all(blocks)):
        return None
    y = np.full(m, np.nan)
    y[s == 1] = y_obs
    return y, s, d, blocks, x


def _check_rows(rows: list[list[str]], offset: int, width: int, at, x_at):
    """The columns of a chunk of rows, checked one row at a time.

    Blank rows are skipped. The first invalid row raises a ParseError that
    names its 1-based data row, counted from offset.
    """
    i_y, i_s, i_d, i_block = at
    ys: list[float] = []
    ss: list[int] = []
    ds: list[int] = []
    blocks: list[str] = []
    xs: list[list[float]] = []
    for row_num, row in enumerate(rows, start=offset + 1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ParseError(
                f"row {row_num}: expected {width} cells, got {len(row)}"
            )

        s_raw, d_raw = row[i_s].strip(), row[i_d].strip()
        if s_raw not in ("0", "1"):
            raise ParseError(f"row {row_num}: s must be 0 or 1, got {s_raw!r}")
        if d_raw not in ("0", "1"):
            raise ParseError(f"row {row_num}: d must be 0 or 1, got {d_raw!r}")
        selected = s_raw == "1"

        y_raw = row[i_y].strip()
        y_missing = y_raw == "" or y_raw.upper() == "NA"
        if selected and y_missing:
            raise ParseError(f"row {row_num}: y is missing but s = 1")
        if not selected and not y_missing:
            raise ParseError(f"row {row_num}: y is present but s = 0")
        y_val = math.nan
        if not y_missing:
            try:
                y_val = float(y_raw)
            except ValueError:
                raise ParseError(
                    f"row {row_num}: y must be numeric, got {y_raw!r}"
                ) from None
            if not math.isfinite(y_val):
                raise ParseError(f"row {row_num}: y must be finite, got {y_raw!r}")

        block = row[i_block].strip()
        if not block:
            raise ParseError(f"row {row_num}: block label is empty")

        if x_at:
            vals = []
            for name, i in x_at:
                raw = row[i].strip()
                try:
                    v = float(raw)
                except ValueError:
                    raise ParseError(
                        f"row {row_num}: {name} must be numeric, got {raw!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(f"row {row_num}: {name} must be finite")
                vals.append(v)
            xs.append(vals)

        ys.append(y_val)
        ss.append(int(selected))
        ds.append(int(d_raw == "1"))
        blocks.append(block)

    x = np.array(xs, dtype=float).reshape(len(ys), len(x_at))
    return (np.array(ys, dtype=float), np.array(ss, dtype=np.int64),
            np.array(ds, dtype=np.int64), blocks, x)


def format_number(value) -> str:
    """Numeric cell: 12 significant digits; nan stays literal."""
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"
