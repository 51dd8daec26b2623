"""Dataset columns, block designs, and CSV round-tripping."""

import io
import math
import re

import numpy as np
import pytest

from strata_bounds import data_model
from strata_bounds import (
    Dataset,
    DesignError,
    ParseError,
    ValidationError,
    block_design,
    dataset_from_arrays,
    parse_csv,
    simulate_dgp1,
)

from strata_bounds.cli import flip_treatment

from conftest import (
    assert_parses_like_oracle,
    assert_same_columns,
    build_dataset,
    count_calls,
    dataset_to_csv_text,
    hand_arrays,
)

from frozen_values import DESIGN_ETAS, DESIGN_P_HAT


# ---------------------------------------------------------------------------
# one unit's values
# ---------------------------------------------------------------------------

def test_record_accepts_observed_and_missing():
    data = Dataset(y=[1.5, np.nan], s=[1, 0], d=[0, 1], codes=[0, 0], labels=("a",))
    assert data.y[0] == 1.5 and math.isnan(data.y[1])
    assert data.s.dtype == data.d.dtype == data.codes.dtype == np.int64


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(y=1.0, s=2, d=0, block="a", match="s must be 0 or 1, got 2"),
        dict(y=1.0, s=1, d=-1, block="a", match="d must be 0 or 1, got -1"),
        dict(y=None, s=1, d=0, block="a", match="must carry a finite outcome"),
        dict(y=float("nan"), s=1, d=0, block="a", match="finite outcome"),
        dict(y=float("inf"), s=1, d=0, block="a", match="finite outcome"),
        dict(y=1.0, s=0, d=0, block="a", match="must not carry an outcome"),
        dict(y=1.0, s=1, d=0, block="", match="non-empty string"),
        dict(y=1.0, s=1, d=0, block="   ", match="non-empty string"),
        dict(y=1.0, s=1, d=0, block="a", x=(1.0, float("nan")),
             match="covariates must be finite"),
    ],
)
def test_record_rejects_invalid(kwargs):
    # the bad unit sits second, next to a valid treated unit of its block
    unit = dict(kwargs)
    match = unit.pop("match")
    x = unit.pop("x", None)
    with pytest.raises(ValidationError, match=match):
        Dataset(
            y=[2.0, unit["y"]], s=[1, unit["s"]], d=[1, unit["d"]],
            codes=[0, 0], labels=(unit["block"],),
            x=None if x is None else [(0.0, 0.0), x],
        )


def test_record_trims_block_label_and_drops_empty_x():
    data = dataset_from_arrays(
        y=[1.0, 2.0], s=[1, 1], d=[0, 1], block=["  b1  ", "b1"], x=[(), ()]
    )
    assert data.blocks == ("b1", "b1")
    assert data.labels == ("b1",) and data.codes.tolist() == [0, 0]
    assert data.x is None
    trimmed = Dataset(y=[1.0, 2.0], s=[1, 1], d=[0, 1], codes=[0, 0], labels=(" b1 ",))
    assert trimmed.labels == ("b1",)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def test_dataset_columns_cached_and_missing_outcomes_are_nan(hand_dataset):
    assert hand_dataset.n == 20
    assert hand_dataset.y.shape == (20,)
    assert np.isnan(hand_dataset.y[hand_dataset.s == 0]).all()
    assert hand_dataset.d.sum() == 10
    assert hand_dataset.blocks == ("a",) * 20


def test_dataset_columns_are_read_only(hand_dataset):
    for col in (hand_dataset.y, hand_dataset.s, hand_dataset.d, hand_dataset.codes):
        with pytest.raises(ValueError):
            col[0] = 1


def test_dataset_copies_its_inputs():
    y = np.array([1.0, 2.0])
    s = np.array([1, 1])
    codes = np.array([0, 0])
    data = Dataset(y=y, s=s, d=[1, 0], codes=codes, labels=("a",))
    y[0] = 99.0
    s[0] = 0
    codes[0] = 1
    assert data.y[0] == 1.0 and data.s[0] == 1 and data.codes[0] == 0
    assert y.flags.writeable


def test_dataset_needs_two_units():
    with pytest.raises(ValidationError, match="at least 2"):
        Dataset(y=[1.0], s=[1], d=[1], codes=[0], labels=("a",))


def test_dataset_needs_both_arms():
    with pytest.raises(ValidationError, match="treated and one control"):
        Dataset(y=[1.0] * 4, s=[1] * 4, d=[1] * 4, codes=[0] * 4, labels=("a",))


def test_dataset_rejects_singleton_block():
    with pytest.raises(ValidationError, match="lonely"):
        Dataset(
            y=[1.0, 2.0, 3.0], s=[1, 1, 1], d=[1, 0, 0],
            codes=[0, 0, 1], labels=("a", "lonely"),
        )


def test_dataset_rejects_mixed_covariate_arity():
    with pytest.raises(ValidationError, match="arity"):
        Dataset(
            y=[1.0, 2.0], s=[1, 1], d=[1, 0], codes=[0, 0], labels=("a",),
            x=[(1.0,), (1.0, 2.0)],
        )


@pytest.mark.parametrize(
    "columns,fragment",
    [
        (dict(y=[1.0, 2.0], s=[1, 1], d=[1, 0], codes=[0]), "one entry per unit"),
        (dict(y=[1.0], s=[1, 1], d=[1, 0], codes=[0, 0]), "one entry per unit"),
        (dict(y=[1.0, 2.0], s=[1, 1], d=[1, 0], codes=[0, 0], x=[[1.0]]),
         "one row per unit"),
    ],
)
def test_dataset_rejects_columns_of_unequal_length(columns, fragment):
    with pytest.raises(ValidationError, match=fragment):
        Dataset(**columns, labels=("a",))
    y, s, d, codes = (columns[k] for k in ("y", "s", "d", "codes"))
    with pytest.raises(ValidationError, match=fragment):
        dataset_from_arrays(y, s, d, ["a"] * len(codes), x=columns.get("x"))


@pytest.mark.parametrize(
    "codes,labels,fragment",
    [
        ([0, 0, 1, 1], ("b", "a"), "sorted and distinct"),
        ([0, 0, 1, 1], ("a", " a "), "sorted and distinct"),
        ([0, 0, 1, 2], ("a", "b"), "index the block labels"),
        ([0, 0, -1, 1], ("a", "b"), "index the block labels"),
        ([0.0, 0.0, 1.0, 1.0], ("a", "b"), "index the block labels"),
        ([0, 0, 0, 0], ("a", "b"), "too small: b"),
    ],
)
def test_dataset_rejects_bad_label_tables(codes, labels, fragment):
    with pytest.raises(ValidationError, match=fragment):
        Dataset(y=[1.0] * 4, s=[1] * 4, d=[1, 0, 1, 0], codes=codes, labels=labels)


def test_dataset_takes_a_checked_label_table_by_its_type():
    columns = dict(y=[1.0] * 4, s=[1] * 4, d=[1, 0, 1, 0], codes=[0, 0, 1, 1])
    checked = data_model._label_table((" a", "b"))
    assert checked == ("a", "b")
    # the checked table passes as that very object
    assert Dataset(**columns, labels=checked).labels is checked
    # a plain tuple gets every check, even one equal to a checked table
    for labels, fragment in [
        (("b", "a"), "sorted and distinct"),
        (("a", " \t "), "non-empty"),
    ]:
        with pytest.raises(ValidationError, match=fragment):
            Dataset(**columns, labels=labels)
        with pytest.raises(ValidationError, match=fragment):
            data_model._label_table(labels)
    # (1,) and (1.0,) compare and hash alike, but are different labels
    pair = dict(y=[1.0, 2.0], s=[1, 1], d=[1, 0], codes=[0, 0])
    assert Dataset(**pair, labels=(1,)).labels == ("1",)
    assert Dataset(**pair, labels=(1.0,)).labels == ("1.0",)


def test_built_datasets_hand_over_a_table_checked_once(monkeypatch, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("y,s,d,block\n1,1,1, a\n2,1,0,a\n")
    counts = count_calls(monkeypatch, [data_model._label_table])
    # each builder checks its table where it builds it, and Dataset, seeing
    # its type, does not check it again
    for build in (
        lambda: parse_csv(str(path)),
        lambda: dataset_from_arrays([1.0, 2.0], [1, 1], [1, 0], [" a", "a"]),
        lambda: flip_treatment(parse_csv(str(path))),
    ):
        assert build().labels == ("a",)
        assert counts == {"_label_table": 0}
    with pytest.raises(ValidationError, match="block label must be a non-empty string"):
        dataset_from_arrays([1.0, 2.0], [1, 1], [1, 0], [" \t ", " \t "])


def test_simulated_pairs_of_one_size_share_one_label_table():
    first, second = simulate_dgp1(1, n=20), simulate_dgp1(2, n=20)
    assert first.labels is second.labels
    assert first.labels == tuple(f"{g:01d}" for g in range(10))


def test_dataset_codes_follow_sorted_label_order():
    # code-point order, as Python sorts strings: digits, upper, lower case
    block = ["b", "b", "B", "B", "10", "10", "9", "9", "é", "é", "a", "a"]
    data = dataset_from_arrays(
        y=np.arange(12.0), s=[1] * 12, d=[1, 0] * 6, block=block
    )
    assert data.labels == tuple(sorted(set(block)))
    assert data.blocks == tuple(block)
    assert [data.labels[c] for c in data.codes.tolist()] == block


def test_dataset_from_arrays_ignores_y_where_unselected():
    data = dataset_from_arrays(
        y=[1.0, 999.0, 2.0, 3.0],
        s=[1, 0, 1, 1],
        d=[1, 1, 0, 0],
        block=["a", "a", "a", "a"],
    )
    assert math.isnan(data.y[1])
    assert data.y[[0, 2, 3]].tolist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# block_design
# ---------------------------------------------------------------------------

def test_block_design_frozen_two_block_values(two_block_dataset):
    design = block_design(two_block_dataset)
    assert tuple(design.eta_g.tolist()) == DESIGN_ETAS
    assert design.p_hat == DESIGN_P_HAT
    assert design.labels == ("a", "b")
    assert design.n_g.tolist() == [4, 6]
    assert design.t_g.tolist() == [1, 3]
    assert design.n1s_g.tolist() == [1, 3]
    assert design.n0s_g.tolist() == [3, 3]
    assert design.m_g.tolist() == [1.0, 1.0]
    assert design.x_mean is None
    with pytest.raises(ValueError):
        design.n_g[0] = 5


def test_block_design_codes_follow_dataset_order(two_block_dataset):
    design = block_design(two_block_dataset)
    assert design.codes.tolist() == [0] * 4 + [1] * 6


def test_block_design_sorts_labels_not_input_order():
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0],
        s=[1, 1, 1, 1],
        d=[1, 0, 1, 0],
        blocks=["zz", "zz", "aa", "aa"],
    )
    design = block_design(data)
    assert design.labels == ("aa", "zz")
    assert design.codes.tolist() == [1, 1, 0, 0]


def test_block_design_covariate_means():
    x = np.array([[1.0], [3.0], [10.0], [20.0]])
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0],
        s=[1, 1, 1, 1],
        d=[1, 0, 1, 0],
        blocks=["a", "a", "b", "b"],
        x=x,
    )
    design = block_design(data)
    assert design.x_mean.tolist() == [[2.0], [15.0]]


def test_block_design_rejects_one_armed_block_by_name():
    data = build_dataset(
        y=[1.0, 2.0, 3.0, 4.0],
        s=[1, 1, 1, 1],
        d=[1, 1, 1, 0],
        blocks=["bad", "bad", "ok", "ok"],
    )
    with pytest.raises(DesignError, match="bad"):
        block_design(data)


def test_block_summary_rejects_degenerate_counts():
    # a block with no treated unit, next to one with no control
    data = build_dataset(
        y=[1.0] * 7, s=[1] * 7, d=[0, 0, 0, 1, 1, 1, 0],
        blocks=["g"] * 3 + ["h"] * 2 + ["ok"] * 2,
    )
    with pytest.raises(DesignError, match="violated by: g, h$"):
        block_design(data)


# ---------------------------------------------------------------------------
# parse_csv
# ---------------------------------------------------------------------------

HAND_CSV = (
    "y,s,d,block\n"
    "1,1,1,a\n2,1,1,a\n3,1,1,a\n4,1,1,a\n5,1,1,a\n6,1,1,a\n7,1,1,a\n8,1,1,a\n"
    "NA,0,1,a\n,0,1,a\n"
    "1,1,0,a\n2,1,0,a\n3,1,0,a\n4,1,0,a\n5,1,0,a\n6,1,0,a\n"
    "NA,0,0,a\n,0,0,a\nNA,0,0,a\n,0,0,a\n"
)


def test_parse_csv_hand_text_matches_fixture(hand_dataset):
    parsed = parse_csv(io.StringIO(HAND_CSV))
    assert_same_columns(parsed, hand_dataset)


def test_parse_csv_skips_blank_lines_and_trims_header():
    text = "y , s , d , block\n\n1,1,1,a\n   \n2,1,0,a\n"
    data = parse_csv(io.StringIO(text))
    assert data.n == 2


def test_parse_csv_reads_covariates_in_declared_order():
    text = "x2,y,s,d,block,x1\n5.0,1,1,1,a,7.0\n6.0,2,1,0,a,8.0\n"
    data = parse_csv(io.StringIO(text))
    assert data.x.tolist() == [[7.0, 5.0], [8.0, 6.0]]


PARSE_ERRORS = [
    ("", "empty file"),
    ("y,s,d\n1,1,1\n", "missing required columns: block"),
    ("y,s,d,block,y\n1,1,1,a,1\n", "duplicate column"),
    ("y,s,d,block,z\n1,1,1,a,2\n", "x1..xk"),
    ("y,s,d,block,x1,x3\n1,1,1,a,2,3\n", "x1..xk"),
    ("y,s,d,block\n", "no data rows"),
    ("y,s,d,block\n1,1,1\n", "row 1: expected 4 cells"),
    ("y,s,d,block\n1,1,1,a\n1,2,1,a\n", "row 2: s must be 0 or 1"),
    ("y,s,d,block\n1,1,yes,a\n", "row 1: d must be 0 or 1"),
    ("y,s,d,block\nNA,1,1,a\n", "row 1: y is missing but s = 1"),
    ("y,s,d,block\n3,0,1,a\n", "row 1: y is present but s = 0"),
    ("y,s,d,block\nabc,1,1,a\n", "row 1: y must be numeric"),
    ("y,s,d,block\ninf,1,1,a\n", "row 1: y must be finite"),
    ("y,s,d,block\n1,1,1,\n", "row 1: block label is empty"),
    ("y,s,d,block,x1\n1,1,1,a,oops\n", "row 1: x1 must be numeric"),
    ("y,s,d,block,x1\n1,1,1,a,nan\n", "row 1: x1 must be finite"),
]


@pytest.mark.parametrize("text,fragment", PARSE_ERRORS)
def test_parse_csv_reports_row_nummed_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment.replace("(", "\\(")):
        parse_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "text,fragment", [case for case in PARSE_ERRORS if case[1].startswith("row ")]
)
def test_parse_csv_reports_row_errors_past_the_first_chunk(text, fragment):
    # the same bad rows behind more than a chunk of valid ones: the same
    # message, with the row number shifted
    header, body = text.split("\n", 1)
    extra = len(header.split(",")) - 4
    shift = data_model.CSV_CHUNK_ROWS + 7
    valid = ",".join(["1", "1", "1", "a"] + ["2"] * extra)
    shifted = "\n".join([header] + [valid] * shift) + "\n" + body
    row, rest = re.fullmatch(r"row (\d+): (.*)", fragment).groups()
    expected = f"row {int(row) + shift}: {rest}"
    with pytest.raises(ParseError, match=re.escape(expected)):
        parse_csv(io.StringIO(shifted))


def _mixed_csv_pair(n_rows=60):
    """The same data twice: as canonical CSV text, and with valid
    non-canonical rows mixed in (spaces, NA, blank rows, quoted fields), a
    byte-order mark and CRLF line ends."""
    rng = np.random.default_rng(5)
    canonical, mixed = ["y,s,d,block,x1"], ["\ufeffy , s,d,block,x1"]
    for i in range(n_rows):
        s = int(rng.random() < 0.7)
        y = repr(float(rng.normal())) if s else ""
        cells = [y, str(s), str(i % 2), f"g{i // 4}", repr(float(rng.normal()))]
        canonical.append(",".join(cells))
        kind = i % 6
        if kind == 1:
            mixed.append(",".join(f"  {c} " for c in cells))
        elif kind == 2:
            mixed.append(",".join([y or "NA"] + cells[1:]))
        elif kind == 3:
            mixed.append(",".join(f'"{c}"' for c in cells))
        elif kind == 4:
            mixed.extend(["", " , ,\t, , ", ",".join([y or "na"] + cells[1:])])
        else:
            mixed.append(",".join(cells))
    return "\n".join(canonical) + "\n", "\r\n".join(mixed) + "\r\n"


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 7])
def test_parse_csv_reads_non_canonical_rows_like_canonical_ones(
    monkeypatch, tmp_path, chunk_rows
):
    # chunk_rows None keeps the file in one chunk; the others put chunk
    # boundaries next to and inside the non-canonical rows
    if chunk_rows is not None:
        monkeypatch.setattr(data_model, "CSV_CHUNK_ROWS", chunk_rows)
    canonical, mixed = _mixed_csv_pair()
    want = parse_csv(io.StringIO(canonical))
    path = tmp_path / "mixed.csv"
    path.write_bytes(mixed.encode("utf-8"))
    assert_same_columns(parse_csv(str(path)), want)
    stdin = io.TextIOWrapper(io.BytesIO(mixed.encode("utf-8")), encoding="utf-8")
    assert_same_columns(parse_csv(stdin), want)
    np.testing.assert_array_equal(parse_csv(str(path)).codes, want.codes, strict=True)


def _data_lines(n_rows, label=lambda g: f"g{g}"):
    """n_rows valid canonical data lines, two units (one per arm) a block."""
    return [
        ",".join(["" if i % 3 == 2 else f"{i}.5", "0" if i % 3 == 2 else "1",
                  str(i % 2), label(i // 2)])
        for i in range(n_rows)
    ]


def _csv(lines, end="\n"):
    return "y,s,d,block\n" + "\n".join(lines) + end


def _quoted_label_at(k):
    """Data lines k and k + 1 with a label holding a newline inside quotes:
    each record spans two lines, so 20 records take 22 lines."""
    lines = _data_lines(20)
    lines[k - 1] = lines[k - 1].rsplit(",", 1)[0] + ',"g9\nbis"'
    lines[k] = lines[k].rsplit(",", 1)[0] + ',"g9\nbis"'
    return lines


# texts the one-split tokenizer must read as csv.reader does, each placed so
# that some chunk size puts a chunk boundary at or next to the edge
TOKENIZER_EDGES = {
    # a line with an extra cell, then one with a cell fewer: the commas of
    # the chunk add up, and its cells split at every comma would still make
    # two valid rows
    "widths_cancel": _csv(
        _data_lines(6) + ["2.5,1,1,g3,1", "1,0,g3"] + _data_lines(12)[8:]
    ),
    "quote_in_later_chunk": _csv(
        _data_lines(12) + ['"4.5",1,1,"g6"', '" 5.5 ",1,0,g6']
    ),
    "cr_in_later_chunk": _csv(_data_lines(12))
    + "\r\n".join(["6.5,1,1,g6", "7.5,1,0,g6"]) + "\r\n",
    "quoted_newline_opens_line_5": _csv(_quoted_label_at(5)),
    "quoted_newline_opens_line_7": _csv(_quoted_label_at(7)),
    "row_error_after_a_quoted_newline": _csv(_quoted_label_at(5) + ["1,2,1,g0"]),
    "line_error_after_a_quoted_newline": _csv(
        _quoted_label_at(5) + ["1,1,1," + "b" * 200_000]
    ),
    "multi_byte_labels": _csv(_data_lines(14, label=lambda g: "é日" * (g % 3 + 1) + "😀" * g)),
    "no_final_newline": _csv(_data_lines(14), end=""),
    "blank_lines": _csv(
        _data_lines(3) + ["", "   ", "\t"] + _data_lines(10)[3:] + ["", " , , , "]
    ),
    "oversized_cell_past_the_first_chunk": _csv(
        _data_lines(12) + ["1,1,1," + "b" * 200_000] + _data_lines(2)
    ),
    # a byte that was not UTF-8, as errors="surrogateescape" keeps it, after
    # lines whose characters take more than one byte
    "byte_not_utf8_past_the_first_chunk": _csv(
        _data_lines(12, label=lambda g: f"é{g}") + ["1,1,1,é\udcff"] + _data_lines(2)
    ),
}


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 7])
@pytest.mark.parametrize("case", sorted(TOKENIZER_EDGES))
def test_parse_csv_tokenizer_edges_read_like_csv_reader(monkeypatch, chunk_rows, case):
    if chunk_rows is not None:
        monkeypatch.setattr(data_model, "CSV_CHUNK_ROWS", chunk_rows)
    assert_parses_like_oracle(TOKENIZER_EDGES[case])


@pytest.mark.parametrize(
    "case,message",
    [
        ("widths_cancel", "row 7: expected 4 cells, got 5"),
        ("row_error_after_a_quoted_newline", "row 21: s must be 0 or 1, got '2'"),
        ("line_error_after_a_quoted_newline", "line 24: field larger than field limit"),
        ("oversized_cell_past_the_first_chunk", "line 14: field larger than field limit"),
        ("byte_not_utf8_past_the_first_chunk", "line 14: input is not valid UTF-8"),
    ],
)
def test_parse_csv_tokenizer_edges_name_rows_and_lines(case, message):
    # rows count records and lines count lines: a quoted newline makes two
    # lines of one record
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        parse_csv(io.StringIO(TOKENIZER_EDGES[case], newline=""))


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 7])
def test_parse_csv_refuses_a_carriage_return_inside_a_line(monkeypatch, chunk_rows):
    # a stream that splits lines only at "\n" can hold a "\r" inside one;
    # csv.reader refuses it even where float() would not
    if chunk_rows is not None:
        monkeypatch.setattr(data_model, "CSV_CHUNK_ROWS", chunk_rows)
    text = _csv(_data_lines(12) + ["1.5\r,1,1,g6", "2.5,1,0,g6"])
    with pytest.raises(ParseError, match="^line 14: new-line character seen"):
        parse_csv(io.StringIO(text))


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_parse_csv_reads_crlf_line_ends_like_lf(monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(data_model, "CSV_CHUNK_ROWS", chunk_rows)
    split = []  # per chunk the split tokenizer saw: whether it gave columns
    real_split = data_model._split_columns

    def recording(*args):
        columns = real_split(*args)
        split.append(columns is not None)
        return columns

    monkeypatch.setattr(data_model, "_split_columns", recording)
    canonical = ["y,s,d,block,x1"] + [
        f"{line},{i / 4}" for i, line in enumerate(_data_lines(30))
    ]
    # a row the split refuses, so _check_rows reads its CRLF lines
    with_na = canonical + ["NA,0,0,g15,1", "2.5,1,1,g15,0"]
    taken = []
    for lines in (canonical, with_na):
        lf = parse_csv(io.StringIO("\n".join(lines) + "\n", newline=""))
        lf_split, split[:] = split[:], []
        crlf = parse_csv(io.StringIO("\r\n".join(lines) + "\r\n", newline=""))
        assert_same_columns(crlf, lf)
        np.testing.assert_array_equal(crlf.x, lf.x, strict=True)
        np.testing.assert_array_equal(crlf.codes, lf.codes, strict=True)
        assert crlf.labels == lf.labels
        # the CRLF chunks took the split where the LF ones did
        assert split == lf_split
        taken.append(split[:])
        split.clear()
    assert all(taken[0]) and not all(taken[1])


CRLF_THEN_CSV_READER = {
    # a later chunk still goes to csv.reader, from its first line on
    "lone_cr": _csv(_data_lines(12), end="\r\n").replace("\n", "\r\n")
    + "6.5,1,1,g6\r7.5,1,0,g6\r",
    "quote": _csv(_data_lines(12), end="\r\n").replace("\n", "\r\n")
    + '"6.5",1,1,g6\r\n7.5,1,0,"g6"\r\n',
    "quoted_crlf": _csv(_data_lines(12), end="\r\n").replace("\n", "\r\n")
    + '6.5,1,1,"g6\r\nbis"\r\n7.5,1,0,"g6\r\nbis"\r\n',
    "row_error": _csv(_data_lines(12), end="\r\n").replace("\n", "\r\n")
    + "6.5,1,2,g6\r\n7.5,1,0,g6\r\n",
}


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(CRLF_THEN_CSV_READER))
def test_parse_csv_crlf_chunks_with_a_lone_cr_or_a_quote_read_like_csv_reader(
    monkeypatch, chunk_rows, case
):
    if chunk_rows is not None:
        monkeypatch.setattr(data_model, "CSV_CHUNK_ROWS", chunk_rows)
    assert_parses_like_oracle(CRLF_THEN_CSV_READER[case])


@pytest.mark.parametrize("rows_before", [1, 2000])
def test_parse_csv_refuses_a_strict_stream_that_is_not_utf8(rows_before):
    # the decoder fails as it fills its read-ahead: no line can be named
    text = _csv(_data_lines(rows_before)).encode() + b"1,1,1,a\xff\n2,1,0,a\n"
    stream = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8")
    with pytest.raises(ParseError, match="^input is not valid UTF-8$"):
        parse_csv(stream)


@pytest.mark.parametrize("line", [1, 3])
def test_parse_csv_reports_an_oversized_cell_as_a_parse_error(line):
    # csv.reader refuses cells over 128 KiB, in the header or in a row
    lines = ["y,s,d,block", "1,1,1,a", "1,1,0,b"]
    lines[line - 1] += "b" * 200_000
    with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
        parse_csv(io.StringIO("\n".join(lines) + "\n"))


def test_parse_csv_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_csv(str(tmp_path / "nope.csv"))


def test_parse_csv_accepts_lowercase_na_only_as_uppercase_alias():
    data = parse_csv(io.StringIO("y,s,d,block\nna,0,1,a\n1,1,0,a\n"))
    assert math.isnan(data.y[0]) and data.s.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------

def test_csv_round_trip_preserves_records_exactly():
    rng = np.random.default_rng(42)
    y = rng.normal(size=8) / 3.0  # non-terminating binary fractions
    s = np.array([1, 1, 0, 1, 1, 1, 0, 1])
    d = np.array([1, 0, 1, 0, 1, 0, 0, 1])
    x = rng.normal(size=(8, 2))
    data = build_dataset(y, s, d, ["a"] * 4 + ["b"] * 4, x=x)
    back = parse_csv(io.StringIO(dataset_to_csv_text(data)))
    assert_same_columns(back, data)


def test_hand_arrays_agree_with_hand_fixture(hand_dataset):
    y, s, d, blocks = hand_arrays()
    rebuilt = build_dataset(y, s, d, blocks)
    assert_same_columns(rebuilt, hand_dataset)
