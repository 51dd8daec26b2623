"""Command-line interface: output formats, exit codes, reverse mapping."""

import contextlib
import gc
import importlib
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

import strata_bounds
from strata_bounds import meat_design, pair_blocks, parse_csv
from strata_bounds import simulation
from strata_bounds.cli import ESTIMATE_CSV_COLUMNS, cli, main

from conftest import (
    build_dataset, count_calls, dataset_to_csv_text, run_fresh_interpreter,
)
from oracles import oracle_ipw, oracle_lee

from frozen_values import (
    DGP1_REPLICATIONS_CSV,
    DGP1_SUMMARY_CSV,
    DGP2_REPLICATIONS_CSV,
    DGP2_SUMMARY_CSV,
    ESTIMATE_DESIGN_CSV,
    ESTIMATE_DESIGN_JSON,
    ESTIMATE_IID_CSV,
    ESTIMATE_IID_JSON,
    ESTIMATE_INPUT_CSV,
    HAND_DELTA_LB,
    HAND_DELTA_UB,
    HAND_MU0,
    HAND_Q,
    SIMULATE_SEED,
    TINY_ALPHA,
    TINY_ALPHA_CSV,
    TINY_ALPHA_JSON,
)


@pytest.fixture
def hand_csv(tmp_path, hand_dataset):
    path = tmp_path / "hand.csv"
    path.write_text(dataset_to_csv_text(hand_dataset))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# estimate: formats and values
# ---------------------------------------------------------------------------

def test_estimate_json_hand_values(capsys, hand_csv):
    code, out, err = run_cli(
        capsys, "estimate", "--input", hand_csv, "--estimator", "lee",
        "--variance", "design",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    (rec,) = payload["results"]
    assert rec["estimator"] == "lee"
    assert rec["variance"] == "design"
    assert rec["q"] == HAND_Q
    assert rec["mu0"] == HAND_MU0
    assert rec["delta_lb"] == HAND_DELTA_LB
    assert rec["delta_ub"] == HAND_DELTA_UB
    assert rec["n"] == 20 and rec["n_used"] == 14
    assert rec["se_lb"] > 0.0 and rec["se_ub"] > 0.0
    assert rec["ci_lb"][0] < HAND_DELTA_LB < rec["ci_lb"][1]
    assert rec["ci_set"][0] < rec["ci_set"][1]
    assert rec["flags"] == []


def test_estimate_all_returns_three_records(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "estimate", "--input", hand_csv, "--estimator", "all"
    )
    assert code == 0
    records = json.loads(out)["results"]
    assert [r["estimator"] for r in records] == ["lee", "conditional-lee", "lee-ipw"]
    # single block with equal arms: the weighted estimator reproduces the
    # pooled one, and the single stratum makes the conditional one match too
    assert records[2]["delta_lb"] == records[0]["delta_lb"]
    assert records[1]["strata_used"] == 1


def test_estimate_variance_none_nulls_inference_fields(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "estimate", "--input", hand_csv, "--variance", "none"
    )
    assert code == 0
    (rec,) = json.loads(out)["results"]
    assert rec["se_lb"] is None and rec["se_ub"] is None
    assert rec["ci_lb"] is None and rec["ci_set"] is None
    assert rec["alpha"] is None


def test_estimate_conditional_forces_variance_none_with_note(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "estimate", "--input", hand_csv,
        "--estimator", "conditional-lee", "--variance", "design",
    )
    assert code == 0
    (rec,) = json.loads(out)["results"]
    assert rec["variance"] == "none"
    assert any("no variance" in note for note in rec["notes"])
    assert rec["se_lb"] is None


def test_estimate_csv_format(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "estimate", "--input", hand_csv, "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(ESTIMATE_CSV_COLUMNS)
    assert len(lines) == 2
    cells = dict(zip(ESTIMATE_CSV_COLUMNS, lines[1].split(",")))
    assert cells["estimator"] == "lee"
    assert cells["delta_lb"] == "0"
    assert cells["delta_ub"] == "2"
    assert cells["q"] == "0.25"
    assert cells["n"] == "20"
    assert cells["se_lb"] != "" and "." in cells["se_lb"]


def test_estimate_table_format(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "estimate", "--input", hand_csv, "--format", "table"
    )
    assert code == 0
    assert "== lee (variance: design) ==" in out
    assert "delta_lb" in out and "ci_set_lo" in out


def test_estimate_reads_stdin(capsys, monkeypatch, hand_dataset):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(dataset_to_csv_text(hand_dataset))
    )
    code, out, _ = run_cli(
        capsys, "estimate", "--input", "-", "--variance", "none"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["q"] == HAND_Q


def test_estimate_twelve_significant_digit_json(capsys, tmp_path):
    data = build_dataset(
        y=np.array([1.0, 2.0, 4.0, 7.0, 11.0, 16.0]) / 3.0,
        s=[1] * 6,
        d=[1, 1, 1, 0, 0, 0],
        blocks=["a"] * 6,
    )
    path = tmp_path / "thirds.csv"
    path.write_text(dataset_to_csv_text(data))
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--variance", "none"
    )
    assert code == 0
    (rec,) = json.loads(out)["results"]
    # mu0 = (7 + 11 + 16) / 9 rounded to 12 significant digits
    assert rec["mu0"] == float(f"{34.0 / 9.0:.12g}")


# ---------------------------------------------------------------------------
# reverse monotonicity
# ---------------------------------------------------------------------------

def test_estimate_reverse_monotonicity_maps_bounds_back(capsys, tmp_path, hand_dataset):
    # relabel the hand data's arms; the flag relabels them back, so the
    # reported interval is the negated, swapped hand interval
    flipped = build_dataset(
        y=np.where(hand_dataset.s == 1, hand_dataset.y, 0.0),
        s=hand_dataset.s,
        d=1 - hand_dataset.d,
        blocks=list(hand_dataset.blocks),
    )
    path = tmp_path / "flipped.csv"
    path.write_text(dataset_to_csv_text(flipped))
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--reverse-monotonicity"
    )
    assert code == 0
    (rec,) = json.loads(out)["results"]
    assert rec["delta_lb"] == -HAND_DELTA_UB
    assert rec["delta_ub"] == -HAND_DELTA_LB
    assert "reverse_monotonicity" in rec["flags"]
    assert any("relabeled" in note for note in rec["notes"])
    # diagnostics keep their relabeled-arm meaning
    assert rec["q"] == HAND_Q
    # intervals are negated and swapped, so they still nest correctly
    assert rec["ci_lb"][0] < rec["delta_lb"] < rec["ci_lb"][1]
    assert rec["ci_ub"][0] < rec["delta_ub"] < rec["ci_ub"][1]
    assert rec["ci_set"][0] < rec["delta_lb"]
    assert rec["ci_set"][1] > rec["delta_ub"]


def test_reverse_monotonicity_round_trip_is_identity(capsys, hand_csv, tmp_path):
    code, base_out, _ = run_cli(capsys, "estimate", "--input", hand_csv)
    base = json.loads(base_out)["results"][0]
    # applying the flag to already-flipped data must reproduce the original
    # bounds (the two relabelings cancel)
    import strata_bounds

    data = strata_bounds.parse_csv(hand_csv)
    flipped = build_dataset(
        y=np.where(data.s == 1, data.y, 0.0),
        s=data.s,
        d=1 - data.d,
        blocks=list(data.blocks),
    )
    path = tmp_path / "again.csv"
    path.write_text(dataset_to_csv_text(flipped))
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--reverse-monotonicity"
    )
    rec = json.loads(out)["results"][0]
    assert rec["delta_lb"] == -base["delta_ub"]
    assert rec["delta_ub"] == -base["delta_lb"]
    assert rec["se_lb"] == base["se_ub"]
    assert rec["se_ub"] == base["se_lb"]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_estimate_reads_header_with_utf8_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(
        b"\xef\xbb\xbfy,s,d,block\n1.0,1,1,a\n2.0,1,0,a\n3.0,1,1,b\n,0,0,b\n"
    )
    code, out, err = run_cli(capsys, "estimate", "--input", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["results"][0]["n"] == 4


def test_estimate_reads_byte_order_mark_on_stdin():
    result = CliRunner().invoke(
        cli, ["estimate", "--input", "-", "--variance", "none"],
        input=b"\xef\xbb\xbfy,s,d,block\n1.0,1,1,a\n2.0,1,0,a\n3.0,1,1,b\n,0,0,b\n",
    )
    assert result.exit_code == 0, result.exception
    assert json.loads(result.output)["results"][0]["n"] == 4


NOT_UTF8 = b"y,s,d,block\n1,1,1,a\xff\n2,1,0,a\n"


def test_estimate_refuses_a_path_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "estimate", "--input", str(path))
    assert (code, out, err) == (1, "", "error: line 2: input is not valid UTF-8\n")


def test_estimate_refuses_stdin_that_is_not_utf8(capsys, monkeypatch):
    # as the interpreter opens it: bytes under a text layer that keeps
    # undecodable bytes as surrogates
    stdin = io.TextIOWrapper(
        io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "estimate", "--input", "-")
    assert (code, out, err) == (1, "", "error: line 2: input is not valid UTF-8\n")
    assert not stdin.buffer.closed


# three observed treated, one of three controls observed: the kept treated
# mass is exactly one unit, though (1 - q) * 3 rounds to just below one
ONE_UNIT_KEPT = (
    "y,s,d,block\n4.0,1,1,a\n1.0,1,1,a\n7.0,1,1,a\n2.0,1,0,a\n,0,0,a\n,0,0,a\n"
)


@pytest.mark.parametrize("estimator", ["lee", "lee-ipw"])
def test_pooled_estimators_keep_exactly_one_unit(capsys, tmp_path, estimator):
    path = tmp_path / "one.csv"
    path.write_text(ONE_UNIT_KEPT)
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", estimator,
        "--variance", "none",
    )
    assert code == 0, err
    (rec,) = json.loads(out)["results"]
    data = parse_csv(str(path))
    if estimator == "lee":
        _, mu0, mu1_lb, mu1_ub, *_ = oracle_lee(data.y, data.s, data.d)
    else:
        ref = oracle_ipw(data.y, data.s, data.d, data.blocks)
        mu0, mu1_lb, mu1_ub = ref["mu0"], ref["mu1_lb"], ref["mu1_ub"]
    # one unit kept: the smallest and the largest observed treated outcome
    assert (mu1_lb, mu1_ub) == pytest.approx((1.0, 7.0), rel=1e-12)
    assert rec["delta_lb"] == pytest.approx(mu1_lb - mu0, rel=1e-11)
    assert rec["delta_ub"] == pytest.approx(mu1_ub - mu0, rel=1e-11)


@pytest.mark.parametrize("estimator", ["lee", "lee-ipw"])
def test_pooled_estimators_reject_mass_below_one_unit(capsys, tmp_path, estimator):
    # two observed treated, one of three controls observed: 2/3 of a unit
    path = tmp_path / "thin.csv"
    path.write_text("y,s,d,block\n4.0,1,1,a\n1.0,1,1,a\n2.0,1,0,a\n,0,0,a\n,0,0,a\n")
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", estimator,
        "--variance", "none",
    )
    assert code == 2
    assert "retains mass 0.666667 < 1 of 2 values" in err


def test_estimate_does_not_keep_redirected_stdout_alive(hand_csv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["estimate", "--input", hand_csv]) == 0

    def live_string_ios():
        gc.collect()
        return sum(isinstance(o, io.StringIO) for o in gc.get_objects())

    run()
    before = live_string_ios()
    for _ in range(5):
        run()
    assert live_string_ios() == before


def test_missing_input_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "estimate", "--input", "/nonexistent.csv")
    assert code == 1
    assert "cannot read" in err


def test_bad_alpha_exits_one(capsys, hand_csv):
    code, _, err = run_cli(
        capsys, "estimate", "--input", hand_csv, "--alpha", "1.5"
    )
    assert code == 1
    assert "alpha" in err


def test_unknown_option_exits_one(capsys, hand_csv):
    code, _, err = run_cli(
        capsys, "estimate", "--input", hand_csv, "--bogus"
    )
    assert code == 1


def test_unknown_command_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_all_treated_block_exits_one_naming_block(capsys, tmp_path):
    text = (
        "y,s,d,block\n"
        "1,1,1,good\n2,1,0,good\n"
        "3,1,1,solo\n4,1,1,solo\n"
    )
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "estimate", "--input", str(path))
    assert code == 1
    assert "solo" in err


@pytest.mark.parametrize("estimator", ["lee", "conditional-lee", "lee-ipw"])
def test_estimate_overflow_exits_two_with_one_line(capsys, tmp_path, estimator):
    # the largest float as one treated outcome: its square, and the block
    # weights times it, overflow; no warning and no Infinity reach the output
    path = tmp_path / "huge.csv"
    path.write_text(
        "y,s,d,block\n1.7976931348623157e308,1,1,a\n1,1,1,a\n2,1,0,a\n"
        "3,1,0,a\n4,1,1,b\n5,1,1,b\n6,1,0,b\n7,1,0,b\n"
    )
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", estimator
    )
    assert code == 2 and out == ""
    assert err.startswith("error: values out of floating-point range (overflow")
    assert err.count("\n") == 1


@pytest.mark.parametrize("estimator", ["lee", "conditional-lee", "lee-ipw"])
def test_estimate_overflow_without_variance_exits_two_with_one_line(
    capsys, tmp_path, estimator
):
    # the largest float as the one observed treated outcome, against a
    # control mean of -2e299: the pooled bounds overflow in Python floats,
    # past numpy's float-error checks, and no "Infinity" reaches stdout
    path = tmp_path / "edge.csv"
    path.write_text(
        "y,s,d,block\n1.7976931348623157e308,1,1,g0\n,0,0,g0\n-0.652,1,0,g0\n"
        "-0.0077,1,0,g0\n,0,1,g1\n1e15,1,0,g1\n-1e300,1,0,g1\n0.0,1,0,g1\n"
    )
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", estimator,
        "--variance", "none",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if estimator != "conditional-lee":  # it drops both strata first
        assert err == "error: values out of floating-point range (delta_lb is inf)\n"


def test_label_variance_with_single_control_exits_two(capsys, tmp_path):
    text = (
        "y,s,d,block\n"
        "1,1,1,a\n2,1,1,a\n3,1,0,a\n"
        "4,1,1,b\n5,1,1,b\n6,1,0,b\n7,1,0,b\n"
    )
    path = tmp_path / "thin.csv"
    path.write_text(text)
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(path), "--variance", "label"
    )
    assert code == 2
    assert "singleton arms in: a" in err


def test_label_variance_error_names_few_of_many_blocks(capsys, tmp_path):
    # 3 000 matched pairs: every block has a singleton arm
    n_pairs = 3000
    rows = [
        f"{i + d},1,{d},p{i:04d}\n" for i in range(n_pairs) for d in (1, 0)
    ]
    path = tmp_path / "pairs.csv"
    path.write_text("y,s,d,block\n" + "".join(rows))
    code, _, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", "all",
        "--variance", "label",
    )
    assert code == 2
    assert err == (
        "error: label-mode variance needs at least 2 units per arm per block; "
        "singleton arms in: 3000 blocks: p0000, p0001, p0002, p0003, p0004, "
        "...\n"
    )


def test_conditional_lee_error_names_few_of_many_strata(capsys, tmp_path):
    # 7 strata, none with an observed control outcome
    rows = [f"{g},1,1,s{g}\n,0,0,s{g}\n" for g in range(7)]
    path = tmp_path / "nocontrol.csv"
    path.write_text("y,s,d,block\n" + "".join(rows))
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator",
        "conditional-lee",
    )
    assert (code, out) == (2, "")
    reason = "no observed outcomes in one arm"
    assert err == (
        "error: conditional bounds undefined in every stratum: 7 blocks: "
        + "; ".join(f"s{g}: {reason}" for g in range(5)) + "; ...\n"
    )


def test_estimate_all_pairs_each_arm_per_meat(capsys, monkeypatch, tmp_path):
    # blocks a-c have a singleton treated arm, d-f a singleton control arm
    rows = []
    for g, label in enumerate("abcdef"):
        for i, d in enumerate((1, 0, 0) if g < 3 else (1, 1, 0)):
            rows.append(f"{g + 0.5 * i + 0.25 * d},1,{d},{label}\n")
    path = tmp_path / "singletons.csv"
    path.write_text("y,s,d,block\n" + "".join(rows))
    counts = count_calls(monkeypatch, [meat_design, pair_blocks])
    code, out, _ = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", "all",
        "--variance", "design",
    )
    assert code == 0
    assert [r["se_lb"] is not None for r in json.loads(out)["results"]] == [
        True, False, True
    ]
    # lee and lee-ipw form one meat each on both bounds, and each meat pairs
    # the singleton blocks of each arm
    assert counts == {"meat_design": 2, "pair_blocks": 4}


@pytest.mark.parametrize(
    "variance,fmt,expected",
    [
        ("design", "json", ESTIMATE_DESIGN_JSON),
        ("design", "csv", ESTIMATE_DESIGN_CSV),
        ("iid", "json", ESTIMATE_IID_JSON),
        ("iid", "csv", ESTIMATE_IID_CSV),
    ],
    ids=["design-json", "design-csv", "iid-json", "iid-csv"],
)
def test_estimate_prints_the_frozen_text(capsys, tmp_path, variance, fmt, expected):
    # guards every digit and word estimate prints: an odd singleton-arm
    # pairing with a covariate, a clamped stratum and two dropped strata
    path = tmp_path / "hand.csv"
    path.write_text(ESTIMATE_INPUT_CSV)
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", "all",
        "--variance", variance, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize(
    "fmt,expected", [("json", TINY_ALPHA_JSON), ("csv", TINY_ALPHA_CSV)],
    ids=["json", "csv"],
)
def test_estimate_alpha_below_float_resolution_prints_infinite_intervals(
    capsys, hand_csv, fmt, expected
):
    # 1 - alpha/2 rounds to 1: the normal quantile is +inf, not an error
    code, out, err = run_cli(
        capsys, "estimate", "--input", hand_csv, "--estimator", "lee",
        "--variance", "iid", "--alpha", repr(TINY_ALPHA), "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("variance", ["iid", "design"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_estimate_zero_se_with_infinite_quantile_prints_the_point(
    capsys, tmp_path, variance, fmt
):
    # every outcome ties within its arm, so both SEs are 0; with 1 - alpha/2
    # rounding to 1 the half-widths are inf * 0, which must read 0, not nan
    path = tmp_path / "constant.csv"
    path.write_text("y,s,d,block\n" + "5,1,1,a\n5,1,1,a\n2,1,0,a\n2,1,0,a\n"
                    "5,1,1,b\n5,1,1,b\n2,1,0,b\n2,1,0,b\n")
    code, out, err = run_cli(
        capsys, "estimate", "--input", str(path), "--estimator", "lee",
        "--variance", variance, "--alpha", "1e-17", "--format", fmt,
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        (record,) = json.loads(out)["results"]
        cells = [*record["ci_lb"], *record["ci_ub"], *record["ci_set"]]
        assert (record["se_lb"], record["se_ub"]) == (0.0, 0.0)
        assert record["critical_set"] == float("inf")
        assert record["flags"] == ["degenerate_ci"]
    else:
        header, line = out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        cells = [row[f"ci_{which}_{end}"] for which in ("lb", "ub", "set")
                 for end in ("lo", "hi")]
        assert (row["critical_set"], row["flags"]) == ("inf", "degenerate_ci")
    assert [str(cell) for cell in cells] == (["3.0"] if fmt == "json" else ["3"]) * 6


def test_no_observed_control_outcomes_exits_two(capsys, tmp_path):
    text = "y,s,d,block\n1,1,1,a\n,0,0,a\n2,1,1,a\n,0,0,a\n"
    path = tmp_path / "noctrl.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "estimate", "--input", str(path))
    assert code == 2
    assert "control" in err


def test_malformed_csv_exits_one_with_row_number(capsys, tmp_path):
    path = tmp_path / "rowerr.csv"
    path.write_text("y,s,d,block\n1,1,1,a\nx,1,0,a\n")
    code, _, err = run_cli(capsys, "estimate", "--input", str(path))
    assert code == 1
    assert "row 2" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_files_and_is_repeatable(capsys, tmp_path):
    args = [
        "simulate", "--dgp", "1", "--reps", "3", "--seed", "7",
        "--n", "100",
    ]
    code, out1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r1"))
    assert code == 0
    assert "process=matched_pairs" in out1
    assert "truth_lb=" in out1 and "wrote" in out1
    rep1 = (tmp_path / "r1" / "replications.csv").read_text()
    assert len(rep1.splitlines()) == 1 + 3  # one data row per replication

    code, out2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "r2"))
    assert code == 0
    rep2 = (tmp_path / "r2" / "replications.csv").read_text()
    assert rep1 == rep2
    sum1 = (tmp_path / "r1" / "summary.csv").read_text()
    sum2 = (tmp_path / "r2" / "summary.csv").read_text()
    assert sum1 == sum2


@pytest.mark.parametrize(
    "args,replications,summary",
    [
        (["--dgp", "1", "--n", "200", "--estimator", "lee:iid",
          "--estimator", "lee:design"], DGP1_REPLICATIONS_CSV, DGP1_SUMMARY_CSV),
        (["--dgp", "2"], DGP2_REPLICATIONS_CSV, DGP2_SUMMARY_CSV),
    ],
    ids=["dgp1", "dgp2"],
)
def test_simulate_writes_the_frozen_csv_text(capsys, tmp_path, args, replications, summary):
    # guards the Philox draw order and every digit the writers print
    code, _, _ = run_cli(
        capsys, "simulate", *args, "--reps", "3", "--seed", str(SIMULATE_SEED),
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "replications.csv").read_bytes() == replications.encode()
    assert (tmp_path / "summary.csv").read_bytes() == summary.encode()


def test_simulate_heavy_tails_summary_has_both_default_estimators(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--dgp", "2", "--reps", "2", "--seed", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    summary = (tmp_path / "summary.csv").read_text()
    assert "lee-ipw:design" in summary
    assert "conditional-lee:none" in summary
    assert "truth_lb=1 " in out


def test_simulate_rejects_n_for_heavy_tails(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--dgp", "2", "--reps", "2", "--seed", "3",
        "--n", "100", "--out", str(tmp_path),
    )
    assert code == 1
    assert "--n" in err


def test_simulate_rejects_bad_estimator_token(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--reps", "2", "--seed", "3",
        "--n", "100", "--out", str(tmp_path), "--estimator", "lee:hac",
    )
    assert code == 1
    assert "lee:hac" in err


def test_simulate_bad_thread_count_exits_one(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STRATA_BOUNDS_THREADS", "abc")
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "2", "--reps", "1", "--seed", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: STRATA_BOUNDS_THREADS") and err.count("\n") == 1


def test_simulate_refuses_an_n_numpy_cannot_index(capsys, tmp_path):
    # 10^20 units fail before anything is allocated
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--n", str(10**20), "--reps", "1",
        "--seed", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 1 and out == ""
    assert err == f"error: matched_pairs n is too large, got {10**20}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["--n", "100", "--reps", "0"], "error: reps must be at least 1\n"),
        (["--n", "100", "--reps", "1", "--estimator", "bogus:x"],
         "error: bad estimator token 'bogus:x'; use <estimator>:<variance> "
         "with estimator in ('lee', 'conditional-lee', 'lee-ipw') and "
         "variance in ('design', 'iid', 'label', 'none')\n"),
        (["--n", "200", "--reps", "3", "--estimator", "lee:design",
          "--estimator", "lee:design"],
         "error: estimator token 'lee:design' is given twice\n"),
    ],
    ids=["reps-0", "bogus-estimator", "repeated-estimator"],
)
def test_refused_simulate_leaves_no_out_directory(capsys, tmp_path, args, message):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--seed", "1", "--out", str(out_dir),
        *args,
    )
    assert code == 1 and out == ""
    assert err == message
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "under,reason", [("", "File exists"), ("sub", "Not a directory")],
    ids=["file", "under-a-file"],
)
def test_simulate_out_that_cannot_be_a_directory_exits_one(
    capsys, monkeypatch, tmp_path, under, reason
):
    target = tmp_path / "f"
    target.write_text("kept\n")
    out_dir = target / under if under else target
    draws = []
    monkeypatch.setattr(simulation, "simulate_dgp1", lambda *a: draws.append(a))
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--n", "100", "--reps", "1",
        "--seed", "1", "--out", str(out_dir),
    )
    assert code == 1 and out == ""
    assert err == f"error: cannot make --out directory {str(out_dir)!r}: {reason}\n"
    assert draws == []  # refused before any replication runs
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "kept\n"


def test_simulate_with_every_replication_failed_leaves_no_out_directory(
    capsys, tmp_path
):
    # the parent of --out is new too, and goes with it
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--n", "4", "--reps", "1",
        "--seed", "6", "--out", str(tmp_path / "new" / "o"),
    )
    assert code == 2 and out == ""
    assert err == "error: every replication failed; no summary to report\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_out_of_memory_is_one_line(capsys, monkeypatch, tmp_path):
    # an n that fits numpy's index but not the machine fails allocating its
    # first draw; the draw is replaced, so nothing that large is allocated
    message = (
        "Unable to allocate 14.9 GiB for an array with shape (2000000002,) "
        "and data type float64"
    )

    def no_memory(seed, n):
        raise MemoryError(message)

    monkeypatch.setattr(simulation, "simulate_dgp1", no_memory)
    code, out, err = run_cli(
        capsys, "simulate", "--dgp", "1", "--n", "2000000002", "--reps", "1",
        "--seed", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 1 and out == ""
    assert err == f"error: out of memory: {message}\n"


def test_simulate_explicit_estimators_add_rows(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "--dgp", "1", "--reps", "2", "--seed", "11",
        "--n", "100", "--out", str(tmp_path),
        "--estimator", "lee:design", "--estimator", "lee:iid",
    )
    assert code == 0
    lines = (tmp_path / "replications.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert "lee:design" in lines[1] and "lee:iid" in lines[2]


def test_commands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise
    path = tmp_path / "hand.csv"
    path.write_text(ESTIMATE_INPUT_CSV)
    out = str(tmp_path)
    runs = [
        ["simulate", "--dgp", "1", "--n", "200", "--reps", "2", "--seed", "3",
         "--estimator", "lee:iid", "--estimator", "lee:design",
         "--out", f"{out}/dgp1"],
        ["simulate", "--dgp", "2", "--reps", "2", "--seed", "3",
         "--estimator", "lee-ipw:design", "--out", f"{out}/dgp2"],
        ["estimate", "--input", str(path), "--estimator", "all",
         "--variance", "design"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from strata_bounds import cli\n"
        f"print([cli.main(argv) for argv in {runs!r}])\n"
    )
    assert run_fresh_interpreter(script).splitlines()[-1] == "[0, 0, 0]"


def test_estimate_loads_no_monte_carlo_code(tmp_path):
    # the Monte Carlo driver, its thread pool and what the pool pulls in
    # load only when simulate runs
    path = tmp_path / "hand.csv"
    path.write_text(ESTIMATE_INPUT_CSV)
    unused = ("strata_bounds.simulation", "concurrent.futures", "logging")
    script = (
        "import sys\n"
        "import strata_bounds.cli\n"
        f"print([m for m in {unused!r} if m in sys.modules])\n"
        f"code = strata_bounds.cli.main(['estimate', '--input', {str(path)!r}])\n"
        f"print(code, [m for m in {unused!r} if m in sys.modules])\n"
    )
    lines = run_fresh_interpreter(script).splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


def test_package_names_resolve_to_their_submodules():
    for name in strata_bounds.__all__:
        module = importlib.import_module(
            f"strata_bounds.{strata_bounds._EXPORTS[name]}"
        )
        value = getattr(strata_bounds, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name
    star = {}
    exec("from strata_bounds import *", star)
    assert set(strata_bounds.__all__) <= star.keys()
    assert set(strata_bounds.__all__) <= set(dir(strata_bounds))
    assert strata_bounds.simulation is importlib.import_module(
        "strata_bounds.simulation"
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        strata_bounds.no_such_name


def test_console_entry_point_runs(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "estimate" in out and "simulate" in out
