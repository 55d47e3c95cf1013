import json

import pytest

from ffdigits.census import count_restricted
from ffdigits.charsum import RestrictedSet
from ffdigits.circle import PredictorParams
from ffdigits.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from ffdigits.field import get_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--forbid", "0", "--n", "2")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_count_extension_field(capsys):
    code, out, _ = run(capsys, "count", "--q", "4", "--n", "2")
    assert code == EXIT_OK
    assert out.strip() == "6"


def test_predict(capsys):
    code, out, _ = run(capsys, "predict", "--q", "17", "--forbid", "0", "--n", "3")
    assert code == EXIT_OK
    assert abs(float(out) - (17 / 16) * 16**3 / 3) < 0.01


def test_predict_flags_large_s(capsys):
    code, _, err = run(capsys, "predict", "--q", "5", "--forbid", "0,1", "--n", "3")
    assert code == EXIT_OK
    assert "extrapolated" in err


def test_scan_table_and_files(capsys, tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.jsonl"
    code, out, _ = run(
        capsys,
        "scan",
        "--q",
        "3",
        "--forbid",
        "0",
        "--n",
        "2:4",
        "--csv",
        str(csv_path),
        "--json",
        str(json_path),
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "exact", "predictor", "ratio", "lambda", "elapsed_s"]
    assert len(lines) == 4
    records = [json.loads(l) for l in json_path.read_text().splitlines()]
    assert [r["n"] for r in records] == [2, 3, 4]
    assert records[0]["exact"] == 2
    assert csv_path.read_text().startswith("q,s,forbidden,n,exact,")


def test_scan_comma_list(capsys):
    code, out, _ = run(capsys, "scan", "--q", "2", "--forbid", "0", "--n", "2,3")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 3


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "lemma5", "--d-max", "3")
    assert code == EXIT_OK
    assert "lemma5" in out and "pass" in out


def test_verify_json_output(capsys, tmp_path):
    path = tmp_path / "checks.jsonl"
    code, _, _ = run(capsys, "verify", "partition", "--json", str(path))
    assert code == EXIT_OK
    rec = json.loads(path.read_text().strip())
    assert rec["check"] == "partition"
    assert rec["pass"] is True
    assert rec["cases"] >= 1


def test_verify_rejects_flags_no_check_takes(capsys, monkeypatch):
    for argv, ignored in (
        (("partition", "--q", "7", "--n", "5"), "--q, --n"),
        (("all", "--forbid", "0"), "--forbid"),
        (("lemma5", "--q", "4", "--ext-modulus", "1,1,1"), "--ext-modulus"),
        (("partition", "--workers", "2"), "--workers"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.strip().endswith(f"no check takes {ignored}")
    # flags that some selected check takes still run; the environment is no flag
    monkeypatch.setenv("FFDIGITS_WORKERS", "2")
    code, out, _ = run(capsys, "verify", "partition")
    assert code == EXIT_OK and "pass" in out
    code, out, _ = run(capsys, "verify", "lemma5", "--q", "3", "--d-max", "2")
    assert code == EXIT_OK and "pass" in out


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "lemma99")
    assert code == EXIT_USAGE
    assert "unknown check" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "count", "--q", "2", "--forbid", "0")  # missing --n
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "count", "--q", "6", "--n", "2")  # not a prime power
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "count", "--q", "3", "--forbid", "7", "--n", "2")
    assert code == EXIT_USAGE


def test_budget_exit(capsys):
    code, _, err = run(
        capsys, "count", "--q", "5", "--forbid", "0", "--n", "6", "--budget", "10"
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err


def test_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("FFDIGITS_WORKERS", "2")
    code, out, _ = run(capsys, "count", "--q", "3", "--forbid", "0", "--n", "5")
    assert code == EXIT_OK
    monkeypatch.setenv("FFDIGITS_WORKERS", "1")
    code2, out2, _ = run(capsys, "count", "--q", "3", "--forbid", "0", "--n", "5")
    assert out == out2


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_workers_env_must_be_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("FFDIGITS_WORKERS", value)
    for argv in (("count", "--q", "3", "--n", "4"), ("scan", "--q", "3", "--n", "2:3"), ("verify",)):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert f"FFDIGITS_WORKERS: expected a positive integer, got '{value}'" in err
        assert "pass" not in out


@pytest.mark.parametrize("value", ["-2", "0"])
def test_workers_flag_must_be_positive(capsys, value):
    code, out, err = run(capsys, "count", "--q", "3", "--n", "4", "--workers", value)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"--workers: expected a positive integer, got '{value}'" in err


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["scan", "--q", "5", "--n", "2:6"])
    assert args.command == "scan"
    assert args.budget > 0


def test_bad_degrees_exit_usage(capsys):
    for argv in (
        ("count", "--q", "3", "--n", "-1"),
        ("predict", "--q", "3", "--n", "0"),
        ("scan", "--q", "3", "--n", "0:2"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "degree" in err
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "0")
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_degree_validation_in_library():
    R = RestrictedSet.of(get_field(3), 0)
    with pytest.raises(ValueError):
        count_restricted(R, -1)
    with pytest.raises(ValueError):
        PredictorParams(3, 1, 0, True)


def test_predict_past_float_range(capsys):
    code, out, _ = run(capsys, "predict", "--q", "17", "--forbid", "0", "--n", "2000")
    assert code == EXIT_OK
    assert out.strip() == "inf"
