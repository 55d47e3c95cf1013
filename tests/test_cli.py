import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from ffdigits import census, charsum, checks, circle, cli, polys, sieve
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


def _spy_on_lists(monkeypatch) -> list:
    """Record (q, d) for every call of the sieve's list builder over a prime
    field, which gives the moduli, with its cache and the interned fields
    cleared; Rabin's test is banned."""
    calls = []
    monkeypatch.setattr(polys, "is_irreducible", None)
    codes = sieve.irreducible_codes

    def spy(F, d):
        if F.k == 1:  # the census's own lists are over the extension field
            calls.append((F.q, d))
        return codes(F, d)

    monkeypatch.setattr(sieve, "irreducible_codes", spy)
    get_field.cache_clear()
    codes.cache_clear()
    return calls


def test_count_builds_its_field_once(capsys, monkeypatch):
    # over F_9 the modulus is row 0 of the degree-2 list over F_3, which
    # recurses on degree 1; the census reads lists of its own
    calls = _spy_on_lists(monkeypatch)
    code, out, _ = run(capsys, "count", "--q", "9", "--n", "3")
    assert code == EXIT_OK
    assert out.strip() == "240"
    assert calls == [(3, 2), (3, 1)]
    assert get_field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_count_tests_an_explicit_modulus_once(capsys, monkeypatch, workers):
    # t^2 + 2t + 2 is irreducible over F_3: the same list shows it, once, and
    # the census and its threads reuse the field
    calls = _spy_on_lists(monkeypatch)
    code, out, _ = run(
        capsys, "count", "--q", "9", "--n", "6", "--ext-modulus", "2,2,1", "--workers", workers
    )
    assert code == EXIT_OK
    assert out.strip() == str(sieve.prime_count(9, 6))
    assert calls == [(3, 2), (3, 1)]
    assert get_field(3, 2, (2, 2, 1)).modulus == (2, 2, 1)


def test_predict(capsys):
    code, out, _ = run(capsys, "predict", "--q", "17", "--forbid", "0", "--n", "3")
    assert code == EXIT_OK
    assert abs(float(out) - (17 / 16) * 16**3 / 3) < 0.01


@pytest.mark.parametrize("flag", [("--workers", "2"), ("--budget", "100")])
def test_predict_takes_no_census_flags(capsys, flag):
    # predict runs no census, so it has no workers or budget to take
    code, out, err = run(capsys, "predict", "--q", "17", "--n", "3", *flag)
    assert code == EXIT_USAGE and out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


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


def test_verify_rejects_flags_no_check_takes(capsys):
    for argv, ignored in (
        (("partition", "--q", "7", "--n", "5"), "--q, --n"),
        (("all", "--forbid", "0"), "--forbid"),
        (("lemma5", "--q", "4", "--ext-modulus", "1,1,1"), "--ext-modulus"),
        (("partition", "--workers", "2"), "--workers"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.strip().endswith(f"no check takes {ignored}")
    # flags that some selected check takes still run
    code, out, _ = run(capsys, "verify", "lemma5", "--q", "3", "--d-max", "2")
    assert code == EXIT_OK and "pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma2", "--n", "0"),
        ("corollary1", "--n", "0"),
        ("corollary2", "--n", "0"),
        ("lemma4", "--n", "1"),
        ("lemma6", "--q", "2"),
        ("lemma5", "--d-max", "-3"),
    ],
)
def test_verify_rejects_parameters_that_select_no_case(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert f"{argv[0]}: the parameters select no case" in err
    assert "pass" not in out


def test_verify_refuses_denominators_past_the_divisor_sieve_bound(capsys):
    code, out, err = run(capsys, "verify", "lemma5", "--d-max", "40")
    assert code == EXIT_USAGE
    assert "exceeds its bound" in err
    assert "pass" not in out


@pytest.mark.parametrize("argv", [("lemma6", "--q", "31"), ("lemma1", "--q", "31", "--n", "6")])
def test_verify_refuses_farey_windows_past_their_bound(capsys, monkeypatch, argv):
    # ~9e8 reduced a/g with deg g <= 3 over F_31: refused before any list is built
    def banned(*args):
        raise AssertionError("built an irreducible list past the bound")

    for module in (polys, charsum):
        monkeypatch.setattr(module, "irreducible_rows", banned)
    for module in (polys, sieve):
        monkeypatch.setattr(module, "irreducible_codes", banned)
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert "Farey windows" in err and "exceed their bound" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "argv", [("lemma4", "--q", "31"), ("lemma3", "--q", "9"), ("lemma6", "--q", "7", "--n", "20")]
)
def test_verify_refuses_pointwise_passes_before_any_window(capsys, monkeypatch, argv):
    # each forbidden set reads every window: sets x windows x digits are counted
    # in closed form before the windows are built (~3.6e9 entries at lemma4 q=31)
    def banned(*args):
        raise AssertionError("built Farey windows past the bound")

    for module in (checks, circle):  # lemma4 reaches it through circle.farey_windows
        monkeypatch.setattr(module, "farey_window_blocks", banned)
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert "window entries" in err and "exceed their bound" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "argv", [("lemma3", "--q", "3", "--n", "1540"), ("lemma6", "--q", "3", "--n", "1540"),
             ("lemma4", "--q", "3", "--n", "1540")]
)
def test_verify_refuses_bounds_past_the_float_range_before_any_window(capsys, monkeypatch, argv):
    # lemma3's bound 2^1027 at n = 1540, d = 3 over F_3 is an exact int that no
    # float holds, and no float comparison would decide the points against it:
    # a usage error before any window, not an OverflowError
    def banned(*args):
        raise AssertionError("built Farey windows")

    for module in (checks, circle):  # lemma4 reaches it through circle.farey_windows
        monkeypatch.setattr(module, "farey_window_blocks", banned)
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert "passes the float range" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "argv,what",
    [
        (("lemma3", "--q", "23"), "forbidden sets"),
        (("corollary1", "--q", "23"), "forbidden sets"),
        (("corollary2", "--q", "1009"), "forbidden sets"),
        (("lemma2", "--q", "3", "--n", "16"), "points of the direct average"),
    ],
)
def test_verify_refuses_exponential_grids_before_enumerating(capsys, monkeypatch, argv, what):
    # sum C(q, s) forbidden sets and q^n points are counted in closed form first
    def banned(*args):
        raise AssertionError("enumerated a grid past its bound")

    monkeypatch.setattr(checks, "combinations", banned)
    monkeypatch.setattr(checks, "digits", banned)  # lemma2 lists its points with it
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert what in err and "exceed their bound" in err
    assert "pass" not in out


def test_verify_all_matches_the_golden(capsys, tmp_path):
    # the records of `verify all --json`, less their timings
    path = tmp_path / "verify_all.jsonl"
    assert main(["verify", "all", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        del record["elapsed_s"]
    golden = Path(__file__).parent / "data" / "verify_all.jsonl"
    assert records == [json.loads(line) for line in golden.read_text().splitlines()]


def _fresh_stdout(code: str) -> str:
    """The output of `code` run by a fresh interpreter that imports the package from src."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def _fresh_run(argv: list) -> str:
    """A fresh interpreter's output of `argv` through the CLI, then its loaded package
    modules, then which of `dataclasses` and `fractions` it loaded."""
    return _fresh_stdout(
        "import sys\n"
        "from ffdigits import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ffdigits')))\n"
        "print(','.join(m for m in ('dataclasses', 'fractions') if m in sys.modules) or '-')"
    )


def test_cli_import_leaves_the_process_pool_unloaded():
    # the census imports its pool only when it runs one
    code = "import sys, ffdigits.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_stdout(code).strip() == "False"


def test_count_leaves_the_checks_uncompiled():
    # a census imports neither the verification battery nor, through the
    # package's lazy names, anything that imports it
    code = (
        "import sys\n"
        "from ffdigits import cli\n"
        "assert cli.main(['count', '--q', '3', '--forbid', '1', '--n', '8']) == 0\n"
        "print('ffdigits.checks' in sys.modules)"
    )
    assert _fresh_stdout(code).split() == ["22", "False"]
    # over a prime field and over an extension field, whose modulus comes from
    # the sieve's own list, a count loads the census and nothing it does not run
    # (and neither `dataclasses` nor `fractions`)
    loaded = "ffdigits,ffdigits.census,ffdigits.cli,ffdigits.field,ffdigits.sieve"
    for argv, count in [
        (["count", "--q", "17", "--forbid", "0", "--n", "5"], "222560"),
        (["count", "--q", "9", "--forbid", "0", "--n", "5"], "7408"),
    ]:
        assert _fresh_run(argv).split() == [count, loaded, "-"]
    # a scan's predictor, main term and error budget are closed forms next to the
    # census: it loads the same modules
    scan_run = _fresh_run(["scan", "--q", "3", "--forbid", "1", "--n", "2:4"]).split()
    assert scan_run[-2:] == [loaded, "-"]


def test_package_names_resolve_lazily():
    import ffdigits

    for name in ffdigits.__all__:
        module = import_module(f"ffdigits.{ffdigits._SOURCE[name]}")
        assert getattr(ffdigits, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        ffdigits.no_such_name


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


@pytest.mark.parametrize("element", ["[5]", "[-1]", "[]", "[3 0]", "[1 0 0]"])
def test_bracket_coordinates_out_of_range(capsys, element):
    # an F_9 element is 1 to 2 coordinates in [0, 3); none is reduced mod 3
    code, _, err = run(capsys, "count", "--q", "9", "--n", "3", "--forbid", element)
    assert code == EXIT_USAGE
    assert "coordinates in [0, 3)" in err


def test_budget_exit(capsys):
    code, _, err = run(
        capsys, "count", "--q", "5", "--forbid", "0", "--n", "6", "--budget", "10"
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in err


def test_a_huge_candidate_count_exits_on_the_budget(capsys):
    # 3^10000 has 4772 digits, past what Python converts to a string, and
    # 2^(10^8) would take about a second to form: the refusal names the power
    for q, n in (("3", "10000"), ("2", "100000000")):
        code, out, err = run(capsys, "count", "--q", q, "--n", n)
        assert code == EXIT_BUDGET and out == ""
        assert f"{q}^{n} candidate polynomials exceed the budget of 100000000" in err
    # a scan keeps its other rows and reports the refused degree in its own row
    code, out, _ = run(capsys, "scan", "--q", "3", "--n", "8,10000")
    assert code == EXIT_OK
    rows = out.splitlines()[1:]
    assert rows[0].split()[:2] == ["8", str(sieve.prime_count(3, 8))]
    assert rows[1] == "10000 error: 3^10000 candidate polynomials exceed the budget of 100000000"


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
        ("scan", "--q", "3", "--n", "5:3"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "degree" in err
    code, out, _ = run(capsys, "count", "--q", "3", "--n", "0")
    assert code == EXIT_OK
    assert out.strip() == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--q", "3", "--n", "2:3", "--csv", "{missing}"),
        ("scan", "--q", "3", "--n", "2:3", "--json", "{missing}"),
        ("scan", "--q", "3", "--n", "2:3", "--csv", "{directory}"),
        ("verify", "corollary2", "--json", "{missing}"),
    ],
)
def test_unwritable_output_exits_usage_before_work(capsys, monkeypatch, tmp_path, argv):
    def banned(*args, **kwargs):
        raise AssertionError("work ran before the output file was opened")

    monkeypatch.setattr(census, "count_restricted", banned)
    monkeypatch.setattr(checks, "run_check", banned)
    paths = {"missing": tmp_path / "absent" / "out", "directory": tmp_path}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: cannot write")


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
