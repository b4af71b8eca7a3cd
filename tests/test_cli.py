import json
import random
import re
from fractions import Fraction

import pytest

import maxreg.cli as cli
from maxreg import IndexSet, SetLiteralError, canonical_set_literal, parse_set_literal
from maxreg.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main

from conftest import (break_pass, corrupt_singleton_kernel, lift_first_value, random_index_set,
                      vary_to)


# ---------------------------------------------------------------------------
# set literals
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert parse_set_literal("0,2,5-9").elements == (0, 2, 5, 6, 7, 8, 9)
    assert parse_set_literal("-5--2").elements == (-5, -4, -3, -2)
    assert parse_set_literal("1,1,1").elements == (1,)
    assert parse_set_literal(" 0 , 2 ").elements == (0, 2)


def test_parse_errors_carry_positions():
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("")
    assert err.value.position == 0
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("3-1")
    assert err.value.position == 0
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("0,x,2")
    assert err.value.position == 2
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("0,,2")
    assert err.value.position == 2
    # padding is skipped by the same rule as str.strip, no-break space included
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal(" 5-2 ")
    assert (str(err.value), err.value.position) == ("inverted range '5-2' (at position 1)", 1)
    assert parse_set_literal("0,\u00a07\u00a0, 9-10\t") == IndexSet((0, 7, 9, 10))
    with pytest.raises(SetLiteralError) as err:
        parse_set_literal("0,\u00a0x\u00a0,2")
    assert (str(err.value), err.value.position) == ("malformed item 'x' (at position 3)", 3)


def test_canonical_literal_round_trip():
    assert canonical_set_literal(IndexSet.from_iterable([0, 2, 5, 6, 7, 8, 9])) == "0,2,5-9"
    rng = random.Random(401)
    for _ in range(100):
        a = random_index_set(rng, 14).translate(rng.randint(-9, 9))
        literal = canonical_set_literal(a)
        assert parse_set_literal(literal) == a


# ---------------------------------------------------------------------------
# report verb
# ---------------------------------------------------------------------------

def test_report_text_singleton(capsys):
    assert main(["report", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio             1/2" in out


def test_report_text_pair(capsys):
    assert main(["report", "0,1"]) == EXIT_OK
    assert "ratio             1/3" in capsys.readouterr().out


def test_report_text_gap_pair(capsys):
    assert main(["report", "0,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lemma 1           ok" in out
    assert "S_minus           {0,2}" in out


def test_report_json_fields(capsys):
    assert main(["report", "0,2,5-9", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 3
    assert data["input"] == "0,2,5-9"
    assert data["lemma1"] == "ok"
    assert data["funeq_rhs_limit_bounded"] != data["funeq_rhs"]
    # every numeric headline field is an exact rational string
    for key in ("chi_second_norm", "max_second_norm", "ratio",
                "funeq_rhs", "chi_first_norm", "max_first_variation"):
        assert re.fullmatch(r"-?\d+(/\d+)?", data[key]), (key, data[key])
    for v in data["profile_values"]:
        assert re.fullmatch(r"-?\d+(/\d+)?", v)


def test_report_csv_layout(capsys):
    assert main(["report", "0,2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,value,second_difference,class"
    assert len(lines) == 6  # header + window [-1, 3]
    for line in lines[1:]:
        n, value, second, cls = line.split(",")
        assert cls in ("plus", "minus")
        assert re.fullmatch(r"-?\d+(/\d+)?", value)
        assert re.fullmatch(r"-?\d+(/\d+)?", second)
    assert lines[2].startswith("0,1,") and lines[2].endswith(",minus")


def test_report_csv_agrees_with_json(capsys):
    rng = random.Random(409)
    for _ in range(20):
        literal = canonical_set_literal(random_index_set(rng, 12).translate(rng.randint(-9, 9)))
        assert main(["report", "--format", "json", "--", literal]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert main(["report", "--format", "csv", "--", literal]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.split("\n")[1:-1]]
        assert [int(r[0]) for r in rows] == list(range(data["window"][0], data["window"][1] + 1))
        assert [r[1] for r in rows] == data["profile_values"]
        assert [int(r[0]) for r in rows if r[3] == "minus"] == data["s_minus"]


def test_report_exit_code_from_every_contract(capsys, monkeypatch):
    # the integer pass of {0, 2} with Var(M chi) = ||chi'||_1 + 1
    break_pass(monkeypatch, (0, 2), vary_to(5))
    for fmt in ("text", "json", "csv"):
        assert main(["report", "0,2", "--format", fmt]) == EXIT_VIOLATION
        assert "contract violated: first_derivative_bound" in capsys.readouterr().err


def test_report_paper_accounting_flag(capsys):
    # report takes only --format: the JSON's funeq_rhs_limit_bounded holds that value
    with pytest.raises(SystemExit) as exc:
        main(["report", "0", "--paper-accounting"])
    assert exc.value.code == EXIT_USAGE
    main(["report", "0"])
    assert "limit terms bounded" not in capsys.readouterr().out


def test_report_usage_errors(capsys):
    assert main(["report", "3-1"]) == EXIT_USAGE
    assert "inverted range" in capsys.readouterr().err
    assert main(["report", ""]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep verbs
# ---------------------------------------------------------------------------

def test_exhaust_text(capsys):
    assert main(["exhaust", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "max ratio          1/2" in captured.out
    assert "checked 2/2" in captured.err      # progress on stderr only
    assert "checked 2/2" not in captured.out


def test_exhaust_json(capsys):
    assert main(["exhaust", "5", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["instances_checked"] == 16
    assert data["max_record"]["ratio"] == "1/2"
    assert data["violations"] == []
    assert data["stats"]["min_chi_second_norm"] == "4"


def test_exhaust_prints_per_length_maxima(capsys):
    assert main(["exhaust", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    for length in (1, 2, 3, 4):
        assert f"L={length}" in out


def test_random_zero_trials(capsys):
    assert main(["random", "0", "8", "1/2", "1"]) == EXIT_OK
    assert "instances checked  0" in capsys.readouterr().out


def test_sweep_with_no_instances(capsys):
    assert main(["random", "0", "5", "1/2", "1", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"max_record": null' in out and '"min_chi_second_norm": null' in out
    data = json.loads(out)
    assert data["max_record"] is None
    assert data["stats"]["max_by_span"] == {}
    assert data["stats"]["min_chi_second_norm"] is None
    assert main(["random", "0", "5", "1/2", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.split("\n")
    assert "max record         none (no instances)" in lines
    assert "min_chi_second_norm none" in lines


def test_random_json_echoes_parameters(capsys):
    assert main(["random", "25", "10", "1/2", "99", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["parameters"]["seed"] == 99
    assert data["parameters"]["generator"] == "python-random-mt19937"


def test_random_usage_error_on_bad_density(capsys):
    assert main(["random", "5", "8", "2", "1"]) == EXIT_USAGE
    assert main(["random", "5", "8", "zzz", "1"]) == EXIT_USAGE
    for density in ("nan", "inf", "1/0"):
        assert main(["random", "5", "3", density, "1"]) == EXIT_USAGE
    assert "zero denominator" in capsys.readouterr().err


def test_csv_only_for_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exhaust", "3", "--format", "csv"])
    assert exc.value.code == EXIT_USAGE


def test_scan_text_and_json(capsys):
    assert main(["scan", "0,1", "3", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "value            4/3" in out
    assert "truncated value" in out and "remainder" not in out
    assert main(["scan", "0,1", "3", "50", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 3
    assert data["order"] == 3 and data["truncation"] == 50
    assert "remainder_bound" not in data
    assert data["value"] == "4/3"
    assert re.fullmatch(r"\d+/\d+", data["truncated_value"])
    assert Fraction(data["truncated_value"]) < Fraction(data["value"])


def test_scan_usage_error(capsys):
    assert main(["scan", "0,1", "2", "50"]) == EXIT_USAGE
    assert main(["scan", "0,1", "3", "2"]) == EXIT_USAGE
    assert main(["scan", "--", "-10,10", "3", "12"]) == EXIT_USAGE     # 12 < |-10| + 3


def test_violation_exit_code(capsys, monkeypatch):
    # the integer pass of {0, 1}, in whatever denominator the sweep uses: norm 7/2 * 4
    break_pass(monkeypatch, (0, 1), lambda p, v, d: (14 * d, *p[1:]))
    assert main(["exhaust", "3"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "VIOLATIONS" in out
    assert "theorem1_ratio" in out and '"ratio": "7/2"' in out


def test_fast_path_divergence_exit_code(capsys, monkeypatch):
    corrupt_singleton_kernel(monkeypatch)
    assert main(["exhaust", "3", "--format", "json"]) == EXIT_VIOLATION
    data = json.loads(capsys.readouterr().out)
    assert [v["kind"] for v in data["violations"]] == ["fast_path_divergence"]


def test_negative_tail_in_a_sweep_is_a_divergence(capsys, monkeypatch):
    # {0} is spot-checked and clean; {0, 1} is not spot-checked, and its
    # lifted edge gives a negative tail term, which calls in the oracle.
    lift_first_value(monkeypatch, skip=1)
    assert main(["exhaust", "3", "--format", "json"]) == EXIT_VIOLATION
    data = json.loads(capsys.readouterr().out)
    assert data["instances_checked"] == 2
    first = data["violations"][0]
    assert first["kind"] == "fast_path_divergence"
    assert first["subject"] == {"set": [0, 1]}
    assert first["details"]["fast_profile"][0] == "5/3"
    assert first["details"]["oracle_profile"][0] == "2/3"


def test_negative_tail_in_a_report_is_a_divergence(capsys, monkeypatch):
    lift_first_value(monkeypatch)
    assert main(["report", "0,2", "--format", "json"]) == EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["profile_values"][0] == "3/2"
    assert main(["report", "0,2"]) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith("contract violated: fast_path_divergence")


def test_nonpositive_workers_is_a_usage_error(capsys):
    assert main(["exhaust", "3", "--workers", "0"]) == EXIT_USAGE
    assert "workers must be at least 1" in capsys.readouterr().err
    assert main(["random", "5", "8", "1/2", "1", "--workers", "-2"]) == EXIT_USAGE


def test_nonpositive_random_length_is_a_usage_error(capsys):
    for length in ("0", "-3"):
        assert main(["random", "5", length, "1/2", "1"]) == EXIT_USAGE
        assert "length must be at least 1" in capsys.readouterr().err


def test_usage_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["exhaust"])          # missing required argument
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["exhaust", "3", "--fast"])     # the removed flag is unknown
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _outcome(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["report", "0,2", "--format", "json"],
        ["exhaust", "3", "--fast"],                       # usage error
        ["scan", "--format", "json", "--", "-10,10", "3", "13"],
        ["report", "0,2", "--format", "csv"],
        ["--version"],
        ["report", "0,2", "--format", "json"],
    ]
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(_outcome(argv, capsys))
    cli.build_parser.cache_clear()
    assert [_outcome(argv, capsys) for argv in calls] == first
    assert [rc for rc, _, _ in first] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, 0, EXIT_OK]
    assert first[4][1].startswith("maxreg ")


def test_negative_literals_go_after_double_dash(capsys):
    with pytest.raises(SystemExit):
        main(["report", "-7,-3"])
    assert "the following arguments are required: set" in capsys.readouterr().err
    for verb in ("report", "scan"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert "after '--'" in " ".join(capsys.readouterr().out.split())
    assert main(["report", "--format", "json", "--", "-7,-3,0,2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["set"] == [-7, -3, 0, 2]
