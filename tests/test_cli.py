import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from limitlab.cli import EXIT_ERROR, EXIT_OK, EXIT_UNDECIDABLE, run


def test_classify_exit_and_text(capsys):
    code = run(["classify", "--fn", "piecewise { 1 on Q(R); else 0 }", "--at", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "t1: no" in out and "t5: yes = 0" in out


def test_classify_structured(capsys):
    code = run(
        ["--format", "structured", "classify", "--fn", "piecewise { 1 on Q(R); else 0 }", "--at", "1/3"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["command"] == "classify"
    assert payload["types"]["t5"] == {"exists": "yes", "value": "0"}
    assert payload["types"]["t1"]["exists"] == "no"
    assert payload["chain_consistent"] is True
    assert payload["point"] == "1/3"


def test_limit_pass_fail_exit(capsys):
    code = run(
        ["limit", "--fn", "piecewise { 1 on cantor(0,1); else 0 }", "--at", "0", "--value", "0", "--type", "t6"]
    )
    assert code == EXIT_OK
    assert "pass" in capsys.readouterr().out
    code = run(
        ["limit", "--fn", "piecewise { 1 on cantor(0,1); else 0 }", "--at", "0", "--value", "0", "--type", "t5"]
    )
    assert code == EXIT_OK  # decided (fail) is still a decided result
    assert "fail" in capsys.readouterr().out


def test_measure_inline(capsys):
    code = run(["measure", "--set", "[0,1]|[2,3]"])
    assert code == EXIT_OK
    assert "measure: 2" in capsys.readouterr().out


def test_density_omega(capsys):
    code = run(["density", "--set", "family(1/n - (1/2)^n, 1/n)", "--at", "0"])
    assert code == EXIT_OK
    assert "zero" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, line, fields, code",
    [
        ("[0, 1]", "value 1/2", {"verdict": "value", "value": "1/2", "lower_bound": None}, EXIT_OK),
        (
            "family(3/4*(1/2)^n, (1/2)^n)",
            "positive (liminf >= 1/16)",
            {"verdict": "positive", "value": None, "lower_bound": "1/16"},
            EXIT_OK,
        ),
        (
            "(0, 1) \\ family(3/4*(1/2)^n, (1/2)^n)",
            "undecided (a positive-density removal hides the limit)",
            {"verdict": "undecided", "reason": "a positive-density removal hides the limit"},
            EXIT_UNDECIDABLE,
        ),
    ],
)
def test_density_outcomes_in_text_and_structured(text, line, fields, code, capsys):
    assert run(["density", "--set", text, "--at", "0"]) == code
    assert capsys.readouterr().out == f"density at 0: {line}\n"
    assert run(["--format", "structured", "density", "--set", text, "--at", "0"]) == code
    assert json.loads(capsys.readouterr().out) == {"command": "density", **fields}


@pytest.mark.parametrize("argv, echo", [
    (["limit", "--fn", "piecewise { else x }", "--at=2/4", "--value=00/6", "--type=t1"], {"point": "1/2", "value": "0"}),
    (["cardinality", "--set", "cantor(0,1)", "--at=-0/3", "--radius=04/8"], {"point": "0", "radius": "1/2"}),
])
def test_structured_echo_of_rational_flags_is_in_lowest_terms(argv, echo, capsys):
    assert run(["--format", "structured", *argv]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {k: payload[k] for k in echo} == echo


def test_cardinality(capsys):
    code = run(["cardinality", "--set", "cantor(0,1)", "--at", "0", "--radius", "1/2"])
    assert code == EXIT_OK
    assert "uncountable" in capsys.readouterr().out


def test_decompose(capsys):
    code = run(
        ["decompose", "--fn", "piecewise { 1 on Q(R); else 0 }", "--at", "0", "--value", "0", "--type", "t5"]
    )
    assert code == EXIT_OK
    assert "verified: True" in capsys.readouterr().out


def test_decompose_refused_by_the_verifier(capsys):
    # the decomposition is built, but whether g has the classical limit needs
    # a Cantor image minus rationals: a typed refusal, not "verified: False"
    code = run(
        [
            "--format", "structured", "decompose",
            "--fn", "piecewise { 1/3 on cantor(0, 1); 7/3 on Q((0, 2]); else -1 }",
            "--at=1/3", "--value=-1", "--type", "t6",
        ]
    )
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert json.loads(out)["error"] == "UnsupportedIntersection"
    assert "Traceback" not in out + err


def test_estimate_deterministic(capsys):
    args = ["estimate", "--set", "[0,1]", "--at", "1/2", "--radius", "1/2", "--seed", "5", "--samples", "2000"]
    assert run(args) == EXIT_OK
    first = capsys.readouterr().out
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_verify_all_green(capsys):
    code = run(["verify"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "12/12" in out


def test_syntax_error_exit(capsys):
    code = run(["measure", "--set", "[0,"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "column 4" in err or "line 1" in err


def test_family_flag_other_than_0_or_1_exit(capsys):
    code = run(["--format", "structured", "measure", "--set", "family(1/n - (1/2)^n, 1/n, 1, 2, 7)"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"] == "DslSyntaxError"


def test_overlong_numeral_ends_without_a_traceback():
    # past 4300 digits Python refuses to read an integer from text
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["measure", "--set", "[0, 1/" + "7" * 4400 + "]"]
    proc = subprocess.run(
        [sys.executable, "-m", "limitlab", *argv], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert "longer than 4300 digits" in proc.stderr


def test_unsupported_algebra_exit(capsys):
    code = run(["measure", "--set", "Q(R) & cantor(0,1)"])
    assert code == EXIT_ERROR


def test_file_inputs(tmp_path, capsys):
    fn_file = tmp_path / "dirichlet.fn"
    fn_file.write_text("# rational indicator\npiecewise { 1 on Q(R); else 0 }\n")
    code = run(["classify", "--fn", str(fn_file), "--at", "0"])
    assert code == EXIT_OK
    assert "t5: yes = 0" in capsys.readouterr().out


def test_structured_error(capsys):
    code = run(["--format", "structured", "measure", "--set", "[0,"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"] == "DslSyntaxError"


_BIG, _ODD = int("7" * 3000), int("3" * 2999 + "1")


@pytest.mark.parametrize(
    "argv",
    [
        ["cardinality", "--set", "[0,1]", "--at", "0", "--radius", "0"],
        ["cardinality", "--set", "[0,1]", "--at", "0", "--radius", "-1"],
        ["estimate", "--set", "[0,1]", "--radius", "0"],
        ["estimate", "--set", "[0,1]", "--samples", "0"],
        ["estimate", "--set", "[0,1]", "--at", "0", "--radius", "1", "--samples", "100000000"],
        ["measure", "--set", "(" * 3000 + "[0,1]" + ")" * 3000],
        ["measure", "--set", "[0,1]" + " \\ [5,6]" * 3000],
        ["classify", "--fn", "piecewise { 1 on " + "(" * 3000 + "Q(R)" + ")" * 3000 + "; else 0 }", "--at", "0"],
        ["measure", "--set", "[0, 1/" + "7" * 4400 + "]"],
        # each numeral fits, but the measure's denominator has about 6000 digits
        ["measure", "--set", f"[0, 1/{_BIG}] | [2, {2 * _ODD + 1}/{_ODD}]"],
        # the family analysis meets 10^-30 + 1/n - 1/(n+1), whose sign no index up to 2^62 certifies
        ["measure", "--set", f"family(1/n, 1/{10**30} + 1/n)"],
    ],
    ids=[
        "radius-0", "radius-negative", "estimate-radius-0", "samples-0", "samples-100M", "parens-3000", "differences-3000",
        "fn-parens-3000", "numeral-4400-digits", "result-numeral-6000-digits", "sign-settled-past-2^62",
    ],
)
def test_out_of_range_input_is_a_typed_error(argv, capsys):
    code = run(["--format", "structured", *argv])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert payload["error"] == "RangeError"


_USAGE_ERRORS = {
    "missing-set": ["measure"],
    "decompose-t2": ["decompose", "--fn", "x", "--at", "0", "--value", "0", "--type=t2"],
    "limit-t9": ["limit", "--fn", "x", "--at=0", "--value=0", "--type=t9"],
    "unknown-command": ["frobnicate"],
    "fn-without-value": ["classify", "--fn"],
}


@pytest.mark.parametrize("argv", list(_USAGE_ERRORS.values()), ids=list(_USAGE_ERRORS))
def test_usage_error_is_an_error_not_undecidable(argv, capsys):
    # argparse exits 2, which the CLI keeps for undecidable results
    code = run(["--format", "structured", *argv])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    payload = json.loads(out)
    assert set(payload) == {"command", "error", "message"}
    assert payload["command"] == (None if argv[0] == "frobnicate" else argv[0])
    assert payload["error"] == "UsageError"
    assert err == ""
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert out == "" and err == f"error: {payload['message']}\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == EXIT_OK
    assert "usage: limitlab" in capsys.readouterr().out
