import random
from fractions import Fraction as Q

import pytest

from limitlab.dsl import fn_to_text, parse_fn, parse_rational, parse_set, set_to_text
from limitlab.errors import DslSyntaxError, RangeError, UnknownAtom
from limitlab.functions import PiecewiseFn
from limitlab.sets import (
    FULL_LINE,
    CantorAffine,
    IntervalFamily,
    RationalsIn,
    Sequence,
    Union,
    normalize,
)


def test_parse_union_example():
    e = parse_set("Q((0,1)) | cantor(0,1)")
    assert isinstance(e, Union) and len(e.args) == 2


def test_parse_omega(omega_set):
    e = parse_set("family(1/n - (1/2)^n, 1/n)")
    assert e == omega_set


def test_parse_error_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_set("[0,")
    assert err.value.line == 1 and err.value.column == 4


def test_parse_error_never_crashes():
    rng = random.Random(9)
    alphabet = "[](){}|&\\,;^*/+-0123456789xnQRconfamilyseqpoints "
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        try:
            parse_set(text)
        except (DslSyntaxError, RangeError, UnknownAtom, OverflowError):
            pass


@pytest.mark.parametrize("flags, bad", [("1, 2", 1), ("7, 1", 0), ("5, 0", 0), ("-1, 1", 0), ("1, 01", 1), ("1, x", 1)])
def test_family_flags_are_0_or_1(flags, bad):
    prefix = "family(1/n - (1/2)^n, 1/n, 1, "
    assert parse_set(prefix + "0, 1)") == IntervalFamily(
        parse_set("seq(1/n - (1/2)^n)").term, parse_set("seq(1/n)").term, False, True, 1
    )
    with pytest.raises(DslSyntaxError, match="flag 0 or 1") as err:
        parse_set(f"{prefix}{flags})")
    # the error points at the offending flag
    assert (err.value.line, err.value.column) == (1, len(prefix) + 1 + 3 * bad)


_LONG = "7" * 4301


@pytest.mark.parametrize(
    "parse, prefix, suffix",
    [
        (parse_set, "[0, 1/", "]"),
        (parse_set, "points(", ")"),
        (parse_set, "seq(1/n^", ")"),
        (parse_set, "seq(1/n, ", ")"),
        (parse_rational, "-", ""),
        (parse_rational, "1/", ""),
        (parse_fn, "piecewise { else ", "*x }"),
    ],
)
def test_overlong_numerals_are_refused(parse, prefix, suffix):
    # past 4300 digits Python refuses to read an integer from text
    with pytest.raises(RangeError, match=f"longer than 4300 digits \\(line 1, column {len(prefix) + 1}\\)"):
        parse(prefix + _LONG + suffix)
    assert parse_rational("1/" + _LONG[:4300]) == Q(1, int(_LONG[:4300]))


def test_numerals_are_decimal_digits():
    # a superscript two is a digit to str.isdigit but not a numeral
    with pytest.raises(DslSyntaxError, match="unexpected character") as err:
        parse_set("[0, \u00b2]")
    assert (err.value.line, err.value.column) == (1, 5)


def test_parse_fn_examples(dirichlet, cantor_indicator):
    assert parse_fn("piecewise { 1 on Q(R); else 0 }") == dirichlet
    assert parse_fn("piecewise { 1 on cantor(0,1); else 0 }") == cantor_indicator
    plain = parse_fn("piecewise { else x^2 }")
    assert plain.branches == () and plain.default.coeffs == (Q(0), Q(0), Q(1))


def test_parse_fn_unknown_atom():
    with pytest.raises(UnknownAtom):
        parse_fn("piecewise { 1 on circle(0,1); else 0 }")


def test_geometric_ratio_range_error():
    with pytest.raises(RangeError):
        parse_set("seq((3/2)^n)")


def test_nesting_cap():
    # parentheses and chained differences both deepen the tree, one level each
    assert parse_set("(" * 100 + "[0,1]" + ")" * 100) is not None
    with pytest.raises(RangeError):
        parse_set("(" * 101 + "[0,1]" + ")" * 101)
    assert parse_set("[0,1] \\ (" * 50 + "[0,1]" + ")" * 50) is not None
    with pytest.raises(RangeError):
        parse_set("[0,1] \\ (" * 51 + "[0,1]" + ")" * 51)
    assert parse_set("[0,1]" + " \\ [5,6]" * 100) is not None
    with pytest.raises(RangeError):
        parse_set("[0,1]" + " \\ [5,6]" * 101)


def test_comments_and_files(tmp_path):
    src = "# the set under study\n[0, 1] | points(2)  # tail\n"
    path = tmp_path / "demo.set"
    path.write_text(src)
    assert parse_set(src) == parse_set("[0,1] | points(2)")


def test_rational_round_trip():
    for text in ("3", "-7/2", "0", "22/7"):
        q = parse_rational(text)
        from limitlab.dsl import rat_text

        assert parse_rational(rat_text(q)) == q


# --- print/parse round trips -----------------------------------------------------


def _rand_grammar_set(rng, depth=2) -> str:
    atoms = [
        "empty",
        "R",
        "[0, 1]",
        "(-1/2, 2/3]",
        "(-inf, 0)",
        "Q(R)",
        "Q([1/3, 4))",
        "points(1, 3/2, -2)",
        "cantor(0, 1)",
        "cantor(-1/2, 1/3)",
        "seq(1/n)",
        "seq(2 - 1/n^2, 3)",
        "seq((1/2)^n)",
        "family(1/n - (1/2)^n, 1/n)",
        "family(1/n - (1/3)^n, 1/n, 2)",
    ]
    if depth == 0 or rng.random() < 0.45:
        return rng.choice(atoms)
    op = rng.choice((" | ", " & ", " \\ "))
    return "(" + _rand_grammar_set(rng, depth - 1) + ")" + op + "(" + _rand_grammar_set(rng, depth - 1) + ")"


def test_print_parse_round_trip_500():
    rng = random.Random(77)
    count = 0
    while count < 500:
        text = _rand_grammar_set(rng)
        try:
            expr = parse_set(text)
        except (RangeError, UnknownAtom):
            continue
        printed = set_to_text(expr)
        again = parse_set(printed)
        assert again == expr, (text, printed)
        count += 1


def test_round_trip_of_normalized_forms():
    rng = random.Random(78)
    from limitlab.errors import UnsupportedIntersection

    count = 0
    while count < 60:
        text = _rand_grammar_set(rng)
        try:
            expr = normalize(parse_set(text))
        except (UnsupportedIntersection, RangeError, UnknownAtom):
            continue
        printed = set_to_text(expr)
        assert parse_set(printed) == expr, (text, printed)
        count += 1


def test_fn_round_trip(dirichlet, omega_indicator):
    for f in (
        dirichlet,
        omega_indicator,
        parse_fn("piecewise { x on [0, 1]; 1/2 - x^2 on points(3); else 2*x - 1/3 }"),
    ):
        assert parse_fn(fn_to_text(f)) == f
