import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import corpus, rand_rat, rand_set_expr
from limitlab.analyzers import measure
from limitlab.dsl import fn_to_text, parse_fn, parse_rational, parse_set, rat_text, set_to_text
from limitlab.errors import DslSyntaxError, LimitLabError, RangeError, UnknownAtom
from limitlab.functions import PiecewiseFn
from limitlab.sets import (
    EMPTY,
    FULL_LINE,
    CantorAffine,
    IntervalFamily,
    RationalsIn,
    Sequence,
    Union,
    contains,
    interval,
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
        except (DslSyntaxError, RangeError, UnknownAtom):
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


@pytest.mark.parametrize("power", ["1001", "50000000", "99999999999999999999"])
def test_powers_of_x_are_bounded(power):
    # checking a decomposition evaluates x^k at about 1,500 points, which
    # takes more than a second past k = 1000
    assert parse_fn("piecewise { else x^1000 }").default.degree == 1000
    prefix = "piecewise { x on [0, 1]; else 2*x^"
    with pytest.raises(RangeError, match=f"power of x above 1000 \\(line 1, column {len(prefix) + 1}\\)"):
        parse_fn(prefix + power + " }")


def test_numerals_are_decimal_digits():
    # a superscript two is a digit to str.isdigit but not a numeral
    with pytest.raises(DslSyntaxError, match="unexpected character") as err:
        parse_set("[0, \u00b2]")
    assert (err.value.line, err.value.column) == (1, 5)


@pytest.mark.parametrize("text", ["(inf, 1)", "(1, -inf)", "(-inf, -inf)", "[inf, inf]", "(inf, -inf)"])
def test_an_infinity_on_the_wrong_side_gives_the_empty_set(text):
    # -inf and inf lie below and above every rational on either side of an
    # interval, so these are empty as [1, 0] is
    e = parse_set(text)
    m = measure(e)
    assert e == EMPTY and m.value == 0 and m.exact
    assert not any(contains(e, x) for x in (-5, -1, 0, 1, 5))


@pytest.mark.parametrize(
    "text, want",
    [("(-inf, inf)", FULL_LINE), ("[-inf, 1]", interval(None, 1)), ("[1, inf]", interval(1, None))],
)
def test_an_infinity_on_its_own_side_is_an_open_unbounded_end(text, want):
    assert parse_set(text) == want


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


# --- golden parse outcomes -------------------------------------------------------
#
# `golden/dsl.json` freezes what the parser makes of a seeded corpus: printed
# `corpus` functions, `rand_set_expr` trees and rationals; edits of them (an
# inserted, deleted or swapped character); random strings of grammar words
# and characters, some non-ASCII; and overlong numerals, deep nesting and
# comments.  Each record holds the printed tree, or the error's type and
# message.  Rewrite the file after a deliberate change with
# `PYTHONPATH=src python tests/test_dsl.py` and review the diff.

DSL_GOLDEN = Path(__file__).parent / "golden" / "dsl.json"
_ENTRY_POINTS = {"set": (parse_set, set_to_text), "fn": (parse_fn, fn_to_text), "rational": (parse_rational, rat_text)}
# the grammar's characters, blanks, comments and line breaks, and non-ASCII
# ones: a superscript two and an Arabic-Indic three (digits to str, and only
# the second a numeral), an accented letter, and two spaces that are not blanks
_CHARS = "[](){}|&\\,;^*/+-0123456789 xnQR#_\n\t\r\u00b2\u00e9\u0663\u00a0\u2028"
_WORDS = (
    "piecewise", "{", "}", "else", "on", ";", "x", "^", "*", "n", "(", ")", "[", "]", ",", "|", "&", "\\",
    "-", "+", "/", "1/2", "3", "0", "inf", "-inf", "R", "Q(", "cantor(", "points(", "seq(", "family(",
    "empty", "(1/2)^n", "1/n", "circle(", " ", "\n", "#", "\u00b2", "\u0663",
)


def _edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + rng.choice(_CHARS) + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + 1 :]
        elif i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    return text


def golden_dsl_texts(seed: int = 2020, size: int = 3000) -> list[tuple[str, str]]:
    """(entry point, text) pairs: a fifth printed values, half edits of
    them, the rest random strings, then the edge cases."""
    rng = random.Random(seed)
    printed = [("fn", fn_to_text(f)) for f, _ in corpus(seed, size // 10)]
    printed += [("set", set_to_text(rand_set_expr(rng, 3))) for _ in range(size // 20)]
    printed += [("rational", rat_text(rand_rat(rng, -99, 99))) for _ in range(size // 20)]
    texts = list(printed)
    for _ in range(size // 2):
        entry, text = rng.choice(printed)
        texts.append((entry, _edit(rng, text)))
    for i in range(size - len(texts)):
        pool = _WORDS if i % 2 else _CHARS
        texts.append((rng.choice(tuple(_ENTRY_POINTS)), "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))))
    long = "7" * 4301
    texts += [("set", f"[0, 1/{long}]"), ("set", f"points({long[:4300]})"), ("rational", long)]
    texts += [("fn", f"piecewise {{ else {long}*x }}")]
    texts += [("set", "(" * k + "[0,1]" + ")" * k) for k in (100, 101)]
    texts += [("set", "[0,1]" + " \\ [5,6]" * k) for k in (100, 101)]
    texts += [("set", "[0, 1] | points(2)  # tail"), ("set", "# a set\n[0,\n 1] #"), ("set", "[0, 1] |  # tail"), ("set", "")]
    texts += [("fn", "piecewise { x^2 on [0,1]; else x^1000 - x^1000 }"), ("fn", "piecewise { else x^-1 }")]
    return texts


def golden_dsl(texts: list[tuple[str, str]]) -> list[dict]:
    out = []
    for entry, text in texts:
        parse, show = _ENTRY_POINTS[entry]
        try:
            rec = {"parse": entry, "text": text, "tree": show(parse(text))}
        except LimitLabError as exc:
            rec = {"parse": entry, "text": text, "error": f"{type(exc).__name__}: {exc}"}
        out.append(rec)
    return out


def test_golden_dsl():
    frozen = json.loads(DSL_GOLDEN.read_text(encoding="utf-8"))
    texts = golden_dsl_texts()
    assert [(rec["parse"], rec["text"]) for rec in frozen] == texts
    assert golden_dsl(texts) == frozen


if __name__ == "__main__":
    DSL_GOLDEN.write_text(json.dumps(golden_dsl(golden_dsl_texts()), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {DSL_GOLDEN}")
