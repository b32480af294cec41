"""Text syntax for sets, closed-form terms, polynomials, and functions.

    set      := or_expr
    or_expr  := diff_expr { "|" diff_expr }
    diff_expr:= and_expr { "\\" and_expr }
    and_expr := primary { "&" primary }
    primary  := "empty" | "R" | INTERVAL | "Q(" ("R" | INTERVAL) ")"
              | "cantor(" RAT "," RAT ")" | "points(" RAT {"," RAT} ")"
              | "seq(" TERM ["," INT] ")"
              | "family(" TERM "," TERM ["," INT ["," BOOL "," BOOL]] ")"
              | "(" set ")"
    INTERVAL := ("[" | "(") XRAT "," XRAT ("]" | ")")   XRAT := RAT | "-inf" | "inf"
    TERM     := ["-"] t_atom { ("+" | "-") t_atom }
    t_atom   := [RAT "*"] "(" RAT ")" "^n" | RAT "/n" ["^" INT] | RAT
    POLY     := ["-"] p_atom { ("+" | "-") p_atom }
    p_atom   := RAT ["*" "x" ["^" INT]] | "x" ["^" INT]
    fn       := "piecewise" "{" { POLY "on" set ";" } "else" POLY "}"
    BOOL     := "0" | "1"

"#" starts a line comment.  Intersections of a Cantor atom with an interval
fold into a clipped atom at parse time, so printing any engine value and
reparsing reproduces it structurally.

One regular expression reads the tokens: numerals are runs of decimal
digits, names start with a letter or "_", and a column counts characters
from the start of the line.  The parser is a recursive descent that holds
the current token; every rule looks at it before taking it, so the cursor
never passes the closing end-of-input token.  One rule reads the signed sums
of terms and of polynomials, and each sum is built once from its atoms'
coefficients.  Limits on the input are checked where it is read and named
by line and column: numerals of at most 4300 digits (what Python reads),
nesting of at most 100 levels, and powers of x of at most 1000, past which
checking a decomposition of a single x^k branch takes more than a second.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from .errors import DslSyntaxError, RangeError, UnknownAtom
from .poly import Poly, rat_text
from .sets import (
    CUT_BOTTOM,
    CUT_TOP,
    EMPTY,
    FULL_LINE,
    CantorAffine,
    Difference,
    EmptySet,
    FinitePoints,
    Intersection,
    Interval,
    IntervalFamily,
    Normal,
    RationalsIn,
    Sequence,
    SetExpr,
    Union,
    _clip_cantor,
    between,
    cantor_affine,
    family,
    high_cut,
    low_cut,
    points,
    rationals_in,
    sequence,
)
from .functions import PiecewiseFn
from .terms import Term

Q = Fraction

# Blanks and comments match no group.  \d is str.isdecimal() and \w is
# str.isalnum() or "_".  A name starts with a letter or "_", so a word that
# starts with another \w character (a superscript two) is an unexpected one.
_TOKEN = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|#[^\n]*|(?P<num>\d+)|(?P<id>\w+)|(?P<sym>[()\[\]{},;|&\\+\-*/^])|(?P<bad>.)", re.S
)
_SET_NAMES = ("empty", "R", "Q", "cantor", "points", "seq", "family")


class Token(NamedTuple):
    kind: str  # 'num' | 'id' | a symbol | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word, col = m.group(), m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "num" or kind == "id" and (word[0].isalpha() or word[0] == "_"):
            toks.append(Token(kind, word, line, col))
        elif kind == "sym":
            toks.append(Token(word, word, line, col))
        else:
            raise DslSyntaxError(f"unexpected character {word[0]!r}", line, col)
    # a comment does not advance the column: input that ends in one ends at its "#"
    toks.append(Token("eof", "", line, len(text[line_start:].partition("#")[0]) + 1))
    return toks


class _Parser:
    # Parenthesised sets and chains of differences build trees as deep as
    # they nest; every layer of the engine recurses over that depth.
    MAX_NESTING = 100
    # Python reads integers of at most this many digits from text.
    MAX_DIGITS = 4300
    # Classifying one x^k branch takes 2 ms at k = 1000, but the decompose
    # command checks g + h = f at about 1,500 points: 1.3 s of CPU time at
    # k = 1000, 5 s at 3000 and 65 s at 10,000 (Python 3.11).
    MAX_X_POWER = 1000

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.tok = self.toks[0]
        self.depth = 0

    def peek(self) -> Token:
        """The token after the current one: asked only when the current
        one is not the end of input, so it exists."""
        return self.toks[self.pos + 1]

    def next(self) -> Token:
        tok = self.tok
        self.pos += 1
        self.tok = self.toks[self.pos]
        return tok

    def accept(self, text: str) -> bool:
        """Take the current token if it is the symbol or name text."""
        if self.tok.text != text:
            return False
        self.next()
        return True

    def expect(self, kind: str) -> Token:
        tok = self.tok
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        raise DslSyntaxError(message, self.tok.line, self.tok.col)

    def descend(self, tok: Token):
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise RangeError(
                f"set expression nests deeper than {self.MAX_NESTING} levels "
                f"(line {tok.line}, column {tok.col})"
            )

    # --- numbers -------------------------------------------------------

    def numeral(self) -> int:
        tok = self.expect("num")
        if len(tok.text) > self.MAX_DIGITS:
            raise RangeError(
                f"numeral longer than {self.MAX_DIGITS} digits "
                f"(line {tok.line}, column {tok.col})"
            )
        return int(tok.text)

    def parse_int(self) -> int:
        neg = self.accept("-")
        v = self.numeral()
        return -v if neg else v

    def parse_bool(self) -> bool:
        if self.tok.text not in ("0", "1"):
            self.fail(f"expected a flag 0 or 1, found {self.tok.text or 'end of input'!r}")
        return self.next().text == "1"

    def parse_rational(self) -> Q:
        neg = self.accept("-")
        tok = self.tok
        num = self.numeral()
        den = 1
        if self.tok.kind == "/" and self.peek().kind == "num":
            self.next()
            den = self.numeral()
            if den == 0:
                raise DslSyntaxError("zero denominator", tok.line, tok.col)
        q = Q(num, den)
        return -q if neg else q

    def parse_extended_rational(self) -> Q | tuple:
        """A rational; -inf and inf are the cuts below and above every one."""
        if self.accept("inf"):
            return CUT_TOP
        if self.tok.kind == "-" and self.peek().text == "inf":
            self.next()
            self.next()
            return CUT_BOTTOM
        return self.parse_rational()

    # --- signed sums: closed-form terms and polynomials ---------------------

    def _signed_sum(self, atom: Callable[[], tuple]) -> list[tuple]:
        """["-"] atom {("+" | "-") atom}: each atom's (coefficient, key),
        with the coefficient signed."""
        parts = []
        negate = self.accept("-")
        while True:
            coeff, key = atom()
            parts.append((-coeff if negate else coeff, key))
            if self.tok.kind not in ("+", "-"):
                return parts
            negate = self.next().kind == "-"

    def parse_term(self) -> Term:
        parts = self._signed_sum(self._term_atom)
        return Term.make(
            sum(c for c, key in parts if key is None),
            [(r, c) for c, r in parts if isinstance(r, Q)],
            [(k, 0, c) for c, k in parts if isinstance(k, int)],
        )

    def _term_atom(self) -> tuple[Q, Q | int | None]:
        """The coefficient c and the key of c*r^n (the ratio r), of c/n^k
        (the power k) or of a constant c (None)."""
        if self.tok.kind == "(":
            return Q(1), self._geo_ratio()
        coeff = self.parse_rational()
        if self.accept("*"):
            return coeff, self._geo_ratio()
        if self.tok.kind == "/" and self.peek().text == "n":
            self.next()
            self.next()
            if not self.accept("^"):
                return coeff, 1
            k = self.parse_int()
            if k < 1:
                raise RangeError("power exponent must be >= 1")
            return coeff, k
        return coeff, None

    def _geo_ratio(self) -> Q:
        self.expect("(")
        ratio = self.parse_rational()
        self.expect(")")
        self.expect("^")
        tok = self.expect("id")
        if tok.text != "n":
            raise DslSyntaxError("geometric factors are powers of n", tok.line, tok.col)
        # checked here, not when the whole sum is built, so that the first
        # fault in the text is the one reported
        if not 0 < ratio < 1:
            raise RangeError(f"geometric ratio {ratio} outside (0, 1)")
        return ratio

    def parse_poly(self) -> Poly:
        parts = self._signed_sum(self._poly_atom)
        coeffs = [Q(0)] * (max(k for _, k in parts) + 1)
        for c, k in parts:
            coeffs[k] += c
        return Poly.make(coeffs)

    def _poly_atom(self) -> tuple[Q, int]:
        """The coefficient c and the power k of c*x^k."""
        if self.accept("x"):
            coeff = Q(1)
        else:
            coeff = self.parse_rational()
            if not self.accept("*"):
                return coeff, 0
            tok = self.expect("id")
            if tok.text != "x":
                raise DslSyntaxError("polynomials use the variable x", tok.line, tok.col)
        if not self.accept("^"):
            return coeff, 1
        tok = self.tok
        k = self.parse_int()
        if k < 0:
            raise RangeError("polynomial powers must be nonnegative")
        if k > self.MAX_X_POWER:
            raise RangeError(f"power of x above {self.MAX_X_POWER} (line {tok.line}, column {tok.col})")
        return coeff, k

    # --- sets ---------------------------------------------------------------

    def parse_set(self) -> SetExpr:
        parts = [self.parse_diff()]
        while self.accept("|"):
            parts.append(self.parse_diff())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def parse_diff(self) -> SetExpr:
        left = self.parse_and()
        depth = self.depth
        while self.tok.kind == "\\":
            self.descend(self.next())
            left = Difference(left, self.parse_and())
        self.depth = depth
        return left

    def parse_and(self) -> SetExpr:
        parts = [self.parse_primary()]
        while self.accept("&"):
            parts.append(self.parse_primary())
        return _fold_intersection(parts)

    def parse_primary(self) -> SetExpr:
        tok = self.tok
        if tok.kind == "[" or tok.kind == "(" and (self.peek().kind in ("num", "-") or self.peek().text == "inf"):
            return self._parse_interval()
        if tok.kind == "(":
            self.descend(self.next())
            inner = self.parse_set()
            self.depth -= 1
            self.expect(")")
            return inner
        if tok.kind != "id":
            self.fail(f"expected a set, found {tok.text or 'end of input'!r}")
        if tok.text not in _SET_NAMES:
            raise UnknownAtom(f"unknown set constructor {tok.text!r} at line {tok.line}, column {tok.col}")
        name = self.next().text
        if name == "empty":
            return EMPTY
        if name == "R":
            return FULL_LINE
        # the atom is built after its closing ")", so a syntax error in the
        # text comes before a RangeError of the builder
        self.expect("(")
        if name == "Q":
            build, args = rationals_in, [FULL_LINE if self.accept("R") else self._parse_interval()]
        elif name == "cantor":
            offset = self.parse_rational()
            self.expect(",")
            build, args = cantor_affine, [offset, self.parse_rational()]
        elif name == "points":
            build, args = points, [self.parse_rational()]
            while self.accept(","):
                args.append(self.parse_rational())
        elif name == "seq":
            build, args = sequence, [self.parse_term()]
            if self.accept(","):
                args.append(self.parse_int())
        else:
            lo = self.parse_term()
            self.expect(",")
            hi = self.parse_term()
            start, flags = 1, (True, False)
            if self.accept(","):
                start = self.parse_int()
                if self.accept(","):
                    lo_incl = self.parse_bool()
                    self.expect(",")
                    flags = (lo_incl, self.parse_bool())
            build, args = family, [lo, hi, *flags, start]
        self.expect(")")
        return build(*args)

    def _parse_interval(self) -> SetExpr:
        open_tok = self.tok
        if open_tok.kind not in ("[", "("):
            self.fail("expected an interval")
        self.next()
        lo = self.parse_extended_rational()
        self.expect(",")
        hi = self.parse_extended_rational()
        close_tok = self.tok
        if close_tok.kind not in ("]", ")"):
            self.fail("expected ']' or ')' to close an interval")
        self.next()
        # an infinite end is its cut on either side, so (inf, 1) is empty
        low = lo if isinstance(lo, tuple) else low_cut(lo, open_tok.kind == "[")
        high = hi if isinstance(hi, tuple) else high_cut(hi, close_tok.kind == "]")
        return between(low, high)

    # --- functions -------------------------------------------------------------

    def parse_fn(self) -> PiecewiseFn:
        tok = self.expect("id")
        if tok.text != "piecewise":
            raise DslSyntaxError("functions start with 'piecewise'", tok.line, tok.col)
        self.expect("{")
        branches = []
        while not self.accept("else"):
            poly = self.parse_poly()
            on_tok = self.expect("id")
            if on_tok.text != "on":
                raise DslSyntaxError("expected 'on' after a branch polynomial", on_tok.line, on_tok.col)
            guard = self.parse_set()
            self.expect(";")
            branches.append((guard, poly))
        default = self.parse_poly()
        self.expect("}")
        return PiecewiseFn(FULL_LINE, tuple(branches), default)


def _fold_intersection(parts: list[SetExpr]) -> SetExpr:
    """cantor(o, s) & interval folds into the clipped atom so that printing
    a clipped Cantor piece round-trips structurally."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        a, b = parts
        if isinstance(a, CantorAffine) and isinstance(b, Interval):
            return _clip_cantor(a, b)
        if isinstance(b, CantorAffine) and isinstance(a, Interval):
            return _clip_cantor(b, a)
    return Intersection(tuple(parts))


def _parse_all(text: str, rule):
    """rule read from the whole text: anything after it is an error."""
    p = _Parser(text)
    value = rule(p)
    if p.tok.kind != "eof":
        raise DslSyntaxError(f"unexpected trailing input {p.tok.text!r}", p.tok.line, p.tok.col)
    return value


def parse_set(text: str) -> SetExpr:
    return _parse_all(text, _Parser.parse_set)


def parse_fn(text: str) -> PiecewiseFn:
    return _parse_all(text, _Parser.parse_fn)


def parse_rational(text: str) -> Q:
    return _parse_all(text, _Parser.parse_rational)


# --- printing ---------------------------------------------------------------------


def _xrat_text(v: Q | None, side: int) -> str:
    if v is None:
        return "-inf" if side < 0 else "inf"
    return rat_text(v)


def _interval_text(iv: Interval) -> str:
    lo_b = "[" if iv.lo_incl else "("
    hi_b = "]" if iv.hi_incl else ")"
    return f"{lo_b}{_xrat_text(iv.lo, -1)}, {_xrat_text(iv.hi, +1)}{hi_b}"


_LEVEL_UNION, _LEVEL_DIFF, _LEVEL_AND, _LEVEL_ATOM = 0, 1, 2, 3


def _set_text(expr: SetExpr) -> tuple[str, int]:
    if isinstance(expr, Normal):
        return _set_text(expr.to_expr())
    if isinstance(expr, EmptySet):
        return "empty", _LEVEL_ATOM
    if isinstance(expr, Interval):
        if expr == FULL_LINE:
            return "R", _LEVEL_ATOM
        return _interval_text(expr), _LEVEL_ATOM
    if isinstance(expr, FinitePoints):
        return "points(" + ", ".join(rat_text(p) for p in expr.points) + ")", _LEVEL_ATOM
    if isinstance(expr, RationalsIn):
        if expr.iv == FULL_LINE:
            return "Q(R)", _LEVEL_ATOM
        return f"Q({_interval_text(expr.iv)})", _LEVEL_ATOM
    if isinstance(expr, CantorAffine):
        base = f"cantor({rat_text(expr.offset)}, {rat_text(expr.scale)})"
        if expr.clip is None:
            return base, _LEVEL_ATOM
        return f"{base} & {_interval_text(expr.clip)}", _LEVEL_AND
    if isinstance(expr, Sequence):
        body = expr.term.to_text()
        if expr.start == 1:
            return f"seq({body})", _LEVEL_ATOM
        return f"seq({body}, {expr.start})", _LEVEL_ATOM
    if isinstance(expr, IntervalFamily):
        lo, hi = expr.lo.to_text(), expr.hi.to_text()
        if (expr.lo_incl, expr.hi_incl) == (True, False):
            if expr.start == 1:
                return f"family({lo}, {hi})", _LEVEL_ATOM
            return f"family({lo}, {hi}, {expr.start})", _LEVEL_ATOM
        return (
            f"family({lo}, {hi}, {expr.start}, {int(expr.lo_incl)}, {int(expr.hi_incl)})",
            _LEVEL_ATOM,
        )
    if isinstance(expr, Union):
        parts = [_wrap(a, _LEVEL_DIFF) for a in expr.args]
        return " | ".join(parts), _LEVEL_UNION
    if isinstance(expr, Intersection):
        parts = [_wrap(a, _LEVEL_ATOM) for a in expr.args]
        return " & ".join(parts), _LEVEL_AND
    if isinstance(expr, Difference):
        left = _wrap(expr.left, _LEVEL_DIFF)
        right = _wrap(expr.right, _LEVEL_AND)
        return f"{left} \\ {right}", _LEVEL_DIFF
    raise AssertionError(f"unprintable expression {expr!r}")


def _wrap(expr: SetExpr, need: int) -> str:
    text, level = _set_text(expr)
    if level < need:
        return f"({text})"
    return text


def set_to_text(expr: SetExpr) -> str:
    return _set_text(expr)[0]


def fn_to_text(f: PiecewiseFn) -> str:
    parts = ["piecewise {"]
    for guard, p in f.branches:
        parts.append(f" {p.to_text()} on {set_to_text(guard)};")
    parts.append(f" else {f.default.to_text()} }}")
    return "".join(parts)
