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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DslSyntaxError, RangeError, UnknownAtom
from .poly import Poly, rat_text
from .sets import (
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
    cantor_affine,
    family,
    interval,
    points,
    rationals_in,
    sequence,
)
from .functions import PiecewiseFn
from .terms import Term

Q = Fraction

_SYMBOLS = "()[]{},;|&\\+-*/^"


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'id' | a symbol | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _SYMBOLS:
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    # Parenthesised sets and chains of differences build trees as deep as
    # they nest; every layer of the engine recurses over that depth.
    MAX_NESTING = 100
    # Python reads integers of at most this many digits from text.
    MAX_DIGITS = 4300

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise DslSyntaxError(message, tok.line, tok.col)

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
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        v = self.numeral()
        return -v if neg else v

    def parse_bool(self) -> bool:
        tok = self.peek()
        if tok.kind != "num" or tok.text not in ("0", "1"):
            self.fail(f"expected a flag 0 or 1, found {tok.text or 'end of input'!r}")
        return self.next().text == "1"

    def parse_rational(self) -> Q:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        tok = self.peek()
        num = self.numeral()
        den = 1
        if self.peek().kind == "/" and self.peek(1).kind == "num":
            self.next()
            den = self.numeral()
            if den == 0:
                raise DslSyntaxError("zero denominator", tok.line, tok.col)
        q = Q(num, den)
        return -q if neg else q

    def parse_extended_rational(self) -> Q | None:
        if self.peek().kind == "id" and self.peek().text == "inf":
            self.next()
            return None
        if self.peek().kind == "-" and self.peek(1).kind == "id" and self.peek(1).text == "inf":
            self.next()
            self.next()
            return None
        return self.parse_rational()

    # --- closed-form terms ----------------------------------------------

    def parse_term(self) -> Term:
        total = self._parse_term_atom(negate=self._eat_minus())
        while self.peek().kind in "+-":
            op = self.next().kind
            total = total + self._parse_term_atom(negate=(op == "-"))
        return total

    def _eat_minus(self) -> bool:
        if self.peek().kind == "-":
            self.next()
            return True
        return False

    def _parse_term_atom(self, negate: bool) -> Term:
        if self.peek().kind == "(":
            term = self._parse_geo(Q(1))
        else:
            coeff = self.parse_rational()
            if self.peek().kind == "*":
                self.next()
                term = self._parse_geo(coeff)
            elif self.peek().kind == "/" and self.peek(1).kind == "id" and self.peek(1).text == "n":
                self.next()
                self.next()
                k = 1
                if self.peek().kind == "^":
                    self.next()
                    k = self.parse_int()
                    if k < 1:
                        raise RangeError("power exponent must be >= 1")
                term = Term.make(pw=[(k, 0, coeff)])
            else:
                term = Term.constant(coeff)
        return -term if negate else term

    def _parse_geo(self, coeff: Q) -> Term:
        self.expect("(")
        ratio = self.parse_rational()
        self.expect(")")
        self.expect("^")
        tok = self.expect("id")
        if tok.text != "n":
            raise DslSyntaxError("geometric factors are powers of n", tok.line, tok.col)
        return Term.make(geo=[(ratio, coeff)])

    # --- polynomials ------------------------------------------------------

    def parse_poly(self) -> Poly:
        total = self._parse_poly_atom(negate=self._eat_minus())
        while self.peek().kind in "+-":
            op = self.next().kind
            total = total + self._parse_poly_atom(negate=(op == "-"))
        return total

    def _parse_poly_atom(self, negate: bool) -> Poly:
        if self.peek().kind == "id" and self.peek().text == "x":
            self.next()
            p = self._x_power(Q(1))
        else:
            coeff = self.parse_rational()
            if self.peek().kind == "*":
                self.next()
                tok = self.expect("id")
                if tok.text != "x":
                    raise DslSyntaxError("polynomials use the variable x", tok.line, tok.col)
                p = self._x_power(coeff)
            else:
                p = Poly.const(coeff)
        return -p if negate else p

    def _x_power(self, coeff: Q) -> Poly:
        k = 1
        if self.peek().kind == "^":
            self.next()
            k = self.parse_int()
            if k < 0:
                raise RangeError("polynomial powers must be nonnegative")
        return Poly.make([Q(0)] * k + [coeff])

    # --- sets ---------------------------------------------------------------

    def parse_set(self) -> SetExpr:
        left = self.parse_diff()
        parts = [left]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.parse_diff())
        if len(parts) == 1:
            return parts[0]
        return Union(tuple(parts))

    def parse_diff(self) -> SetExpr:
        left = self.parse_and()
        depth = self.depth
        while self.peek().kind == "\\":
            self.descend(self.next())
            left = Difference(left, self.parse_and())
        self.depth = depth
        return left

    def parse_and(self) -> SetExpr:
        left = self.parse_primary()
        parts = [left]
        while self.peek().kind == "&":
            self.next()
            parts.append(self.parse_primary())
        if len(parts) == 1:
            return parts[0]
        return _fold_intersection(parts)

    def parse_primary(self) -> SetExpr:
        tok = self.peek()
        if tok.kind == "[":
            return self._parse_interval()
        if tok.kind == "(":
            nxt = self.peek(1)
            if nxt.kind in ("num", "-") or (nxt.kind == "id" and nxt.text == "inf"):
                return self._parse_interval()
            self.descend(self.next())
            inner = self.parse_set()
            self.depth -= 1
            self.expect(")")
            return inner
        if tok.kind == "id":
            name = tok.text
            if name == "empty":
                self.next()
                return EMPTY
            if name == "R":
                self.next()
                return FULL_LINE
            if name == "Q":
                self.next()
                self.expect("(")
                if self.peek().kind == "id" and self.peek().text == "R":
                    self.next()
                    self.expect(")")
                    return rationals_in(FULL_LINE)
                iv = self._parse_interval()
                self.expect(")")
                return rationals_in(iv)
            if name == "cantor":
                self.next()
                self.expect("(")
                offset = self.parse_rational()
                self.expect(",")
                scale = self.parse_rational()
                self.expect(")")
                return cantor_affine(offset, scale)
            if name == "points":
                self.next()
                self.expect("(")
                vals = [self.parse_rational()]
                while self.peek().kind == ",":
                    self.next()
                    vals.append(self.parse_rational())
                self.expect(")")
                return points(*vals)
            if name == "seq":
                self.next()
                self.expect("(")
                term = self.parse_term()
                start = 1
                if self.peek().kind == ",":
                    self.next()
                    start = self.parse_int()
                self.expect(")")
                return sequence(term, start)
            if name == "family":
                self.next()
                self.expect("(")
                lo = self.parse_term()
                self.expect(",")
                hi = self.parse_term()
                start, lo_incl, hi_incl = 1, True, False
                if self.peek().kind == ",":
                    self.next()
                    start = self.parse_int()
                    if self.peek().kind == ",":
                        self.next()
                        lo_incl = self.parse_bool()
                        self.expect(",")
                        hi_incl = self.parse_bool()
                self.expect(")")
                return family(lo, hi, lo_incl, hi_incl, start)
            raise UnknownAtom(f"unknown set constructor {name!r} at line {tok.line}, column {tok.col}")
        self.fail(f"expected a set, found {tok.text or 'end of input'!r}")

    def _parse_interval(self) -> SetExpr:
        open_tok = self.peek()
        if open_tok.kind not in ("[", "("):
            self.fail("expected an interval")
        self.next()
        lo_incl = open_tok.kind == "["
        lo = self.parse_extended_rational()
        self.expect(",")
        hi = self.parse_extended_rational()
        close_tok = self.peek()
        if close_tok.kind not in ("]", ")"):
            self.fail("expected ']' or ')' to close an interval")
        self.next()
        hi_incl = close_tok.kind == "]"
        return interval(lo, hi, lo_incl and lo is not None, hi_incl and hi is not None)

    # --- functions -------------------------------------------------------------

    def parse_fn(self) -> PiecewiseFn:
        tok = self.expect("id")
        if tok.text != "piecewise":
            raise DslSyntaxError("functions start with 'piecewise'", tok.line, tok.col)
        self.expect("{")
        branches = []
        while not (self.peek().kind == "id" and self.peek().text == "else"):
            poly = self.parse_poly()
            on_tok = self.expect("id")
            if on_tok.text != "on":
                raise DslSyntaxError("expected 'on' after a branch polynomial", on_tok.line, on_tok.col)
            guard = self.parse_set()
            self.expect(";")
            branches.append((guard, poly))
        self.next()  # else
        default = self.parse_poly()
        self.expect("}")
        return PiecewiseFn(FULL_LINE, tuple(branches), default)


def _fold_intersection(parts: list[SetExpr]) -> SetExpr:
    """cantor(o, s) & interval folds into the clipped atom so that printing
    a clipped Cantor piece round-trips structurally."""
    if len(parts) == 2:
        a, b = parts
        if isinstance(a, CantorAffine) and isinstance(b, Interval):
            return _clip_cantor(a, b)
        if isinstance(b, CantorAffine) and isinstance(a, Interval):
            return _clip_cantor(b, a)
    return Intersection(tuple(parts))


def parse_set(text: str) -> SetExpr:
    p = _Parser(text)
    expr = p.parse_set()
    tok = p.peek()
    if tok.kind != "eof":
        raise DslSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return expr


def parse_fn(text: str) -> PiecewiseFn:
    p = _Parser(text)
    fn = p.parse_fn()
    tok = p.peek()
    if tok.kind != "eof":
        raise DslSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return fn


def parse_rational(text: str) -> Q:
    p = _Parser(text)
    q = p.parse_rational()
    tok = p.peek()
    if tok.kind != "eof":
        raise DslSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return q


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
