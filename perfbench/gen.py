"""Seeded generators that emit limitlab DSL text.

The shapes follow the package's own test corpus (random piecewise functions
over interval, point, rational, sequence, family and Cantor guards, plus
functions with a certified thin-support limit), written out as DSL text so
that every request goes through the parser like a user's input would.
Degrees stay at most 2 and sequence exponents at most 2: inputs far outside
that range are budget probes, not workload.

Nothing here imports limitlab; reference values (such as p(a) for a
certified function) are computed with plain Fractions.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as Q

DENOMS = (1, 2, 3, 4, 6, 8)
POINTS = (Q(0), Q(1, 2), Q(-1, 3))
GOLDEN = 0.6180339887498949
PIN_MS = 1000.0
STRATA = 20
FOLLOWUP_STRATA = 5


def rat(rng: random.Random, lo: int = -3, hi: int = 3) -> Q:
    den = rng.choice(DENOMS)
    return Q(rng.randint(lo * den, hi * den), den)


def nonzero_rat(rng: random.Random) -> Q:
    while True:
        v = rat(rng)
        if v != 0:
            return v


def rtext(q: Q) -> str:
    q = Q(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _signed_join(parts: list[tuple[Q, str]]) -> str:
    """Join (coefficient, body) parts with explicit signs; body '' is a constant."""
    out = []
    for coeff, body in parts:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if body == "":
            atom = rtext(mag)
        elif mag == 1 and not body.startswith("/"):
            atom = body
        else:
            atom = rtext(mag) + ("" if body.startswith("/") else "*") + body
        if not out:
            out.append(("-" if coeff < 0 else "") + atom)
        else:
            out.append((" - " if coeff < 0 else " + ") + atom)
    return "".join(out) or "0"


def poly_text(coeffs: list[Q]) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        parts.append((c, "" if k == 0 else ("x" if k == 1 else f"x^{k}")))
    return _signed_join(parts)


def poly_eval(coeffs: list[Q], x: Q) -> Q:
    acc = Q(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rand_poly(rng: random.Random, max_deg: int = 2) -> list[Q]:
    deg = rng.choice((0, 0, 0, 1, 1, max_deg))
    return [rat(rng) for _ in range(deg + 1)]


# --- set atoms ---------------------------------------------------------------


def interval_text(rng: random.Random) -> str:
    a, b = sorted((rat(rng), rat(rng)))
    if a == b:
        b = a + Q(1, rng.choice(DENOMS))
    lo = "[" if rng.random() < 0.5 else "("
    hi = "]" if rng.random() < 0.5 else ")"
    return f"{lo}{rtext(a)}, {rtext(b)}{hi}"


def points_text(rng: random.Random) -> str:
    return "points(" + ", ".join(rtext(rat(rng)) for _ in range(rng.randint(1, 3))) + ")"


def rationals_text(rng: random.Random) -> str:
    return f"Q({interval_text(rng)})"


def seq_text(rng: random.Random) -> str:
    limit = rat(rng, -1, 1)
    if rng.random() < 0.5:
        k, c = rng.randint(1, 2), Q(rng.randint(1, 3))
        tail = (c, "/n" if k == 1 else f"/n^{k}")
    else:
        r, c = Q(1, rng.choice((2, 3))), Q(rng.randint(1, 2))
        tail = (c, f"({rtext(r)})^n")
    return f"seq({_signed_join([(limit, ''), tail])}, {rng.randint(1, 3)})"


def family_text(rng: random.Random) -> str:
    limit = rng.choice((Q(0), Q(1, 2)))
    r = Q(1, rng.choice((2, 3)))
    hi = _signed_join([(limit, ""), (Q(1), "/n")])
    lo = _signed_join([(limit, ""), (Q(1), "/n"), (Q(-1), f"({rtext(r)})^n")])
    return f"family({lo}, {hi})"


def cantor_text(rng: random.Random, offsets=None, scales=(Q(1), Q(1, 2), Q(-1))) -> str:
    offset = rng.choice(offsets) if offsets else rat(rng, -1, 1)
    return f"cantor({rtext(offset)}, {rtext(rng.choice(scales))})"


# --- functions ----------------------------------------------------------------


def guard_texts(rng: random.Random, roll: float) -> list[str]:
    """Branch guards; `roll` picks the shape family as the test corpus does."""
    guards = []
    if roll < 0.18:
        guards.append(cantor_text(rng, offsets=(Q(0), Q(-1, 2)), scales=(Q(1), Q(1, 2))))
        pool = (interval_text, points_text, rationals_text)
    elif roll < 0.33:
        pool = (interval_text, points_text, rationals_text)
    else:
        pool = (interval_text, points_text, rationals_text, seq_text)
    for _ in range(rng.randint(1, 2)):
        guards.append(rng.choice(pool)(rng))
    if 0.18 <= roll < 0.33:
        guards.append(family_text(rng))
    return guards


def fn_text(branches: list[tuple[list[Q], str]], default: list[Q]) -> str:
    body = "".join(f" {poly_text(p)} on {g};" for p, g in branches)
    return f"piecewise {{{body} else {poly_text(default)} }}"


def corpus_fn(rng: random.Random, roll: float) -> dict:
    branches = [(rand_poly(rng), g) for g in guard_texts(rng, roll)]
    text = fn_text(branches, rand_poly(rng))
    return {"fn": text, "at": rtext(rng.choice(POINTS))}


def certified_fn(rng: random.Random) -> dict:
    """f = p off a thin support S with a in the closure of S: p(a) is a
    countable-type limit when S is countable and a null-type limit always."""
    a = rng.choice(POINTS)
    t6 = rng.random() < 0.5
    kinds = ["points", "rationals", "sequence"] + (["cantor"] if t6 else [])
    kind = rng.choice(kinds)
    if kind == "points":
        support = f"points({rtext(a + Q(1, 4))}, {rtext(a - Q(1, 3))}, {rtext(a + 1)})"
    elif kind == "rationals":
        support = f"Q(({rtext(a - 1)}, {rtext(a + 1)}))"
    elif kind == "sequence":
        support = f"seq({_signed_join([(a, ''), (Q(1), '/n')])})"
    else:
        support = f"cantor({rtext(a)}, {rtext(rng.choice((Q(1), Q(1, 2))))})"
    base = [rat(rng)] if rng.random() < 0.3 else rand_poly(rng, 2)
    bumped = list(base)
    bumped[0] += nonzero_rat(rng)
    return {
        "fn": fn_text([(bumped, support)], base),
        "at": rtext(a),
        "limit": rtext(poly_eval(base, a)),
        "countable": kind != "cantor",
    }


# --- set expressions ------------------------------------------------------------

# weighted toward the atoms whose algebra is symbolic (families, sequences,
# Cantor images); intervals, points and rationals keep the rule table honest
_ATOMS = (
    (0.14, interval_text),
    (0.24, points_text),
    (0.34, rationals_text),
    (0.54, seq_text),
    (0.74, cantor_text),
    (0.96, family_text),
    (1.00, lambda rng: "empty"),
)
THIN_ATOMS = ("points(", "Q(", "seq(", "cantor(")


def atom_text(rng: random.Random) -> str:
    roll = rng.random()
    for edge, make in _ATOMS:
        if roll < edge:
            return make(rng)
    return "empty"


def set_text(rng: random.Random, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.4:
        return atom_text(rng)
    op = rng.random()
    left, right = set_text(rng, depth - 1), set_text(rng, depth - 1)
    sym = " | " if op < 0.45 else (" & " if op < 0.7 else " \\ ")
    return f"({left}{sym}{right})"


def probe_points(rng: random.Random, count: int = 8) -> list[str]:
    out = []
    for _ in range(count):
        den = rng.choice((4, 8, 16, 64, 256, 729, 1024))
        out.append(rtext(Q(rng.randint(-3 * den, 3 * den), den)))
    return out


def set_item(rng: random.Random) -> dict:
    return {
        "set": set_text(rng),
        "at": rtext(rng.choice(POINTS)),
        "radius": rtext(rng.choice((Q(1, 4), Q(1, 2), Q(1)))),
        "probes": probe_points(rng),
        "mc_seed": rng.randrange(1 << 30),
    }


# --- universes -------------------------------------------------------------------

FIXTURE_FNS = (
    # the paper's three separating functions, checked against the paper's table
    {"fn": "piecewise { 1 on Q(R); else 0 }", "at": "0", "fixture": "dirichlet"},
    {"fn": "piecewise { 1 on cantor(0, 1); else 0 }", "at": "0", "fixture": "cantor"},
    {"fn": "piecewise { 1 on family(1/n - (1/2)^n, 1/n); else 0 }", "at": "0", "fixture": "omega"},
)
FIXTURE_SETS = (
    {"set": "family(1/n - (1/2)^n, 1/n)", "at": "0", "radius": "1/2",
     "probes": ["3/4", "1/4", "0", "-1/2"], "mc_seed": 7, "fixture": "omega"},
    {"set": "cantor(0, 1)", "at": "0", "radius": "1/2",
     "probes": ["1/4", "1/2", "0", "2/3"], "mc_seed": 7, "fixture": "cantor"},
    {"set": "Q(R)", "at": "0", "radius": "1", "probes": ["1/3", "0"], "mc_seed": 7, "fixture": "rationals"},
)


def _distinct(make, rng: random.Random, size: int, key) -> list[dict]:
    seen, out = set(), []
    while len(out) < size:
        item = make(rng, len(out))
        k = key(item)
        if k is None or k not in seen:
            seen.add(k)
            out.append(item)
    return out


def classify_universe(master: int, size: int) -> list[dict]:
    """Distinct (function, point) requests; the shape family is drawn from a
    low-discrepancy sequence so every window of the stream has the corpus mix."""
    rng = random.Random(master)
    phase = rng.random()

    def make(rng, i):
        if i % 5 == 4:
            return certified_fn(rng)
        return corpus_fn(rng, (phase + i * GOLDEN) % 1.0)

    return _distinct(make, rng, size, lambda it: (it["fn"], it["at"]))


def set_universe(master: int, size: int) -> list[dict]:
    rng = random.Random(master)
    return _distinct(lambda rng, i: set_item(rng), rng, size, lambda it: (it["set"], it["at"]))


CLI_COMMANDS = ("classify", "limit", "measure", "density", "cardinality", "decompose", "estimate", "verify")
TYPE_FLAGS = ("t1", "t2", "t3", "t4", "t5", "t6")


def cli_universe(master: int, size: int) -> list[list[str]]:
    """Argument vectors cycling through all eight commands.  Values are
    passed as `--flag=value` so that negative rationals are not read as flags."""
    rng = random.Random(master)

    def make(rng, i):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        if cmd == "classify":
            it = corpus_fn(rng, rng.random())
            return [cmd, f"--fn={it['fn']}", f"--at={it['at']}"]
        if cmd == "limit":
            it = certified_fn(rng) if rng.random() < 0.5 else corpus_fn(rng, rng.random())
            value = it.get("limit") or rtext(rat(rng, -1, 1))
            return [cmd, f"--fn={it['fn']}", f"--at={it['at']}", f"--value={value}", f"--type={rng.choice(TYPE_FLAGS)}"]
        if cmd == "decompose":
            it = certified_fn(rng)
            t = "t5" if it["countable"] else "t6"
            return [cmd, f"--fn={it['fn']}", f"--at={it['at']}", f"--value={it['limit']}", f"--type={t}"]
        if cmd == "verify":
            return [cmd]
        it = set_item(rng)
        args = [cmd, f"--set={it['set']}"]
        if cmd != "measure":
            args.append(f"--at={it['at']}")
        if cmd in ("cardinality", "estimate"):
            args.append(f"--radius={it['radius']}")
        if cmd == "estimate":
            args += [f"--seed={it['mc_seed']}", "--samples=64"]
        return args

    # `verify` takes no input, so it is the one request allowed to repeat
    return _distinct(make, rng, size, lambda argv: tuple(argv) if argv != ["verify"] else None)


def item_key(item) -> str:
    """Stable identity of one request, used to look up its frozen answer."""
    blob = "\x1f".join(item) if isinstance(item, list) else repr(sorted(item.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(item_key(it).encode())
    return h.hexdigest()


def _interleave(groups: list[list], rng: random.Random) -> list:
    """Merge ordered groups so that every prefix of the result holds each
    group in proportion to its size."""
    keyed = []
    for g, members in enumerate(groups):
        phase = rng.random()
        keyed.extend(((k + phase) / len(members), g, it) for k, it in enumerate(members))
    keyed.sort(key=lambda t: t[:2])
    return [it for _, _, it in keyed]


def _bands(items: list, count: int, cost) -> list[list]:
    """Cut items, ranked by cost, into bands: a cut falls every len/count
    items and every total/count of cost, so that both the many cheap items
    and the costly tail are split finely."""
    ranked = sorted(items, key=lambda it: (cost(it), item_key(it)))
    total = sum(cost(it) for it in ranked) or 1.0
    bands: dict[tuple[int, int], list] = {}
    running = 0.0
    for rank, it in enumerate(ranked):
        key = (rank * count // len(ranked), min(int(running / total * count), count - 1))
        bands.setdefault(key, []).append(it)
        running += cost(it)
    return list(bands.values())


def stream(universe: list, fixtures: tuple, seed: int, cost_ms: dict[str, tuple[float, float]], group=None) -> list:
    """Fixtures, then the universe in a seeded order; the same seed gives the
    same requests, and no request repeats within a run.

    Request costs are heavy-tailed, so a plain shuffle makes the work in a
    time-bounded run depend on the seed.  The order is a stratified sample
    instead.  Requests whose frozen cost (request plus follow-up) exceeds
    PIN_MS run in every stream, right after the fixtures.  The rest is split
    by `group` (when given), then into STRATA bands of request cost, then
    into FOLLOWUP_STRATA bands of follow-up cost; each band is shuffled by
    the seed, and the bands are merged so that every prefix of the stream
    holds each band in proportion.
    """
    def cost(it):
        return cost_ms.get(item_key(it), (0.0, 0.0))

    pinned = sorted((it for it in universe if sum(cost(it)) > PIN_MS), key=item_key)
    rest = [it for it in universe if sum(cost(it)) <= PIN_MS]
    rng = random.Random(f"order:{seed}")

    def by_followup(items):
        bands = _bands(items, FOLLOWUP_STRATA, lambda it: cost(it)[1])
        for band in bands:
            rng.shuffle(band)
        return _interleave(bands, rng)

    def by_request(items):
        return _interleave([by_followup(b) for b in _bands(items, STRATA, lambda it: cost(it)[0])], rng)

    groups: dict[str, list] = {}
    for it in rest:
        groups.setdefault(group(it) if group else "", []).append(it)
    return list(fixtures) + pinned + _interleave([by_request(groups[g]) for g in sorted(groups)], rng)
