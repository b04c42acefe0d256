"""Reference Godel semantics the benchmark checks godelmodal against.

Written from the definitions alone and sharing no code with the package:
formulas are nested tuples, models are plain dicts of Fractions (the shape of
the JSON model files), and every value is exact.

Formula tags: ("bot",), ("top",), ("var", name), ("not", a), ("and", a, b),
("or", a, b), ("imp", a, b), ("iff", a, b), ("box", a), ("dia", a).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
BOT = ("bot",)
TOP = ("top",)
NAMES = ("p", "q")
LOGICS = ("k45", "kd45", "s5")

_UNARY = {"not": "~", "box": "[]", "dia": "<>"}
_BINARY = {"and": " & ", "or": " | ", "imp": " -> ", "iff": " <-> "}


# ---------------------------------------------------------------------------
# syntax


_TOKEN = re.compile(r"\s*(<->|->|\[\]|<>|[&|~()01]|[a-z][A-Za-z0-9_]*)")


def parse(text: str) -> tuple:
    """Parse the surface grammar: unary binds tightest, then &, |, -> (right
    associative), <->."""
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad token at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def take(tok: str) -> bool:
        nonlocal at
        if tokens[at] == tok:
            at += 1
            return True
        return False

    def iff_level():
        left = imp_level()
        return ("iff", left, iff_level()) if take("<->") else left

    def imp_level():
        left = or_level()
        return ("imp", left, imp_level()) if take("->") else left

    def or_level():
        f = and_level()
        while take("|"):
            f = ("or", f, and_level())
        return f

    def and_level():
        f = unary()
        while take("&"):
            f = ("and", f, unary())
        return f

    def unary():
        for tag, sym in _UNARY.items():
            if take(sym):
                return (tag, unary())
        nonlocal at
        tok = tokens[at]
        at += 1
        if tok == "0":
            return BOT
        if tok in ("1", "top"):
            return TOP
        if tok == "(":
            f = iff_level()
            if not take(")"):
                raise ValueError(f"missing ')' in {text!r}")
            return f
        if tok[:1].isalpha():
            return ("var", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    f = iff_level()
    if tokens[at] != "":
        raise ValueError(f"trailing input in {text!r}")
    return f


def render(f: tuple) -> str:
    """Surface syntax with every binary connective parenthesized."""
    tag = f[0]
    if tag == "bot":
        return "0"
    if tag == "top":
        return "top"
    if tag == "var":
        return f[1]
    if tag in _UNARY:
        return _UNARY[tag] + render(f[1])
    return "(" + render(f[1]) + _BINARY[tag] + render(f[2]) + ")"


def expand(f: tuple) -> tuple:
    """Rewrite into bottom, variables, &, ->, box and diamond, the way the
    package's parser desugars ~, |, <-> and top."""
    tag = f[0]
    if tag in ("bot", "var"):
        return f
    if tag == "top":
        return ("imp", BOT, BOT)
    if tag == "not":
        return ("imp", expand(f[1]), BOT)
    if tag in ("box", "dia"):
        return (tag, expand(f[1]))
    a, b = expand(f[1]), expand(f[2])
    if tag == "or":
        return ("and", ("imp", ("imp", a, b), b), ("imp", ("imp", b, a), a))
    if tag == "iff":
        return ("and", ("imp", a, b), ("imp", b, a))
    return (tag, a, b)


def subformulas(f: tuple) -> set:
    out = {f}
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= subformulas(child)
    return out


def ell(f: tuple) -> int:
    """Number of subformulas of the desugared formula, bottom included."""
    return len(subformulas(expand(f)) | {BOT})


def modal_count(f: tuple) -> int:
    return sum(1 for g in subformulas(expand(f)) if g[0] in ("box", "dia"))


# The named schemes of K45 and the extra axioms of KD45 and S5, with the
# metavariables X, Y already instantiated at p, q.
SCHEMES = (
    ("K_box", "k45", "[](p -> q) -> ([]p -> []q)"),
    ("K_dia", "k45", "<>(p | q) -> (<>p | <>q)"),
    ("F_box", "k45", "[]top"),
    ("P", "k45", "[](p -> q) -> (<>p -> <>q)"),
    ("FS2", "k45", "(<>p -> []q) -> [](p -> q)"),
    ("4_box", "k45", "[]p -> [][]p"),
    ("4_dia", "k45", "<><>p -> <>p"),
    ("5_box", "k45", "<>[]p -> []p"),
    ("5_dia", "k45", "<>p -> []<>p"),
    ("T1", "k45", "~<>p <-> []~p"),
    ("T2", "k45", "~~[]p -> []~~p"),
    ("T3", "k45", "<>~~p -> ~~<>p"),
    ("T4", "k45", "([]p -> <>q) | []((p -> q) -> q)"),
    ("T5", "k45", "<>(p -> q) -> ([]p -> <>q)"),
    ("F_diabox", "k45", "<>[]top <-> <>top"),
    ("U_dia", "k45", "<><>p <-> <>p"),
    ("U_box", "k45", "[][]p <-> []p"),
    ("T4_box", "k45", "([]p -> <>[]p) | []p"),
    ("T4_dia", "k45", "([]<>p -> <>p) | []<>p"),
    ("Sk_dia", "k45", "(<>top -> <>p) <-> []<>p"),
    ("T4'_dia", "k45", "([]<>p -> <>p) | (<>top -> <>p)"),
    ("G45", "k45", "([]p -> <>q) -> []([]p -> <>q)"),
    ("D", "kd45", "<>top"),
    ("D'", "kd45", "[]p -> <>p"),
    ("T_box", "s5", "[]p -> p"),
    ("T_dia", "s5", "p -> <>p"),
)


def corpus(logic: str) -> list[tuple[str, str]]:
    """(name, text) of every scheme valid in the logic: K45's plus its own."""
    return [(name, text) for name, src, text in SCHEMES if src in ("k45", logic)]


def random_formula(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.9:
            return ("var", rng.choice(NAMES))
        return BOT if roll < 0.95 else TOP
    tag = rng.choice(("not", "and", "or", "imp", "imp", "iff", "box", "dia", "box", "dia"))
    if tag in _UNARY:
        return (tag, random_formula(rng, depth - 1))
    return (tag, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


# ---------------------------------------------------------------------------
# values and models

_DENOMS = (2, 3, 4, 5, 6, 8, 12)
GRID = sorted({Fraction(n, d) for d in _DENOMS for n in range(d + 1)})
INTERIOR = GRID[1:-1]


def fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def random_value(rng: random.Random, anchors=()) -> Fraction:
    roll = rng.random()
    if roll < 0.2:
        return ZERO
    if roll < 0.4:
        return ONE
    if anchors and roll < 0.6:
        return rng.choice(anchors)
    return rng.choice(GRID)


def random_model(
    rng: random.Random, n_worlds: int, logic: str, n_truth: int | None = None
) -> dict:
    """A possibilistic model obeying the logic's pi constraint; rounded when
    n_truth is given, with that many truth values."""
    worlds = [f"w{i + 1}" for i in range(n_worlds)]
    anchors = sorted(rng.sample(INTERIOR, n_truth - 2)) if n_truth else []
    if logic == "s5":
        pi = {w: ONE for w in worlds}
    else:
        pi = {w: random_value(rng, anchors) for w in worlds}
        if logic == "kd45":
            pi[rng.choice(worlds)] = ONE
    val = {w: {p: random_value(rng, anchors) for p in NAMES} for w in worlds}
    truth = [ZERO, *anchors, ONE] if n_truth else None
    return {"worlds": worlds, "pi": pi, "R": None, "val": val, "truth": truth}


def random_relational(rng: random.Random, n_worlds: int) -> dict:
    worlds = [f"w{i + 1}" for i in range(n_worlds)]
    rel = {w: {u: random_value(rng) for u in worlds} for w in worlds}
    val = {w: {p: random_value(rng) for p in NAMES} for w in worlds}
    return {"worlds": worlds, "pi": None, "R": rel, "val": val, "truth": None}


def satisfies_logic(model: dict, logic: str) -> bool:
    pis = [model["pi"][w] for w in model["worlds"]]
    if logic == "kd45":
        return ONE in pis
    if logic == "s5":
        return all(p == ONE for p in pis)
    return True


def to_json(model: dict) -> dict:
    """The model-file document of a reference model."""
    doc = {
        "worlds": list(model["worlds"]),
        "valuation": {w: {p: fmt(v) for p, v in row.items()} for w, row in model["val"].items()},
    }
    if model["R"] is not None:
        doc["R"] = {w: {u: fmt(v) for u, v in row.items()} for w, row in model["R"].items()}
    else:
        doc["pi"] = {w: fmt(model["pi"][w]) for w in model["worlds"]}
    if model["truth"] is not None:
        doc["truth_set"] = [fmt(t) for t in model["truth"]]
    return doc


def from_json(doc: dict) -> dict:
    """A possibilistic or rounded model document read back into Fractions."""
    return {
        "worlds": list(doc["worlds"]),
        "pi": {w: Fraction(v) for w, v in doc["pi"].items()},
        "R": None,
        "val": {w: {p: Fraction(v) for p, v in row.items()} for w, row in doc["valuation"].items()},
        "truth": [Fraction(t) for t in doc["truth_set"]] if "truth_set" in doc else None,
    }


def _imp(x: Fraction, y: Fraction) -> Fraction:
    return ONE if x <= y else y


_CONNECTIVES = {
    "and": min,
    "or": max,
    "imp": _imp,
    "iff": lambda x, y: min(_imp(x, y), _imp(y, x)),
}


def evaluate(model: dict, f: tuple) -> list[Fraction]:
    """Value of f at each world, in world order.

    Possibilistic box/diamond take the min/max over all worlds weighted by
    pi, rounded down/up into the truth set when the model has one; the
    relational ones weigh by the evaluation world's row of R instead.
    """
    worlds = model["worlds"]
    n = len(worlds)
    memo: dict[tuple, list[Fraction]] = {}

    def ev(g: tuple) -> list[Fraction]:
        got = memo.get(g)
        if got is not None:
            return got
        tag = g[0]
        if tag == "bot":
            out = [ZERO] * n
        elif tag == "top":
            out = [ONE] * n
        elif tag == "var":
            out = [model["val"].get(w, {}).get(g[1], ZERO) for w in worlds]
        elif tag == "not":
            out = [ONE if x == ZERO else ZERO for x in ev(g[1])]
        elif tag in _CONNECTIVES:
            op = _CONNECTIVES[tag]
            out = [op(x, y) for x, y in zip(ev(g[1]), ev(g[2]))]
        else:
            body = ev(g[1])
            if model["R"] is not None:
                rows = [[model["R"].get(w, {}).get(u, ZERO) for u in worlds] for w in worlds]
            else:
                rows = [[model["pi"][u] for u in worlds]]
            if tag == "box":
                vals = [min(_imp(r, x) for r, x in zip(row, body)) for row in rows]
            else:
                vals = [max(min(r, x) for r, x in zip(row, body)) for row in rows]
            truth = model["truth"]
            if truth is not None and tag == "box":
                vals = [max(t for t in truth if t <= v) for v in vals]
            elif truth is not None:
                vals = [min(t for t in truth if t >= v) for v in vals]
            out = vals if len(vals) == n else vals * n
        memo[g] = out
        return out

    return ev(f)


def frame_expectation(model: dict) -> dict:
    """The frame report the CLI should print for a model file.

    A possibilistic model read as R(w, w') = pi(w') is always transitive and
    euclidean, and serial exactly when it is normalized; a relational model
    is checked by the triple loop over worlds.
    """
    ws = model["worlds"]
    if model["R"] is None:
        normalized = any(model["pi"][w] == ONE for w in ws)
        return {
            "transitive": True,
            "euclidean": True,
            "serial": normalized,
            "witnesses": {
                "transitivity": [],
                "euclidean": [],
                "seriality": [] if normalized else list(ws),
            },
        }
    rel = {w: {u: model["R"].get(w, {}).get(u, ZERO) for u in ws} for w in ws}
    trans, eucl = [], []
    for w in ws:
        for u in ws:
            for v in ws:
                if min(rel[w][u], rel[u][v]) > rel[w][v]:
                    trans.append([w, u, v])
                if min(rel[w][u], rel[w][v]) > rel[u][v]:
                    eucl.append([w, u, v])
    serial = [w for w in ws if max(rel[w].values()) != ONE]
    return {
        "transitive": not trans,
        "euclidean": not eucl,
        "serial": not serial,
        "witnesses": {"transitivity": trans, "euclidean": eucl, "seriality": serial},
    }


def random_fixing_breakpoints(rng: random.Random, truth: list[Fraction]) -> list:
    """Breakpoints of a piecewise-linear order embedding that fixes every
    truth value and bends once inside most gaps."""
    points = []
    for lo, hi in zip(truth, truth[1:]):
        points.append((lo, lo))
        if rng.random() < 0.8:
            span = hi - lo
            points.append((lo + span * Fraction(rng.randint(1, 5), 6), lo + span * Fraction(rng.randint(1, 5), 6)))
    points.append((ONE, ONE))
    return points


def apply_breakpoints(points: list, v: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= v <= x1:
            return y0 + (y1 - y0) * (v - x0) / (x1 - x0)
    raise ValueError(f"{v} outside [0, 1]")
