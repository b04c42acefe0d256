"""Shared test utilities: random generators and independent oracles.

Everything here except the decoding oracle, oracle_sweep_size,
oracle_exhaustive, oracle_world_types, oracle_random_search,
oracle_compile_formulas and the model boundary oracles is deliberately
written from first principles (plain recursion, no reuse of the library's
evaluator internals) so that tests compare the package against genuinely
independent reference behaviour.  oracle_world_types is the world-type
search as it was before it skipped work its answer never reads and before
rows became bits; it reads the list-form table _world_rows, kept here,
evaluates its modal-free spans with _span_values, and keeps its own copy
of the search's cover test, _cover_size.  The decoding oracle (_decode,
_materialize) is the decider's grid decoding as it was before a
countermodel in code form carried its table.  The model boundary oracles keep the model file reader and transport
that the package had before each literal and value was read once; they
build the package's own model classes.  oracle_compile_formulas is the
compiler as it was before a one-root compile was kept on its root node.
oracle_shrink and oracle_countermodel are shrink and the countermodel
command as they were before countermodels stayed on integer codes; they
reuse the package's integer evaluation and decide.  oracle_shrink_codes is
the package's shrink on codes as it was before snaps of unread variables
went unevaluated.
"""

from __future__ import annotations

import json
import random
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Iterator, Sequence

from godelmodal import (
    BOT,
    ONE,
    ZERO,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    FrameReport,
    Implies,
    LogicId,
    MissingMetavariableError,
    OrderEmbedding,
    ParseError,
    PiGFModel,
    PiGModel,
    RelationalModel,
    TruthSet,
    Var,
    complexity_ell,
    disj,
    format_rational,
    iff,
    neg,
    top,
    variables,
)
from godelmodal import syntax
from godelmodal.decider import (
    _DENOMS,
    _GRID,
    Refuted,
    SearchConfig,
    Valid,
    bound_for,
    decide,
    verdict_to_json,
)
from godelmodal.semantics import UnknownWorldError, _model, eval_pigf, evaluate_compiled, modal_terms
from godelmodal.syntax import _TAGS, compile_formulas


def _first_refutation(ops, root, rows, t_codes, top):
    """The first world whose root code is below top, with that code, of one
    model given as code rows (pi, then one code per variable), the form the
    oracles here keep; evaluate_compiled reads code columns."""
    pi, *columns = zip(*rows)
    values = evaluate_compiled(ops, columns, ([pi], t_codes), top)[root]
    return next(((w, code) for w, code in enumerate(values) if code != top), None)


# --------------------------------------------------------------------------
# Random formulas
# --------------------------------------------------------------------------


def random_formula(rng: random.Random, names=("p", "q"), depth: int = 3) -> Formula:
    """One random formula over the primitive connectives, depth-bounded."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.85 and names:
            return Var(rng.choice(names))
        return BOT
    roll = rng.random()
    if roll < 0.3:
        return And(
            random_formula(rng, names, depth - 1),
            random_formula(rng, names, depth - 1),
        )
    if roll < 0.6:
        return Implies(
            random_formula(rng, names, depth - 1),
            random_formula(rng, names, depth - 1),
        )
    if roll < 0.8:
        return Box(random_formula(rng, names, depth - 1))
    return Dia(random_formula(rng, names, depth - 1))


def random_formula_bounded(
    rng: random.Random,
    names=("p", "q"),
    max_ell: int = 8,
    require_var: bool = False,
) -> Formula:
    """Random formula with complexity at most ``max_ell``.

    With ``require_var`` the formula is guaranteed to contain at least one
    propositional variable (pure-falsum formulas are redrawn).
    """
    while True:
        f = random_formula(rng, names)
        if complexity_ell(f) > max_ell:
            continue
        if require_var and not variables(f):
            continue
        return f


# --------------------------------------------------------------------------
# Independent syntax oracles (plain recursion over the tree, no sharing)
# --------------------------------------------------------------------------


_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<box>\[\])
      | (?P<dia><>)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<not>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<zero>0)
      | (?P<one>1)
    """,
    re.VERBOSE,
)


def _oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The package's regex tokenizer as it was, one match per token,
    whitespace included: (kind, text, position) triples, then ("end", "",
    len(text)).  An unknown character raises ParseError at its position
    before any token is parsed."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _RecursiveParser:
    def __init__(self, text: str, allow_meta: bool) -> None:
        self.tokens = _oracle_tokenize(text)
        self.i = 0
        self.allow_meta = allow_meta

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    # Precedence, tightest first: unary, &, |, ->, <->.
    def formula(self) -> Formula:
        f = self.iff_level()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return f

    def iff_level(self) -> Formula:
        left = self.imp_level()
        if self.peek()[0] == "iff":
            self.advance()
            return iff(left, self.iff_level())
        return left

    def imp_level(self) -> Formula:
        left = self.or_level()
        if self.peek()[0] == "imp":
            self.advance()
            return Implies(left, self.imp_level())
        return left

    def or_level(self) -> Formula:
        f = self.and_level()
        while self.peek()[0] == "or":
            self.advance()
            f = disj(f, self.and_level())
        return f

    def and_level(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "not":
            self.advance()
            return neg(self.unary())
        if kind == "box":
            self.advance()
            return Box(self.unary())
        if kind == "dia":
            self.advance()
            return Dia(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "zero":
            return BOT
        if kind == "one":
            return top()
        if kind == "ident":
            if text == "top":
                return top()
            if text[0].isupper() and not self.allow_meta:
                raise ParseError(f"variable {text!r} must start lowercase", pos)
            return Var(text)
        if kind == "lpar":
            f = self.iff_level()
            self.expect("rpar", "')'")
            return f
        raise ParseError(f"expected a formula, found {text!r}" if text else "unexpected end of input", pos)


def oracle_parse(text: str, allow_meta: bool) -> Formula:
    """The recursive-descent parser the package used before its precedence
    climber, one method per precedence level."""
    return _RecursiveParser(text, allow_meta).formula()


def oracle_subformulas(f: Formula) -> frozenset:
    """All subformulas of f, plus bottom."""
    acc = {BOT}

    def walk(g):
        acc.add(g)
        if isinstance(g, (And, Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Box, Dia)):
            walk(g.body)

    walk(f)
    return frozenset(acc)


def oracle_complexity_ell(f: Formula) -> int:
    return len(oracle_subformulas(f))


def _oracle_children(g: Formula) -> tuple[Formula, ...]:
    if isinstance(g, (And, Implies)):
        return (g.left, g.right)
    return (g.body,) if isinstance(g, (Box, Dia)) else ()


def oracle_postorder(roots: Sequence[Formula]) -> list[Formula]:
    """The distinct nodes under the roots, children before parents and left
    before right, from a depth-first walk that marks a node when it first
    meets it, where the package's walk stops at nodes it has recorded."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            order.append(g)
        elif g not in seen:
            seen.add(g)
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(_oracle_children(g)))
    return order


def oracle_compile_formulas(
    roots: Sequence[Formula],
) -> tuple[list[tuple], list[int], tuple[str, ...]]:
    """compile_formulas without the package's walk."""
    ops: list[tuple] = []
    index: dict[Formula, int] = {}
    for g in oracle_postorder(roots):
        if isinstance(g, Var):
            op = ("var", g.name)
        else:
            op = (_TAGS[type(g)], *[index[c] for c in _oracle_children(g)])
        index[g] = len(ops)
        ops.append(op)
    names = tuple(sorted(op[1] for op in ops if op[0] == "var"))
    ops = [("var", names.index(op[1])) if op[0] == "var" else op for op in ops]
    return ops, [index[r] for r in roots], names


def count_compile_walks(monkeypatch) -> list[int]:
    """Record the number of roots of every node walk that compile_formulas
    makes from now on (parse walks none: its parser emits the op list).
    The walks of subformulas and instantiate are not counted, and the roots
    themselves are not kept, so they can die."""
    walks: list[int] = []
    walk = syntax._postorder

    def counting(roots):
        if sys._getframe(1).f_code is compile_formulas.__code__:
            walks.append(len(roots))
        return walk(roots)

    monkeypatch.setattr(syntax, "_postorder", counting)
    return walks


def oracle_render(f: Formula) -> str:
    """The printer's grammar: & binds tighter than ->, & is left and -> right
    associative, and a modal operator's body is atomic, modal or bracketed."""

    def prec(g):
        if isinstance(g, Implies):
            return 1
        if isinstance(g, And):
            return 2
        if isinstance(g, (Box, Dia)):
            return 3
        return 4

    def wrap(g, minimum):
        text = oracle_render(g)
        return text if prec(g) >= minimum else "(" + text + ")"

    if isinstance(f, Bot):
        return "0"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Box):
        return "[]" + wrap(f.body, 3)
    if isinstance(f, Dia):
        return "<>" + wrap(f.body, 3)
    if isinstance(f, And):
        return wrap(f.left, 2) + " & " + wrap(f.right, 3)
    if isinstance(f, Implies):
        return wrap(f.left, 2) + " -> " + wrap(f.right, 1)
    raise TypeError(f"not a formula: {f!r}")


def oracle_instantiate(template: Formula, subst) -> Formula:
    """Replace each uppercase metavariable by its image under subst."""
    if isinstance(template, Var) and template.name[0].isupper():
        if template.name not in subst:
            raise MissingMetavariableError(f"no binding for metavariable {template.name!r}")
        return subst[template.name]
    if isinstance(template, (And, Implies)):
        return type(template)(
            oracle_instantiate(template.left, subst), oracle_instantiate(template.right, subst)
        )
    if isinstance(template, (Box, Dia)):
        return type(template)(oracle_instantiate(template.body, subst))
    return template


# --------------------------------------------------------------------------
# Random truth values, truth sets, models
# --------------------------------------------------------------------------

_DENOMS = (2, 3, 4, 5, 6, 8, 12)


def random_value(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.2:
        return ZERO
    if roll < 0.4:
        return ONE
    d = rng.choice(_DENOMS)
    return Fraction(rng.randint(0, d), d)


# Values whose floats tie with another value's: 1/3 and two values within
# 10**-30 of it, a value whose float is 0.0, and two whose float is 1.0.
# Sorted by float alone, with ties kept in insertion order, they misorder.
FLOAT_TIES = (
    Fraction(1, 3),
    Fraction(10**40, 3 * 10**40 + 1),
    Fraction(1, 3) + Fraction(1, 10**30),
    Fraction(1, 10**4299),
    Fraction(10**30 - 1, 10**30),
    Fraction(10**4299 - 1, 10**4299),
)


def random_tied_value(rng: random.Random) -> Fraction:
    """A value of FLOAT_TIES half of the time, else random_value's."""
    return rng.choice(FLOAT_TIES) if rng.random() < 0.5 else random_value(rng)


def random_truth_set(rng: random.Random, max_interior: int = 3) -> TruthSet:
    interior = set()
    for _ in range(rng.randint(0, max_interior)):
        d = rng.choice(_DENOMS)
        n = rng.randint(1, d - 1)
        interior.add(Fraction(n, d))
    return TruthSet([ZERO, ONE, *interior])


def random_pig(
    rng: random.Random,
    n_worlds: int,
    names=("p", "q"),
    normalized: bool = False,
    crisp: bool = False,
) -> PiGModel:
    worlds = tuple(f"w{i + 1}" for i in range(n_worlds))
    draw = (lambda: Fraction(rng.randint(0, 1))) if crisp else (lambda: random_value(rng))
    pi = {w: draw() for w in worlds}
    if normalized:
        pi[rng.choice(worlds)] = ONE
    valuation = {w: {v: draw() for v in names} for w in worlds}
    return PiGModel(worlds, pi, valuation)


def random_pigf(
    rng: random.Random,
    n_worlds: int,
    names=("p", "q"),
    max_interior: int = 3,
) -> PiGFModel:
    base = random_pig(rng, n_worlds, names)
    return PiGFModel(base, random_truth_set(rng, max_interior))


# --------------------------------------------------------------------------
# Random order-embedding fixing a truth set pointwise
# --------------------------------------------------------------------------


def random_fixing_embedding(rng: random.Random, truth_set: TruthSet) -> OrderEmbedding:
    """Piecewise-linear order embedding that fixes every member of the set.

    Each gap between consecutive members optionally gets one interior bend,
    which keeps the breakpoint sequence strictly increasing in both
    coordinates by construction.
    """
    members = list(truth_set)
    points = []
    for lo, hi in zip(members, members[1:]):
        points.append((lo, lo))
        if rng.random() < 0.7:
            span = hi - lo
            x = lo + span * Fraction(rng.randint(1, 5), 6)
            y = lo + span * Fraction(rng.randint(1, 5), 6)
            points.append((x, y))
    points.append((ONE, ONE))
    return OrderEmbedding(points)


# --------------------------------------------------------------------------
# Independent classical oracle (two-valued Kripke semantics)
# --------------------------------------------------------------------------


def classical_eval(worlds, accessible, valuation, world, formula) -> bool:
    """Brute-force two-valued Kripke evaluation over a constant frame.

    ``accessible`` is the single set of worlds every world can see; the
    valuation maps world -> variable -> bool.
    """
    if isinstance(formula, Bot):
        return False
    if isinstance(formula, Var):
        return bool(valuation.get(world, {}).get(formula.name, False))
    if isinstance(formula, And):
        return classical_eval(worlds, accessible, valuation, world, formula.left) and classical_eval(
            worlds, accessible, valuation, world, formula.right
        )
    if isinstance(formula, Implies):
        return (not classical_eval(worlds, accessible, valuation, world, formula.left)) or classical_eval(
            worlds, accessible, valuation, world, formula.right
        )
    if isinstance(formula, Box):
        return all(classical_eval(worlds, accessible, valuation, w, formula.body) for w in accessible)
    if isinstance(formula, Dia):
        return any(classical_eval(worlds, accessible, valuation, w, formula.body) for w in accessible)
    raise TypeError(f"unexpected node {formula!r}")


# --------------------------------------------------------------------------
# Independent many-valued oracle (plain recursion over exact rationals)
# --------------------------------------------------------------------------


def oracle_eval(worlds, access, valuation, world, formula, truth=None) -> Fraction:
    """Godel modal value of ``formula`` at ``world``, straight from the
    definitions.

    ``access(w, v)`` is the accessibility degree of v from w: pi(v) for a
    possibilistic model, R(w, v) for a relational one.  ``valuation`` maps
    world -> variable -> value, missing entries 0.  With a ``truth`` list
    (sorted, containing 0 and 1), box values are rounded down into it and
    diamond values up.
    """

    def ev(w, f):
        if isinstance(f, Bot):
            return ZERO
        if isinstance(f, Var):
            return valuation.get(w, {}).get(f.name, ZERO)
        if isinstance(f, And):
            return min(ev(w, f.left), ev(w, f.right))
        if isinstance(f, Implies):
            a, b = ev(w, f.left), ev(w, f.right)
            return ONE if a <= b else b
        if isinstance(f, Box):
            pairs = [(access(w, u), ev(u, f.body)) for u in worlds]
            v = min(ONE if a <= b else b for a, b in pairs)
            return v if truth is None else max(t for t in truth if t <= v)
        if isinstance(f, Dia):
            v = max(min(access(w, u), ev(u, f.body)) for u in worlds)
            return v if truth is None else min(t for t in truth if t >= v)
        raise TypeError(f"unexpected node {formula!r}")

    return ev(world, formula)


def random_relational(
    rng: random.Random, n_worlds: int, names=("p", "q"), value=random_value, distinct_rows: bool = True
) -> RelationalModel:
    """Random relational model whose values come from value(rng).  With
    distinct_rows (n_worlds >= 2) its rows are not all equal."""
    worlds = tuple(f"w{i + 1}" for i in range(n_worlds))
    while True:
        rel = {w: {v: value(rng) for v in worlds} for w in worlds}
        if not distinct_rows or len({tuple(row.values()) for row in rel.values()}) > 1:
            break
    valuation = {w: {v: value(rng) for v in names} for w in worlds}
    return RelationalModel(worlds, rel, valuation)


def random_sparse_relational(rng: random.Random, n_worlds: int) -> RelationalModel:
    """Random relational model of 1 or more worlds whose R leaves rows or
    pairs out (missing pairs are 0) and favours interior values."""
    worlds = tuple(f"w{i + 1}" for i in range(n_worlds))
    rel = {}
    for w in worlds:
        roll = rng.random()
        if roll < 0.2:
            continue
        row = {}
        if roll >= 0.3:
            for v in worlds:
                if rng.random() < 0.6:
                    d = rng.choice(_DENOMS)
                    row[v] = Fraction(rng.randint(0, d), d)
        rel[w] = row
    return RelationalModel(worlds, rel)


# --------------------------------------------------------------------------
# Independent frame oracle (triple loop over exact rationals)
# --------------------------------------------------------------------------


def oracle_frame_report(model: RelationalModel) -> FrameReport:
    """Check min-transitivity, min-euclideanness and seriality of R."""
    ws = model.worlds
    trans = []
    eucl = []
    for w in ws:
        for w1 in ws:
            r01 = model.rel(w, w1)
            for w2 in ws:
                if min(r01, model.rel(w1, w2)) > model.rel(w, w2):
                    trans.append((w, w1, w2))
                if min(r01, model.rel(w, w2)) > model.rel(w1, w2):
                    eucl.append((w, w1, w2))
    serial = [w for w in ws if max(model.rel(w, w2) for w2 in ws) != ONE]
    return FrameReport(
        transitive=not trans,
        euclidean=not eucl,
        serial=not serial,
        transitivity_witnesses=tuple(trans),
        euclidean_witnesses=tuple(eucl),
        seriality_witnesses=tuple(serial),
    )


# --------------------------------------------------------------------------
# Model boundary oracles: the model file reader and the transport that
# parsed every literal and interpolated every value on its own
# --------------------------------------------------------------------------


def oracle_parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc
    if not ZERO <= value <= ONE:
        raise ValueError(f"rational {text!r} outside [0, 1]")
    return value


def _oracle_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _oracle_rational_rows(value: object, what: str) -> dict:
    return {
        w: {str(k): oracle_parse_rational(str(v)) for k, v in _oracle_object(row, f"{what} row").items()}
        for w, row in _oracle_object(value, f"'{what}'").items()
    }


def oracle_model_from_json(doc: object) -> PiGModel | PiGFModel | RelationalModel:
    """Parse the JSON file structure, one parse_rational call per value."""
    doc = _oracle_object(doc, "model document")
    if "worlds" not in doc:
        raise ValueError("model document lacks 'worlds'")
    worlds = doc["worlds"]
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ValueError("'worlds' must be a list of strings")
    valuation = _oracle_rational_rows(doc.get("valuation", {}), "valuation")
    if "R" in doc:
        if "pi" in doc or "truth_set" in doc:
            raise ValueError("relational model must not carry 'pi' or 'truth_set'")
        return RelationalModel(worlds, _oracle_rational_rows(doc["R"], "R"), valuation)
    if "pi" not in doc:
        raise ValueError("model document lacks 'pi' or 'R'")
    pi = {w: oracle_parse_rational(str(v)) for w, v in _oracle_object(doc["pi"], "'pi'").items()}
    base = PiGModel(worlds, pi, valuation)
    if "truth_set" in doc:
        if not isinstance(doc["truth_set"], list):
            raise ValueError("'truth_set' must be a list")
        return PiGFModel(base, TruthSet(oracle_parse_rational(str(t)) for t in doc["truth_set"]))
    return base


def oracle_apply_embedding(h: OrderEmbedding, v: Fraction) -> Fraction:
    """h at v by linear interpolation, the breakpoint list built per call."""
    if not ZERO <= v <= ONE:
        raise ValueError(f"value {v} outside [0, 1]")
    pts = h.breakpoints
    xs = [p[0] for p in pts]
    i = bisect_right(xs, v) - 1
    if i == len(pts) - 1:
        return pts[-1][1]
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return y0 + (y1 - y0) * (v - x0) / (x1 - x0)


def oracle_transport(model: PiGFModel, h: OrderEmbedding) -> PiGFModel:
    """Push pi and the valuation through h, one interpolation per value."""
    moved = [t for t in model.truth_set if oracle_apply_embedding(h, t) != t]
    if moved:
        raise ValueError(f"embedding moves truth set member {format_rational(moved[0])}")
    base = model.base
    pi = {w: oracle_apply_embedding(h, base.pi[w]) for w in base.worlds}
    valuation = {
        w: {p: oracle_apply_embedding(h, v) for p, v in row.items()}
        for w, row in base.valuation.items()
    }
    return PiGFModel(PiGModel(base.worlds, pi, valuation), model.truth_set)


# --------------------------------------------------------------------------
# Decoding oracle
# --------------------------------------------------------------------------
# The decider's decoding as it was before a countermodel in code form
# carried its decoding table, copied verbatim: code 0 is 0, top_code is 1 and
# an interior code c is c / k_grid, and t_ranks are the interior truth set
# codes.  The package's table lookup must build the same models and values.


def _decode(code: int, top_code: int, k_grid: int) -> Fraction:
    if code == 0:
        return ZERO
    if code == top_code:
        return ONE
    return Fraction(code, k_grid)


def _materialize(
    names: Sequence[str],
    rows: Sequence[Sequence[int]],
    t_ranks: Sequence[int],
    top_code: int,
    k_grid: int,
    worlds: Sequence[str] | None = None,
) -> PiGFModel:
    if worlds is None:
        worlds = tuple(f"w{i + 1}" for i in range(len(rows)))
    pi = {w: _decode(row[0], top_code, k_grid) for w, row in zip(worlds, rows)}
    valuation = {
        w: {p: _decode(row[1 + i], top_code, k_grid) for i, p in enumerate(names)}
        for w, row in zip(worlds, rows)
    }
    truth = TruthSet([ZERO, ONE] + [Fraction(r, k_grid) for r in t_ranks])
    return PiGFModel(_model(PiGModel, worlds, pi, valuation), truth)


# --------------------------------------------------------------------------
# Whole-bound sweep oracle for exhaustive mode
# --------------------------------------------------------------------------


# The canonical enumeration as the package had it when the world-type
# decider came in, copied verbatim: a recursive generator of increasing row
# tuples that prunes on the masks still reachable.  Tests compare the
# package's _sweep_size with it, and oracle_exhaustive sweeps with it.


def _sorted_row_models(
    alphabet: Sequence[tuple[int, ...]],
    masks: Sequence[int],
    n_rows: int,
    need: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every strictly increasing n_rows-tuple of alphabet rows whose masks
    together cover need, in lexicographic order of alphabet positions.

    Increasing rows identify models that only differ by a renaming of
    worlds, a model isomorphism; that cuts a size by a factor of up to n!.
    Strictly increasing rows also drop models with a duplicated world.  Min
    and max are idempotent, so a duplicate never changes a value: a model
    with a duplicated row refutes only if the model without the copy does,
    and that model lies in the earlier size (|W| - 1, |T|).  A duplicate
    can therefore never be the first hit of a sweep that visits sizes in
    size_order, and dropping them changes no refutation it reports.
    """
    size = len(alphabet)
    suffix = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    chosen: list[tuple[int, ...]] = [()] * n_rows

    def rec(start: int, depth: int, acc: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if depth == n_rows:
            if not (need & ~acc):
                yield tuple(chosen)
            return
        for i in range(start, size):
            if need & ~(acc | suffix[i]):
                break
            chosen[depth] = alphabet[i]
            yield from rec(i + 1, depth + 1, acc | masks[i])

    yield from rec(0, 0, 0)


def oracle_sweep_size(
    n_worlds: int,
    n_truth: int,
    names: tuple[str, ...],
    logic: LogicId,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int], int, int]]:
    """Canonical world-sorted models of exactly these dimensions, as integer
    code structures (rows, t_codes, top_code, k_grid)."""
    width = 1 + len(names)
    k_grid = n_worlds * width + n_truth
    for j in range(n_worlds * width + n_truth - 2 + 1):
        top_code = j + 1
        space = product(range(top_code + 1), repeat=width)
        if logic is LogicId.S5:
            alphabet = [row for row in space if row[0] == top_code]
        else:
            alphabet = list(space)
        masks = []
        for row in alphabet:
            mask = 0
            for c in row:
                if 0 < c <= j:
                    mask |= 1 << c
            if row[0] == top_code:
                mask |= 1  # normalization marker: some world fully possible
            masks.append(mask)
        for t_ranks in combinations(range(1, j + 1), n_truth - 2):
            need = 1 if logic is not LogicId.K45 else 0
            in_t = set(t_ranks)
            for r in range(1, j + 1):
                if r not in in_t:
                    need |= 1 << r
            t_codes = sorted({0, top_code} | in_t)
            for rows in _sorted_row_models(alphabet, masks, n_worlds, need):
                yield rows, t_codes, top_code, k_grid


def size_order(bound: int, cfg: SearchConfig) -> list[tuple[int, int]]:
    """Every size (|W|, |T|) within the bound and the caps, in the order a
    whole-bound sweep visits them."""
    sizes = []
    for n in range(1, bound - 1):
        if cfg.max_worlds is not None and n > cfg.max_worlds:
            continue
        for m in range(2, bound - n + 1):
            if cfg.max_truth is not None and m > cfg.max_truth:
                continue
            sizes.append((n, m))
    sizes.sort(key=lambda nm: (nm[0] + nm[1], nm[0]))
    return sizes


def oracle_exhaustive(f: Formula, logic, cfg):
    """Exhaustive mode as a sweep of every canonical model of every size
    within the bound and the caps, smallest sizes first: the first model
    with a refuting world wins, and Valid counts the models swept.  The
    world-type decider must agree with it on every verdict, and match its
    refutations byte for byte.  Unlike the oracles above, this one reuses
    the package's integer evaluation, since what it checks is the world
    types against the sweep itself; it sweeps with oracle_sweep_size."""
    bound = bound_for(f)
    ops, (root,), names = compile_formulas([f])
    checked = 0
    for n_worlds, n_truth in size_order(bound, cfg):
        for rows, t_codes, top_code, k_grid in oracle_sweep_size(
            n_worlds, n_truth, names, logic
        ):
            checked += 1
            hit = _first_refutation(ops, root, rows, t_codes, top_code)
            if hit is not None:
                idx, code = hit
                model = _materialize(names, rows, t_codes[1:-1], top_code, k_grid)
                world = model.worlds[idx]
                value = eval_pigf(model, world, f)
                # a bare assert here would vanish under python -O: this
                # module is not one whose asserts pytest rewrites
                if not value == _decode(code, top_code, k_grid) < ONE:
                    raise AssertionError(
                        f"integer sweep and exact evaluation disagree on {model!r}"
                    )
                return Refuted(model, world, value)
    return Valid(bound, checked)


# --------------------------------------------------------------------------
# World-type search before it skipped unread work
# --------------------------------------------------------------------------
# decider's world-type table as it was before rows became bits: one list
# per column, one code per row.  oracle_world_types reads it, and
# worldtypes._world_table must give its thresholds, row for row.


def _weak_orders_by_blocks(n: int) -> dict[int, list[tuple[int, ...]]]:
    """Every weak order of n items, as onto tuples of block ranks, by block
    count, in worldtypes._ranked_orders' order: with b blocks, for each block
    k, the orders of n - 1 items with b blocks where the last item joins
    block k, then those with b - 1 blocks where it opens block k."""
    by_blocks: dict[int, list[tuple[int, ...]]] = {0: [()]}
    for m in range(1, n + 1):
        by_blocks = {
            b: [
                order
                for k in range(b)
                for order in [(*ranks, k) for ranks in by_blocks.get(b, [])]
                + [(*(x + (x >= k) for x in ranks), k) for ranks in by_blocks.get(b - 1, [])]
            ]
            for b in range(1, m + 1)
        }
    return by_blocks


def _world_rows(k_levels: int, width: int, logic: LogicId) -> list[list[int]]:
    """One row per order type of a world's width values against k_levels
    interior levels, as columns (pi, then one per variable); under S5 pi is
    fixed at 1.

    A row is a weak order of its values whose blocks, in increasing order,
    sit in slots: slot 2j is level j, which holds at most one block, and
    slot 2j + 1 the gap above it, where blocks take consecutive codes.
    Rows are nested by level: those whose highest slot is at most 2 come
    first, then for each next level g those whose highest slot is 2g + 1 or
    2g + 2; within a level they go by block count, then slot choice.
    """
    step = width + 1
    fixed = [(k_levels + 1) * step] if logic is LogicId.S5 else []
    free = width - len(fixed)
    by_blocks = _weak_orders_by_blocks(free)
    columns: list[list[int]] = [[] for _ in range(width)]
    for level, blocks in product(range(k_levels + 1), by_blocks):
        orders = by_blocks[blocks]
        picks = list(zip(*orders))
        for slots in combinations_with_replacement(range(2 * level + 3), blocks):
            if max(0, (max(slots, default=0) - 1) // 2) != level:
                continue  # the highest slot lies in an earlier level
            codes: list[int] = []
            for i, s in enumerate(slots):
                shared = i > 0 and slots[i - 1] == s
                if shared and s % 2 == 0:
                    break  # two blocks on one level
                codes.append(codes[-1] + 1 if shared else s // 2 * step + s % 2)
            else:
                columns[0].extend(fixed * len(orders))
                for column, pick in zip(columns[len(fixed):], picks):
                    column.extend(map(codes.__getitem__, pick))
    return columns


_REFUTED = 1  # requirement bits: some world refutes the formula,
_NORMAL = 2  # some world has pi = 1 (KD45), and bit 2 + d for modal op d


def _cover_size(masks: set[int], need: int, limit: int) -> int | None:
    """The fewest masks whose union holds need, if that is at most limit."""
    masks = {x & need for x in masks}
    reach = {0}
    for size in range(limit + 1):
        if need in reach:
            return size
        grown = {r | x for r in reach for x in masks}
        if grown == reach:
            return None
        reach = grown
    return None


# worldtypes._world_types as it was before complete order types were cover-tested
# before evaluation, children copied only live columns and popped prefixes
# were tested again only after limit fell.  It must return the same
# (best, examined) on every input.


def _span_values(
    ops: list[tuple], span: tuple[int, int], vals: dict, columns: Sequence[list[int]], top: int, n: int
) -> dict:
    """Evaluate the modal-free ops[start:stop] over n worlds into vals,
    which holds every value the span reads from before start, as
    evaluate_compiled evaluates them."""
    for i in range(*span):
        op = ops[i]
        if op[0] == "imp":
            vals[i] = [top if x <= y else y for x, y in zip(vals[op[1]], vals[op[2]])]
        elif op[0] == "and":
            vals[i] = [x if x < y else y for x, y in zip(vals[op[1]], vals[op[2]])]
        else:
            vals[i] = columns[op[1]] if op[0] == "var" else [0] * n
    return vals


def oracle_world_types(
    ops: list[tuple], root: int, n_vars: int, logic: LogicId, k_levels: int, limit: int
) -> tuple[int | None, int]:
    """The fewest worlds, if at most limit, of a countermodel whose truth
    set has exactly k_levels interior members, all of them modal values; and
    the number of complete order types examined.

    A depth-first search gives the modal ops, in postorder, levels 0..K+1,
    using every interior level.  Level c of a box asks every world for
    pi -> b >= c (universal) and, if c < 1, some world for pi -> b below
    the next level (existential); a diamond asks for min(pi, b) <= c and,
    if c > 0, for some world above the previous level.  Worlds failing a
    universal condition are dropped.  A prefix survives while at most limit
    of the remaining rows together meet every existential requirement so
    far, plus pi = 1 under KD45; the rows only shrink down the search, so
    this pruning is sound, and every surviving prefix is the true value
    vector of a model of at most limit worlds.  A complete order type needs one
    more requirement: some world whose value of the formula is below 1.

    A state holds, by op index, its worlds' values of the ops a later op
    still reads, which keeps it small on deep formulas; a child adds its
    modal op's level, and _span_values extends it to the next modal op.
    """
    width = 1 + n_vars
    step = width + 1
    top = (k_levels + 1) * step
    pi, *columns = _world_rows(k_levels, width, logic)
    modal = [i for i, op in enumerate(ops) if op[0] in ("box", "dia")]
    # the last op that reads each op's values; a var op's argument is a column
    last_read = {a: i for i, op in enumerate(ops) if op[0] != "var" for a in op[1:]}
    last_read[root] = len(ops)
    cuts = [*modal, len(ops)]
    vals = _span_values(ops, (0, cuts[0]), {}, columns, top, len(pi))
    need = _NORMAL if logic is LogicId.KD45 else 0
    masks = [need if p == top else 0 for p in pi]

    def settle(vals: dict[int, list[int]], masks: list[int], need: int) -> int | None:
        # a complete order type also needs a world that refutes the formula
        masks = [x | _REFUTED if v < top else x for x, v in zip(masks, vals[root])]
        return _cover_size(set(masks), need | _REFUTED, limit)

    if not modal:
        return settle(vals, masks, need), 1
    best, examined = None, 0
    stack = [(0, vals, columns, pi, masks, need, 0)]
    while stack:
        d, vals, columns, pi, masks, need, used = stack.pop()
        if _cover_size(set(masks), need, limit) is None:
            continue  # limit fell since this prefix was stacked
        i = modal[d]
        tag, body = ops[i]
        span = (i + 1, cuts[d + 1])
        carried = [k for k in vals if last_read[k] > i]  # still read after op i
        complete = d + 1 == len(modal)
        # A box at level j keeps the worlds whose term lies at or above
        # level j, and those below level j + 1 witness it.  Negated terms
        # turn a diamond into the same test.  Levels are visited so that
        # the kept worlds only grow.
        sign = 1 if tag == "box" else -1
        groups: dict[int, list[int]] = {}
        for r, t in enumerate(modal_terms(tag, pi, vals[body], top)):
            groups.setdefault(sign * t // step, []).append(r)
        bit = 4 << d
        keep: list[int] = []
        plain: list[int] = []  # the masks of the worlds kept so far
        children = []
        for j in range(k_levels + 1, -1, -1) if tag == "box" else range(k_levels + 2):
            group = groups.get(sign * j, [])
            marks = plain + [masks[r] | bit for r in group]
            keep = keep + group
            plain = plain + [masks[r] for r in group]
            grown = used | (1 << j) if 0 < j <= k_levels else used
            if k_levels - grown.bit_count() > len(modal) - d - 1:
                continue  # too few ops left to use every interior level
            asked = j <= k_levels if tag == "box" else j > 0
            marked = need | bit if asked else need
            # prune before building the values, unless they are needed to
            # tell which worlds refute
            if not keep or (not complete and _cover_size(set(marks), marked, limit) is None):
                continue
            child_pi = [pi[r] for r in keep]
            child_columns = [[col[r] for r in keep] for col in columns]
            child = {k: [vals[k][r] for r in keep] for k in carried}
            child[i] = [j * step] * len(keep)
            _span_values(ops, span, child, child_columns, top, len(keep))
            if not complete:
                children.append((d + 1, child, child_columns, child_pi, marks, marked, grown))
                continue
            examined += 1
            size = settle(child, marks, marked)
            if size is not None:
                best, limit = size, size - 1
                if not limit:
                    return best, examined
        # explore level 0 first
        stack.extend(children if tag == "box" else reversed(children))
    return best, examined


# --------------------------------------------------------------------------
# Sample-by-sample random search
# --------------------------------------------------------------------------
# The random search as one sample at a time through plain rng.random,
# rng.randint and rng.choice calls, one evaluation per sample.  The batched
# search spells those calls out as getrandbits draws; it must return the same
# countermodel and draw the same models.

# The most distinct interior values a sample can draw from the grid
_N_INTERIOR = len({k * (_GRID // d) for d in _DENOMS for k in range(1, d)})


def oracle_random_code(rng: random.Random, anchors: Sequence[int]) -> int:
    roll = rng.random()
    if roll < 0.22:
        return 0
    if roll < 0.44:
        return _GRID
    if anchors and roll < 0.60:
        return rng.choice(anchors)
    d = rng.choice(_DENOMS)
    return rng.randint(0, d) * (_GRID // d)


def oracle_sample(
    rng: random.Random, n_worlds: int, n_truth: int, n_vars: int, logic: LogicId
) -> tuple[list[tuple[int, ...]], list[int]]:
    """A random rounded model obeying the logic's frame constraint, as code
    rows (pi, then one code per variable) and the sorted interior truth set
    codes; values sometimes coincide with truth set members."""
    interior: set[int] = set()
    while len(interior) < min(n_truth - 2, _N_INTERIOR):
        d = rng.choice(_DENOMS)
        interior.add(rng.randint(1, d - 1) * (_GRID // d))
    anchors = sorted(interior)
    if logic is LogicId.S5:
        pis = [_GRID] * n_worlds
    else:
        pis = [oracle_random_code(rng, anchors) for _ in range(n_worlds)]
        if logic is LogicId.KD45:
            pis[rng.choice(range(n_worlds))] = _GRID
    rows = [(p, *(oracle_random_code(rng, anchors) for _ in range(n_vars))) for p in pis]
    return rows, anchors


def oracle_random_search(
    f: Formula, logic: LogicId, cfg: SearchConfig
) -> tuple[tuple[PiGFModel, str, Fraction] | None, int]:
    """The first countermodel among cfg.budget samples, or None, and the
    number of samples drawn."""
    rng = random.Random(cfg.seed)
    bound = bound_for(f)
    ops, (root,), names = compile_formulas([f])
    worlds_cap = max(1, min(cfg.max_worlds or 5, bound - 2))
    for index in range(cfg.budget):
        n = rng.randint(1, worlds_cap)
        truth_cap = max(2, min(cfg.max_truth or 6, bound - n))
        m = rng.randint(2, truth_cap)
        rows, anchors = oracle_sample(rng, n, m, len(names), logic)
        hit = _first_refutation(ops, root, rows, [0, *anchors, _GRID], _GRID)
        if hit is not None:
            idx, code = hit
            model = _materialize(names, rows, anchors, _GRID, _GRID)
            return (model, model.worlds[idx], _decode(code, _GRID, _GRID)), index + 1
    return None, cfg.budget


# --------------------------------------------------------------------------
# Shrinking on exact models
# --------------------------------------------------------------------------
# shrink as it was before it became an encoding around the code-level core,
# copied verbatim, and the countermodel command as it was composed then:
# decide, shrink the exact countermodel, evaluate the shrunk one exactly.
# CLI countermodel, which shrinks on the search's codes, must print the same.


def _oracle_snap_key(code: int, truth: Sequence[int], top: int) -> tuple[int, int]:
    # prefer endpoints, then truth set members, then anything else; ties go
    # to the smaller value, which makes snapping terminate
    if code == 0 or code == top:
        rank = 0
    elif code in truth:
        rank = 1
    else:
        rank = 2
    return (rank, code)


def oracle_shrink(
    model: PiGFModel, world: str, f: Formula, logic: LogicId
) -> tuple[PiGFModel, str]:
    """Greedily minimize a countermodel: drop worlds, coarsen the truth set,
    snap values toward endpoints and truth set members.  The result still
    refutes f, satisfies the logic's constraint, and is never larger.  Kept
    worlds keep their names and the variables of their valuation rows."""
    ops, (root,), names = compile_formulas([f])
    if world not in model.worlds:
        raise UnknownWorldError(f"unknown world {world!r}")
    valuation = model.base.valuation
    # one column per variable: the formula's first, in compiled order
    columns = [*names, *sorted({p for row in valuation.values() for p in row} - set(names))]
    column = {p: 1 + i for i, p in enumerate(columns)}
    table = sorted(
        {ZERO, ONE, *model.truth_set, *model.pi.values()}
        | {v for row in valuation.values() for v in row.values()}
    )
    code = {v: i for i, v in enumerate(table)}
    top = len(table) - 1
    rows = {
        w: [code[model.pi[w]], *(code[model.value(w, p)] for p in columns)]
        for w in model.worlds
    }
    truth = [code[t] for t in model.truth_set]

    def refuting(worlds: list[str], t_codes: list[int]) -> str | None:
        hit = _first_refutation(ops, root, [rows[w] for w in worlds], t_codes, top)
        return None if hit is None else worlds[hit[0]]

    def lawful(worlds: list[str]) -> bool:
        if logic is LogicId.KD45:
            return any(rows[w][0] == top for w in worlds)
        if logic is LogicId.S5:
            return all(rows[w][0] == top for w in worlds)
        return True

    live = list(model.worlds)
    codes = list(zip(*rows.values()))
    at_world = evaluate_compiled(ops, codes[1:], (codes[:1], truth), top)[root]
    if at_world[live.index(world)] == top:
        raise ValueError("shrink needs a countermodel")
    if not lawful(live):
        raise ValueError("model violates the logic's frame constraint")
    anchor = world
    changed = True
    while changed:
        changed = False
        for w in list(live):
            if len(live) == 1:
                break
            kept = [v for v in live if v != w]
            hit = refuting(kept, truth) if lawful(kept) else None
            if hit is not None:
                live, anchor, changed = kept, hit, True
        for t in truth[1:-1]:
            coarser = [c for c in truth if c != t]
            hit = refuting(live, coarser)
            if hit is not None:
                truth, anchor, changed = coarser, hit, True
        for w in live:
            row = rows[w]
            for i in [0, *(column[p] for p in sorted(valuation.get(w, {})))]:
                old = row[i]
                down = truth[bisect_right(truth, old) - 1]
                up = truth[bisect_left(truth, old)]
                for new in (0, top, down, up):
                    if _oracle_snap_key(new, truth, top) >= _oracle_snap_key(old, truth, top):
                        continue
                    row[i] = new
                    hit = refuting(live, truth) if lawful(live) else None
                    if hit is not None:
                        anchor, changed = hit, True
                        break
                    row[i] = old
    small = PiGModel(
        live,
        {w: table[rows[w][0]] for w in live},
        {w: {p: table[rows[w][column[p]]] for p in valuation[w]} for w in live if w in valuation},
    )
    return PiGFModel(small, TruthSet(table[c] for c in truth)), anchor


# The code loop of decider._shrunk, then a function _shrink_codes of its
# own, as it was before a snap of a position that no var op reads was kept
# without an evaluation, copied verbatim (with _oracle_snap_key for
# the package's equal _snap_key): every such snap is evaluated, accepted, and
# marks the pass as changed.


def oracle_shrink_codes(
    ops: list[tuple],
    root: int,
    rows: list[list[int]],
    truth: list[int],
    top: int,
    logic: LogicId,
    anchor: int,
    code: int,
) -> tuple[list[int], list[int], int, int]:
    """Greedily minimize a countermodel given as code rows: drop
    worlds, coarsen the truth set, snap values toward endpoints and truth
    set members.  rows[i] holds world i's pi code, then its variable codes,
    the formula's first in compiled order; each live row is snapped in
    place, position by position.  truth holds the sorted truth
    set codes, 0 and top among them, and anchor is a refuting world whose
    value code is code.  Rows that break the logic's constraint on pi raise
    ValueError.

    Returns the kept worlds' indices in order, the kept truth codes, the
    refuting world and its value code.  Both come from the last accepted
    evaluation, whose model the result is, since a rejected candidate
    changes nothing; with none accepted they are anchor and code.

    Any coding whose order is the order of the values gives the same
    result, which is why a search's hit and shrink's rank codes agree.
    Evaluation with truth set rounding compares values and returns 0, top,
    one of its inputs or a truth set member, so it maps along the coding.
    Shrinking writes only 0, top or a truth set member, found by bisection,
    which compares; it ranks candidates by _snap_key, which compares and
    tests membership, ties included.  So every decision is the same, and
    every kept code is the coding of the exact shrink's value.
    """

    def refuting(worlds: list[int], t_codes: list[int]) -> tuple[int, int] | None:
        hit = _first_refutation(ops, root, [rows[w] for w in worlds], t_codes, top)
        return None if hit is None else (worlds[hit[0]], hit[1])

    def lawful(worlds: list[int]) -> bool:
        if logic is LogicId.KD45:
            return any(rows[w][0] == top for w in worlds)
        if logic is LogicId.S5:
            return all(rows[w][0] == top for w in worlds)
        return True

    live = list(range(len(rows)))
    if not lawful(live):
        raise ValueError("model violates the logic's frame constraint")
    changed = True
    while changed:
        changed = False
        for w in list(live):
            if len(live) == 1:
                break
            kept = [v for v in live if v != w]
            hit = refuting(kept, truth) if lawful(kept) else None
            if hit is not None:
                live, (anchor, code), changed = kept, hit, True
        for t in truth[1:-1]:
            coarser = [c for c in truth if c != t]
            hit = refuting(live, coarser)
            if hit is not None:
                truth, (anchor, code), changed = coarser, hit, True
        for w in live:
            row = rows[w]
            for i in range(len(row)):
                old = row[i]
                down = truth[bisect_right(truth, old) - 1]
                up = truth[bisect_left(truth, old)]
                for new in (0, top, down, up):
                    if _oracle_snap_key(new, truth, top) >= _oracle_snap_key(old, truth, top):
                        continue
                    row[i] = new
                    hit = refuting(live, truth) if lawful(live) else None
                    if hit is not None:
                        (anchor, code), changed = hit, True
                        break
                    row[i] = old
    return live, truth, anchor, code


def oracle_countermodel(f: Formula, logic: LogicId, cfg: SearchConfig) -> tuple[int, str]:
    """The exit code and stdout of CLI countermodel, composed as before."""
    verdict = decide(f, logic, cfg)
    if isinstance(verdict, Refuted):
        model, world = oracle_shrink(verdict.countermodel, verdict.world, f, logic)
        verdict = Refuted(model, world, eval_pigf(model, world, f))
    doc = verdict_to_json(verdict)
    code = {"valid": 0, "refuted": 1, "unknown": 2}[doc["verdict"]]
    return code, json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
