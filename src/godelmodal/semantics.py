"""Possibilistic and relational Kripke models over the Godel algebra.

Three model classes:

  PiGModel         worlds with a possibility degree pi; modal values are exact
                   infima/suprema (minima/maxima, worlds are finite).
  PiGFModel        a PiGModel plus a finite truth set T; box values are rounded
                   down into T and diamond values up, propositional connectives
                   are never rounded.
  RelationalModel  a many-valued accessibility relation R; evaluation at w uses
                   R(w, .) where the possibilistic classes use pi.

All three are evaluated by one function, evaluate_compiled, over a formula
compiled once by syntax.compile_formulas into a postorder op list.  The
worlds' values lie in per-variable columns, and one frame per call gives
the accessibility and the truth sets.  In the possibilistic semantics
R(w, w') = pi(w'), so box and diamond values do not depend on the world: a
possibilistic model is the relational one whose rows all equal pi, and
has one shared accessibility row where a relational one has a row per
world.  A frame is one model's rows and truth set, or a batch of
possibilistic models laid end to end: their pi codes, world counts and
truth sets.  Propositional ops run once over all worlds.  A modal op reads
every frame as groups of terms, one per model of a batch or per row of a
model: one box loop and one diamond loop walk all the groups in one pass,
round each group's extremum once into its truth set and spread it over
the worlds the group stands for.

The evaluator only ever reads the order of values, so it runs on integer
codes.  A model in code form is one _Coded.  _encode is the one place an
exact model becomes codes, by rank with algebra._rank_codes, an order
embedding into the integers: evaluate (so the eval_* functions),
filtrate, frame_report and decider.shrink take their codes from it.
_decode is the one place codes become an exact model.  The decider's
random search and sweep evaluate each batch of their codes in one call,
and its shrink each candidate model; the world-type search (worldtypes)
has a bit-set evaluator of its own.  filtrate picks witness worlds from
modal_terms, each world's term of a box or diamond value.

frame_report reads a possibilistic model's frame properties off pi in
closed form, and checks a relational model's on the codes of its
accessibility values, never comparing Fractions inside its triple loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from .algebra import (
    ONE,
    ZERO,
    TruthSet,
    format_rational,
    parse_rational,
    OrderEmbedding,
    _embedding,
    _rank_codes,
    _rational,
)
from .syntax import BOT, Formula, _Compiled, compile_formulas


class UnknownWorldError(KeyError):
    pass


def _coerce_values(mapping: Mapping[str, object], what: str) -> dict[str, Fraction]:
    # a Fraction's denominator is positive, so the range check needs no
    # Fraction comparison
    out = {}
    for key, raw in mapping.items():
        value = _rational(raw)
        if not 0 <= value.numerator <= value.denominator:
            raise ValueError(f"{what} value {value} outside [0, 1]")
        out[str(key)] = value
    return out


def _checked_worlds(worlds) -> tuple[str, ...]:
    ws = tuple(str(w) for w in worlds)
    if not ws:
        raise ValueError("a model needs at least one world")
    if len(set(ws)) != len(ws):
        raise ValueError("world names must be unique")
    return ws


def _checked_rows(rows, known: set[str], what: str, coerce) -> dict[str, dict[str, Fraction]]:
    out = {}
    for w, row in (rows or {}).items():
        if str(w) not in known:
            raise ValueError(f"{what} mentions unknown world {w!r}")
        out[str(w)] = coerce(row, what)
    return out


def _model(cls, worlds, rows, valuation):
    """A PiGModel (rows is pi) or RelationalModel (rows is R) of Fractions
    in [0, 1] under str keys, as the reader and the package build them: the
    constructor's world checks, in its order, with no value coerced again."""
    model = object.__new__(cls)
    model._fill(worlds, rows, valuation, lambda row, what: row)
    return model


@dataclass(frozen=True)
class PiGModel:
    """Finite set of worlds, a possibility distribution, and a valuation.

    Variables missing from a world's valuation row evaluate to 0.  The world
    tuple fixes the iteration order used everywhere downstream.
    """

    worlds: tuple[str, ...]
    pi: Mapping[str, Fraction]
    valuation: Mapping[str, Mapping[str, Fraction]]

    def __init__(
        self,
        worlds,
        pi: Mapping[str, object],
        valuation: Mapping[str, Mapping[str, object]] | None = None,
    ) -> None:
        self._fill(worlds, pi, valuation, _coerce_values)

    def _fill(self, worlds, pi, valuation, coerce) -> None:
        ws = _checked_worlds(worlds)
        known = set(ws)
        pi_map = coerce(pi, "pi")
        missing = [w for w in ws if w not in pi_map]
        if missing:
            raise ValueError(f"pi not defined at {missing[0]!r}")
        if len(pi_map) > len(ws):  # every world is a key, so some key is no world
            raise ValueError(f"pi mentions unknown world {next(w for w in pi_map if w not in known)!r}")
        object.__setattr__(self, "worlds", ws)
        object.__setattr__(self, "pi", {w: pi_map[w] for w in ws})
        object.__setattr__(self, "valuation", _checked_rows(valuation, known, "valuation", coerce))

    def value(self, world: str, variable: str) -> Fraction:
        return self.valuation.get(world, {}).get(variable, ZERO)


@dataclass(frozen=True)
class PiGFModel:
    """A possibilistic model whose modal values are rounded into a truth set."""

    base: PiGModel
    truth_set: TruthSet

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.base.worlds

    @property
    def pi(self) -> Mapping[str, Fraction]:
        return self.base.pi

    def value(self, world: str, variable: str) -> Fraction:
        return self.base.value(world, variable)


@dataclass(frozen=True)
class RelationalModel:
    """Worlds with a many-valued accessibility relation; missing pairs are 0."""

    worlds: tuple[str, ...]
    R: Mapping[str, Mapping[str, Fraction]]
    valuation: Mapping[str, Mapping[str, Fraction]]

    def __init__(self, worlds, R, valuation=None) -> None:
        self._fill(worlds, R, valuation, _coerce_values)

    def _fill(self, worlds, R, valuation, coerce) -> None:
        ws = _checked_worlds(worlds)
        known = set(ws)
        rel = _checked_rows(R, known, "R", coerce)
        for row in rel.values():
            if not known.issuperset(row):
                raise ValueError(f"R mentions unknown world {next(u for u in row if u not in known)!r}")
        object.__setattr__(self, "worlds", ws)
        object.__setattr__(self, "R", rel)
        object.__setattr__(self, "valuation", _checked_rows(valuation, known, "valuation", coerce))

    def rel(self, w: str, w2: str) -> Fraction:
        return self.R.get(w, {}).get(w2, ZERO)

    def value(self, world: str, variable: str) -> Fraction:
        return self.valuation.get(world, {}).get(variable, ZERO)


def _check_class(model, who: str, *classes: type) -> None:
    """Raise TypeError, naming model's class, unless it is one of classes."""
    if not isinstance(model, classes):
        wanted = " or ".join(c.__name__ for c in classes)
        raise TypeError(f"{who} needs a {wanted}, not {type(model).__name__}")


def _check_world(worlds: tuple[str, ...], world: str) -> None:
    if world not in worlds:
        raise UnknownWorldError(f"unknown world {world!r}")


def modal_terms(tag: str, row: Sequence, body: Sequence, top) -> list:
    """Each world's term of a modal value along one accessibility row:
    row(w) -> body(w) for a box, min(row(w), body(w)) for a diamond.  The
    box value is the least term and the diamond value the greatest, so a
    world whose term is below (above) a bound witnesses that the box
    (diamond) value is below (above) it."""
    if tag == "box":
        return [top if p <= x else x for p, x in zip(row, body)]
    return [p if p < x else x for p, x in zip(row, body)]


def evaluate_compiled(
    ops: list[tuple],
    columns: Sequence[Sequence],
    frame: tuple,
    top: int,
) -> list[list]:
    """Values of every compiled op at every world, in world order.

    The domain is integer codes with bottom 0 and top top, in the order of
    the values they code: a model's rank codes from _encode, or the
    decider's own codes.  columns holds one code column per variable.
    frame gives the accessibility and the truth sets, in one of two forms.

    One model is (rows, truth), as a _Coded holds them: rows is one shared
    pi row or one R(w, .) row per world, and truth its sorted truth set
    codes, or None when modal values are exact.

    A batch of possibilistic models is (pi, counts, truths), as
    decider._draw samples a batch, the stream table hands out a kept one
    and decider._sweep_size yields a swept one: the models' pi codes end to
    end, as their worlds lie in columns, each model's world count and each
    model's sorted truth set codes.

    Every frame is read as groups of modal_terms, each with its truth set.
    A batch has one group per model, whose value holds at each of its
    worlds; one shared row is a batch of one model; a row per world is
    one group per world, whose value holds there, each reading its row
    against the whole body.  A modal op walks the terms of all groups in
    one pass, counting down each group's terms, and rounds each group's
    least (box) or greatest (diamond) term once: box values down into the
    truth set and diamond values up, none when the truth set is None.
    Propositional ops run once over all worlds.
    """
    # group g has sizes[g] terms, its value holds at spans[g] worlds, and
    # truths[g] is its truth set codes, None for exact
    if len(frame) == 3:
        row, sizes, truths = frame
        rows, n, spans = (row,), len(row), sizes
    else:
        rows, truth = frame
        n = len(rows[0])
        if len(rows) < n:
            # one shared row: a batch of one model
            sizes = spans = (n,)
        else:
            # a row per world: one group per world, valued at that world
            sizes, spans = (n,) * n, (1,) * n
        truths = (truth,) * len(rows)
    vals = [None] * len(ops)
    for i, op in enumerate(ops):
        tag = op[0]
        if tag == "imp":
            out = [top if x <= y else y for x, y in zip(vals[op[1]], vals[op[2]])]
        elif tag == "and":
            out = [x if x < y else y for x, y in zip(vals[op[1]], vals[op[2]])]
        elif tag == "var":
            out = columns[op[1]]
        elif tag == "bot":
            out = [0] * n
        else:
            # every row against the whole body, the groups end to end
            body = vals[op[1]]
            if len(rows) == 1:
                terms = zip(rows[0], body)
            else:
                terms = zip(chain.from_iterable(rows), chain.from_iterable(repeat(body, n)))
            # the least (greatest) of each group's modal_terms, found in one
            # pass without building them; k counts the terms of the group
            # at hand still to read
            out = []
            groups = iter(sizes)
            bounds = iter(truths)
            k = next(groups)
            if tag == "box":
                c = top
                for p, x in terms:
                    if p > x and x < c:
                        c = x
                    k -= 1
                    if not k:
                        t = next(bounds)
                        out.append(c if t is None else t[bisect_right(t, c) - 1])
                        c = top
                        k = next(groups, 0)
            else:
                c = 0
                for p, x in terms:
                    v = p if p < x else x
                    if v > c:
                        c = v
                    k -= 1
                    if not k:
                        t = next(bounds)
                        out.append(c if t is None else t[bisect_left(t, c)])
                        c = 0
                        k = next(groups, 0)
            if len(out) < n:
                # a group's value holds at each of its worlds
                out = out * n if len(out) == 1 else list(chain.from_iterable(map(repeat, out, spans)))
        vals[i] = out
    return vals


@dataclass(frozen=True)
class _Coded:
    """A model in code form, as evaluate_compiled reads it.  worlds names
    the worlds, w1, w2, ... if None.  rows holds the accessibility rows: one
    row, pi, shared by every world of a possibilistic model, or one row
    R(w, .) per world of a relational one.  columns[i] holds variable
    names[i] at every world.  truth holds the sorted truth set codes, 0 and
    the top code among them, or is None when modal values are exact.  Code
    c stands for table[c], which increases, so code order is value order."""

    worlds: Sequence[str] | None
    names: tuple[str, ...]
    rows: Sequence[Sequence[int]]
    columns: Sequence[Sequence[int]]
    truth: Sequence[int] | None
    table: Sequence[Fraction]

    def values(self, ops: list[tuple]) -> list[list[int]]:
        """Every op's codes at every world."""
        return evaluate_compiled(ops, self.columns, (self.rows, self.truth), len(self.table) - 1)


def _encode(model: PiGModel | PiGFModel | RelationalModel, names: Sequence[str]) -> _Coded:
    """A model's rank codes, the one place an exact model becomes codes:
    the accessibility rows, the truth set and the columns of the variables
    of names are coded by rank with algebra._rank_codes, and only those
    values.  Each distinct value object is coded once, then looked up by its
    id(): a model read from a file holds one Fraction per distinct literal."""
    ws = model.worlds
    base = model.base if isinstance(model, PiGFModel) else model
    truth = model.truth_set.values if isinstance(model, PiGFModel) else ()
    given = [base.R.get(w, {}) for w in ws] if isinstance(model, RelationalModel) else [base.pi]
    given = [[row.get(u, ZERO) for u in ws] for row in given]
    valuation = [base.valuation.get(w, {}) for w in ws]
    read = [[row.get(p, ZERO) for row in valuation] for p in names]
    objects = {id(x): x for x in chain(truth, *given, *read)}
    table, code = _rank_codes(objects.values())
    code_of = {i: code[x.as_integer_ratio()] for i, x in objects.items()}.__getitem__
    rows = [list(map(code_of, map(id, row))) for row in given]
    columns = [list(map(code_of, map(id, column))) for column in read]
    truth_codes = list(map(code_of, map(id, truth))) if truth else None
    return _Coded(ws, tuple(names), rows, columns, truth_codes, table)


def _decode(coded: _Coded, kept: Mapping[str, Iterable[str]] | None = None) -> PiGFModel:
    """The exact rounded model of a possibilistic code form, the one place
    codes become a model.  Each world w of kept has a valuation row, of the
    variables of kept[w] in their order; by default every row holds every
    variable of names."""
    decoded = coded.table.__getitem__
    (pi,) = coded.rows
    worlds = coded.worlds or tuple(f"w{i + 1}" for i in range(len(pi)))
    column = dict(zip(coded.names, coded.columns))
    kept = dict.fromkeys(worlds, coded.names) if kept is None else kept
    valuation = {w: {p: decoded(column[p][i]) for p in kept[w]} for i, w in enumerate(worlds) if w in kept}
    base = _model(PiGModel, worlds, dict(zip(worlds, map(decoded, pi))), valuation)
    return PiGFModel(base, TruthSet(map(decoded, coded.truth)))


def evaluate(model, formula: Formula) -> list[Fraction]:
    """The value of formula at every world, in world order.  A PiGFModel
    rounds box values down and diamond values up into its truth set; the
    other classes evaluate exactly.  Evaluation runs on rank codes, and
    only the values returned are decoded."""
    return _evaluate(model, compile_formulas([formula]))


def _evaluate(model, compiled: _Compiled) -> list[Fraction]:
    # evaluate on a compiled formula
    ops, (root,), names = compiled
    coded = _encode(model, names)
    return [coded.table[c] for c in coded.values(ops)[root]]


def _value_at(model, world: str, formula: Formula) -> Fraction:
    _check_world(model.worlds, world)
    return evaluate(model, formula)[model.worlds.index(world)]


def eval_pig(model: PiGModel, world: str, formula: Formula) -> Fraction:
    """Exact evaluation in a possibilistic model."""
    return _value_at(model, world, formula)


def eval_pigf(model: PiGFModel, world: str, formula: Formula) -> Fraction:
    """Evaluation with box rounded down and diamond rounded up into the truth set."""
    return _value_at(model, world, formula)


def eval_rel(model: RelationalModel, world: str, formula: Formula) -> Fraction:
    """Evaluation over an accessibility relation; modal values vary per world."""
    return _value_at(model, world, formula)


def embed_pig(model: PiGModel) -> RelationalModel:
    """The relational rendering of a possibilistic model: R(w, w') = pi(w').
    Any other model class raises TypeError."""
    _check_class(model, "embed_pig", PiGModel)
    rel = {w: dict(model.pi) for w in model.worlds}
    return RelationalModel(model.worlds, rel, model.valuation)


@dataclass(frozen=True)
class FrameReport:
    """Many-valued frame properties with violating witnesses when they fail."""

    transitive: bool
    euclidean: bool
    serial: bool
    transitivity_witnesses: tuple[tuple[str, str, str], ...]
    euclidean_witnesses: tuple[tuple[str, str, str], ...]
    seriality_witnesses: tuple[str, ...]


def frame_report(model: PiGModel | PiGFModel | RelationalModel) -> FrameReport:
    """Check min-transitivity, min-euclideanness and seriality of R.

    A possibilistic model is read as the frame R(w, w') = pi(w'), which
    needs no check: min(R(w, u), R(u, v)) = min(pi(u), pi(v)) <= pi(v) =
    R(w, v), and min(R(w, u), R(w, v)) <= pi(v) = R(u, v), so the frame is
    always transitive and euclidean.  Every row of R is pi, so it is serial
    exactly when pi is normalized, and otherwise every world is a witness.

    A relational model is checked on the rank codes of its values.  Witness
    triples (w, u, v) come in lexicographic world order.
    """
    ws = model.worlds
    if not isinstance(model, RelationalModel):
        serial = is_normalized(model)
        return FrameReport(True, True, serial, (), (), () if serial else ws)
    coded = _encode(model, ())
    rows, top = coded.rows, len(coded.table) - 1
    trans = []
    eucl = []
    for w, row_w in zip(ws, rows):
        for u, r, row_u in zip(ws, row_w, rows):
            if not r:
                continue
            # min(r, a) > b and min(r, b) > a need a > b and b > a: at most
            # one of the two can fail at (w, u, v)
            for v, a, b in zip(ws, row_u, row_w):
                if a > b:
                    if r > b:
                        trans.append((w, u, v))
                elif b > a and r > a:
                    eucl.append((w, u, v))
    serial = [w for w, row in zip(ws, rows) if top not in row]
    return FrameReport(
        transitive=not trans,
        euclidean=not eucl,
        serial=not serial,
        transitivity_witnesses=tuple(trans),
        euclidean_witnesses=tuple(eucl),
        seriality_witnesses=tuple(serial),
    )


def is_normalized(model: PiGModel) -> bool:
    """True when some world has possibility degree exactly 1; a relational
    model raises TypeError."""
    _check_class(model, "is_normalized", PiGModel, PiGFModel)
    return any(model.pi[w] == ONE for w in model.worlds)


def filtrate(model: PiGModel, sigma: frozenset[Formula], x: str) -> PiGFModel:
    """Collapse a possibilistic model to a small rounded model that agrees
    with it on every formula of the fragment sigma at the world x.

    The truth set collects the modal values the fragment takes, plus 0 and 1.
    The kept worlds are x together with one witness per box formula whose
    value is below 1 (a world keeping the infimum below the next truth value)
    and per diamond formula whose value is above 0 (a world keeping the
    supremum above the previous one).  Witnesses are the first qualifying
    worlds in the model's stored order.  Any other model class raises
    TypeError.
    """
    _check_class(model, "filtrate", PiGModel)
    _check_world(model.worlds, x)
    if BOT not in sigma:
        raise ValueError("fragment must contain bottom")
    # sigma holds its own subformulas exactly when compiling it adds no op
    ops, _, names = compile_formulas(list(sigma))
    if len(ops) != len(sigma):
        raise ValueError("fragment is not closed under subformulas")
    coded = _encode(model, names)
    vals, (row,) = coded.values(ops), coded.rows
    top = len(coded.table) - 1
    x_index = model.worlds.index(x)
    modal = [
        (op[0], vals[i][x_index], vals[op[1]])
        for i, op in enumerate(ops)
        if op[0] in ("box", "dia")
    ]
    alphas = sorted({v for _, v, _ in modal} | {0, top})
    kept = {x}
    for tag, v, body in modal:
        i = alphas.index(v)
        terms = modal_terms(tag, row, body, top)
        if tag == "box" and v < top:
            witness = next(j for j, t in enumerate(terms) if t < alphas[i + 1])
        elif tag == "dia" and v > 0:
            witness = next(j for j, t in enumerate(terms) if t > alphas[i - 1])
        else:
            continue
        kept.add(model.worlds[witness])
    small_worlds = tuple(w for w in model.worlds if w in kept)
    pi = {w: model.pi[w] for w in small_worlds}
    valuation = {w: dict(model.valuation.get(w, {})) for w in small_worlds}
    return PiGFModel(_model(PiGModel, small_worlds, pi, valuation), TruthSet(coded.table[c] for c in alphas))


def transport(model: PiGFModel, h: OrderEmbedding) -> PiGFModel:
    """Push pi and the valuation through an order embedding that fixes the
    truth set pointwise; raises ValueError if h moves a truth set member,
    and TypeError for a model without a truth set.

    h is prepared once for the whole model, so each segment's line is put
    in integers once and each distinct value is interpolated once."""
    _check_class(model, "transport", PiGFModel)
    image = _embedding(h)
    moved = [t for t in model.truth_set if image(t) != t]
    if moved:
        raise ValueError(f"embedding moves truth set member {format_rational(moved[0])}")
    base = model.base
    pi = {w: image(v) for w, v in base.pi.items()}
    valuation = {w: {p: image(v) for p, v in row.items()} for w, row in base.valuation.items()}
    return PiGFModel(_model(PiGModel, base.worlds, pi, valuation), model.truth_set)


def _rows_to_json(rows: Mapping[str, Mapping[str, Fraction]], worlds: tuple[str, ...]) -> dict:
    return {w: {k: format_rational(v) for k, v in rows.get(w, {}).items()} for w in worlds}


def model_to_json(model: PiGModel | PiGFModel | RelationalModel) -> dict:
    """Render a model as the JSON file structure with rational strings."""
    if isinstance(model, PiGFModel):
        doc = model_to_json(model.base)
        doc["truth_set"] = [format_rational(t) for t in model.truth_set]
        return doc
    doc: dict = {"worlds": list(model.worlds)}
    if isinstance(model, RelationalModel):
        doc["R"] = _rows_to_json(model.R, model.worlds)
    else:
        doc["pi"] = {w: format_rational(model.pi[w]) for w in model.worlds}
    doc["valuation"] = _rows_to_json(model.valuation, model.worlds)
    return doc


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def model_from_json(doc: object) -> PiGModel | PiGFModel | RelationalModel:
    """Parse the JSON file structure; the keys present select the model class.

    A value is read as parse_rational(str(v)): a string "n/d", an integer,
    a decimal or an exponent as Fraction reads them, or a JSON number.  Each
    distinct literal text is parsed once per call, in document order, and
    shared by its other occurrences, so the model is built without checking
    a value again.  An error names where the bad literal first sits, in the
    order valuation, R, pi, truth_set, e.g. "valuation['b']['p']: "."""
    literals: dict[str, Fraction] = {}

    def parsed(text: str, what: str, *keys: object) -> Fraction:
        try:
            value = literals[text] = parse_rational(text)
        except ValueError as exc:
            raise ValueError(what + "".join(f"[{key!r}]" for key in keys) + f": {exc}") from exc
        return value

    def row(values: dict, what: str, *keys: object) -> dict[str, Fraction]:
        return {
            str(k): literals[t] if (t := str(v)) in literals else parsed(t, what, *keys, k)
            for k, v in values.items()
        }

    def rows(value: object, what: str) -> dict:
        return {w: row(_object(r, f"{what} row"), what, w) for w, r in _object(value, f"'{what}'").items()}

    doc = _object(doc, "model document")
    if "worlds" not in doc:
        raise ValueError("model document lacks 'worlds'")
    worlds = doc["worlds"]
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ValueError("'worlds' must be a list of strings")
    valuation = rows(doc.get("valuation", {}), "valuation")
    if "R" in doc:
        if "pi" in doc or "truth_set" in doc:
            raise ValueError("relational model must not carry 'pi' or 'truth_set'")
        return _model(RelationalModel, worlds, rows(doc["R"], "R"), valuation)
    if "pi" not in doc:
        raise ValueError("model document lacks 'pi' or 'R'")
    base = _model(PiGModel, worlds, row(_object(doc["pi"], "'pi'"), "pi"), valuation)
    if "truth_set" in doc:
        if not isinstance(doc["truth_set"], list):
            raise ValueError("'truth_set' must be a list")
        return PiGFModel(base, TruthSet(row(dict(enumerate(doc["truth_set"])), "truth_set").values()))
    return base
