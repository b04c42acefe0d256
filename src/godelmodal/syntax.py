"""Formulas for Godel modal logic: AST, concrete grammar, schemes and corpora.

The AST keeps only the primitive connectives (bottom, conjunction,
implication, box, diamond).  Negation, disjunction, equivalence and top are
expanded at parse time:

    ~f        f -> 0
    f | g     ((f -> g) -> g) & ((g -> f) -> f)
    f <-> g   (f -> g) & (g -> f)
    top, 1    0 -> 0

Nodes are interned (hash-consed): constructing a node equal to a live one
returns that node, so equal subformulas are one object, == is identity and
hashing is O(1).

The parser, _parse_ops, emits the postorder op list that every search and
evaluation reads (see compile_formulas) and builds no node.  parse builds
nodes from it for the library; CLI check, countermodel and eval build none.

| and <-> share subtrees, so a formula's tree can be exponentially larger
than its DAG.  Nothing recurses on a formula's depth: the parser climbs
precedence over explicit stacks and numbers its ops in postorder as it
makes them, every walk over nodes runs on one iterative postorder, and
the printer, whose text spells out shared subtrees, emits it from one
explicit stack.  Precedence and associativity of the binary connectives
are written once, in _BINARY, which the printer reads too.
"""

from __future__ import annotations

import re
import string
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import count
from typing import Mapping, Sequence


class LogicId(Enum):
    K45 = "k45"
    KD45 = "kd45"
    S5 = "s5"


# (node class, *fields) -> a weak reference to the live node with those fields
_NODES: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref) -> None:
    # a dead node's entry goes, unless a newer node under its key replaced it
    if _NODES.get(key) is ref:
        del _NODES[key]


class Formula:
    """An interned node: constructing one whose class and fields equal a live
    node's returns that node, and copies return it too.  Children are
    interned already, so the lookup key is shallow.  A node's fields are set
    once, when it is made; a node found live is returned as it is.  Nodes are
    slotted: one holds its fields and its weak reference and nothing else."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            # bind the call as the dataclass __init__ does, with its TypeErrors
            probe = object.__new__(cls)
            cls._fill(probe, *args, **kwargs)
            args = tuple(getattr(probe, name) for name in cls.__match_args__)
        key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            cls._fill(node, *args)
            _NODES[key] = weakref.ref(node, partial(_forget, key))
        return node

    def __reduce__(self):
        # the flat op list, so that pickling does not recurse per level
        return _formula, compile_formulas([self])

    def __deepcopy__(self, memo) -> Formula:
        return self


def _node(cls: type) -> type:
    """A slotted frozen dataclass node whose generated __init__ becomes
    _fill, which Formula.__new__ runs on a new node only; a construction
    then runs object.__init__, which ignores the arguments.  The class is
    slotted before dataclass runs, not by its slots=True, whose frozen
    __setattr__ names the unslotted class and so raises TypeError, not
    FrozenInstanceError, for a name that is no field."""
    body = {k: v for k, v in vars(cls).items() if k != "__dict__"}
    cls = type(cls.__name__, cls.__bases__, {**body, "__slots__": tuple(body.get("__annotations__", ()))})
    cls = dataclass(frozen=True, eq=False)(cls)
    cls._fill = cls.__init__
    del cls.__init__
    return cls


@_node
class Bot(Formula):
    pass


@_node
class Var(Formula):
    name: str


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    body: Formula


@_node
class Dia(Formula):
    body: Formula


BOT = Bot()


def top() -> Formula:
    return Implies(BOT, BOT)


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def disj(f: Formula, g: Formula) -> Formula:
    return And(Implies(Implies(f, g), g), Implies(Implies(g, f), f))


def iff(f: Formula, g: Formula) -> Formula:
    return And(Implies(f, g), Implies(g, f))


class ParseError(ValueError):
    """Syntax error with a 0-based character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


# One token after any whitespace: an operator, a constant, an identifier,
# or any other character, which no kind names.  It is run on text without
# trailing whitespace, where a search from each position of that whitespace
# would scan the rest of it, quadratic time in all.
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # an identifier
_TOKEN_RE = re.compile(rf"\s*(<->|->|\[\]|<>|[&|~()01]|{_NAME_RE.pattern}|\S)")
# token text -> kind; an identifier's kind is found by its first letter
_KINDS = {
    "<->": "iff",
    "->": "imp",
    "[]": "box",
    "<>": "dia",
    "&": "and",
    "|": "or",
    "~": "not",
    "(": "lpar",
    ")": "rpar",
    "0": "zero",
    "1": "one",
    **dict.fromkeys(string.ascii_letters, "ident"),
}


def _position(text: str, i: int) -> int:
    """The position of text's token i, or len(text) past the last token."""
    for j, m in enumerate(_TOKEN_RE.finditer(text.rstrip())):
        if j == i:
            return m.start(1)
    return len(text)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of text's tokens, in one findall, then the
    kind "end" with the text "".  An unknown character raises ParseError
    before any token is parsed."""
    words = _TOKEN_RE.findall(text.rstrip())
    kinds = [_KINDS.get(word) or _KINDS.get(word[0]) for word in words]
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"unknown token {words[i]!r}", _position(text, i))
    kinds.append("end")
    words.append("")
    return kinds, words


# a compiled formula: op list, root indices, sorted names (see compile_formulas)
_Compiled = tuple[list[tuple], list[int], tuple[str, ...]]

# Token kind -> (precedence, right associative), loosest first; unary
# operators bind tighter than any of these.
_BINARY = {"iff": (1, True), "imp": (2, True), "or": (3, False), "and": (4, False)}
_UNARY = ("not", "box", "dia")
_PREC_UNARY = 5


def _parse_ops(text: str, allow_meta: bool = False) -> _Compiled:
    """compile_formulas([parse(text)]), built straight from the text.
    Precedence climbing over an operand stack and a pending-operator
    stack, so the nesting depth is bounded by memory, not by recursion.
    Each op comes after the ops under it, left to right, and an op equal to
    an earlier one is that one: _postorder's order.  A var op holds its
    name until the end, when it takes its position in the sorted names."""
    tokens = zip(count(), *_tokenize(text))
    index: dict[tuple, int] = {}  # each distinct op and its position
    operands: list[int] = []  # op positions
    pending: list[str] = []  # token kinds: "lpar", unary and binary operators
    depth = 0  # "lpar" entries on pending, counted so that none is searched for

    def op(*key) -> int:
        return index.setdefault(key, len(index))

    def reduce(threshold: int) -> None:
        # Apply pending operators down to the innermost "(", stopping at a
        # binary one whose precedence is below threshold.  The derived
        # connectives expand here, each child op before its parent.
        while pending and pending[-1] != "lpar":
            kind = pending[-1]
            if kind in _UNARY:
                a = operands.pop()
                operands.append(op("imp", a, op("bot")) if kind == "not" else op(kind, a))
            elif _BINARY[kind][0] >= threshold:
                b = operands.pop()
                a = operands.pop()
                if kind == "or":
                    ab, ba = op("imp", op("imp", a, b), b), op("imp", op("imp", b, a), a)
                    operands.append(op("and", ab, ba))
                elif kind == "iff":
                    operands.append(op("and", op("imp", a, b), op("imp", b, a)))
                else:
                    operands.append(op(kind, a, b))
            else:
                return
            pending.pop()

    while True:
        i, kind, word = next(tokens)
        if kind in _UNARY or kind == "lpar":
            depth += kind == "lpar"
            pending.append(kind)
            continue
        if kind == "zero":
            operands.append(op("bot"))
        elif kind == "one" or word == "top":
            operands.append(op("imp", op("bot"), op("bot")))
        elif kind == "ident":
            if word[0].isupper() and not allow_meta:
                raise ParseError(f"variable {word!r} must start lowercase", _position(text, i))
            operands.append(op("var", word))
        else:
            message = f"expected a formula, found {word!r}" if word else "unexpected end of input"
            raise ParseError(message, _position(text, i))
        # An operand is complete: close parentheses until a binary operator.
        for i, kind, word in tokens:
            if kind in _BINARY:
                prec, right = _BINARY[kind]
                reduce(prec + right)
                pending.append(kind)
                break
            if kind == "rpar" and depth:
                reduce(0)
                pending.pop()
                depth -= 1
            elif depth:
                raise ParseError("expected ')'", _position(text, i))
            elif kind == "end":
                reduce(0)
                names = tuple(sorted(key[1] for key in index if key[0] == "var"))
                rank = {name: r for r, name in enumerate(names)}
                ops = [("var", rank[key[1]]) if key[0] == "var" else key for key in index]
                return ops, operands, names
            else:
                raise ParseError(f"unexpected {word!r}", _position(text, i))


def parse(text: str) -> Formula:
    """Parse the ASCII grammar into a primitive-connective AST."""
    return _formula(*_parse_ops(text))


def _parse_template(text: str) -> Formula:
    # Scheme templates may use uppercase metavariables.
    return _formula(*_parse_ops(text, allow_meta=True))


_TAGS = {Bot: "bot", Var: "var", And: "and", Implies: "imp", Box: "box", Dia: "dia"}
_CLASSES = {tag: cls for cls, tag in _TAGS.items()}


def _formula(ops: list[tuple], roots: list[int], names: tuple[str, ...]) -> Formula:
    """The formula of a one-root compile, its nodes built in op order."""
    nodes: list[Formula] = []
    for tag, *args in ops:
        cls = _CLASSES[tag]
        nodes.append(Var(names[args[0]]) if cls is Var else cls(*[nodes[i] for i in args]))
    return nodes[roots[0]]


def _children(f: Formula) -> tuple[Formula, ...]:
    if type(f) in (And, Implies):
        return (f.left, f.right)
    if type(f) in (Box, Dia):
        return (f.body,)
    if type(f) in (Var, Bot):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def _postorder(roots: Sequence[Formula]) -> dict[Formula, int]:
    """Every distinct node under the roots once, children before parents
    and left before right, each mapped to its position."""
    order: dict[Formula, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            g = stack[-1]
            for c in reversed(_children(g)):
                if c not in order:
                    stack.append(c)
            if stack[-1] is g:
                order.setdefault(stack.pop(), len(order))
    return order


def compile_formulas(roots: Sequence[Formula]) -> _Compiled:
    """Postorder op list for several formulas, the index of each root, and
    the sorted variable names.

    An op is ("bot",), ("var", i) with i the variable's position in the
    names, ("and", a, b), ("imp", a, b), ("box", a) or ("dia", a), where a
    and b are indices of earlier ops.  Nodes are interned, so equal
    subformulas, also across roots, are one node and share one entry.
    """
    index = _postorder(roots)
    names = tuple(sorted(g.name for g in index if type(g) is Var))
    ops = [
        ("var", names.index(g.name)) if type(g) is Var
        else (_TAGS[type(g)], *map(index.__getitem__, _children(g)))
        for g in index
    ]
    return ops, [index[r] for r in roots], names


_SYMBOLS = {"and": " & ", "imp": " -> ", "box": "[]", "dia": "<>"}


def render(f: Formula) -> str:
    """Print a formula using only primitive connectives.

    Every variable name must be an identifier other than top, or render
    raises ValueError naming it; then parse(render(f)) == f when every name
    starts lowercase, and _parse_template reads uppercase metavariables back.
    One pass over an explicit stack of pending nodes and text pieces, so
    memory is linear in the output even for deep formulas."""

    def precedence(g: Formula) -> int:
        tag = _TAGS[type(g)]
        if tag in _BINARY:
            return _BINARY[tag][0]
        return _PREC_UNARY if tag in _UNARY else _PREC_UNARY + 1

    def push(g: Formula, minimum: int) -> None:
        if precedence(g) >= minimum:
            stack.append(g)
        else:
            stack.extend((")", g, "("))

    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
            continue
        tag = _TAGS[type(g)]
        if tag in _BINARY:
            prec, right = _BINARY[tag]
            # the operand on the associative side may hold the same connective bare
            push(g.right, prec + (not right))
            stack.append(_SYMBOLS[tag])
            push(g.left, prec + right)
        elif tag in _UNARY:
            out.append(_SYMBOLS[tag])
            push(g.body, _PREC_UNARY)
        elif tag == "var":
            if g.name == "top" or not _NAME_RE.fullmatch(g.name):
                raise ValueError(f"variable {g.name!r} would not print as a variable")
            out.append(g.name)
        else:
            out.append("0")
    return "".join(out)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, plus bottom."""
    return frozenset([BOT, *_postorder([f])])


def complexity_ell(f: Formula) -> int:
    """Size measure used by the finite-model bound: number of subformulas,
    which is one op per subformula, plus bottom when f does not contain it."""
    return _ell(compile_formulas([f])[0])


def _ell(ops: Sequence[tuple]) -> int:
    # complexity_ell of a compiled formula
    return len(ops) + (("bot",) not in ops)


def variables(f: Formula) -> frozenset[str]:
    return frozenset(compile_formulas([f])[2])


class MissingMetavariableError(KeyError):
    pass


def instantiate(template: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Replace each uppercase metavariable by its image under subst."""
    images: dict[Formula, Formula] = {}
    for g in _postorder([template]):
        if isinstance(g, Var) and g.name[0].isupper():
            try:
                image = subst[g.name]
            except KeyError:
                raise MissingMetavariableError(
                    f"no binding for metavariable {g.name!r}"
                ) from None
        else:
            children = _children(g)
            image = type(g)(*[images[c] for c in children]) if children else g
        images[g] = image
    return images[template]


@dataclass(frozen=True)
class NamedScheme:
    name: str
    template: Formula
    source_logic: LogicId


def _scheme(name: str, text: str, logic: LogicId) -> NamedScheme:
    return NamedScheme(name, _parse_template(text), logic)


# Axioms of the base modal logic, the 4/5 axioms, derived theorems, and the
# extra axioms that distinguish the serial and universal systems.
SCHEMES: tuple[NamedScheme, ...] = (
    _scheme("K_□", "[](X -> Y) -> ([]X -> []Y)", LogicId.K45),
    _scheme("K_◇", "<>(X | Y) -> (<>X | <>Y)", LogicId.K45),
    _scheme("F_□", "[]top", LogicId.K45),
    _scheme("P", "[](X -> Y) -> (<>X -> <>Y)", LogicId.K45),
    _scheme("FS2", "(<>X -> []Y) -> [](X -> Y)", LogicId.K45),
    _scheme("4_□", "[]X -> [][]X", LogicId.K45),
    _scheme("4_◇", "<><>X -> <>X", LogicId.K45),
    _scheme("5_□", "<>[]X -> []X", LogicId.K45),
    _scheme("5_◇", "<>X -> []<>X", LogicId.K45),
    _scheme("T1", "~<>X <-> []~X", LogicId.K45),
    _scheme("T2", "~~[]X -> []~~X", LogicId.K45),
    _scheme("T3", "<>~~X -> ~~<>X", LogicId.K45),
    _scheme("T4", "([]X -> <>Y) | []((X -> Y) -> Y)", LogicId.K45),
    _scheme("T5", "<>(X -> Y) -> ([]X -> <>Y)", LogicId.K45),
    _scheme("F_◇□", "<>[]top <-> <>top", LogicId.K45),
    _scheme("U_◇", "<><>X <-> <>X", LogicId.K45),
    _scheme("U_□", "[][]X <-> []X", LogicId.K45),
    _scheme("T4_□", "([]X -> <>[]X) | []X", LogicId.K45),
    _scheme("T4_◇", "([]<>X -> <>X) | []<>X", LogicId.K45),
    _scheme("Sk_◇", "(<>top -> <>X) <-> []<>X", LogicId.K45),
    _scheme("T4'_◇", "([]<>X -> <>X) | (<>top -> <>X)", LogicId.K45),
    _scheme("G45", "([]X -> <>Y) -> []([]X -> <>Y)", LogicId.K45),
    _scheme("D", "<>top", LogicId.KD45),
    _scheme("D'", "[]X -> <>X", LogicId.KD45),
    _scheme("T_□", "[]X -> X", LogicId.S5),
    _scheme("T_◇", "X -> <>X", LogicId.S5),
)


def corpus(logic: LogicId | str) -> list[tuple[str, Formula]]:
    """Named schemes of the given logic instantiated at the atoms p and q."""
    wanted = {LogicId.K45, LogicId(logic)}
    subst = {"X": Var("p"), "Y": Var("q")}
    return [
        (s.name, instantiate(s.template, subst))
        for s in SCHEMES
        if s.source_logic in wanted
    ]
