"""Formulas for Godel modal logic: AST, concrete grammar, schemes and corpora.

The AST keeps only the primitive connectives (bottom, conjunction,
implication, box, diamond).  Negation, disjunction, equivalence and top are
expanded at parse time:

    ~f        f -> 0
    f | g     ((f -> g) -> g) & ((g -> f) -> f)
    f <-> g   (f -> g) & (g -> f)
    top, 1    0 -> 0

| and <-> share subtrees, so a formula's tree can be exponentially larger
than its DAG; every walk over a formula but the parser's runs on one
iterative postorder that visits each node object once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence


class LogicId(Enum):
    K45 = "k45"
    KD45 = "kd45"
    S5 = "s5"


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
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


_TOKEN_RE = re.compile(
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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_meta: bool) -> None:
        self.tokens = _tokenize(text)
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


def parse(text: str) -> Formula:
    """Parse the ASCII grammar into a primitive-connective AST."""
    return _Parser(text, allow_meta=False).formula()


def _parse_template(text: str) -> Formula:
    # Scheme templates may use uppercase metavariables.
    return _Parser(text, allow_meta=True).formula()


_TAGS = {Bot: "bot", Var: "var", And: "and", Implies: "imp", Box: "box", Dia: "dia"}


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Box, Dia)):
        return (f.body,)
    if isinstance(f, (Bot, Var)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def _postorder(roots: Sequence[Formula]) -> list[Formula]:
    """Every distinct node object under the roots once, children before
    parents and left before right.  Nodes are told apart by identity, so a
    subtree the parser shares is visited once and nothing is hashed."""
    order: list[Formula] = []
    seen: set[int] = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            order.append(g)
        elif id(g) not in seen:
            seen.add(id(g))
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(_children(g)))
    return order


def compile_formulas(
    roots: Sequence[Formula],
) -> tuple[list[tuple], list[int], tuple[str, ...]]:
    """Postorder op list for several formulas, the index of each root, and
    the sorted variable names.

    An op is ("bot",), ("var", i) with i the variable's position in the
    names, ("and", a, b), ("imp", a, b), ("box", a) or ("dia", a), where a
    and b are indices of earlier ops.  Equal subformulas, also across roots,
    share one entry: an op is looked up by its tuple, so no formula is ever
    hashed as a whole.
    """
    ops: list[tuple] = []
    op_index: dict[tuple, int] = {}
    node_index: dict[int, int] = {}  # id(node) -> op index
    for g in _postorder(roots):
        if isinstance(g, Var):
            op = ("var", g.name)
        else:
            op = (_TAGS[type(g)], *[node_index[id(c)] for c in _children(g)])
        i = node_index[id(g)] = op_index.setdefault(op, len(ops))
        if i == len(ops):
            ops.append(op)
    names = tuple(sorted(op[1] for op in ops if op[0] == "var"))
    ops = [("var", names.index(op[1])) if op[0] == "var" else op for op in ops]
    return ops, [node_index[id(r)] for r in roots], names


_PREC_IMP = 1
_PREC_AND = 2
_PREC_UNARY = 3


def _prec(f: Formula) -> int:
    if isinstance(f, Implies):
        return _PREC_IMP
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Box, Dia)):
        return _PREC_UNARY
    return 4


def render(f: Formula) -> str:
    """Print a formula using only primitive connectives; parse(render(f)) == f."""
    texts: dict[int, str] = {}

    def wrap(g: Formula, minimum: int) -> str:
        text = texts[id(g)]
        return text if _prec(g) >= minimum else "(" + text + ")"

    for g in _postorder([f]):
        if isinstance(g, Bot):
            text = "0"
        elif isinstance(g, Var):
            text = g.name
        elif isinstance(g, Box):
            text = "[]" + wrap(g.body, _PREC_UNARY)
        elif isinstance(g, Dia):
            text = "<>" + wrap(g.body, _PREC_UNARY)
        elif isinstance(g, And):
            # left associative: the right child needs parentheses when it is an And
            text = wrap(g.left, _PREC_AND) + " & " + wrap(g.right, _PREC_AND + 1)
        else:
            # right associative: the left child needs parentheses when it is an Implies
            text = wrap(g.left, _PREC_IMP + 1) + " -> " + wrap(g.right, _PREC_IMP)
        texts[id(g)] = text
    return texts[id(f)]


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, plus bottom."""
    return frozenset([BOT, *_postorder([f])])


def complexity_ell(f: Formula) -> int:
    """Size measure used by the finite-model bound: number of subformulas."""
    ops = compile_formulas([f])[0]
    return len(ops) if ("bot",) in ops else len(ops) + 1


def variables(f: Formula) -> frozenset[str]:
    return frozenset(compile_formulas([f])[2])


class MissingMetavariableError(KeyError):
    pass


def instantiate(template: Formula, subst: Mapping[str, Formula]) -> Formula:
    """Replace each uppercase metavariable by its image under subst."""
    images: dict[int, Formula] = {}
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
            image = type(g)(*[images[id(c)] for c in children]) if children else g
        images[id(g)] = image
    return images[id(template)]


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


def corpus(logic: LogicId) -> list[tuple[str, Formula]]:
    """Named schemes of the given logic instantiated at the atoms p and q."""
    wanted = {LogicId.K45, logic}
    subst = {"X": Var("p"), "Y": Var("q")}
    return [
        (s.name, instantiate(s.template, subst))
        for s in SCHEMES
        if s.source_logic in wanted
    ]
