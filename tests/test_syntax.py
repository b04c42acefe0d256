import copy
import gc
import pickle
import random
import re
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godelmodal import (
    BOT,
    ONE,
    ZERO,
    And,
    Box,
    Dia,
    Implies,
    LogicId,
    MissingMetavariableError,
    ParseError,
    PiGFModel,
    PiGModel,
    RelationalModel,
    SearchConfig,
    TruthSet,
    Var,
    bound_for,
    complexity_ell,
    corpus,
    decide,
    disj,
    eval_pig,
    eval_pigf,
    eval_rel,
    evaluate,
    filtrate,
    iff,
    instantiate,
    parse,
    random_search,
    render,
    shrink,
    subformulas,
    variables,
)
from godelmodal import syntax
from godelmodal.syntax import _parse_ops, _parse_template, compile_formulas

from helpers import (
    count_compile_walks,
    oracle_compile_formulas,
    oracle_complexity_ell,
    oracle_instantiate,
    oracle_parse,
    oracle_render,
    oracle_subformulas,
    random_formula,
)

P, Q, R = Var("p"), Var("q"), Var("r")


def formulas():
    # disj and iff share their arguments' subtrees, as the parser's | and <-> do
    return st.recursive(
        st.one_of(st.just(BOT), st.builds(Var, st.sampled_from(["p", "q", "r"]))),
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Box, kids),
            st.builds(Dia, kids),
            st.builds(disj, kids, kids),
            st.builds(iff, kids, kids),
        ),
        max_leaves=12,
    )


# -- parsing -----------------------------------------------------------------


def test_parse_primitives_and_precedence():
    assert parse("0") == BOT
    assert parse("p") == P
    assert parse("p & q -> r") == Implies(And(P, Q), R)
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))  # right assoc
    assert parse("p & q & r") == And(And(P, Q), R)  # left assoc
    assert parse("[]<>p") == Box(Dia(P))
    assert parse("[](p -> q)") == Box(Implies(P, Q))
    assert parse("(p)") == P


def test_parse_expands_derived_connectives():
    assert parse("~p") == Implies(P, BOT)
    assert parse("top") == Implies(BOT, BOT)
    assert parse("1") == Implies(BOT, BOT)
    assert parse("p <-> q") == And(Implies(P, Q), Implies(Q, P))
    assert parse("p | q") == And(Implies(Implies(P, Q), Q), Implies(Implies(Q, P), P))


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("(p")
    assert exc.value.position == 2
    assert "')'" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse("p $ q")
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse("p q")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("p ->")


def test_parse_rejects_uppercase_variables():
    with pytest.raises(ParseError):
        parse("X")
    with pytest.raises(ParseError):
        parse("p -> Xq".replace("Xq", "Q"))


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


_TOKENS = ("p", "q", "X", "top", "0", "1", "~", "[]", "<>", "&", "|", "->", "<->", "(", ")", "$")


def random_token_text(rng):
    # without spaces neighbours may fuse ("p" "q" into "pq", "<" ">" into "<>")
    sep = rng.choice((" ", ""))
    return sep.join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 10)))


def random_grammar_text(rng, depth=4):
    """A formula of the full grammar, sometimes with one token inserted or
    one character deleted."""

    def gen(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(("p", "q", "X", "0", "1", "top"))
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(("~", "[]", "<>")) + gen(depth - 1)
        if roll < 0.45:
            return "(" + gen(depth - 1) + ")"
        return gen(depth - 1) + rng.choice((" & ", " | ", " -> ", " <-> ")) + gen(depth - 1)

    text = gen(depth)
    i = rng.randint(0, len(text))
    roll = rng.random()
    if roll < 0.25:
        return text[:i] + rng.choice(_TOKENS) + text[i:]
    if roll < 0.5:
        return text[:i] + text[i + 1 :]
    return text


def assert_parses_like_oracle(text):
    for allow_meta, ours in ((False, parse), (True, _parse_template)):
        try:
            expected = oracle_parse(text, allow_meta)
        except ParseError as exc:
            for parser in (ours, lambda text: _parse_ops(text, allow_meta)):
                with pytest.raises(ParseError) as got:
                    parser(text)
                assert (str(got.value), got.value.position) == (str(exc), exc.position), text
        else:
            assert ours(text) == expected, text
            assert _parse_ops(text, allow_meta) == oracle_compile_formulas([expected]), text


def test_parser_matches_recursive_oracle():
    rng = random.Random(7)
    fixed = ["", " ", "(", ")", "()", "$", "p)", "(p", "((p)", "p q", "~", "p ->", "p & & q"]
    # whitespace beyond spaces, characters that start no token or only a
    # longer one, and an unknown character after a syntax error
    fixed += ["\t", "p\u00a0&\nq  ", "é", "p é", "-", "<", "<-p", "<>-", "[p]", "_", "2", "p2_x & q_", "p q $"]
    for text in fixed:
        assert_parses_like_oracle(text)
    for _ in range(2500):
        assert_parses_like_oracle(random_token_text(rng))
        assert_parses_like_oracle(random_grammar_text(rng))


# -- rendering ----------------------------------------------------------------


def test_render_examples():
    assert render(Implies(And(P, Q), R)) == "p & q -> r"
    assert render(And(P, And(Q, R))) == "p & (q & r)"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(Box(Implies(P, Q))) == "[](p -> q)"
    assert render(Dia(And(P, Q))) == "<>(p & q)"
    assert render(BOT) == "0"


@pytest.mark.parametrize("name", ["top", "0", "1", "p->q", "", "p q", "é"])
def test_render_refuses_a_name_that_would_print_as_another_formula(name):
    for f in (Box(Var(name)), And(P, Implies(Var(name), Dia(Q)))):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            render(f)


def test_render_prints_identifiers_and_metavariables():
    f = And(Var("top_1"), Box(Implies(Var("X"), Var("q_2"))))
    assert render(f) == "top_1 & [](X -> q_2)"
    assert _parse_template(render(f)) is f


@given(formulas())
def test_parse_render_round_trip(f):
    assert render(f) == oracle_render(f)
    assert parse(render(f)) == f
    # p turned into the metavariable X and back, or replaced by a formula
    template = _parse_template(render(f).replace("p", "X"))
    assert instantiate(template, {"X": P}) == f
    image = Box(Implies(Q, R))
    assert instantiate(template, {"X": image}) == oracle_instantiate(template, {"X": image})


# -- subformulas and complexity -------------------------------------------------


def test_subformulas_include_bottom():
    subs = subformulas(P)
    assert subs == frozenset({BOT, P})


def test_complexity_examples():
    assert complexity_ell(P) == 2
    assert complexity_ell(parse("p -> p")) == 3
    assert complexity_ell(parse("p -> q")) == 4
    assert complexity_ell(parse("[]~~p -> ~~[]p")) == 9


def test_variables():
    assert variables(parse("[](p -> q) & <>r")) == frozenset({"p", "q", "r"})
    assert variables(BOT) == frozenset()


@given(formulas())
def test_subformula_closure(f):
    subs = subformulas(f)
    assert subs == oracle_subformulas(f)
    assert complexity_ell(f) == oracle_complexity_ell(f)
    assert variables(f) == {g.name for g in subs if isinstance(g, Var)}
    assert BOT in subs
    for g in subs:
        assert subformulas(g) <= subs


def test_wide_disjunction_is_measured_without_unfolding_it():
    # | copies both disjuncts, so the tree of a 40-way disjunction has
    # about 2**40 nodes; the subformula count must come from the shared DAG
    f = parse(" | ".join(f"p{i}" for i in range(40)))
    assert complexity_ell(f) == 236
    assert bound_for(f) == 476
    assert variables(f) == {f"p{i}" for i in range(40)}


def test_deep_formula_traversals_do_not_recurse():
    f, template = P, Var("X")
    for _ in range(5000):
        f, template = Box(f), Box(template)
    assert complexity_ell(f) == 5002
    assert variables(f) == {"p"}
    ops, roots, names = compile_formulas([f])
    assert (len(ops), roots, names) == (5001, [5000], ("p",))
    assert render(f) == "[]" * 5000 + "p"
    assert compile_formulas([parse(render(f))]) == (ops, roots, names)
    negations = parse("~" * 5000 + "(" * 5000 + "p" + ")" * 5000)
    assert len(compile_formulas([negations])[0]) == 5002
    assert instantiate(template, {"X": P}) is f


def test_trailing_whitespace_tokenizes_in_linear_time():
    # a token search from each position of a trailing whitespace run would
    # scan the rest of it: 100 000 spaces took minutes that way
    spaces = " \t\n" * 40_000
    start = time.perf_counter()
    assert parse("p" + spaces) == P
    with pytest.raises(ParseError) as got:
        parse("p ->" + spaces)
    assert got.value.position == 4 + len(spaces)
    with pytest.raises(ParseError) as got:
        parse("(p" + spaces)
    assert got.value.position == 2 + len(spaces)
    assert time.perf_counter() - start < 2


def test_render_memory_is_linear_in_the_output():
    f = parse("~" * 50_000 + "p")
    tracemalloc.start()
    try:
        text = render(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "(" * 49_999 + "p -> 0" + ") -> 0" * 49_999
    assert peak < 8_000_000, peak


# -- interning ----------------------------------------------------------------------


def test_equal_deep_formulas_are_one_node():
    text = "~" * 5000 + "p"
    a, b = parse(text), parse(text)
    assert a is b
    assert a == b
    assert hash(a) == hash(b)


def test_subformulas_of_a_wide_disjunction_share_their_nodes():
    f = parse(" | ".join(f"p{i}" for i in range(40)))
    assert len(subformulas(f)) == 236


def test_copies_return_the_interned_node():
    f = parse("[](p -> q) | <>~p")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f


def test_constructors_intern_alike():
    assert Var(name="p") is Var("p")
    assert Implies(right=BOT, left=P) is Implies(P, BOT)
    assert repr(Box(P)) == "Box(body=Var(name='p'))"
    assert Var.__match_args__ == ("name",) and Implies.__match_args__ == ("left", "right")
    for bad in (
        lambda: Var(),
        lambda: Var(nam="p"),
        lambda: Var("p", name="p"),
        lambda: Var("p", "q"),
        lambda: Implies(P),
        lambda: Implies(left=P, body=BOT),
        lambda: syntax.Bot(P),
    ):
        with pytest.raises(TypeError):
            bad()


def test_deep_formulas_pickle_and_copy_without_recursion():
    f = parse("~" * 5000 + "p")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert pickle.loads(pickle.dumps(P, protocol)) is P
        assert pickle.loads(pickle.dumps(BOT, protocol)) is BOT
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, {"g": f}])[1]["g"] is f
    assert copy.copy(f) is f


def test_a_pickled_formula_outlives_its_nodes():
    text = "[](fresh_p -> <>fresh_q) | ~fresh_p"
    data = pickle.dumps(parse(text), 0)
    gc.collect()
    g = pickle.loads(data)
    assert g is parse(text)


def test_a_live_node_is_returned_without_setting_its_fields(monkeypatch):
    made = []
    fill = Var._fill

    def counting(node, *args, **kwargs):
        made.append(args or kwargs)
        fill(node, *args, **kwargs)

    monkeypatch.setattr(Var, "_fill", counting)
    a = Var("fresh_live")
    assert made == [("fresh_live",)]
    assert Var("fresh_live") is a and Var(name="fresh_live") is a
    assert made == [("fresh_live",), {"name": "fresh_live"}]  # the keyword call only binds


def test_a_stale_callback_leaves_a_newer_node_in_the_table():
    # the callback of a reference that no longer holds its key's entry
    # removes nothing; the entry's own reference removes it
    a = Var("fresh_stale")
    key = (Var, "fresh_stale")
    entry = syntax._NODES[key]
    syntax._forget(key, weakref.ref(a))
    assert syntax._NODES[key] is entry and Var("fresh_stale") is a
    syntax._forget(key, entry)
    assert key not in syntax._NODES


def test_dropped_formulas_leave_the_node_table():
    gc.collect()
    before = len(syntax._NODES)
    f = parse("~" * 4200 + "fresh_atom")
    assert len(syntax._NODES) > before + 4000
    del f
    gc.collect()
    assert len(syntax._NODES) == before


# -- compiling ----------------------------------------------------------------------


def test_a_compile_keeps_nothing_on_its_node(monkeypatch):
    walks = count_compile_walks(monkeypatch)
    text = "<>walked_p & ~[](walked_p | walked_q)"
    f = oracle_parse(text, False)  # built by the constructors
    first = compile_formulas([f])
    assert (complexity_ell(f), bound_for(f), variables(f)) == (12, 28, {"walked_p", "walked_q"})
    # every compile walks its formula again
    assert compile_formulas([f]) == first and walks == [1] * 5
    node = weakref.ref(f)
    del f
    gc.collect()
    assert node() is None
    assert compile_formulas([oracle_parse(text, False)]) == first and len(walks) == 6
    # parse walks nothing: its parser emits the op list
    g = parse(text)
    assert len(walks) == 6
    assert compile_formulas([g]) == first and len(walks) == 7


def test_compile_formulas_matches_the_oracle_compiler():
    rng = random.Random(1414)
    pool = [P, BOT]
    for _ in range(300):
        f = random_formula(rng, ("p", "q", "r"), depth=rng.randint(1, 5))
        g = rng.choice(pool)
        # disj and iff share their arguments' subtrees, and pooled roots recur
        pool += [f, disj(f, g), iff(g, f)]
    deep = parse("[]" * 5000 + "(p | q)")
    for f in [*pool, deep]:
        expected = oracle_compile_formulas([f])
        assert compile_formulas([f]) == expected
        assert compile_formulas((f,)) == expected
        g = rng.choice(pool)
        # several roots share the ops of their common subformulas
        assert compile_formulas([f, g]) == oracle_compile_formulas([f, g])


def random_compile_text(rng, depth):
    """A well-formed text with the connectives parse desugars, the constants,
    repeated atoms, metavariables and redundant parentheses."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("kept_p", "kept_q", "kept_p", "X", "Y", "0", "1", "top"))
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(("~", "[]", "<>", "~~")) + random_compile_text(rng, depth - 1)
    if roll < 0.45:
        n = rng.randint(1, 2)
        return "(" * n + random_compile_text(rng, depth - 1) + ")" * n
    op = rng.choice((" & ", " | ", " -> ", " <-> ", "|", "<->"))
    left, right = random_compile_text(rng, depth - 1), random_compile_text(rng, depth - 1)
    return f"({left}){op}{right}" if rng.random() < 0.5 else left + op + right


def test_parse_returns_the_interned_node_of_its_own_postorder(monkeypatch):
    gc.collect()
    before = len(syntax._NODES)
    rng = random.Random(2424)
    walks = count_compile_walks(monkeypatch)
    kept: list[tuple[str, object]] = []
    for _ in range(1500):
        text = random_compile_text(rng, rng.randint(1, 5))
        if kept and rng.random() < 0.3:
            # the root, or a subformula, is live already
            earlier = rng.choice(kept)[0]
            text = rng.choice((earlier, f"({earlier}) | {text}", f"{text} <-> ~({earlier})"))
        meta = any(c.isupper() for c in text)
        # the constructors return the node parse returns
        root = oracle_parse(text, meta)
        f = (_parse_template if meta else parse)(text)
        # parse walks no formula: it builds the nodes from its parser's op list
        assert f is root and walks == [], text
        assert compile_formulas([f]) == oracle_compile_formulas([f]) and walks == [1], text
        walks.clear()
        if rng.random() < 0.3:
            kept.append((text, f))
    # a live root built by the constructors is the root parse returns
    g = And(Var("built_p"), Box(disj(Var("built_q"), BOT)))
    assert parse("built_p & [](built_q | 0)") is g and walks == []
    assert compile_formulas([g]) == oracle_compile_formulas([g])
    del f, g, root, kept
    gc.collect()
    assert len(syntax._NODES) == before


def test_the_op_parser_is_the_oracle_compile_of_the_oracle_parse():
    # _parse_ops emits the op list of the formula parse returns, with the
    # derived connectives expanded and equal subformulas shared, as
    # compile_formulas numbers them; parse builds its nodes from it
    rng = random.Random(3131)
    seen = set()
    for _ in range(1500):
        text = random_compile_text(rng, rng.randint(1, 6))
        meta = any(c.isupper() for c in text)
        root = oracle_parse(text, meta)
        expected = oracle_compile_formulas([root])
        assert _parse_ops(text, meta) == expected, text
        f = (_parse_template if meta else parse)(text)
        assert f is root and compile_formulas([f]) == expected, text
        seen.update(op[0] for op in expected[0])
        seen.add("meta" if meta else "plain")
    assert seen == {"bot", "var", "and", "imp", "box", "dia", "meta", "plain"}
    # malformed texts raise the oracle's message at the oracle's position
    for text in ["p $ q", "é", "(p", "p)", "((p) & q", "X", "p -> Q", "p ->", "p &", "~", "", "   ", " \t\n"]:
        with pytest.raises(ParseError) as want:
            oracle_parse(text, False)
        for parser in (_parse_ops, parse):
            with pytest.raises(ParseError) as got:
                parser(text)
            assert (str(got.value), got.value.position) == (str(want.value), want.value.position), text


def test_mutating_a_compile_result_changes_no_later_compile():
    f = parse("[](p -> <>q) & ~p")
    expected = oracle_compile_formulas([f])
    for _ in range(2):
        ops, roots, names = compile_formulas([f])
        ops[0] = ("bot",)
        ops.append(("box", 0))
        roots[0] = 99
        assert compile_formulas([f]) == expected
        ops.clear()
        roots.clear()
        assert compile_formulas([f]) == expected


def test_compiled_formulas_pickle_and_copy_to_the_interned_node():
    f = parse("<>[]p -> []compiled_r")
    expected = compile_formulas([f])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(f, protocol)) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert copy.deepcopy([f, compile_formulas([f])]) == [f, expected]
    assert compile_formulas([f]) == expected


def test_each_public_entry_walks_its_formula_once(monkeypatch):
    f = parse("<>once_p -> [](once_p | once_q)")
    model = PiGModel(["a", "b"], {"a": ONE, "b": Fraction(1, 2)}, {"a": {"once_p": Fraction(1, 3)}})
    rounded = PiGFModel(model, TruthSet([ZERO, Fraction(1, 2), ONE]))
    relational = RelationalModel(["a", "b"], {"a": {"b": Fraction(1, 2)}}, {"b": {"once_p": ONE}})
    sigma = subformulas(f)
    found = random_search(f, LogicId.K45, SearchConfig(mode="random", budget=200, seed=1))
    assert found is not None
    countermodel, world, _ = found
    entries = {
        "decide exhaustive": lambda: decide(f, LogicId.K45, SearchConfig(mode="exhaustive", max_worlds=2, max_truth=3)),
        "decide hybrid": lambda: decide(f, LogicId.KD45, SearchConfig(budget=50)),
        "random_search": lambda: random_search(f, LogicId.S5, SearchConfig(mode="random", budget=50)),
        "shrink": lambda: shrink(countermodel, world, f, LogicId.K45),
        "bound_for": lambda: bound_for(f),
        "complexity_ell": lambda: complexity_ell(f),
        "variables": lambda: variables(f),
        "evaluate": lambda: evaluate(model, f),
        "eval_pig": lambda: eval_pig(model, "a", f),
        "eval_pigf": lambda: eval_pigf(rounded, "b", f),
        "eval_rel": lambda: eval_rel(relational, "a", f),
        "filtrate": lambda: filtrate(model, sigma, "a"),
        "pickle.dumps": lambda: pickle.dumps(f),
    }
    walks = count_compile_walks(monkeypatch)
    for name, call in entries.items():
        call()
        assert len(walks) == 1, name
        walks.clear()
    assert parse("[]<>once_q & ~once_p") is And(Box(Dia(Var("once_q"))), Implies(Var("once_p"), BOT))
    assert walks == []


def test_a_node_holds_only_its_fields():
    nodes = [BOT, P, And(P, Q), Implies(P, BOT), Box(P), Dia(Q)]
    for node in nodes:
        assert not hasattr(node, "__dict__"), node
        assert weakref.ref(node)() is node
        with pytest.raises(AttributeError):
            object.__setattr__(node, "x", 1)
        with pytest.raises(FrozenInstanceError):
            node.x = 1
        with pytest.raises(FrozenInstanceError):
            del node.x
    with pytest.raises(AttributeError):
        object.__setattr__(Var("p"), "x", 1)


# -- scheme instantiation ---------------------------------------------------------


def test_instantiate_substitutes_metavariables():
    template = parse("p -> p".replace("p", "p"))  # concrete formulas pass through
    assert instantiate(template, {}) == template
    schemes = dict((name, f) for name, f in corpus(LogicId.K45))
    assert schemes["4_□"] == Implies(Box(P), Box(Box(P)))
    assert schemes["K_□"] == Implies(
        Box(Implies(P, Q)), Implies(Box(P), Box(Q))
    )


def test_instantiate_missing_binding():
    template = _parse_template("[]X -> Y")
    with pytest.raises(MissingMetavariableError):
        instantiate(template, {"X": P})
    out = instantiate(template, {"X": P, "Y": Q})
    assert out == Implies(Box(P), Q)


# -- corpora ------------------------------------------------------------------------


def test_corpus_base_logic_contents():
    entries = corpus(LogicId.K45)
    names = [name for name, _ in entries]
    assert len(entries) == 22
    assert len(set(names)) == 22
    for expected in ["K_□", "K_◇", "F_□", "P", "FS2", "4_□", "4_◇", "5_□", "5_◇", "G45"]:
        assert expected in names
    assert "D" not in names and "T_□" not in names


def test_corpus_serial_and_universal_extensions():
    kd45 = dict(corpus(LogicId.KD45))
    s5 = dict(corpus(LogicId.S5))
    assert len(kd45) == 24 and len(s5) == 24
    assert kd45["D"] == parse("<>top")
    assert kd45["D'"] == parse("[]p -> <>p")
    assert "T_□" not in kd45
    assert s5["T_□"] == parse("[]p -> p")
    assert s5["T_◇"] == parse("p -> <>p")
    assert "D" not in s5


def test_corpus_formulas_are_concrete():
    for logic in LogicId:
        for name, f in corpus(logic):
            assert variables(f) <= {"p", "q"}, name
            # no metavariable survives instantiation
            assert all(not v[0].isupper() for v in variables(f))
            # rendering stays parseable
            assert parse(render(f)) == f
