import random
import re
from fractions import Fraction

import pytest

from godelmodal import (
    BOT,
    ONE,
    ZERO,
    Box,
    Dia,
    OrderEmbedding,
    PiGFModel,
    PiGModel,
    RelationalModel,
    TruthSet,
    UnknownWorldError,
    apply_embedding,
    complexity_ell,
    embed_pig,
    eval_pig,
    eval_pigf,
    eval_rel,
    evaluate,
    filtrate,
    frame_report,
    is_normalized,
    model_from_json,
    model_to_json,
    parse,
    subformulas,
    transport,
    variables,
)
from godelmodal.semantics import _decode, _encode, evaluate_compiled, modal_terms
from godelmodal.syntax import compile_formulas
from helpers import (
    oracle_apply_embedding,
    oracle_eval,
    oracle_frame_report,
    oracle_model_from_json,
    oracle_transport,
    random_fixing_embedding,
    random_formula_bounded,
    random_pig,
    random_pigf,
    random_relational,
    random_sparse_relational,
    random_tied_value,
    random_truth_set,
    random_value,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def m0() -> PiGFModel:
    base = PiGModel(["a"], {"a": ONE}, {"a": {"p": HALF}})
    return PiGFModel(base, TruthSet([ZERO, ONE]))


def two_world() -> PiGModel:
    return PiGModel(
        ["a", "b"],
        {"a": ONE, "b": HALF},
        {"a": {"p": QUARTER}, "b": {"p": Fraction(3, 4)}},
    )


# -- model construction ------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        PiGModel([], {})
    with pytest.raises(ValueError):
        PiGModel(["a", "a"], {"a": ONE})
    with pytest.raises(ValueError):
        PiGModel(["a"], {})  # pi not total
    out_of_range = [
        (lambda: PiGModel(["a"], {"a": Fraction(3, 2)}), "pi value 3/2 outside [0, 1]"),
        (lambda: PiGModel(["a"], {"a": -1}), "pi value -1 outside [0, 1]"),
        (lambda: PiGModel(["a"], {"a": ONE}, {"a": {"p": "7/2"}}), "valuation value 7/2 outside [0, 1]"),
        (lambda: RelationalModel(["a"], {"a": {"a": Fraction(-1, 3)}}), "R value -1/3 outside [0, 1]"),
    ]
    for build, message in out_of_range:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    m = PiGModel(["a", "b"], {"a": 1, "b": 0}, {"a": {"p": "1/1"}, "b": {"p": Fraction(0, 5)}})
    assert (m.pi, m.valuation) == ({"a": ONE, "b": ZERO}, {"a": {"p": ONE}, "b": {"p": ZERO}})
    with pytest.raises(ValueError):
        PiGModel(["a"], {"a": ONE}, {"zz": {"p": ONE}})  # unknown world
    with pytest.raises(ValueError):
        RelationalModel(["a"], {"a": {"zz": ONE}})
    # pi at an unknown world is refused, not dropped; a world without pi is
    # still named first
    with pytest.raises(ValueError, match=r"^pi mentions unknown world 'b'$"):
        PiGModel(["a"], {"a": ONE, "b": ONE})
    with pytest.raises(ValueError, match=r"^pi not defined at 'a'$"):
        PiGModel(["a"], {"b": ONE})


def test_constructors_name_the_first_unknown_world():
    # rows are checked before R's entries, each in the order given
    unknown = [
        (lambda: PiGModel(["a"], {"a": ONE}, {"a": {}, "zz": {}, "yy": {}}), "valuation", "zz"),
        (lambda: RelationalModel(["a"], {"a": {"a": ONE, "zz": ONE, "yy": ONE}}), "R", "zz"),
        (lambda: RelationalModel(["a"], {"a": {"zz": ONE}, "yy": {}}), "R", "yy"),
        (lambda: RelationalModel(["a"], {"a": {"zz": ONE}}, {"yy": {}}), "R", "zz"),
        (lambda: RelationalModel(["a"], {"a": {}}, {"a": {}, "yy": {}}), "valuation", "yy"),
    ]
    for build, what, world in unknown:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"{what} mentions unknown world {world!r}"
    # row keys are read as world names
    assert RelationalModel(["1"], {1: {"1": ONE}}, {1: {"p": ONE}}).R == {"1": {"1": ONE}}


def test_missing_variables_default_to_zero():
    m = PiGModel(["a"], {"a": ONE})
    assert eval_pig(m, "a", parse("p")) == ZERO
    assert eval_pig(m, "a", parse("~p")) == ONE


def test_unknown_world_errors():
    m = two_world()
    with pytest.raises(UnknownWorldError):
        eval_pig(m, "zz", parse("p"))
    with pytest.raises(UnknownWorldError):
        eval_pigf(m0(), "zz", parse("p"))
    with pytest.raises(UnknownWorldError):
        eval_rel(embed_pig(m), "zz", parse("p"))
    assert issubclass(UnknownWorldError, KeyError)


# -- exact possibilistic evaluation -------------------------------------------


def test_eval_pig_worked_example():
    m = two_world()
    assert eval_pig(m, "a", parse("[]p")) == QUARTER  # min(1=>1/4, 1/2=>3/4)
    assert eval_pig(m, "a", parse("<>p")) == HALF  # max(min(1,1/4), min(1/2,3/4))
    assert eval_pig(m, "a", BOT) == ZERO
    assert eval_pig(m, "b", BOT) == ZERO


def test_eval_pig_modal_values_world_independent():
    rng = random.Random(101)
    for _ in range(100):
        m = random_pig(rng, rng.randint(1, 4))
        f = random_formula_bounded(rng)
        for g in (Box(f), Dia(f)):
            vals = {eval_pig(m, w, g) for w in m.worlds}
            assert len(vals) == 1


def test_diamond_bound_and_empty_zone():
    rng = random.Random(202)
    dia_top = parse("<>top")
    for _ in range(200):
        m = random_pig(rng, rng.randint(1, 4))
        f = random_formula_bounded(rng)
        w = m.worlds[0]
        cap = eval_pig(m, w, dia_top)
        assert eval_pig(m, w, Dia(f)) <= cap
        for g in subformulas(f):
            if isinstance(g, (Box, Dia)):
                v = eval_pig(m, w, g)
                assert not (cap < v < ONE)


# -- truth-set rounded evaluation ----------------------------------------------


def test_eval_pigf_single_world_counterexample():
    m = m0()
    assert eval_pigf(m, "a", parse("p")) == HALF  # propositional: never rounded
    assert eval_pigf(m, "a", parse("[]~~p")) == ONE
    assert eval_pigf(m, "a", parse("[]p")) == ZERO
    assert eval_pigf(m, "a", parse("~~[]p")) == ZERO
    assert eval_pigf(m, "a", parse("[]~~p -> ~~[]p")) == ZERO
    # the same formula is exactly-true in the un-rounded reading of the model
    assert eval_pig(m.base, "a", parse("[]~~p -> ~~[]p")) == ONE


def test_eval_pigf_rounds_box_down_and_diamond_up():
    # exact values in this model: box-p = 1/4, diamond-p = 1/2
    m = PiGFModel(two_world(), TruthSet([ZERO, Fraction(1, 3), ONE]))
    assert eval_pigf(m, "a", parse("[]p")) == ZERO  # 1/4 rounds down past 1/3
    assert eval_pigf(m, "a", parse("<>p")) == ONE  # 1/2 rounds up past 1/3
    caught = PiGFModel(two_world(), TruthSet([ZERO, QUARTER, HALF, ONE]))
    assert eval_pigf(caught, "a", parse("[]p")) == QUARTER
    assert eval_pigf(caught, "a", parse("<>p")) == HALF


def test_eval_pigf_identity_when_truth_set_catches_modal_values():
    rng = random.Random(303)
    for _ in range(100):
        base = random_pig(rng, rng.randint(1, 3))
        f = random_formula_bounded(rng)
        w = base.worlds[0]
        modal_values = {
            eval_pig(base, w, g)
            for g in subformulas(f)
            if isinstance(g, (Box, Dia))
        }
        ts = TruthSet(modal_values | {ZERO, ONE})
        assert eval_pigf(PiGFModel(base, ts), w, f) == eval_pig(base, w, f)


# -- relational evaluation -------------------------------------------------------


def test_eval_rel_worked_example():
    m = RelationalModel(
        ["a", "b"],
        {"a": {"b": ONE}},
        {"b": {"p": Fraction(1, 3)}},
    )
    assert eval_rel(m, "a", parse("<>p")) == Fraction(1, 3)
    assert eval_rel(m, "b", parse("[]p")) == ONE  # empty support: vacuous infimum
    assert eval_rel(m, "a", parse("top")) == ONE
    assert eval_rel(m, "b", parse("top")) == ONE


def test_embed_pig_definition_and_equivalence():
    m = PiGModel(["a"], {"a": HALF})
    r = embed_pig(m)
    assert r.rel("a", "a") == HALF
    rng = random.Random(404)
    for _ in range(150):
        pig = random_pig(rng, rng.randint(1, 4))
        rel = embed_pig(pig)
        f = random_formula_bounded(rng)
        for w in pig.worlds:
            assert eval_rel(rel, w, f) == eval_pig(pig, w, f)


def test_evaluators_agree_with_independent_oracle():
    rng = random.Random(909)
    for _ in range(300):
        f = random_formula_bounded(rng, max_ell=10)
        pigf = random_pigf(rng, rng.randint(1, 4))
        pig = pigf.base
        pi_access = lambda w, v: pig.pi[v]
        truth = list(pigf.truth_set)
        rel = random_relational(rng, rng.randint(2, 4))
        rel_access = lambda w, v: rel.rel(w, v)
        for w in pig.worlds:
            assert eval_pig(pig, w, f) == oracle_eval(pig.worlds, pi_access, pig.valuation, w, f)
            assert eval_pigf(pigf, w, f) == oracle_eval(
                pig.worlds, pi_access, pig.valuation, w, f, truth
            )
        for w in rel.worlds:
            assert eval_rel(rel, w, f) == oracle_eval(rel.worlds, rel_access, rel.valuation, w, f)
        # the one-pass table holds every world's value, rounded for a PiGFModel
        for model, one in ((pig, eval_pig), (pigf, eval_pigf), (rel, eval_rel)):
            assert evaluate(model, f) == [one(model, w, f) for w in model.worlds]


def test_rank_coded_evaluation_matches_the_oracle_through_float_ties():
    # Exact evaluation runs on rank codes sorted by a float key.  Values
    # whose floats tie (1/3 and its near neighbours, 0 and 1e-4299, 1 and
    # values just below it) in pi, R, the valuation and the truth set must
    # still evaluate as the Fractions do.
    rng = random.Random(1717)
    for _ in range(300):
        f = random_formula_bounded(rng, max_ell=10)
        worlds = [f"w{i + 1}" for i in range(rng.randint(1, 4))]
        valuation = {w: {p: random_tied_value(rng) for p in ("p", "q")} for w in worlds}
        pig = PiGModel(worlds, {w: random_tied_value(rng) for w in worlds}, valuation)
        truth = TruthSet([ZERO, ONE, *(random_tied_value(rng) for _ in range(rng.randint(0, 3)))])
        pigf = PiGFModel(pig, truth)
        rel = RelationalModel(worlds, {w: {u: random_tied_value(rng) for u in worlds} for w in worlds}, valuation)
        pi_access = lambda w, u: pig.pi[u]
        for model, access, t in ((pig, pi_access, None), (pigf, pi_access, list(truth)), (rel, rel.rel, None)):
            expected = [oracle_eval(worlds, access, valuation, w, f, t) for w in worlds]
            assert evaluate(model, f) == expected, (f, model)


def test_exact_evaluation_compares_no_fractions_per_world(monkeypatch):
    # evaluate and filtrate evaluate on rank codes; with distinct values the
    # coding sorts by float keys alone, so only filtrate's truth set may
    # compare Fractions, never once per world and op
    rng = random.Random(4040)
    worlds = [f"w{i}" for i in range(40)]
    values = iter(rng.sample([Fraction(k, 10007) for k in range(1, 10007)], 1800))
    valuation = {w: {"p": next(values), "q": next(values)} for w in worlds}
    pig = PiGModel(worlds, {w: next(values) for w in worlds}, valuation)
    pigf = PiGFModel(pig, TruthSet([ZERO, ONE, next(values), next(values)]))
    rel = RelationalModel(worlds, {w: {u: next(values) for u in worlds} for w in worlds}, valuation)
    f = parse("[](p -> <>q) & (<>p | ~[]q) -> [](q <-> <>~p)")
    ops = len(compile_formulas([f])[0])
    calls = []
    expected = [evaluate(m, f) for m in (pig, pigf, rel)]
    small = filtrate(pig, subformulas(f), "w7")
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda a, b, original=original: calls.append(1) or original(a, b)
        )
    got = [evaluate(m, f) for m in (pig, pigf, rel)]
    again = filtrate(pig, subformulas(f), "w7")
    monkeypatch.undo()
    assert got == expected and again == small
    assert len(calls) < ops, len(calls)


# -- frame properties -------------------------------------------------------------


def test_modal_values_are_the_extremes_of_the_modal_terms():
    # evaluate_compiled's box (diamond) value along a row is the least
    # (greatest) of modal_terms, which filtrate and the decider read
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        row = [rng.randint(0, 9) for _ in range(n)]
        body = [rng.randint(0, 9) for _ in range(n)]
        ops = [("var", 0), ("box", 0), ("dia", 0)]
        _, box, dia = evaluate_compiled(ops, [body], ([row], None), 9)
        assert box == [min(modal_terms("box", row, body, 9))] * n
        assert dia == [max(modal_terms("dia", row, body, 9))] * n


def test_blocks_evaluate_as_their_models_do_one_by_one():
    # the two frame forms: a batch of possibilistic models with truth sets,
    # laid end to end in the columns, and one model alone, possibilistic
    # (one shared row) or relational (one row per world), rounded or exact;
    # each gives every model the values the recursive oracle gives it
    # alone, code c read as c/9.  Models have 1 to 7 worlds, so a row per
    # world makes groups of up to 7 terms, batches mix one-world models
    # with larger ones, and relational frames are rounded too, which no
    # package caller builds
    rng = random.Random(6)
    f = parse("[](p -> <>q) & (<>p | ~[]q) -> <>[]p")
    ops, (root,), names = compile_formulas([f])

    def oracle(rows, truth, own):
        worlds = range(len(own[0]))
        valuation = {w: {p: Fraction(own[i][w], 9) for i, p in enumerate(names)} for w in worlds}
        full = rows if len(rows) == len(own[0]) else rows * len(own[0])  # R(w, .) for every world
        access = lambda w, u: Fraction(full[w][u], 9)
        levels = None if truth is None else [Fraction(t, 9) for t in truth]
        return [9 * oracle_eval(worlds, access, valuation, w, f, levels) for w in worlds]

    for _ in range(300):
        columns, pis, counts, truths, alone = [[], []], [], [], [], []
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(1, 7)
            pi = [rng.randint(0, 9) for _ in range(k)]
            truth = rng.choice([[0, 9], sorted({0, 9, rng.randint(1, 8), rng.randint(1, 8)})])
            own = [[rng.randint(0, 9) for _ in range(k)] for _ in names]
            for column, values in zip(columns, own):
                column += values
            pis += pi
            counts.append(k)
            truths.append(truth)
            alone += oracle([pi], truth, own)
            # the model alone, in a one-model frame of either kind
            rows = [pi] if rng.random() < 0.5 else [[rng.randint(0, 9) for _ in range(k)] for _ in range(k)]
            exact = rng.choice([None, truth])
            assert evaluate_compiled(ops, own, (rows, exact), 9)[root] == oracle(rows, exact, own)
        assert evaluate_compiled(ops, columns, (pis, counts, truths), 9)[root] == alone


def test_frame_report_total_relation():
    m = RelationalModel(["a", "b"], {w: {"a": ONE, "b": ONE} for w in "ab"})
    rep = frame_report(m)
    assert rep.transitive and rep.euclidean and rep.serial
    assert rep.euclidean_witnesses == ()


def test_frame_report_euclidean_violation_witness():
    m = RelationalModel(["a", "b"], {"a": {"b": ONE}})
    rep = frame_report(m)
    assert rep.transitive
    assert not rep.euclidean
    assert ("a", "b", "b") in rep.euclidean_witnesses
    assert not rep.serial
    assert rep.seriality_witnesses == ("b",)


def test_frame_report_empty_relation_not_serial():
    m = RelationalModel(["a"], {})
    rep = frame_report(m)
    assert not rep.serial
    assert rep.transitive and rep.euclidean


def test_possibilistic_frames_transitive_euclidean():
    rng = random.Random(505)
    for _ in range(200):
        m = random_pig(rng, rng.randint(1, 4))
        rep = frame_report(embed_pig(m))
        assert rep.transitive and rep.euclidean
        assert rep.serial == is_normalized(m)


def test_frame_report_matches_oracle_on_relational_models():
    rng = random.Random(606)
    for i in range(600):
        if i % 2:
            m = random_relational(rng, rng.randint(2, 6))
        else:
            m = random_sparse_relational(rng, rng.randint(1, 6))
        # full equality: the flags and every witness list, in order
        assert frame_report(m) == oracle_frame_report(m)


def test_frame_report_closed_form_on_possibilistic_models():
    rng = random.Random(707)
    for i in range(300):
        n = rng.randint(1, 6)
        m = random_pigf(rng, n) if i % 3 == 0 else random_pig(rng, n, normalized=i % 3 == 1)
        base = m.base if isinstance(m, PiGFModel) else m
        assert frame_report(m) == oracle_frame_report(embed_pig(base))


def test_frame_report_compares_no_fractions_per_triple(monkeypatch):
    # only sorting the distinct values of R may compare Fractions
    m = random_relational(random.Random(808), 20)
    calls = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        original = getattr(Fraction, name)
        monkeypatch.setattr(
            Fraction, name, lambda a, b, original=original: calls.append(1) or original(a, b)
        )
    report = frame_report(m)
    monkeypatch.undo()
    assert report == oracle_frame_report(m)
    assert len(calls) < len(m.worlds) ** 2


# -- normalization ------------------------------------------------------------------


def test_is_normalized():
    assert is_normalized(PiGModel(["a", "b"], {"a": ONE, "b": HALF}))
    assert not is_normalized(PiGModel(["a"], {"a": HALF}))
    assert is_normalized(PiGModel(["a", "b"], {"a": ONE, "b": ONE}))


# -- filtration -------------------------------------------------------------------


def test_filtrate_trivial_fragment():
    m = PiGModel(["a"], {"a": HALF}, {"a": {"p": QUARTER}})
    small = filtrate(m, subformulas(parse("p")), "a")
    assert small.worlds == ("a",)
    assert list(small.truth_set) == [ZERO, ONE]
    assert eval_pigf(small, "a", parse("p")) == QUARTER


def test_filtrate_worked_example():
    m = two_world()
    sigma = subformulas(parse("[]p"))
    small = filtrate(m, sigma, "a")
    assert small.worlds == ("a",)  # the witness for box-p is a itself
    assert list(small.truth_set) == [ZERO, QUARTER, ONE]
    assert eval_pigf(small, "a", parse("[]p")) == QUARTER
    assert eval_pigf(small, "a", parse("[]p")) == eval_pig(m, "a", parse("[]p"))
    assert len(small.worlds) + len(small.truth_set) <= 2 * len(sigma)


def test_filtrate_validation():
    m = two_world()
    with pytest.raises(UnknownWorldError):
        filtrate(m, subformulas(parse("p")), "zz")
    with pytest.raises(ValueError):
        filtrate(m, frozenset({parse("[]p"), BOT}), "a")  # not closed: p missing
    with pytest.raises(ValueError):
        filtrate(m, frozenset({parse("p")}), "a")  # bottom missing


def test_filtrate_rejects_a_rounded_model():
    rounded = PiGFModel(two_world(), TruthSet([ZERO, ONE]))
    with pytest.raises(TypeError, match="^filtrate needs a PiGModel, not PiGFModel$"):
        filtrate(rounded, subformulas(parse("[]p")), "a")


def test_filtrate_rejects_a_relational_model():
    with pytest.raises(TypeError, match="^filtrate needs a PiGModel, not RelationalModel$"):
        filtrate(embed_pig(two_world()), subformulas(parse("[]p")), "a")


def test_transport_rejects_an_unrounded_model():
    h = OrderEmbedding([(ZERO, ZERO), (ONE, ONE)])
    with pytest.raises(TypeError, match="^transport needs a PiGFModel, not PiGModel$"):
        transport(two_world(), h)


def test_transport_rejects_a_relational_model():
    h = OrderEmbedding([(ZERO, ZERO), (ONE, ONE)])
    with pytest.raises(TypeError, match="^transport needs a PiGFModel, not RelationalModel$"):
        transport(embed_pig(two_world()), h)


def test_filtrate_bottom_only_fragment_is_the_known_bound_exception():
    # The degenerate fragment {bottom} forces |W|+|T| = 1 + 2 = 3 > 2*1;
    # every fragment of a formula other than bare bottom satisfies the bound
    # (checked by the randomized sweep below and the acceptance suite).
    m = two_world()
    small = filtrate(m, frozenset({BOT}), "a")
    assert small.worlds == ("a",)
    assert list(small.truth_set) == [ZERO, ONE]
    assert len(small.worlds) + len(small.truth_set) == 3


def test_filtrate_agreement_and_bound_random_sweep():
    rng = random.Random(606)
    for _ in range(200):
        m = random_pig(rng, rng.randint(1, 5))
        f = random_formula_bounded(rng)
        while f == BOT:
            f = random_formula_bounded(rng)
        sigma = subformulas(f)
        x = rng.choice(m.worlds)
        small = filtrate(m, sigma, x)
        assert x in small.worlds
        assert set(small.worlds) <= set(m.worlds)
        assert len(small.worlds) + len(small.truth_set) <= 2 * len(sigma)
        for g in sigma:
            assert eval_pigf(small, x, g) == eval_pig(m, x, g)


# -- transport through order embeddings ----------------------------------------------


def test_transport_identity():
    m = m0()
    assert transport(m, OrderEmbedding([(ZERO, ZERO), (ONE, ONE)])) == m


def test_transport_worked_example():
    h = OrderEmbedding([(ZERO, ZERO), (HALF, Fraction(3, 4)), (ONE, ONE)])
    moved = transport(m0(), h)
    assert moved.value("a", "p") == Fraction(3, 4)
    assert eval_pigf(moved, "a", parse("[]p")) == ZERO  # rounding still collapses
    assert eval_pigf(moved, "a", parse("[]~~p -> ~~[]p")) == ZERO


def test_transport_rejects_embedding_moving_truth_set():
    m = PiGFModel(two_world(), TruthSet([ZERO, HALF, ONE]))
    h = OrderEmbedding([(ZERO, ZERO), (HALF, Fraction(3, 4)), (ONE, ONE)])
    with pytest.raises(ValueError):
        transport(m, h)


def test_transport_commutes_with_evaluation():
    rng = random.Random(707)
    for _ in range(200):
        m = random_pigf(rng, rng.randint(1, 4))
        h = random_fixing_embedding(rng, m.truth_set)
        f = random_formula_bounded(rng)
        x = rng.choice(m.worlds)
        assert eval_pigf(transport(m, h), x, f) == apply_embedding(h, eval_pigf(m, x, f))


def test_transport_matches_the_per_value_oracle():
    rng = random.Random(1313)
    for trial in range(150):
        if trial % 2:  # many distinct values
            draw = lambda: Fraction(rng.randint(0, 997), 997)  # noqa: E731
        else:  # a few values, each repeated many times
            pool = [random_value(rng) for _ in range(3)]
            draw = lambda: rng.choice(pool)  # noqa: E731
        worlds = [f"w{i}" for i in range(rng.randint(1, 30))]
        names = [f"p{i}" for i in range(rng.randint(1, 6))]
        valuation = {w: {p: draw() for p in names if rng.random() < 0.8} for w in worlds}
        m = PiGFModel(PiGModel(worlds, {w: draw() for w in worlds}, valuation), random_truth_set(rng))
        if trial % 3:
            h = random_fixing_embedding(rng, m.truth_set)
        else:  # most of these move a truth set member
            cuts = sorted({Fraction(rng.randint(1, 11), 12) for _ in range(2)})
            images = sorted({Fraction(rng.randint(1, 11), 12) for _ in cuts})
            h = OrderEmbedding([(ZERO, ZERO), *zip(cuts, images), (ONE, ONE)])
        try:
            expected = oracle_transport(m, h)
        except ValueError as exc:
            assert str(exc).startswith("embedding moves truth set member ")
            with pytest.raises(ValueError) as info:
                transport(m, h)
            assert str(info.value) == str(exc)
        else:
            assert transport(m, h) == expected
        for v in (draw(), ZERO, ONE, *m.truth_set):
            assert apply_embedding(h, v) == oracle_apply_embedding(h, v)
    h = OrderEmbedding([(ZERO, ZERO), (HALF, Fraction(3, 4)), (ONE, ONE)])
    for v in (Fraction(3, 2), Fraction(-1, 4), 2, -1):
        with pytest.raises(ValueError) as info:
            apply_embedding(h, v)
        assert str(info.value) == f"value {v} outside [0, 1]"
        with pytest.raises(ValueError):
            oracle_apply_embedding(h, v)


# -- JSON model files ------------------------------------------------------------------


def test_model_json_round_trips():
    rng = random.Random(808)
    for _ in range(50):
        pig = random_pig(rng, rng.randint(1, 3))
        assert model_from_json(model_to_json(pig)) == pig
        pigf = random_pigf(rng, rng.randint(1, 3))
        assert model_from_json(model_to_json(pigf)) == pigf
        rel = embed_pig(pig)
        assert model_from_json(model_to_json(rel)) == rel


def test_code_form_round_trips_through_the_encoder_and_the_decoder():
    # _encode is the one place an exact model becomes codes and _decode the
    # one place codes become a model
    rng = random.Random(2727)
    for _ in range(300):
        names = ("p", "q", "r")[: rng.randint(0, 3)]
        m = random_pigf(rng, rng.randint(1, 5), names)
        # the valuation rows hold every variable of names
        assert model_to_json(_decode(_encode(m, names))) == model_to_json(m)
        # with the model's own rows kept, rows that leave variables or
        # worlds out come back as they were; model_to_json cannot tell a
        # missing row from an empty one, so the models are compared
        rows = {w: {p: v for p, v in row.items() if rng.random() < 0.6} for w, row in m.base.valuation.items()}
        kept = {w: rows[w] for w in m.worlds if rng.random() < 0.7}
        sparse = PiGFModel(PiGModel(m.worlds, m.pi, kept), m.truth_set)
        assert _decode(_encode(sparse, names), kept) == sparse
        n = rng.randint(1, 6)
        rel = random_relational(rng, n, names, distinct_rows=n > 1) if n % 2 else random_sparse_relational(rng, n)
        coded = _encode(rel, names)
        ws = rel.worlds
        assert [[coded.table[c] for c in row] for row in coded.rows] == [[rel.rel(w, u) for u in ws] for w in ws]
        assert [[coded.table[c] for c in column] for column in coded.columns] == [
            [rel.value(w, p) for w in ws] for p in names
        ]
        assert coded.truth is None


def test_model_json_class_selection_and_errors():
    doc = {"worlds": ["a"], "pi": {"a": "1"}, "valuation": {"a": {"p": "1/2"}}}
    assert isinstance(model_from_json(doc), PiGModel)
    assert isinstance(model_from_json({**doc, "truth_set": ["0", "1"]}), PiGFModel)
    rel_doc = {"worlds": ["a"], "R": {"a": {"a": "1"}}, "valuation": {}}
    assert isinstance(model_from_json(rel_doc), RelationalModel)
    with pytest.raises(ValueError):
        model_from_json({"pi": {"a": "1"}})  # worlds missing
    with pytest.raises(ValueError):
        model_from_json({"worlds": ["a"]})  # neither pi nor R
    with pytest.raises(ValueError):
        model_from_json({**rel_doc, "pi": {"a": "1"}})  # both pi and R
    with pytest.raises(ValueError):
        model_from_json({"worlds": ["a"], "pi": {"a": "7/2"}})  # out of range
    with pytest.raises(ValueError):
        model_from_json([1, 2, 3])
    # schema violations: each is a ValueError, never a silent misreading
    bad_docs = [
        {**doc, "worlds": "ab"},  # a string is not a list of worlds
        {**doc, "worlds": ["a", 1]},
        {**doc, "pi": ["1"]},
        {**doc, "valuation": ["1/2"]},
        {**doc, "valuation": {"a": ["1/2"]}},
        {**doc, "truth_set": "01"},
        {**doc, "truth_set": {"0": "1"}},
        {**rel_doc, "R": ["a"]},
        {**rel_doc, "R": {"a": ["1"]}},
        {**doc, "pi": {"a": "1", "b": "1"}},  # pi at an unknown world
        {**doc, "valuation": {"a": {"p": "1e-999999999"}}},  # a hostile exponent
        {**doc, "valuation": {"a": {"p": "1e-5000"}}},  # too long to print
    ]
    for bad in bad_docs:
        with pytest.raises(ValueError):
            model_from_json(bad)


# literals that read as values in [0, 1], in the forms model files may use
_GOOD_LITERALS = ["0", "1", "1/2", "2/4", " 1/2 ", "5e-1", "-0", "0.25", "3/7", "10/20", 0.5, 1, 0]
# literals that are malformed, out of range, or not a scalar at all
_BAD_LITERALS = ["7/2", "-1/3", "1/0", "abc", "", "1/2/3", "nan", 1.5, -1, 2, True, False, None, ["1/2"], {"x": "1"}]


def _random_model_doc(rng: random.Random) -> tuple[object, bool]:
    """A model document, and whether a bad literal was planted in it twice."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 4))]
    slots = []  # (container, key) of every value

    def row(keys) -> dict:
        out = {k: rng.choice(_GOOD_LITERALS) for k in keys if rng.random() < 0.7}
        slots.extend((out, k) for k in out)
        return out

    doc: dict = {"worlds": worlds, "valuation": {w: row(["p", "q"]) for w in worlds}}
    kind = rng.choice(["pig", "pigf", "rel"])
    if kind == "rel":
        doc["R"] = {w: row(worlds) for w in worlds}
    else:
        doc["pi"] = {w: rng.choice(_GOOD_LITERALS) for w in worlds}
        slots.extend((doc["pi"], w) for w in worlds)
    if kind == "pigf":
        doc["truth_set"] = ["0", "1", *rng.sample(_GOOD_LITERALS, 2)]
        slots.extend((doc["truth_set"], i) for i in range(len(doc["truth_set"])))
    planted = len(slots) >= 2 and rng.random() < 0.4
    if planted:
        bad = rng.choice(_BAD_LITERALS)
        for container, key in rng.sample(slots, 2):
            container[key] = bad
    roll = rng.random()  # and now and then a schema fault
    if roll < 0.04:
        del doc["worlds"]
    elif roll < 0.08:
        doc["worlds"] = [*worlds, 1]
    elif roll < 0.12:
        doc["valuation"]["zz"] = {"p": "1/2"}
    elif roll < 0.16:
        doc["pi" if "pi" in doc else "R"] = ["1"]
    elif roll < 0.20:
        doc["pi" if "R" in doc else "R"] = {}
    elif roll < 0.24 and "truth_set" in doc:
        doc["truth_set"] = rng.choice(["01", ["1/2", "1"]])
    elif roll < 0.28 and "pi" in doc:
        del doc["pi"][worlds[0]]
    return doc, planted


def _outcome(read, doc) -> tuple:
    try:
        model = read(doc)
    except Exception as exc:  # the class and the message must match
        return type(exc), str(exc)
    return type(model), model


# where a literal sits, as a literal error names it
_LOCATION = re.compile(r"(valuation|R)\['\w+'\]\['\w+'\]|pi\['\w+'\]|truth_set\[\d+\]")


def test_model_from_json_matches_the_per_literal_oracle():
    rng = random.Random(1212)
    counts = {"model": 0, "error": 0, "planted error": 0, "located": 0}
    for _ in range(800):
        doc, planted = _random_model_doc(rng)
        expected = _outcome(oracle_model_from_json, doc)
        got = _outcome(model_from_json, doc)
        if got != expected:
            # a literal error is the oracle's message after its location
            assert got[0] is expected[0] is ValueError, doc
            where, _, tail = got[1].partition(": ")
            assert _LOCATION.fullmatch(where) and tail == expected[1], doc
            counts["located"] += 1
        failed = issubclass(expected[0], Exception)
        counts["error" if failed else "model"] += 1
        counts["planted error"] += planted and failed
    assert min(counts.values()) >= 100, counts


def test_each_distinct_literal_is_parsed_once(monkeypatch):
    from godelmodal import semantics

    seen = []
    parse_rational = semantics.parse_rational

    def counting(text):
        seen.append(text)
        return parse_rational(text)

    monkeypatch.setattr(semantics, "parse_rational", counting)
    doc = {
        "worlds": ["a", "b"],
        "pi": {"a": "1", "b": "1/2"},
        "valuation": {"a": {"p": "1/2", "q": 0.5}, "b": {"p": "1/2", "q": "1"}},
        "truth_set": ["0", "1/2", "1"],
    }
    assert model_from_json(doc) == oracle_model_from_json(doc)
    assert sorted(seen) == ["0", "0.5", "1", "1/2"]
    seen.clear()
    doc["valuation"]["b"]["q"] = "7/2"
    doc["truth_set"].append("7/2")
    with pytest.raises(ValueError, match=r"^valuation\['b'\]\['q'\]: rational '7/2' outside \[0, 1\]$"):
        model_from_json(doc)
    assert seen.count("7/2") == 1

