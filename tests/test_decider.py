import gc
import json
import random
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import closing
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations_with_replacement, islice, product

import pytest

from godelmodal import (
    ONE,
    ZERO,
    Box,
    Dia,
    LogicId,
    PiGFModel,
    PiGModel,
    Refuted,
    RelationalModel,
    SearchConfig,
    TruthSet,
    Unknown,
    Valid,
    Var,
    bound_for,
    decide,
    embed_pig,
    eval_pigf,
    eval_rel,
    evaluate,
    frame_report,
    is_normalized,
    model_to_json,
    parse,
    random_pigf_model,
    random_search,
    shrink,
    subformulas,
    variables,
    verdict_to_json,
)
from godelmodal import decider, worldtypes
from godelmodal.decider import _grid, _sweep_size
from godelmodal.semantics import _Coded, _decode as decode_codes, evaluate_compiled
from godelmodal.streams import _cost, _pack, _samples, _unpack
from godelmodal.syntax import SCHEMES, _parse_template, _postorder, compile_formulas, corpus
from helpers import (
    _decode,
    _first_refutation as oracle_first_refutation,
    _materialize,
    oracle_eval,
    oracle_exhaustive,
    oracle_instantiate,
    oracle_random_search,
    oracle_sample,
    oracle_shrink,
    oracle_shrink_codes,
    oracle_sweep_size,
    oracle_world_types,
    random_formula,
    random_formula_bounded,
    random_pigf,
    random_relational,
    size_order,
    _world_rows,
)

DNEG = parse("[]~~p -> ~~[]p")
HALF = Fraction(1, 2)


def first_refutation(model: PiGFModel, f) -> tuple[str, Fraction] | None:
    for w in model.worlds:
        v = eval_pigf(model, w, f)
        if v < ONE:
            return w, v
    return None


# -- the size bound -----------------------------------------------------------


def test_bound_examples():
    assert bound_for(parse("p")) == 8
    assert bound_for(parse("p -> q")) == 12
    assert bound_for(DNEG) == 22


# -- canonical enumeration ------------------------------------------------------


def swept(n_worlds, n_truth, names, logic, most=decider._BATCH):
    """The models of _sweep_size's batches of exactly these dimensions, one
    by one, as (pi, columns, truth) codes."""
    for columns, (pi, counts, truths) in _sweep_size(n_worlds, n_truth, names, logic, most):
        start = 0
        for n, truth in zip(counts, truths):
            yield pi[start:start + n], [column[start:start + n] for column in columns], truth
            start += n


def sweep_models(n_worlds, n_truth, names, logic):
    """The exhaustive sweep's models of exactly these dimensions."""
    table = _grid(n_worlds * (1 + len(names)) + n_truth)
    return [
        decode_codes(_Coded(None, names, [pi], columns, truth, table))
        for pi, columns, truth in swept(n_worlds, n_truth, names, logic)
    ]


def test_enumerate_smallest_space():
    k45 = sweep_models(1, 2, (), LogicId.K45)
    assert len(k45) == 3
    pis = sorted(m.pi["w1"] for m in k45)
    assert pis[0] == ZERO and pis[-1] == ONE and ZERO < pis[1] < ONE
    assert all(list(m.truth_set) == [ZERO, ONE] for m in k45)

    kd45 = sweep_models(1, 2, (), LogicId.KD45)
    assert len(kd45) == 1 and kd45[0].pi["w1"] == ONE

    s5 = sweep_models(1, 2, (), LogicId.S5)
    assert len(s5) == 1 and s5[0].pi["w1"] == ONE


def test_enumerate_two_world_regression():
    # The sweep lists one model per order type up to renaming of worlds,
    # with no duplicated world: 4 world-sorted models, which expand to the 8
    # order types of two distinct worlds, two values each, no variables.
    models = sweep_models(2, 2, (), LogicId.K45)
    assert len(models) == 4
    assert len({repr(model_to_json(m)) for m in models}) == 4  # pairwise distinct
    order_types = set()
    for m in models:
        a, b = (m.pi[w] for w in m.worlds)
        assert a != b
        order_types |= {(a, b), (b, a)}
    assert len(order_types) == 8


def test_enumerate_respects_dimensions_grid_and_logic():
    # the grid 1/k with k = n_worlds*(vars+1) + n_truth
    grid = TruthSet(["0", "1/7", "2/7", "3/7", "4/7", "5/7", "6/7", "1"])
    for logic in LogicId:
        count = 0
        for m in sweep_models(2, 3, ("p",), logic):
            count += 1
            assert len(m.worlds) == 2
            assert len(m.truth_set) == 3
            values = [m.pi[w] for w in m.worlds]
            values += [m.value(w, "p") for w in m.worlds]
            values += list(m.truth_set)
            assert all(v in grid for v in values)
            if logic is LogicId.KD45:
                assert is_normalized(m.base)
            if logic is LogicId.S5:
                assert all(m.pi[w] == ONE for w in m.worlds)
        assert count > 0


def test_sweep_size_matches_the_recursive_enumeration():
    # every size with |W| * (1 + #variables) + |T| <= 8 lists the same
    # models in the same order as the pruning generator it replaced
    listed = 0
    for names in ((), ("p",), ("p", "q")):
        width = 1 + len(names)
        for logic in LogicId:
            for n in range(1, 8 // width + 1):
                for t in range(2, 9 - n * width):
                    k_grid = n * width + t
                    got = []
                    for pi, columns, truth in swept(n, t, names, logic):
                        # the package yields code columns and codes 1 as
                        # k_grid; the oracle yields code rows and codes 1 as
                        # j + 1, j the highest interior code, used or in T
                        rows = list(zip(pi, *columns))
                        top_code = 1 + max(c for c in (*chain(*rows), *truth) if c != k_grid)
                        coded = [[top_code if c == k_grid else c for c in codes] for codes in (*rows, truth)]
                        got.append((tuple(map(tuple, coded[:-1])), coded[-1], top_code, k_grid))
                    assert got == list(oracle_sweep_size(n, t, names, logic)), (n, t, names, logic)
                    listed += len(got)
    assert listed == 22599


def test_enumerate_rejects_bad_dimensions():
    # Caps below one world or two truth values are refused up front, and the
    # sweep is only ever asked for sizes of at least (1, 2).
    with pytest.raises(ValueError):
        decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive", max_worlds=0))
    with pytest.raises(ValueError):
        decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive", max_truth=1))
    for cfg in (SearchConfig(), SearchConfig(max_worlds=1, max_truth=2)):
        sizes = size_order(bound_for(DNEG), cfg)
        assert sizes and all(n >= 1 and m >= 2 for n, m in sizes)


# -- exhaustive decisions -----------------------------------------------------------


def test_decide_refutes_box_double_negation_shift():
    verdict = decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive"))
    assert isinstance(verdict, Refuted)
    m = verdict.countermodel
    assert m.worlds == ("w1",)
    assert m.pi["w1"] == ONE
    assert m.value("w1", "p") == Fraction(1, 4)
    assert list(m.truth_set) == [ZERO, ONE]
    assert verdict.world == "w1"
    assert verdict.value == ZERO
    assert eval_pigf(m, "w1", DNEG) == ZERO


def test_decide_axiom_d_separation():
    dtop = parse("<>top")
    k45 = decide(dtop, LogicId.K45, SearchConfig(mode="exhaustive"))
    assert isinstance(k45, Refuted)
    assert k45.countermodel.worlds == ("w1",)
    assert k45.countermodel.pi["w1"] == ZERO
    assert list(k45.countermodel.truth_set) == [ZERO, ONE]
    assert k45.value == ZERO

    kd45 = decide(dtop, LogicId.KD45, SearchConfig(mode="exhaustive"))
    assert isinstance(kd45, Valid)
    assert kd45.bound_used == 10
    assert kd45.models_checked == 3  # complete order types examined


def test_decide_valid_small_formula_with_caps():
    verdict = decide(
        parse("p -> p"),
        LogicId.K45,
        SearchConfig(mode="exhaustive", max_worlds=2, max_truth=3),
    )
    assert isinstance(verdict, Valid)
    assert verdict.bound_used == 10
    assert verdict.models_checked > 0


def test_modal_free_formula_examines_one_order_type():
    for logic in LogicId:
        verdict = decide(parse("p & q -> p"), logic, SearchConfig(mode="exhaustive"))
        assert verdict == Valid(bound_for(parse("p & q -> p")), 1)


# models_checked of every named scheme at caps (2, 2), at (1, 5) and
# uncapped: the complete order types the world-type search examines
CORPUS_MODELS_CHECKED = {
    ("K45", "K_□"): (8, 39, 51),
    ("K45", "K_◇"): (6, 31, 31),
    ("K45", "F_□"): (2, 3, 3),
    ("K45", "P"): (6, 31, 31),
    ("K45", "FS2"): (8, 51, 51),
    ("K45", "4_□"): (4, 11, 11),
    ("K45", "4_◇"): (4, 11, 11),
    ("K45", "5_□"): (4, 11, 11),
    ("K45", "5_◇"): (4, 11, 11),
    ("K45", "T1"): (4, 11, 11),
    ("K45", "T2"): (4, 11, 11),
    ("K45", "T3"): (4, 11, 11),
    ("K45", "T4"): (8, 51, 51),
    ("K45", "T5"): (8, 51, 51),
    ("K45", "F_◇□"): (4, 11, 11),
    ("K45", "U_◇"): (4, 11, 11),
    ("K45", "U_□"): (4, 11, 11),
    ("K45", "T4_□"): (4, 11, 11),
    ("K45", "T4_◇"): (4, 11, 11),
    ("K45", "Sk_◇"): (6, 31, 31),
    ("K45", "T4'_◇"): (6, 19, 19),
    ("K45", "G45"): (8, 51, 51),
    ("KD45", "K_□"): (8, 39, 51),
    ("KD45", "K_◇"): (6, 31, 31),
    ("KD45", "F_□"): (2, 3, 3),
    ("KD45", "P"): (6, 31, 31),
    ("KD45", "FS2"): (8, 51, 51),
    ("KD45", "4_□"): (4, 11, 11),
    ("KD45", "4_◇"): (4, 11, 11),
    ("KD45", "5_□"): (4, 11, 11),
    ("KD45", "5_◇"): (4, 11, 11),
    ("KD45", "T1"): (4, 11, 11),
    ("KD45", "T2"): (4, 11, 11),
    ("KD45", "T3"): (4, 6, 11),
    ("KD45", "T4"): (8, 51, 51),
    ("KD45", "T5"): (8, 49, 51),
    ("KD45", "F_◇□"): (2, 3, 3),
    ("KD45", "U_◇"): (4, 11, 11),
    ("KD45", "U_□"): (4, 11, 11),
    ("KD45", "T4_□"): (4, 11, 11),
    ("KD45", "T4_◇"): (4, 11, 11),
    ("KD45", "Sk_◇"): (4, 11, 11),
    ("KD45", "T4'_◇"): (4, 11, 11),
    ("KD45", "G45"): (8, 51, 51),
    ("KD45", "D"): (2, 3, 3),
    ("KD45", "D'"): (4, 11, 11),
    ("S5", "K_□"): (8, 39, 51),
    ("S5", "K_◇"): (6, 31, 31),
    ("S5", "F_□"): (2, 3, 3),
    ("S5", "P"): (6, 31, 31),
    ("S5", "FS2"): (8, 51, 51),
    ("S5", "4_□"): (3, 7, 7),
    ("S5", "4_◇"): (3, 7, 7),
    ("S5", "5_□"): (3, 7, 7),
    ("S5", "5_◇"): (3, 7, 7),
    ("S5", "T1"): (4, 11, 11),
    ("S5", "T2"): (4, 11, 11),
    ("S5", "T3"): (4, 6, 6),
    ("S5", "T4"): (8, 51, 51),
    ("S5", "T5"): (8, 49, 51),
    ("S5", "F_◇□"): (1, 1, 1),
    ("S5", "U_◇"): (3, 7, 7),
    ("S5", "U_□"): (3, 7, 7),
    ("S5", "T4_□"): (3, 7, 7),
    ("S5", "T4_◇"): (3, 7, 7),
    ("S5", "Sk_◇"): (3, 7, 7),
    ("S5", "T4'_◇"): (2, 3, 3),
    ("S5", "G45"): (7, 39, 39),
    ("S5", "T_□"): (2, 3, 3),
    ("S5", "T_◇"): (2, 3, 3),
}


def test_corpus_models_checked_are_pinned():
    got = {}
    for logic in LogicId:
        for name, f in corpus(logic):
            got[logic.name, name] = tuple(
                decide(f, logic, SearchConfig("exhaustive", max_worlds=w, max_truth=t)).models_checked
                for w, t in ((2, 2), (1, 5), (None, None))
            )
    assert got == CORPUS_MODELS_CHECKED
    assert sum(map(sum, got.values())) == 3064


def test_world_types_match_the_whole_bound_sweep():
    # The world-type decision against the sweep of every canonical model
    # within the bound and the caps: the same verdict kind, and a refutation
    # identical byte for byte.  The oracle's sweep of a valid formula grows
    # with its grid of |W| * (1 + #variables) + |T| points, so caps of more
    # than one world keep that grid at most 8.
    rng = random.Random(8)
    kinds = {"valid": 0, "refuted": 0}
    for _ in range(600):
        f = random_formula_bounded(rng, ("p", "q", "r"), max_ell=8)
        logic = rng.choice(list(LogicId))
        while True:
            most_worlds, most_truth = rng.choice([(3, 2), (2, 4), (1, 5)])
            worlds, truth = rng.randint(1, most_worlds), rng.randint(2, most_truth)
            if worlds == 1 or worlds * (1 + len(variables(f))) + truth <= 8:
                break
        cfg = SearchConfig(mode="exhaustive", max_worlds=worlds, max_truth=truth)
        got, want = decide(f, logic, cfg), oracle_exhaustive(f, logic, cfg)
        assert type(got) is type(want), (f, logic, cfg)
        doc = verdict_to_json(got)
        if isinstance(got, Refuted):
            assert json.dumps(doc) == json.dumps(verdict_to_json(want)), (f, logic, cfg)
        else:
            assert doc["bound"] == verdict_to_json(want)["bound"] and doc["models_checked"] >= 1
        kinds[doc["verdict"]] += 1
    assert min(kinds.values()) >= 20, kinds


def test_world_types_match_the_search_that_read_everything():
    # (best, examined) of one world-type search against the search before it
    # skipped complete order types that cannot cover, unread columns and
    # rows, and tests of popped prefixes whose limit has not fallen: random
    # formulas, and substitution instances of the schemes in a logic where
    # they are valid, so that searches which exhaust every order type are
    # well represented
    rng = random.Random(20)
    logics = list(LogicId)
    answers = Counter()
    for n in range(2400):
        if n % 3:
            f = random_formula_bounded(rng, ("p", "q", "r"), max_ell=rng.randint(4, 10))
            logic = rng.choice(logics)
        else:
            scheme = rng.choice(SCHEMES)
            subst = {x: random_formula_bounded(rng, ("p", "q", "r"), max_ell=3) for x in "XY"}
            f = oracle_instantiate(scheme.template, subst)
            logic = rng.choice(logics[logics.index(scheme.source_logic) :])
        ops, (root,), names = compile_formulas([f])
        m = sum(op[0] in ("box", "dia") for op in ops)
        args = (ops, root, len(names), logic, rng.randint(0, min(m, 3)), rng.randint(1, 4))
        # on the level of the table _exhaustive would build up to min(m, 3) levels
        got = world_types(*args, k_top=min(m, 3))
        assert got == oracle_world_types(*args), (f, logic, args[4:])
        answers["none" if got[0] is None else "size"] += 1
    assert answers["none"] >= 600 and answers["size"] >= 600, answers
    # none of those reaches the re-test of a popped prefix once the limit
    # has fallen; here it prunes, and without it 88 order types are examined
    ops, (root,), names = compile_formulas([parse("<>([]q -> <>(p & r)) -> [](<>q -> []p)")])
    args = (ops, root, len(names), LogicId.KD45, 2, 2)
    assert world_types(*args) == world_types(*args, k_top=3) == oracle_world_types(*args) == (1, 86)


def world_types(ops, root, n_vars, logic, k_levels, limit, k_top=None):
    # worldtypes._world_types on the table of k_levels levels, as a table
    # built for up to k_top levels yields it
    tables = worldtypes._world_table(k_levels if k_top is None else k_top, 1 + n_vars, logic)
    for _ in range(k_levels):
        next(tables)
    return worldtypes._world_types(ops, root, next(tables), logic, limit)


def thresholds(columns: list[list[int]], top: int) -> list[list[int]]:
    # entry c of a column holds bit r iff row r has a code of at least c
    return [[sum(1 << r for r, code in enumerate(column) if code >= c) for c in range(top + 1)] for column in columns]


def test_world_table_holds_the_thresholds_of_the_row_lists():
    # each level's table, as one table built for up to k_top levels yields
    # it to the search, holds the thresholds of the list table of that
    # level, rows in the same order; every level is the same column lists
    for logic in LogicId:
        for k_top in range(4):
            for width in range(1, 5):
                first = None
                for k_levels, table in enumerate(worldtypes._world_table(k_top, width, logic)):
                    want = thresholds(_world_rows(k_levels, width, logic), (k_levels + 1) * (width + 1))
                    assert table == want, (logic, k_top, width, k_levels)
                    first = first or table
                    assert all(a is b for a, b in zip(table, first)), (logic, k_top, width, k_levels)
                assert k_levels == k_top


def unnested_weak_orders(n: int) -> list[tuple[int, ...]]:
    # every weak order of n items, as onto tuples of block ranks
    orders: list[tuple[int, ...]] = [()]
    for _ in range(n):
        longer = []
        for ranks in orders:
            r = len(set(ranks))
            longer += [(*ranks, k) for k in range(r)]  # ties with block k
            longer += [(*(x + (x >= k) for x in ranks), k) for k in range(r + 1)]  # new block k
        orders = longer
    return orders


def unnested_world_rows(k_levels: int, width: int, logic: LogicId) -> list[list[int]]:
    # _world_rows as it was before its rows were nested by level: by block
    # count, then slot choice, over the slots of all levels at once
    step = width + 1
    fixed = [(k_levels + 1) * step] if logic is LogicId.S5 else []
    by_blocks: dict[int, list[tuple[int, ...]]] = {}
    for ranks in unnested_weak_orders(width - len(fixed)):
        by_blocks.setdefault(len(set(ranks)), []).append(ranks)
    columns: list[list[int]] = [[] for _ in range(width)]
    for blocks, orders in by_blocks.items():
        picks = list(zip(*orders))
        for slots in combinations_with_replacement(range(2 * k_levels + 3), blocks):
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


def test_world_rows_nest_by_level():
    # the rows of k levels are the first rows of K >= k levels, each code
    # at most the top of k levels (S5's pi is 1 in both), and as a multiset
    # of code vectors they are the rows of the order before nesting
    for logic in LogicId:
        for width in range(1, 5):
            for k_top in range(4):
                big = _world_rows(k_top, width, logic)
                for k_levels in range(k_top + 1):
                    top = (k_levels + 1) * (width + 1)
                    small = _world_rows(k_levels, width, logic)
                    cut = [[min(code, top) for code in column[: len(small[0])]] for column in big]
                    assert cut == small, (logic, width, k_top, k_levels)
                    # and every later row has a value above that top
                    free = big[logic is LogicId.S5 :]
                    assert all(max(row) > top for row in zip(*(column[len(small[0]) :] for column in free)))
                rows = Counter(zip(*big))
                assert rows == Counter(zip(*unnested_world_rows(k_top, width, logic))), (logic, width, k_top)
                assert max(rows.values()) == 1


def test_exhaustive_builds_one_table_and_its_searches_read_it(monkeypatch):
    # one _world_table call per _exhaustive call; each level's search reads
    # that table's own column lists, grown to the level's codes, and no
    # level past the last search is built
    built, read = [], []
    world_table, world_types = worldtypes._world_table, worldtypes._world_types

    def counting(*args):
        built.append((args, []))
        for table in world_table(*args):
            built[-1][1].append(table)
            yield table

    def reading(ops, root, table, logic, limit):
        read.append((table, [list(column) for column in table]))
        return world_types(ops, root, table, logic, limit)

    monkeypatch.setattr(worldtypes, "_world_table", counting)
    monkeypatch.setattr(worldtypes, "_world_types", reading)
    cases = [
        ("<>(p | q) -> (<>p | <>q)", LogicId.K45, None, None, Valid),
        ("([]p -> <>q) | []((p -> q) -> q)", LogicId.KD45, 1, 5, Valid),
        ("<>[]p -> []p", LogicId.S5, 1, 5, Valid),
        ("[]p | ~[]p", LogicId.S5, 2, 4, Refuted),
        # refuted in one world at level 0, so level 1 is never searched
        ("p & q -> []p", LogicId.K45, None, None, Refuted),
    ]
    for text, logic, worlds, truth, kind in cases:
        built.clear()
        read.clear()
        verdict = decide(parse(text), logic, SearchConfig("exhaustive", max_worlds=worlds, max_truth=truth))
        assert isinstance(verdict, kind) and len(built) == 1, text
        (k_top, width, _), yielded = built[0]
        assert 1 <= len(read) == len(yielded) <= k_top + 1, text
        assert len(read) == k_top + 1 or kind is Refuted, text
        for k_levels, ((table, entries), own) in enumerate(zip(read, yielded)):
            assert table is own and all(a is b for a, b in zip(table, yielded[0])), text
            assert {len(column) for column in entries} == {(k_levels + 1) * (width + 1) + 1}, text
    assert len(read) == 1 < k_top + 1


def test_world_types_skip_complete_types_that_cannot_cover(monkeypatch):
    # A complete order type whose worlds cannot meet the existential
    # requirements within the limit is counted, but never evaluated
    calls = []
    evaluate = worldtypes._span_values

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(worldtypes, "_span_values", counting)
    f = parse("([]p -> <>q) | []((p -> q) -> q)")
    verdict = decide(f, LogicId.KD45, SearchConfig("exhaustive", max_worlds=1, max_truth=5))
    assert verdict.models_checked == 51
    assert len(calls) == 70


@pytest.mark.parametrize(
    "text", ["[]" * 2000 + "(p -> q)", "~[]" * 1000 + "(p -> q)"], ids=["boxes", "negated-boxes"]
)
def test_deep_chains_decide_without_recursion(text):
    # p = 1, q = 0 at a world with pi = 1 makes every box of p -> q 0: both
    # chains are refuted in every logic, in one world and two truth values
    f = parse(text)
    for logic in LogicId:
        verdict = decide(f, logic, SearchConfig(mode="exhaustive", max_worlds=2, max_truth=3))
        assert isinstance(verdict, Refuted), logic
        assert len(verdict.countermodel.worlds) == 1
        assert len(verdict.countermodel.truth_set) == 2
        assert eval_pigf(verdict.countermodel, verdict.world, f) == verdict.value < ONE


def test_world_types_without_a_swept_countermodel_raise(monkeypatch):
    # a size the world types claim but the sweep cannot fill is a bug
    monkeypatch.setattr(decider, "_sweep_size", lambda *args: iter(()))
    with pytest.raises(RuntimeError):
        decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive"))


def test_exhaustive_cross_check_raises_on_disagreement(monkeypatch):
    # The integer sweep's answer is re-checked on the exact model; a wrong
    # value code must raise (also under python -O), not return a bogus Refuted.
    # The sweep's hit comes from _first_hit, so the wrong code is planted on
    # the hit it returns.
    first_hit = decider._first_hit
    monkeypatch.setattr(decider, "_first_hit", lambda *args, **kw: replace(first_hit(*args, **kw), world=0, code=1))
    with pytest.raises(RuntimeError):
        decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive"))


def test_first_hit_on_sweep_batches_is_the_first_countermodel_of_the_sweep():
    # _first_hit on _sweep_size's batches names the model and world that
    # evaluating oracle_sweep_size's models one at a time finds first, at
    # sizes of two or more worlds, hits past the first model of their batch
    # and past the first truth set included: every other formula is a
    # classical tautology, which no model of codes 0 and 1 refutes.  A size
    # whose first countermodel the oracle does not meet in its first 2000
    # models is skipped, which bounds the cost.
    rng = random.Random(61)
    tautologies = [_parse_template(text) for text in ("A | ~A", "~~A -> A", "((A -> B) -> A) -> A")]
    seen = Counter()
    for i in range(200):
        logic = LOGICS[i % 3]
        names = ("p", "q", "r")[: 2 + (i % 4 == 0)]
        f = random_formula(rng, names, depth=rng.randint(1, 3))
        if i % 2:
            g = random_formula(rng, names, depth=rng.randint(1, 2))
            f = oracle_instantiate(rng.choice(tautologies), {"A": f, "B": g})
        compiled = compile_formulas([f])
        ops, (root,), names = compiled
        n, t = rng.choice([(2, 2), (2, 3), (3, 2)])
        k_grid = n * (1 + len(names)) + t
        truth_sets, last = 0, None  # the truth sets the oracle enters up to its hit
        for index, (rows, t_codes, top_code, _) in enumerate(islice(oracle_sweep_size(n, t, names, logic), 2000)):
            truth_sets += (top_code, t_codes) != last
            last = (top_code, t_codes)
            found = oracle_first_refutation(ops, root, rows, t_codes, top_code)
            if found is not None:
                break
        else:
            seen["skipped"] += 1
            continue
        read = []  # the model counts of the batches the reader took

        def counted(batches):
            for batch in batches:
                read.append(len(batch[1][1]))
                yield batch

        batches = _sweep_size(n, t, names, logic, decider._batch_cap(n, ops))
        hit = decider._first_hit(compiled, counted(batches), k_grid, swept=True)
        # the package codes 1 as k_grid, the oracle as top_code
        coded = [[top_code if c == k_grid else c for c in codes] for codes in (*zip(*hit.rows, *hit.columns), hit.truth)]
        assert (tuple(map(tuple, coded[:-1])), coded[-1]) == (rows, t_codes), (f, logic, n, t)
        assert (hit.world, hit.code) == found  # a refuting code is below 1
        assert hit.swept and hit.table == _grid(k_grid)
        position = index - sum(read[:-1])
        assert 0 <= position < read[-1]
        seen["hit"] += 1
        seen["not first in its batch"] += position > 0
        seen["past the first truth set"] += truth_sets > 1
    print(dict(seen))
    assert min(seen.values()) >= 10 and len(seen) == 4, seen


def doubling_runs(batches, k_grid, ops):
    """The batch sizes of each truth set of a sweep's batches, checked to
    keep each truth set's batches together and within the random search's
    value cap: at most _BATCH models, and at most _BATCH_VALUES values over
    the op list unless a batch holds a single model."""
    runs = {}
    for columns, (pi, counts, truths) in batches:
        assert len(counts) <= decider._BATCH
        assert len(counts) == 1 or len(pi) * len(ops) <= decider._BATCH_VALUES
        assert len(set(map(tuple, truths))) == 1
        # a truth set's models share j, the highest code below k_grid of
        # each model and the truth set
        j = max(c for c in (*pi, *chain(*columns), *truths[0]) if c != k_grid)
        key = (j, tuple(truths[0]))
        assert key not in runs or key == list(runs)[-1], key
        runs.setdefault(key, []).append(len(counts))
    return runs


def test_sweep_batches_double_within_the_value_cap(monkeypatch):
    # Each truth set's models come in batches of 1, 2, 4, ... up to the
    # batch cap, by the rule of the random search's batches.  A formula of
    # thousands of ops lowers the cap below _BATCH.
    ops = compile_formulas([parse("~" * 3000 + "p")])[0]
    capped = 0
    for n, t in ((2, 3), (3, 2)):
        most = decider._batch_cap(n, ops)
        assert most < decider._BATCH
        runs = doubling_runs(_sweep_size(n, t, ("p",), LogicId.K45, most), 2 * n + t, ops)
        for sizes in runs.values():
            want = [min(2**i, most) for i in range(len(sizes))]
            assert sizes[:-1] == want[:-1] and sizes[-1] <= want[-1], sizes
            capped += most in sizes
    assert capped
    # exhaustive mode sweeps with that cap, for a refutation at (1, 2) of
    # "two of p0, p1, p2 are equal", padded with 5000 negations of 0
    compiled = compile_formulas([parse("(p0 <-> p1) | (p0 <-> p2) | (p1 <-> p2) | " + "~" * 5000 + "0")])
    ops = compiled[0]
    swept, read = [], []
    sweep_size = decider._sweep_size

    def recorded(*args):
        swept.append(args)
        for batch in sweep_size(*args):
            read.append(batch)
            yield batch

    monkeypatch.setattr(decider, "_sweep_size", recorded)
    hit = decider._exhaustive(compiled, LogicId.K45, SearchConfig("exhaustive"))
    assert isinstance(hit, decider._Hit) and [args[:2] for args in swept] == [(1, 2)]
    assert swept[0][-1] == decider._batch_cap(1, ops) < decider._BATCH
    # j = 0 has 16 rows, of codes 0 and 1 alone; at j = 1 the 4th row that
    # uses code 1 is the first whose three variables differ
    assert list(doubling_runs(read, 1 * 4 + 2, ops).values()) == [[1, 2, 4, 8, 1], [1, 2, 4]]


def one_model_evaluations(monkeypatch):
    # the decider's calls of evaluate_compiled on a one-model frame, the
    # shrink's candidates, each appended to the list returned
    calls = []
    evaluate = decider.evaluate_compiled

    def counting(ops, columns, frame, top):
        if len(frame) == 2:
            calls.append(1)
        return evaluate(ops, columns, frame, top)

    monkeypatch.setattr(decider, "evaluate_compiled", counting)
    return calls


def test_exhaustive_evaluates_no_model_alone(monkeypatch):
    # The sweep's models are evaluated in batches; evaluation of one model
    # on its own is the shrink's alone.
    calls = one_model_evaluations(monkeypatch)
    rng = random.Random(5)
    hits = 0
    for i in range(60):
        f = random_formula(rng, ("p", "q"), depth=rng.randint(1, 3))
        cfg = SearchConfig("exhaustive", max_worlds=2, max_truth=3)
        hits += isinstance(decider._exhaustive(compile_formulas([f]), LOGICS[i % 3], cfg), decider._Hit)
    assert not calls and hits >= 20, hits


def test_exhaustive_verdicts_are_metamorphic():
    # Renaming the variables so that their sorted order changes keeps the
    # exhaustive verdict kind.  Valid at caps (w, t) stays Valid at smaller
    # caps, and Refuted stays Refuted at larger ones.  models_checked is not
    # compared under renaming: nothing shows that it is invariant.  Every
    # other formula is a classical tautology of modal formulas, which most
    # often needs more than one world or two truth values to refute.
    rng = random.Random(83)
    caps = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (None, None)]
    tautologies = [_parse_template(text) for text in ("A | ~A", "~~A -> A", "((A -> B) -> A) -> A")]
    seen = Counter()
    for i in range(90):
        logic = LOGICS[i % 3]
        template = random_formula(rng, ("P", "Q"), depth=rng.randint(1, 3))
        if i % 2:
            modal = [Box(template), Dia(random_formula(rng, ("P", "Q"), depth=rng.randint(1, 2)))]
            template = oracle_instantiate(rng.choice(tautologies), dict(zip("AB", rng.sample(modal, 2))))
        f = oracle_instantiate(template, {"P": Var("p"), "Q": Var("q")})
        g = oracle_instantiate(template, {"P": Var("q"), "Q": Var("p")})
        kinds = {}
        for w, t in caps:
            cfg = SearchConfig("exhaustive", max_worlds=w, max_truth=t)
            kinds[w, t] = type(decide(f, logic, cfg))
            assert type(decide(g, logic, cfg)) is kinds[w, t], (f, logic, w, t)
        for (w, t), kind in kinds.items():
            for (w2, t2), kind2 in kinds.items():
                smaller = (w2 or 99) <= (w or 99) and (t2 or 99) <= (t or 99)
                if smaller and kind is Valid:
                    assert kind2 is Valid, (f, logic, (w, t), (w2, t2))
                if smaller and kind2 is Refuted:
                    assert kind is Refuted, (f, logic, (w2, t2), (w, t))
        seen[f"{len(set(kinds.values()))} kinds"] += 1
        seen["two variables"] += len(variables(f)) == 2
    print(dict(seen))
    assert min(seen.values()) >= 10 and len(seen) == 3, seen


def test_decide_exhaustive_is_deterministic():
    cfg = SearchConfig(mode="exhaustive")
    assert decide(DNEG, LogicId.K45, cfg) == decide(DNEG, LogicId.K45, cfg)


def test_decide_rejects_bad_config():
    for fields, message in [
        ({"mode": "telepathy"}, "unknown search mode 'telepathy'"),
        ({"budget": -1}, "budget must be nonnegative"),
        ({"max_worlds": 0}, "max_worlds must be at least 1"),
        ({"max_truth": 1}, "max_truth must be at least 2"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            decide(DNEG, LogicId.K45, SearchConfig(**fields))
        # a bad config is refused when it is built, before any search
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchConfig(**fields)
    # a count that is no int is refused when it is built too; before, these
    # failed inside the search, or, for max_truth, decided
    for fields, name, kind in [
        ({"max_worlds": 1.5}, "max_worlds", "float"),
        ({"mode": "random", "budget": 2.5}, "budget", "float"),
        ({"mode": "exhaustive", "max_truth": 3.5}, "max_truth", "float"),
        ({"seed": "1"}, "seed", "str"),
        ({"budget": None}, "budget", "NoneType"),
    ]:
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
            SearchConfig(**fields)
    assert SearchConfig(max_worlds=None, max_truth=None) == SearchConfig()


def test_public_entries_read_a_logic_or_its_value_string():
    # decide, random_search, shrink, random_pigf_model and corpus read
    # their logic as LogicId(logic): the value string gives what the member
    # gives, and anything else raises ValueError.  Before, a string fell
    # through every "logic is LogicId.X" test and was read as K45, so "s5"
    # refuted []p -> p and drew pi = 1/3.
    formulas = [parse(text) for text in ("[]p -> p", "<>1", "<>p -> []p", "[](p -> q) -> []p -> []q")]
    configs = [SearchConfig("exhaustive"), SearchConfig("random", 50), SearchConfig("hybrid", 3, 1, 2, 3)]
    lawful = {
        LogicId.K45: PiGModel(["a", "b"], {"a": "1", "b": "1/2"}, {"a": {"p": "1"}, "b": {"p": "0"}}),
        LogicId.KD45: PiGModel(["a", "b"], {"a": "1", "b": "1/2"}, {"a": {"p": "1"}, "b": {"p": "0"}}),
        LogicId.S5: PiGModel(["a", "b"], {"a": "1", "b": "1"}, {"a": {"p": "1"}, "b": {"p": "0"}}),
    }
    half = PiGFModel(lawful[LogicId.K45], TruthSet([0, HALF, 1]))
    for logic in LOGICS:
        for f, cfg in product(formulas, configs):
            assert verdict_to_json(decide(f, logic.value, cfg)) == verdict_to_json(decide(f, logic, cfg))
            if cfg.mode == "random":
                assert found_json(random_search(f, logic.value, cfg)) == found_json(random_search(f, logic, cfg))
        model = PiGFModel(lawful[logic], TruthSet([0, HALF, 1]))
        got, want = (shrink(model, "b", parse("<>p -> []p"), x) for x in (logic.value, logic))
        assert (model_to_json(got[0]), got[1]) == (model_to_json(want[0]), want[1])
        for seed in range(20):
            drawn = [random_pigf_model(random.Random(seed), 3, 4, ["p", "q"], x) for x in (logic, logic.value)]
            assert model_to_json(drawn[0]) == model_to_json(drawn[1])
        assert corpus(logic.value) == corpus(logic)
    # a two-world model with pi(b) = 1/2 is no S5 model under either name
    for logic in (LogicId.S5, "s5"):
        with pytest.raises(ValueError, match="frame constraint"):
            shrink(half, "b", parse("<>p -> []p"), logic)
    assert verdict_to_json(decide(parse("[]p -> p"), "s5", SearchConfig("exhaustive")))["verdict"] == "valid"
    assert len(corpus("s5")) == 24
    for call in (
        lambda: decide(formulas[0], "x", configs[0]),
        lambda: random_search(formulas[0], "x", configs[1]),
        lambda: shrink(half, "b", parse("<>p -> []p"), "x"),
        lambda: random_pigf_model(random.Random(0), 2, 3, ["p"], "x"),
        lambda: corpus("x"),
    ):
        with pytest.raises(ValueError, match="'x' is not a valid LogicId"):
            call()


# -- randomized search -----------------------------------------------------------------


def test_random_search_finds_known_countermodel():
    cfg = SearchConfig(mode="random", budget=5000, seed=0)
    found = random_search(DNEG, LogicId.K45, cfg)
    assert found is not None
    model, world, value = found
    assert value < ONE
    assert eval_pigf(model, world, DNEG) == value


def test_random_search_respects_seed():
    cfg = SearchConfig(mode="random", budget=3000, seed=42)
    a = random_search(DNEG, LogicId.K45, cfg)
    b = random_search(DNEG, LogicId.K45, cfg)
    assert a == b


def test_random_search_sound_on_an_axiom():
    axiom4 = parse("[]p -> [][]p")
    assert random_search(axiom4, LogicId.K45, SearchConfig(mode="random", budget=2000, seed=9)) is None


def test_random_mode_returns_unknown_on_exhausted_budget():
    verdict = decide(parse("p -> p"), LogicId.K45, SearchConfig(mode="random", budget=50, seed=1))
    assert isinstance(verdict, Unknown)
    assert verdict.budget == 50


def test_hybrid_falls_back_to_exhaustive():
    verdict = decide(
        parse("p -> p"),
        LogicId.K45,
        SearchConfig(mode="hybrid", budget=20, seed=1, max_worlds=2, max_truth=3),
    )
    assert isinstance(verdict, Valid)


def test_random_search_obeys_logic_constraint():
    cfg = SearchConfig(mode="random", budget=400, seed=3)
    found = random_search(parse("[]p -> p"), LogicId.KD45, cfg)
    assert found is not None  # the T axiom fails on serial non-universal models
    assert is_normalized(found[0].base)
    assert random_search(parse("[]p -> p"), LogicId.S5, SearchConfig(mode="random", budget=2000, seed=3)) is None


LOGICS = (LogicId.K45, LogicId.KD45, LogicId.S5)


def found_json(found):
    return None if found is None else verdict_to_json(Refuted(*found))


def test_the_sampler_never_contradicts_a_capped_valid():
    # Containment (ROADMAP items 3 and 10): at caps (w, t) every sample has
    # at most w worlds and t truth values, and the exhaustive search decides
    # every model within those caps, so when it returns Valid the random
    # search at the same caps finds nothing.  Plain random formulas are
    # mostly refuted, so a third instantiate a scheme, valid in its logic
    # (K45 also meets the D and T schemes of KD45 and S5), and a third are
    # classical tautologies of modal formulas, which are often refuted only
    # at the full caps: valid at one world or one truth value fewer.  A
    # false Valid there would meet the sampler's hits.  A hit is a
    # countermodel within the caps.  (5, 6) are the caps at which CLI corpus
    # certifies a scheme before it samples (decider._sample_caps).
    rng = random.Random(61)
    caps = [(1, 3), (2, 3), (2, 4), (3, 3), (5, 6)]
    tautologies = [_parse_template(text) for text in ("A | ~A", "~~A -> A", "((A -> B) -> A) -> A", "(A -> B) | (B -> A)")]
    seen = Counter()
    for i in range(315):
        logic = LOGICS[i % 3]
        max_worlds, max_truth = caps[i // 3 % 5]
        names = ("p", "q", "r", "s")[: 3 + (i % 5 == 0)]
        f = random_formula(rng, names, depth=rng.randint(1, 4))
        kind = i // 12 % 3
        if kind == 1:
            scheme = SCHEMES[rng.randrange(len(SCHEMES))]
            f = oracle_instantiate(scheme.template, {"X": f, "Y": random_formula(rng, names, depth=rng.randint(0, 2))})
        elif kind == 2:
            modal = [Box(f), Dia(random_formula(rng, names, depth=rng.randint(1, 2)))]
            f = oracle_instantiate(rng.choice(tautologies), dict(zip("AB", rng.sample(modal, 2))))
        verdict = decide(f, logic, SearchConfig("exhaustive", max_worlds=max_worlds, max_truth=max_truth))
        found = random_search(f, logic, SearchConfig("random", 200, i, max_worlds, max_truth))
        if isinstance(verdict, Valid):
            assert found is None, (f, logic, max_worlds, max_truth)
            seen["valid"] += 1
            continue
        assert isinstance(verdict, Refuted)
        seen["refuted"] += 1
        if found is not None:
            model, world, value = found
            assert len(model.worlds) <= max_worlds and len(model.truth_set.values) <= max_truth
            assert eval_pigf(model, world, f) == value < ONE
            smaller = [(max_worlds - 1, max_truth), (max_worlds, max_truth - 1)]
            seen["sampled hit, valid at smaller caps"] += any(
                isinstance(decide(f, logic, SearchConfig("exhaustive", max_worlds=w, max_truth=t)), Valid)
                for w, t in smaller
                if w >= 1 and t >= 2
            )
    print(dict(seen))
    assert min(seen["valid"], seen["refuted"]) >= 50 and seen["sampled hit, valid at smaller caps"] >= 20, seen


def test_random_search_matches_the_sample_by_sample_oracle():
    # Batches double from one sample to decider._BATCH = 256, so a batch
    # ends after sample 1, 3, 7, ..., 255 or 511, and later batches hold 256
    # samples.  The batched search must return what drawing and checking one
    # sample at a time returns, wherever the first hit lies.
    rng = random.Random(31)
    names = [(), ("p",), ("p", "q"), ("p", "q", "r")]
    caps = [(None, None), (1, 2), (3, 4)]
    budgets = [1, 2, 3, 7, 100, 600]
    cases = []
    for i in range(2160):
        f = random_formula(rng, names[i // 54 % 4], depth=rng.randint(1, 4))
        cases.append((f, LOGICS[i % 3], caps[i // 3 % 3], budgets[i // 9 % 6], i))
    # a three-way equality is rarely met by a one-world sample, so these
    # hits land late in a batch and past the 511th sample
    rare = parse("(p <-> q) & (q <-> r) -> ~~p -> p")
    cases += [(rare, logic, (1, 2), 600, seed) for seed in range(40) for logic in LOGICS]
    ends = {2**j - 1 for j in range(1, 10)}
    where = Counter()
    for f, logic, (max_worlds, max_truth), budget, seed in cases:
        cfg = SearchConfig("random", budget, seed, max_worlds, max_truth)
        expected, drawn = oracle_random_search(f, logic, cfg)
        assert found_json(random_search(f, logic, cfg)) == found_json(expected), (f, logic, cfg)
        if expected is None:
            where["none"] += 1
        elif drawn > 511:
            where["past 511"] += 1
        elif drawn in ends:
            where["batch end"] += 1
        elif drawn - 1 in ends:
            where["batch start"] += 1
        else:
            where["inside"] += 1
    assert min(where[k] for k in ("none", "past 511", "batch end", "batch start", "inside")) > 0, where


def hit_json(f, logic, cfg):
    compiled = compile_formulas([f])
    hit = decider._random_hit(compiled, logic, cfg)
    return None if hit is None else verdict_to_json(decider._refuted(compiled, hit))


def assert_streams_are_the_draws():
    # every kept batch packs what a fresh generator draws for it, and every
    # batch but a stream's last is full
    for (seed, most, *args), batches in decider._STREAMS.entries.items():
        rng = random.Random(seed)
        sizes = [_samples(data) for data in batches]
        assert sizes[:-1] == [min(1 << i, most) for i in range(len(batches) - 1)]
        assert 0 < sizes[-1] <= min(1 << (len(batches) - 1), most)
        assert list(batches) == [_pack(decider._draw(rng, k, *args)) for k in sizes]


def test_shared_streams_give_what_a_cleared_table_and_the_oracle_give():
    # Searches that agree on seed, sizes and batch cap read one kept stream.
    # Whatever the table holds, and whether a short or a long budget reaches
    # a key first, a search returns what it returns on a cleared table, and
    # that is what the sample-by-sample oracle returns.  Budgets 3, 100 and
    # 700 end inside a batch; bounds of 10 or less lower the truth caps; at
    # 80 worlds the long formula's batches stop at 238 samples, and budget
    # 300 ends inside the first of them; a longer one draws models of up to
    # 296 worlds, more than a byte can count (264 and 286 under K45).
    rng = random.Random(53)
    rare = "(p <-> q) & (q <-> r) -> ~~p -> p"
    small = {0: ["0", "[]0 -> 0", "<>0"], 1: ["p", "[]p", "~p", "<>p"]}
    cases = []
    for logic in LOGICS:
        for k in range(4):
            names = ("p", "q", "r")[:k]
            formulas = []
            while len(formulas) < 2:
                f = random_formula(rng, names, depth=rng.randint(2, 4))
                if len(variables(f)) == k and bound_for(f) > 10:
                    formulas.append(f)
            formulas += [parse(text) for text in small.get(k, [])]
            if k == 3:
                formulas.append(parse(rare))
                long = parse("~~r -> " * 40 + f"({rare})")
                for seed, budget in product((0, 1), (3, 300)):
                    cases.append((long, logic, SearchConfig("random", budget, seed, 80)))
                cases.append((parse("~~r -> " * 130 + f"({rare})"), logic, SearchConfig("random", 5, 0, 300)))
            for f, seed, budget in product(formulas, (0, 1), (0, 1, 3, 100, 700)):
                cases.append((f, logic, SearchConfig("random", budget, seed)))
    cold = {}
    for case in cases:
        decider._STREAMS.clear()
        cold[case] = hit_json(*case)
        assert cold[case] == found_json(oracle_random_search(*case)[0]), case
    for longest_first in (False, True):
        decider._STREAMS.clear()
        for case in sorted(cases, key=lambda case: case[2].budget, reverse=longest_first):
            assert hit_json(*case) == cold[case], case
        assert_streams_are_the_draws()
    assert any(most < decider._BATCH for _, most, *_ in decider._STREAMS.entries)
    assert len({key[-1] for key in decider._STREAMS.entries}) > 3  # truth caps
    assert sum(value is not None for value in cold.values()) > len(cases) // 4


def kept_samples():
    # the samples kept per key, once the table's byte count is checked
    # against what it holds and against its bound, _BATCH_VALUES
    table = decider._STREAMS
    assert table.nbytes == sum(_cost(key, batches) for key, batches in table.entries.items())
    assert table.nbytes <= table.bound == decider._BATCH_VALUES
    return {key: sum(map(_samples, batches)) for key, batches in table.entries.items()}


def oracle_batch(rng, count, n_vars, logic, worlds_cap, n_truth, caps):
    # count oracle samples in streams._unpack's form: one code column per
    # variable, the models end to end, and the frame of their pi codes end
    # to end, their world counts and their truth sets
    columns, pis, counts, truths = [b""] * n_vars, b"", [], []
    for _ in range(count):
        n = rng.randint(1, worlds_cap)
        rows, anchors = oracle_sample(rng, n, rng.randint(2, caps[n]), n_vars, logic)
        pi, *values = zip(*rows)
        columns = [column + bytes(v) for column, v in zip(columns, values)]
        pis += bytes(pi)
        counts.append(n)
        truths.append(bytes([0, *anchors, 120]))
    return columns, (pis, counts, truths)


def test_unpacked_frames_evaluate_each_sample_as_the_oracle_does_alone():
    # _unpack's frame of the first count samples of a packed batch, count
    # ending inside the batch or at its end, gives every op of every sampled
    # model the values the recursive oracle gives that model alone, code c
    # read as c/120; the batch is the oracle's samples.  Rounding into a
    # sample's truth set keeps some modal values, which are members already,
    # and moves others.
    rng = random.Random(44)
    f = parse("[](p -> <>q) & (<>p | ~[]q) -> <>[]p | []<>~q")
    ops, _, names = compile_formulas([f])
    nodes = list(_postorder([f]))
    rounding = Counter()
    for logic, size in product(LOGICS, (1, 6, 64)):
        args = (len(names), logic, 5, 6, (2, 6, 6, 6, 6, 6))
        state = rng.getstate()
        data = _pack(decider._draw(rng, size, *args))
        for count in {1, size // 2 + 1, size}:
            rng.setstate(state)
            columns, frame = _unpack(data, count, len(names))
            assert (columns, frame) == oracle_batch(rng, count, *args)
            values = evaluate_compiled(ops, columns, frame, 120)
            start = 0
            for k, truth in zip(frame[1], frame[2]):
                worlds = range(k)
                pi = frame[0][start:start + k]
                access = lambda w, u: _decode(pi[u], 120, 120)
                valuation = {w: {p: _decode(column[start + w], 120, 120) for p, column in zip(names, columns)} for w in worlds}
                levels = [_decode(t, 120, 120) for t in truth]
                for g, got in zip(nodes, values):
                    want = [oracle_eval(worlds, access, valuation, w, g, levels) for w in worlds]
                    assert [_decode(c, 120, 120) for c in got[start:start + k]] == want, (g, logic, size, count)
                    if type(g).__name__ in ("Box", "Dia"):
                        exact = oracle_eval(worlds, access, valuation, 0, g)
                        rounding["kept" if exact == want[0] else "moved"] += 1
                start += k
            assert start == len(values[0]) == len(frame[0])
    assert min(rounding["kept"], rounding["moved"]) > 100, rounding


def test_a_hit_mid_batch_on_a_multi_world_sample_is_the_oracle_hit():
    # The first hit lies in a batch of 64 or more samples, on a sample of
    # several worlds that is not the batch's first, at a world that is not
    # the sample's first: _random_hit reads that world's offset, the
    # sample's pi codes, columns and truth set from the batch's frame.  A
    # budget that ends at the hit, inside its batch, finds it too, and one
    # that ends just before it finds nothing.
    cases = [
        ("[](p | q) -> []p | <>q | ~~q", LogicId.KD45, 5, 76),
        ("([]p <-> q) & (q <-> r) -> ~~r -> r", LogicId.KD45, 8, 118),
        ("(p <-> <>q) & (q <-> r) -> ~~p -> p", LogicId.S5, 1, 169),
    ]
    for text, logic, seed, at in cases:
        f = parse(text)
        for budget in (at - 1, at, 600):
            cfg = SearchConfig("random", budget, seed)
            found, drawn = oracle_random_search(f, logic, cfg)
            assert hit_json(f, logic, cfg) == found_json(found), (text, budget)
            assert (found is None) == (budget < at) and drawn == min(at, budget)
        hit = decider._random_hit(compile_formulas([f]), logic, cfg)
        assert at > 64 and len(hit.rows[0]) > 1 and hit.world > 0
        model, world, value = found
        assert hit.table[hit.code] == value and f"w{hit.world + 1}" == world
        assert list(hit.rows[0]) == [int(model.pi[w] * 120) for w in model.worlds]


def test_a_search_draws_its_budget_once(monkeypatch):
    # a search on a cleared table draws just its budget, though 300 ends
    # inside a batch; the same search again, or a shorter one, draws
    # nothing; a longer one replays the 255 samples of the full batches
    # before the kept part of a batch and draws on, and keeps what it drew
    drawn = []
    draw = decider._draw
    monkeypatch.setattr(decider, "_draw", lambda rng, count, *args: drawn.append(count) or draw(rng, count, *args))
    f = parse("[](p -> q) -> []p -> []q")
    decider._STREAMS.clear()
    for budget, want in ((300, 300), (300, 0), (100, 0), (400, 400), (400, 0), (700, 700), (700, 0)):
        drawn.clear()
        assert hit_json(f, LogicId.KD45, SearchConfig("random", budget, 9)) is None
        assert sum(drawn) == want, (budget, drawn)
    assert kept_samples() == {next(iter(decider._STREAMS.entries)): 700}
    assert_streams_are_the_draws()
    # the first k samples of a kept batch are what k fresh draws give, and
    # what the oracle sampler gives
    (seed, most, *args), batches = next(iter(decider._STREAMS.entries.items()))
    rng = random.Random(seed)
    for data in batches:
        state = rng.getstate()
        for k in (1, (_samples(data) + 1) // 2, _samples(data)):
            rng.setstate(state)
            fresh = _pack(draw(rng, k, *args))
            rng.setstate(state)
            assert _pack(_unpack(data, k, 2)) == fresh == _pack(oracle_batch(rng, k, *args))
        rng.setstate(state)
        draw(rng, _samples(data), *args)
    # a search that hits still keeps what it drew: at seed 9 the first
    # countermodel is sample 165, inside the batch of samples 128 to 255, so
    # the budget-700 search draws and keeps 255 samples, and the same search
    # again draws none; a shorter search evaluates only its own part of
    # that kept batch
    rare = parse("(p <-> q) & (q <-> r) -> ~~p -> p")
    for budget, want in ((700, 255), (700, 0), (164, 0)):
        drawn.clear()
        cfg = SearchConfig("random", budget, 9)
        found, n = oracle_random_search(rare, LogicId.KD45, cfg)
        assert hit_json(rare, LogicId.KD45, cfg) == found_json(found)
        assert n == 165 if budget == 700 else found is None
        assert sum(drawn) == want, (budget, drawn)


def test_a_suspended_search_resumes_to_the_batches_of_an_uninterrupted_one(monkeypatch):
    # A search's batches come from a generator that holds its own batch list
    # and rng.  Suspend a search at each batch boundary in turn, run a longer
    # search on the same key to the end in the gap, so that it publishes a
    # longer stream, and resume: the search reads the batches of an
    # uninterrupted search, which are those of a fresh _draw sequence, and
    # returns the oracle's hit.  The table is cleared before the search, or
    # holds a shorter stream of the key that the search reads and then
    # replays.  Every budget ends inside a batch; the long formula's batches
    # stop at 238 samples.
    table = decider._STREAMS
    real = table.batches

    def search(f, logic, cfg, at=None):
        # the hit, the key and the batches read of one search; at batch at,
        # a longer search on the key runs to its end
        keys, read = [], []

        def batches(key, budget, draw):
            keys.append(key)
            with closing(real(key, budget, draw)) as stream:
                for i, frame in enumerate(stream):
                    if i == at:
                        for _ in real(key, 2 * budget + 1, draw):
                            pass
                    # a kept batch's frame holds bytes, a drawn one lists
                    read.append(_pack(frame))
                    yield frame

        monkeypatch.setattr(table, "batches", batches)
        found = hit_json(f, logic, cfg)
        monkeypatch.setattr(table, "batches", real)
        return found, keys[0], read

    rare = "(p <-> q) & (q <-> r) -> ~~p -> p"
    cases = [
        (parse(text), logic, SearchConfig("random", budget, seed))
        for text in ("[](p -> q) -> []p -> []q", rare, "<>(p & q) -> []p")
        for logic in LOGICS
        for budget, seed in ((5, 1), (100, 2), (300, 9))
    ]
    long = parse("~~r -> " * 40 + f"({rare})")
    cases += [(long, LogicId.K45, SearchConfig("random", 300, 0, 80)), (parse(rare), LogicId.KD45, SearchConfig("random", 700, 9))]
    seen = Counter()
    for f, logic, cfg in cases:
        table.clear()
        whole, key, uninterrupted = search(f, logic, cfg)
        assert whole == found_json(oracle_random_search(f, logic, cfg)[0]), (f, logic, cfg)
        # the batches as a fresh _draw sequence gives them
        seed, most, n_vars, *args = key
        rng = random.Random(seed)
        fresh = []
        left, size = cfg.budget, 1
        while left > 0:
            count = min(size, left)
            fresh.append(_pack(decider._draw(rng, count, n_vars, *args)))
            left -= count
            size = min(2 * size, most)
        assert uninterrupted == fresh[:len(uninterrupted)]
        assert whole is not None or len(uninterrupted) == len(fresh)
        for primed, at in product((0, cfg.budget // 3), range(len(uninterrupted))):
            table.clear()
            hit_json(f, logic, replace(cfg, budget=primed))
            assert search(f, logic, cfg, at) == (whole, key, uninterrupted), (f, logic, cfg, primed, at)
            assert_streams_are_the_draws()
            # the longer search's stream stays published
            assert kept_samples() == {key: 2 * cfg.budget + 1}
            seen["resumed" if at + 1 < len(uninterrupted) else "suspended at the last"] += 1
            seen["primed" if primed else "cleared"] += 1
    assert min(seen.values()) > 20, seen


def test_many_small_streams_stay_within_the_bound_in_memory():
    # a budget-1 search under its own seed keeps a stream of one sample, a
    # few dozen bytes, whose key, tuples and dict node cost ten times that:
    # the bound counts those too, so the memory the table holds stays
    # within _BATCH_VALUES
    f = parse("[](p -> q) -> []p -> []q")
    hit_json(f, LogicId.K45, SearchConfig("random", 1, 0))
    decider._STREAMS.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in range(2500):
            decider._random_hit(compile_formulas([f]), LogicId.K45, SearchConfig("random", 1, 1 << 40 | seed))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 1000 < len(kept_samples()) < 2500
    assert held <= decider._BATCH_VALUES, held


def test_the_stream_table_stays_within_its_bound(monkeypatch):
    # 25 variables at up to 100 worlds hold about 1300 bytes a sample, so an
    # 800-sample stream outgrows _BATCH_VALUES: its part past the bound is
    # drawn and not kept, and a second stream pushes it out
    wide = parse(" & ".join(f"p{i}" for i in range(25)) + " -> p0")
    decider._STREAMS.clear()
    assert hit_json(wide, LogicId.K45, SearchConfig("random", 800, 0, 100)) is None
    (first, kept), = kept_samples().items()
    assert first[0] == 0 and 0 < kept < 800
    assert hit_json(wide, LogicId.K45, SearchConfig("random", 300, 1, 100)) is None
    assert [key[0] for key in kept_samples()] == [1]
    # With a bound of 3000 bytes, streams of a few hundred samples are cut
    # and pushed out all the time; searches that read a cut stream, replay
    # it and draw on must still return what the oracle returns.
    monkeypatch.setattr(decider, "_BATCH_VALUES", 3000)
    monkeypatch.setattr(decider._STREAMS, "bound", 3000)
    decider._STREAMS.clear()
    rng = random.Random(61)
    rare = parse("(p <-> q) & (q <-> r) -> ~~p -> p")
    k_axiom = parse("[](p -> q) -> []p -> []r -> []q")
    seen = set()
    past = 0
    for i in range(90):
        f = (random_formula(rng, ("p", "q", "r"), depth=3), rare, k_axiom)[i % 3]
        cfg = SearchConfig("random", (100, 700, 300)[i % 3], i // 9)
        logic = LOGICS[i % 3]
        found = hit_json(f, logic, cfg)
        assert found == found_json(oracle_random_search(f, logic, cfg)[0]), (f, logic, cfg)
        kept = kept_samples()
        seen |= kept.keys()
        # the search's key is the last used; with no hit it read its budget
        past += found is None and kept[next(reversed(kept))] < cfg.budget
    assert_streams_are_the_draws()
    assert past > 10 and len(seen) > len(decider._STREAMS.entries), (past, len(seen))


def test_threads_sharing_a_stream_get_the_serial_hits():
    # four threads run one key's searches at once, each in its own order, on
    # a cleared table: each search returns what it returns serially.  The
    # theorems read their whole budgets, so threads extend the stream at once.
    rng = random.Random(59)
    formulas = [parse(text) for text in ("[](p -> q) -> []p -> []q", "<>(p & q) -> <>p", "p & q -> q & p")]
    while len(formulas) < 8:
        f = random_formula(rng, ("p", "q"), depth=3)
        if len(variables(f)) == 2 and bound_for(f) > 10:
            formulas.append(f)
    budgets = (1, 10, 100, 300, 700, 1500)
    cases = [(f, LogicId.KD45, SearchConfig("random", budget, 5)) for f in formulas for budget in budgets]
    decider._STREAMS.clear()
    serial = {i: hit_json(*case) for i, case in enumerate(cases)}
    assert len(decider._STREAMS.entries) == 1
    assert sum(hit is not None for hit in serial.values()) > 4
    got = [None] * 4

    def run(t):
        order = list(serial)
        random.Random(t).shuffle(order)
        barrier.wait()
        got[t] = {i: hit_json(*cases[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            decider._STREAMS.clear()
            barrier = threading.Barrier(4)
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [serial] * 4
            assert_streams_are_the_draws()
    finally:
        sys.setswitchinterval(interval)


def test_truth_sets_larger_than_the_grid_stop_at_its_interior_values():
    # the grid holds 19 interior values, so |T| = 40 cannot be drawn; the
    # search must end, and still draw what the sample-by-sample oracle draws
    f = parse(" & ".join(f"p{i}" for i in range(30)) + " -> p0")
    cfg = SearchConfig("random", 50, 0, None, 40)
    assert random_search(f, LogicId.K45, cfg) is None
    assert oracle_random_search(f, LogicId.K45, cfg) == (None, 50)
    ours, theirs = random.Random(0), random.Random(0)
    model = random_pigf_model(ours, 2, 40, ("p",), LogicId.K45)
    rows, anchors = oracle_sample(theirs, 2, 40, 1, LogicId.K45)
    assert model_to_json(model) == model_to_json(_materialize(("p",), rows, anchors, 120, 120))
    assert len(model.truth_set) == 21


def test_random_pigf_model_draws_like_the_oracle_sampler():
    # same model and same rng state afterwards, so callers that draw more
    # from rng see the same stream
    for seed in range(300):
        logic = LOGICS[seed % 3]
        n_worlds, n_truth = 1 + seed % 5, 2 + seed // 5 % 5
        names = ("p", "q", "r")[: seed // 25 % 4]
        ours, theirs = random.Random(seed), random.Random(seed)
        model = random_pigf_model(ours, n_worlds, n_truth, names, logic)
        rows, anchors = oracle_sample(theirs, n_worlds, n_truth, len(names), logic)
        assert model_to_json(model) == model_to_json(_materialize(names, rows, anchors, 120, 120))
        assert ours.random() == theirs.random()
    # a world count above 255 does not fit the codes' bytes
    model = random_pigf_model(random.Random(1), 300, 4, ("p",), LogicId.KD45)
    rows, anchors = oracle_sample(random.Random(1), 300, 4, 1, LogicId.KD45)
    assert model_to_json(model) == model_to_json(_materialize(("p",), rows, anchors, 120, 120))
    # no world, or a truth set without both 0 and 1
    for n_worlds, n_truth in ((0, 2), (1, 1), (1, 0)):
        with pytest.raises(ValueError):
            random_pigf_model(random.Random(0), n_worlds, n_truth, ("p",), LogicId.KD45)


def test_hits_decode_as_the_grid_rule_decodes():
    # A hit decodes through its table.  The grid rule it replaced (code 0 is
    # 0, the top code 1, an interior code c is c / k_grid) must build the same
    # model and value, on the random search's 1/120 grid and on the sweep's
    # 1/k_grid with k_grid = |W| * (1 + #variables) + |T|, before and after
    # shrinking.
    rng = random.Random(23)
    seen = Counter()
    for i in range(300):
        logic = LOGICS[i % 3]
        f = random_formula(rng, ("p", "q")[: i // 3 % 3], depth=rng.randint(1, 3))
        compiled = compile_formulas([f])
        hits = [
            decider._random_hit(compiled, logic, SearchConfig("random", 30, i)),
            decider._exhaustive(compiled, logic, SearchConfig("exhaustive", max_worlds=2, max_truth=3)),
        ]
        for hit in hits:
            if not isinstance(hit, decider._Hit):
                continue
            top = k_grid = 120
            if hit.swept:
                top = len(hit.table) - 1
                k_grid = len(hit.rows[0]) * (1 + len(hit.names)) + len(hit.truth)
            for h in (hit, decider._shrunk(compiled, hit, logic)):
                got = decider._refuted(compiled, h)
                # the grid rule reads code rows: pi, then one code per variable
                rows = list(zip(*h.rows, *h.columns))
                model = _materialize(h.names, rows, h.truth[1:-1], top, k_grid, h.worlds)
                assert model_to_json(got.countermodel) == model_to_json(model), (f, logic)
                assert (got.world, got.value) == (model.worlds[h.world], _decode(h.code, top, k_grid))
                seen["swept" if hit.swept else "random"] += 1
                seen["interior"] += any(0 < c < top for row in rows for c in row)
                seen["interior value"] += 0 < h.code
    assert min(seen.values()) > 20 and len(seen) == 4, seen


# -- grid coverage: arbitrary rational refutations are caught under the same caps -------


def test_decide_catches_random_refutations():
    rng = random.Random(1234)
    caught = 0
    while caught < 60:
        f = random_formula_bounded(rng, max_ell=8)
        model = random_pigf(rng, rng.randint(1, 2), max_interior=1)
        hit = first_refutation(model, f)
        if hit is None:
            continue
        caught += 1
        verdict = decide(
            f,
            LogicId.K45,
            SearchConfig(
                mode="exhaustive",
                max_worlds=len(model.worlds),
                max_truth=len(model.truth_set),
            ),
        )
        assert isinstance(verdict, Refuted), f"missed refutation of {f}"
        assert eval_pigf(verdict.countermodel, verdict.world, f) == verdict.value < ONE


# -- countermodels under the relational semantics ---------------------------------


def test_embedded_countermodels_under_the_relational_semantics():
    # embed_pig of every Refuted countermodel, evaluated by the rank-coded
    # relational path, must agree with the rank-coded possibilistic one at
    # every world.  eval_rel evaluates exactly, while a verdict's value is
    # rounded into the countermodel's truth set, so the refuting world has
    # the verdict's value under eval_rel wherever the truth set rounds no
    # subformula's value.  Elsewhere it need not: p -> []p at one world with
    # pi = 1, p = 1/4 and T = {0, 1} is refuted with value 0, and eval_rel
    # gives 1; those countermodels are counted, and the relational oracle
    # that rounds box values down and diamond values up into T gives the
    # verdict's value there.
    rng = random.Random(4545)
    kinds = Counter()
    for i in range(1500):
        f = random_formula_bounded(rng, max_ell=6)
        logic = rng.choice(list(LogicId))
        cfg = SearchConfig(mode=("exhaustive", "random", "hybrid")[i % 3], budget=200, seed=i)
        verdict = decide(f, logic, cfg)
        if not isinstance(verdict, Refuted):
            continue
        model = verdict.countermodel
        relational = embed_pig(model.base)
        exact = evaluate(relational, f)
        assert exact == evaluate(model.base, f), (f, model)
        value = exact[model.worlds.index(verdict.world)]
        kinds[logic.value] += 1
        if all(evaluate(model, g) == evaluate(model.base, g) for g in subformulas(f)):
            kinds["unrounded"] += 1
            assert value == verdict.value < ONE, (f, logic, model, verdict.world)
        else:
            kinds["rounded"] += 1
            kinds["other value"] += value != verdict.value
            kinds["not refuting"] += value == ONE
            truth = sorted(model.truth_set)
            rounded = oracle_eval(model.worlds, relational.rel, relational.valuation, verdict.world, f, truth=truth)
            assert rounded == verdict.value, (f, logic, model, verdict.world)
    print(dict(kinds))
    assert min(kinds[logic.value] for logic in LogicId) >= 200, kinds
    assert kinds["unrounded"] >= 500 and kinds["rounded"] >= 20, kinds


def test_no_relational_frame_of_the_logic_refutes_a_valid_verdict():
    # The paper's K45-like logics are those of many-valued relational frames
    # that are transitive and euclidean (and serial for KD45; S5 here takes
    # R = 1), so a formula that such a frame refutes at some world is no
    # theorem, and the exhaustive decision must not call it valid.  R and
    # the valuation mostly take 0 and 1, so that frames of 3 and 4 worlds
    # pass the frame check, and otherwise lie on the quarter grid or off it.
    rng = random.Random(2203)
    grids = (lambda rng: Fraction(rng.randint(1, 3), 4), lambda rng: Fraction(rng.randint(1, 11), 12))

    def value(rng: random.Random, grid) -> Fraction:
        roll = rng.random()
        return ZERO if roll < 0.6 else ONE if roll < 0.8 else grid(rng)

    decided = {}
    kinds = Counter()
    for logic, frames in ((LogicId.K45, 500), (LogicId.KD45, 500), (LogicId.S5, 250)):
        while kinds[logic.value] < frames:
            grid = rng.choice(grids)
            # larger frames pass the frame check less often, so they are drawn more
            n_worlds = rng.choice((1, 2, 3, 3, 4, 4, 4, 4))
            model = random_relational(rng, n_worlds, value=lambda rng: value(rng, grid), distinct_rows=False)
            worlds = model.worlds
            if logic is LogicId.S5:
                model = RelationalModel(worlds, {w: {v: ONE for v in worlds} for w in worlds}, model.valuation)
            report = frame_report(model)
            if not (report.transitive and report.euclidean and (report.serial or logic is not LogicId.KD45)):
                continue
            kinds[logic.value] += 1
            kinds[f"{n_worlds} worlds"] += logic is not LogicId.S5
            unequal = len({tuple(model.rel(w, v) for v in worlds) for w in worlds}) > 1
            for _ in range(4):
                f = random_formula_bounded(rng, max_ell=6)
                least = min(eval_rel(model, w, f) for w in worlds)
                if least == ONE:
                    continue
                if (f, logic) not in decided:
                    decided[f, logic] = decide(f, logic, SearchConfig("exhaustive"))
                assert not isinstance(decided[f, logic], Valid), (f, logic, model)
                kinds["refutations"] += 1
                kinds["interior value"] += least > ZERO
                kinds["unequal rows"] += unequal
    print(dict(kinds))
    assert kinds["refutations"] >= 3000, kinds
    assert kinds["interior value"] >= 400 and kinds["unequal rows"] >= 500, kinds
    # K45 and KD45 frames of 3 and 4 worlds, rare under independent entries
    assert kinds["3 worlds"] >= 40 and kinds["4 worlds"] >= 8, kinds


# -- shrinking ------------------------------------------------------------------------


def test_shrink_reaches_single_world_for_known_formula():
    verdict = decide(DNEG, LogicId.K45, SearchConfig(mode="hybrid", budget=5000, seed=0))
    assert isinstance(verdict, Refuted)
    small, world = shrink(verdict.countermodel, verdict.world, DNEG, LogicId.K45)
    assert len(small.worlds) == 1
    assert len(small.truth_set) == 2
    assert eval_pigf(small, world, DNEG) < ONE


def test_shrink_requires_a_countermodel():
    model = PiGFModel(PiGModel(["a"], {"a": ONE}, {"a": {"p": ONE}}), TruthSet([ZERO, ONE]))
    with pytest.raises(ValueError):
        shrink(model, "a", parse("p"), LogicId.K45)


def test_shrink_requires_a_truth_set():
    pig = PiGModel(["a"], {"a": ONE}, {"a": {"p": ZERO}})
    for model in (pig, embed_pig(pig)):
        with pytest.raises(TypeError, match="PiGFModel"):
            shrink(model, "a", parse("p"), LogicId.K45)


def sparse_or_wider(rng, model: PiGFModel) -> PiGFModel:
    """The model with some valuation entries and rows dropped, or with a
    variable r that random formulas over p, q never mention."""
    base = model.base
    valuation = {w: dict(row) for w, row in base.valuation.items()}
    if rng.random() < 0.5:
        for w in list(valuation):
            for p in [p for p in valuation[w] if rng.random() < 0.4]:
                del valuation[w][p]
            if rng.random() < 0.2:
                del valuation[w]
    else:
        for row in valuation.values():
            row["r"] = rng.choice([ZERO, ONE, Fraction(1, 3), Fraction(5, 8)])
    return PiGFModel(PiGModel(base.worlds, base.pi, valuation), model.truth_set)


def test_shrink_never_grows_and_preserves_everything():
    rng = random.Random(777)
    done = 0
    while done < 160:
        f = random_formula_bounded(rng, max_ell=8)
        model = random_pigf(rng, rng.randint(1, 4))
        if done >= 80:
            model = sparse_or_wider(rng, model)
        hit = first_refutation(model, f)
        if hit is None:
            continue
        done += 1
        world, _ = hit
        small, anchor = shrink(model, world, f, LogicId.K45)
        assert eval_pigf(small, anchor, f) < ONE
        assert len(small.worlds) <= len(model.worlds)
        assert len(small.truth_set) <= len(model.truth_set)
        assert set(small.worlds) <= set(model.worlds)
        allowed = {ZERO, ONE, *model.truth_set, *model.pi.values()}
        for w in model.worlds:
            allowed.update(model.base.valuation.get(w, {}).values())
        assert set(small.truth_set) <= set(model.truth_set)
        for w in small.worlds:
            row = small.base.valuation.get(w, {})
            assert set(row) <= set(model.base.valuation.get(w, {}))
            assert small.pi[w] in allowed
            assert set(row.values()) <= allowed


def test_shrink_keeps_logic_constraint():
    rng = random.Random(888)
    for logic in (LogicId.KD45, LogicId.S5):
        done = 0
        while done < 30:
            f = random_formula_bounded(rng, max_ell=8)
            model = random_pigf(rng, rng.randint(1, 3))
            if logic is LogicId.S5:
                pi = {w: ONE for w in model.worlds}
                model = PiGFModel(PiGModel(model.worlds, pi, model.base.valuation), model.truth_set)
            if not is_normalized(model.base):
                continue
            hit = first_refutation(model, f)
            if hit is None:
                continue
            done += 1
            small, anchor = shrink(model, hit[0], f, logic)
            assert is_normalized(small.base)
            if logic is LogicId.S5:
                assert all(small.pi[w] == ONE for w in small.worlds)
            assert eval_pigf(small, anchor, f) < ONE


def test_shrink_matches_the_exact_model_oracle():
    # shrink encodes an exact model as rank codes for the code-level core.
    # Off-grid values, a variable r that formulas over p, q never read,
    # partial valuation rows and worlds without one must all come out as
    # the exact shrink left them, from a refuting world that need not be
    # the first.
    rng = random.Random(999)
    values = [ZERO, ONE, Fraction(1, 7), Fraction(3, 11), Fraction(5, 13), Fraction(2, 3)]
    kinds = Counter()
    while kinds["models"] < 300:
        logic = rng.choice(list(LogicId))
        f = random_formula_bounded(rng, max_ell=8)
        worlds = [f"u{i}" for i in range(rng.randint(1, 4))]
        pi = {w: ONE if logic is LogicId.S5 else rng.choice(values) for w in worlds}
        if logic is LogicId.KD45:
            pi[rng.choice(worlds)] = ONE
        valuation = {
            w: {p: rng.choice(values) for p in ("p", "q", "r") if rng.random() < 0.8}
            for w in worlds
            if rng.random() < 0.85
        }
        truth = TruthSet([ZERO, ONE, *rng.sample(values[2:], rng.randint(0, 3))])
        model = PiGFModel(PiGModel(worlds, pi, valuation), truth)
        refuting = [w for w in worlds if eval_pigf(model, w, f) < ONE]
        if not refuting:
            continue
        world = rng.choice(refuting)
        assert shrink(model, world, f, logic) == oracle_shrink(model, world, f, logic), (f, model, world)
        kinds["models"] += 1
        kinds["rowless"] += len(valuation) < len(worlds)
        kinds["unread r"] += any("r" in row for row in valuation.values())
        kinds["not first"] += world != refuting[0]
    print(dict(kinds))
    assert min(kinds.values()) >= 50, kinds


def test_shrink_snaps_an_unread_variable_and_moves_the_anchor():
    # In S5 both worlds refute <>p -> []p with value 0, and no world can go
    # and no value can snap except r, which the formula never reads.  That
    # snap is the one accepted evaluation, so it alone moves the anchor from
    # the given world u1 to the first refuting one.  A shrink that skipped
    # unread variables would return u1; random models almost never tell.
    model = PiGFModel(
        PiGModel(
            ["u0", "u1"],
            {"u0": ONE, "u1": ONE},
            {"u0": {"p": ONE, "r": Fraction(1, 3)}, "u1": {"p": ZERO}},
        ),
        TruthSet([ZERO, ONE]),
    )
    f = parse("<>p -> []p")
    small, anchor = shrink(model, "u1", f, LogicId.S5)
    assert anchor == "u0"
    assert small.worlds == ("u0", "u1")
    assert small.base.valuation == {"u0": {"p": ONE, "r": ZERO}, "u1": {"p": ZERO}}
    assert small.truth_set == model.truth_set
    assert (small, anchor) == oracle_shrink(model, "u1", f, LogicId.S5)



def test_shrink_codes_match_the_shrink_that_evaluated_unread_snaps():
    # A snap of a column that no var op reads is kept without an evaluation,
    # and one evaluation at the end names the first refuting world.  The
    # shrunk _Hit, every kept world's codes included, must be what the
    # shrink that evaluated each such snap gave.  Each model has 1-3 unread
    # columns and starts from a refuting world that is not the first, which
    # only an accepted evaluation moves; random models almost never leave
    # that to the final evaluation alone, which
    # test_shrink_snaps_an_unread_variable_and_moves_the_anchor pins.
    rng = random.Random(2121)
    kinds = Counter()
    while kinds["models"] < 400:
        logic = rng.choice(list(LogicId))
        f = random_formula_bounded(rng, max_ell=8)
        compiled = compile_formulas([f])
        ops, (root,), names = compiled
        top = rng.randint(2, 6)
        width = 1 + len(names) + rng.randint(1, 3)
        rows = [[rng.randint(0, top) for _ in range(width)] for _ in range(rng.randint(2, 4))]
        for row in rows if logic is LogicId.S5 else rng.sample(rows, logic is LogicId.KD45):
            row[0] = top
        truth = sorted({0, top, *rng.sample(range(1, top), rng.randint(0, top - 1))})
        pi, *columns = [list(column) for column in zip(*rows)]
        values = evaluate_compiled(ops, columns, ([pi], truth), top)[root]
        refuting = [w for w, v in enumerate(values) if v < top]
        if len(refuting) < 2:
            continue
        anchor = rng.choice(refuting[1:])
        # the package shrinks a _Hit, the oracle snaps code rows in place
        unread = [f"u{i}" for i in range(width - 1 - len(names))]
        hit = decider._Hit(None, (*names, *unread), [pi], columns, truth, _grid(top), anchor, values[anchor])
        got = decider._shrunk(compiled, hit, logic)
        want_rows = [list(row) for row in rows]
        live, want_truth, want_anchor, want_code = oracle_shrink_codes(
            ops, root, want_rows, list(truth), top, logic, anchor, values[anchor]
        )
        kept = [list(column) for column in zip(*(want_rows[w] for w in live))]
        want = replace(
            hit, worlds=[f"w{w + 1}" for w in live], rows=kept[:1], columns=kept[1:],
            truth=want_truth, world=live.index(want_anchor), code=want_code,
        )
        assert got == want, (f, logic, rows, truth, anchor)
        kinds["models"] += 1
        kinds["unread snapped"] += any(
            rows[w][i] != column[j]
            for i, column in enumerate(got.columns[len(names):], 1 + len(names))
            for j, w in enumerate(live)
        )
        kinds["anchor moved"] += want_anchor != anchor
        kinds["anchor kept"] += want_anchor == anchor
    print(dict(kinds))
    assert min(kinds.values()) >= 20, kinds


def test_shrink_evaluates_unread_snaps_at_most_once(monkeypatch):
    # A snap of a variable the formula never reads takes no evaluation and
    # no further pass; the snaps may add the one evaluation that names the
    # first refuting world.  p -> q on three worlds took 8 evaluations, and
    # 11 with three unread variables.  In the S5 model of
    # test_shrink_snaps_an_unread_variable_and_moves_the_anchor nothing else
    # is accepted, so a pass marked as changed by the snaps alone would
    # cost a second pass.  The result stays the exact shrink's.
    calls = one_model_evaluations(monkeypatch)
    third = Fraction(1, 3)
    cases = [
        (
            "p -> q", LogicId.K45, "w3", [ZERO, HALF, ONE],
            {"w1": third, "w2": ONE, "w3": HALF},
            {"w1": {"p": ONE, "q": ZERO}, "w2": {"p": ONE, "q": 2 * third}, "w3": {"p": 2 * third, "q": HALF}},
        ),
        ("<>p -> []p", LogicId.S5, "u1", [ZERO, ONE], {"u0": ONE, "u1": ONE}, {"u0": {"p": ONE}, "u1": {"p": ZERO}}),
    ]
    counts = []
    for text, logic, world, truth, pi, valuation in cases:
        f = parse(text)
        for unread in ({}, {"r": third, "s": HALF, "t": 2 * third}):
            rows = {w: dict(row, **unread) for w, row in valuation.items()}
            model = PiGFModel(PiGModel(list(pi), pi, rows), TruthSet(truth))
            calls.clear()
            assert shrink(model, world, f, logic) == oracle_shrink(model, world, f, logic)
            counts.append(len(calls))
    assert counts == [8, 9, 3, 4]


# -- verdict serialization ---------------------------------------------------------------


def test_verdict_json_shapes():
    valid = verdict_to_json(Valid(10, 4916))
    assert valid == {"verdict": "valid", "bound": 10, "models_checked": 4916}

    refuted = decide(DNEG, LogicId.K45, SearchConfig(mode="exhaustive"))
    doc = verdict_to_json(refuted)
    assert doc["verdict"] == "refuted"
    assert doc["world"] == "w1"
    assert doc["value"] == "0"
    assert doc["model"]["pi"] == {"w1": "1"}
    assert doc["model"]["valuation"] == {"w1": {"p": "1/4"}}
    assert doc["model"]["truth_set"] == ["0", "1"]

    unknown = verdict_to_json(Unknown("budget exhausted", 50))
    assert unknown == {"verdict": "unknown", "budget": 50}
