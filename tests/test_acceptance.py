"""End-to-end acceptance checks.

Each check exercises one headline behaviour of the package at full scale and
prints a single summary line:

    criterion  7 PASS    3.41s (limit 120s)  filtration bound and agreement ...

PASS lines of passing tests are shown by the ``-rP`` report option configured
in pyproject.toml; a failed assertion inside the block prints a FAIL line,
which pytest shows in the failure's captured output.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from godelmodal import (
    ONE,
    ZERO,
    LogicId,
    Refuted,
    SearchConfig,
    Unknown,
    Valid,
    apply_embedding,
    bound_for,
    corpus,
    decide,
    embed_pig,
    eval_pig,
    eval_pigf,
    filtrate,
    frame_report,
    is_normalized,
    parse,
    random_pigf_model,
    random_search,
    shrink,
    subformulas,
    transport,
)
from godelmodal.cli import run
from helpers import (
    classical_eval,
    random_fixing_embedding,
    random_formula_bounded,
    random_pig,
    random_pigf,
)

DNEG = parse("[]~~p -> ~~[]p")
BOT_FORMULA = parse("0")


def _emit(line: str) -> None:
    print(line, flush=True)


@contextmanager
def criterion(num: int, limit: float, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        _emit(f"criterion {num:2d} FAIL  {elapsed:7.2f}s (limit {limit:.0f}s)  {description}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= limit:
        _emit(f"criterion {num:2d} FAIL  {elapsed:7.2f}s (limit {limit:.0f}s)  {description}")
        raise AssertionError(f"criterion {num} took {elapsed:.2f}s, limit {limit}s")
    _emit(f"criterion {num:2d} PASS  {elapsed:7.2f}s (limit {limit:.0f}s)  {description}")


def test_criterion_01_single_world_counterexample_quadruple(capsys, tmp_path):
    with criterion(1, 1.0, "known one-world model: the four reference values via the CLI"):
        path = tmp_path / "m0.json"
        path.write_text(
            json.dumps(
                {
                    "worlds": ["a"],
                    "pi": {"a": "1"},
                    "valuation": {"a": {"p": "1/2"}},
                    "truth_set": ["0", "1"],
                }
            )
        )
        expected = {"[]~~p": "1", "[]p": "0", "~~[]p": "0", "[]~~p -> ~~[]p": "0"}
        for text, value in expected.items():
            code = run(["eval", "--model", str(path), "--world", "a", text])
            out = capsys.readouterr().out
            assert code == 0, text
            assert out == value + "\n", text


def test_criterion_02_hybrid_refutation_and_shrinking():
    with criterion(2, 10.0, "hybrid search refutes the box/double-negation shift; shrink reaches 1 world"):
        verdict = decide(DNEG, LogicId.K45, SearchConfig(mode="hybrid"))
        assert isinstance(verdict, Refuted)
        assert eval_pigf(verdict.countermodel, verdict.world, DNEG) == verdict.value < ONE
        small, world = shrink(verdict.countermodel, verdict.world, DNEG, LogicId.K45)
        assert len(small.worlds) == 1
        assert len(small.truth_set) == 2
        assert eval_pigf(small, world, DNEG) < ONE


def test_criterion_03_no_unrounded_countermodel_in_random_sweep():
    with criterion(3, 60.0, "10^4 random unrounded models never refute the same formula"):
        rng = random.Random(0)
        for _ in range(10_000):
            m = random_pigf_model(rng, rng.randint(1, 5), 2, ("p",), LogicId.K45).base
            for w in m.worlds:
                assert eval_pig(m, w, DNEG) == ONE


def test_criterion_04_corpus_soundness_sweep():
    with criterion(4, 300.0, "all named schemes of the three logics survive 10^4-model searches"):
        cfg = SearchConfig(mode="random", budget=10_000, seed=0)
        k45 = corpus(LogicId.K45)
        names = {name for name, _ in k45}
        assert len(k45) >= 20
        for wanted in [
            "K_□", "K_◇", "F_□", "P", "FS2", "4_□", "4_◇", "5_□", "5_◇",
            "T1", "T2", "T3", "T4", "T5",
            "F_◇□", "U_◇", "U_□", "T4_□", "T4_◇", "Sk_◇", "T4'_◇", "G45",
        ]:
            assert wanted in names, wanted
        for logic in (LogicId.K45, LogicId.KD45, LogicId.S5):
            for name, formula in corpus(logic):
                found = random_search(formula, logic, cfg)
                assert found is None, f"{logic.value} scheme {name} was refuted: {found}"


def test_criterion_05_seriality_axiom_separation():
    with criterion(5, 20.0, "diamond-top: refuted without seriality, exhaustively valid with it"):
        dtop = parse("<>top")
        t0 = time.perf_counter()
        without = decide(dtop, LogicId.K45, SearchConfig(mode="exhaustive"))
        assert time.perf_counter() - t0 < 10.0
        assert isinstance(without, Refuted)
        assert without.countermodel.worlds == ("w1",)
        assert without.countermodel.pi["w1"] == ZERO
        assert list(without.countermodel.truth_set) == [ZERO, ONE]

        t0 = time.perf_counter()
        with_d = decide(dtop, LogicId.KD45, SearchConfig(mode="exhaustive"))
        assert time.perf_counter() - t0 < 10.0
        assert isinstance(with_d, Valid)


def test_criterion_06_reflexivity_axiom_separation():
    with criterion(6, 60.0, "box-p implies p: refuted on serial models, survives universal-model search"):
        t_axiom = parse("[]p -> p")
        kd45 = decide(t_axiom, LogicId.KD45, SearchConfig(mode="hybrid"))
        assert isinstance(kd45, Refuted)
        assert is_normalized(kd45.countermodel.base)
        assert eval_pigf(kd45.countermodel, kd45.world, t_axiom) == kd45.value < ONE

        s5 = random_search(t_axiom, LogicId.S5, SearchConfig(mode="random", budget=10_000, seed=0))
        assert s5 is None


def test_criterion_07_filtration_bound_and_agreement():
    with criterion(7, 120.0, "filtration: size bound and exact fragment agreement on 1000 random models"):
        rng = random.Random(7)
        for _ in range(1000):
            m = random_pig(rng, rng.randint(1, 5))
            f = random_formula_bounded(rng, max_ell=8)
            while f == BOT_FORMULA:
                f = random_formula_bounded(rng, max_ell=8)
            sigma = subformulas(f)
            x = rng.choice(m.worlds)
            small = filtrate(m, sigma, x)
            assert len(small.worlds) + len(small.truth_set) <= 2 * len(sigma)
            for g in sigma:
                assert eval_pigf(small, x, g) == eval_pig(m, x, g)


def test_criterion_08_transport_through_order_embeddings():
    with criterion(8, 120.0, "evaluation commutes with truth-set-fixing embeddings on 1000 random triples"):
        rng = random.Random(8)
        for _ in range(1000):
            m = random_pigf(rng, rng.randint(1, 4))
            h = random_fixing_embedding(rng, m.truth_set)
            f = random_formula_bounded(rng, max_ell=8)
            x = rng.choice(m.worlds)
            assert eval_pigf(transport(m, h), x, f) == apply_embedding(h, eval_pigf(m, x, f))


def test_criterion_09_frame_properties_of_possibilistic_models():
    with criterion(9, 30.0, "1000 random models: always transitive+euclidean, serial iff normalized"):
        rng = random.Random(9)
        for _ in range(1000):
            m = random_pig(rng, rng.randint(1, 5))
            report = frame_report(embed_pig(m))
            assert report.transitive
            assert report.euclidean
            assert report.serial == is_normalized(m)


def test_criterion_10_crisp_collapse_to_classical_semantics():
    with criterion(10, 60.0, "crisp normalized models agree with a two-valued oracle on 500 runs"):
        rng = random.Random(10)
        for _ in range(500):
            m = random_pig(rng, rng.randint(1, 4), normalized=True, crisp=True)
            f = random_formula_bounded(rng, max_ell=8)
            accessible = [w for w in m.worlds if m.pi[w] == ONE]
            valuation = {
                w: {p: m.value(w, p) == ONE for p in ("p", "q")} for w in m.worlds
            }
            for w in m.worlds:
                got = eval_pig(m, w, f)
                assert got in (ZERO, ONE)
                assert (got == ONE) == classical_eval(m.worlds, accessible, valuation, w, f)


def test_criterion_11_grid_enumeration_catches_every_refutation():
    with criterion(11, 300.0, "decide refutes whatever 1000 random rational models refute, same caps"):
        rng = random.Random(11)
        caught = 0
        while caught < 1000:
            f = random_formula_bounded(rng, max_ell=8)
            model = random_pigf(rng, rng.randint(1, 2), max_interior=1)
            refuting = None
            for w in model.worlds:
                v = eval_pigf(model, w, f)
                if v < ONE:
                    refuting = (w, v)
                    break
            if refuting is None:
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
            assert isinstance(verdict, Refuted), f"missed a refutation of {f}"
            assert eval_pigf(verdict.countermodel, verdict.world, f) == verdict.value < ONE


def test_criterion_12_uncapped_exhaustive_certifies_corpus():
    with criterion(12, 60.0, "uncapped exhaustive mode certifies every named scheme of the three logics"):
        schemes = [(logic, name, f) for logic in LogicId for name, f in corpus(logic)]
        assert len(schemes) == 70
        for logic, name, f in schemes:
            verdict = decide(f, logic, SearchConfig(mode="exhaustive"))
            assert isinstance(verdict, Valid), f"{logic.value} scheme {name}: {verdict}"
            assert verdict.bound_used == bound_for(f)
