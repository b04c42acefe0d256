import copy
import gc
import io
import json
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelmodal import LogicId, RelationalModel, SearchConfig, decider, model_to_json, parse, render, semantics, syntax
from godelmodal import cli
from godelmodal.cli import run
from godelmodal.syntax import compile_formulas
from helpers import (
    oracle_countermodel,
    oracle_frame_report,
    random_formula_bounded,
    random_sparse_relational,
)

M0_DOC = {
    "worlds": ["a"],
    "pi": {"a": "1"},
    "valuation": {"a": {"p": "1/2"}},
    "truth_set": ["0", "1"],
}


@pytest.fixture()
def m0_path(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(M0_DOC))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval -----------------------------------------------------------------------


def test_eval_single_world(capsys, m0_path):
    code, out, err = invoke(capsys, "eval", "--model", m0_path, "--world", "a", "[]p")
    assert (code, out) == (0, "0\n")


def test_eval_counterexample_quadruple(capsys, m0_path):
    expected = {"[]~~p": "1", "[]p": "0", "~~[]p": "0", "[]~~p -> ~~[]p": "0"}
    for text, value in expected.items():
        code, out, err = invoke(capsys, "eval", "--model", m0_path, "--world", "a", text)
        assert (code, out) == (0, value + "\n"), text


def test_eval_world_table(capsys, tmp_path):
    doc = {"worlds": ["a", "b"], "pi": {"a": "1", "b": "1/2"}, "valuation": {"a": {"p": "1/4"}, "b": {"p": "3/4"}}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "eval", "--model", str(path), "p")
    assert code == 0
    assert out == "a\t1/4\nb\t3/4\n"


def test_eval_relational_model(capsys, tmp_path):
    doc = {"worlds": ["a", "b"], "R": {"a": {"b": "1"}}, "valuation": {"b": {"p": "1/3"}}}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "eval", "--model", str(path), "--world", "a", "<>p")
    assert (code, out) == (0, "1/3\n")
    code, out, err = invoke(capsys, "eval", "--model", str(path), "--world", "b", "[]p")
    assert (code, out) == (0, "1\n")


def test_eval_world_table_matches_per_world_output(capsys, tmp_path):
    rel = {
        "worlds": ["a", "b", "c"],
        "R": {"a": {"b": "1", "c": "1/3"}, "b": {"a": "1/2"}, "c": {"c": "1", "a": "2/3"}},
        "valuation": {"a": {"p": "1/4", "q": "1"}, "b": {"p": "3/4"}, "c": {"q": "1/2"}},
    }
    rounded = {
        "worlds": ["u", "v", "x"],
        "pi": {"u": "1", "v": "1/2", "x": "1/5"},
        "valuation": {"u": {"p": "1/3"}, "v": {"p": "2/3", "q": "1/6"}, "x": {"q": "1"}},
        "truth_set": ["0", "1/4", "3/4", "1"],
    }
    for name, doc in (("rel", rel), ("rounded", rounded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for text in ("[](p -> <>q) & (<>p | ~[]q)", "<>p -> []q", "p"):
            code, table, err = invoke(capsys, "eval", "--model", str(path), text)
            assert code == 0
            rows = []
            for world in doc["worlds"]:
                code, out, err = invoke(capsys, "eval", "--model", str(path), "--world", world, text)
                assert code == 0
                rows.append(f"{world}\t{out}")
            assert table == "".join(rows), (name, text)
        code, out, err = invoke(capsys, "eval", "--model", str(path), "--world", "zz", "p")
        assert (code, out) == (3, "")
        assert err == "error: unknown world 'zz'\n"


# -- check ----------------------------------------------------------------------


def test_check_refuted_exact_output(capsys):
    code, out, err = invoke(
        capsys, "check", "--logic", "k45", "--mode", "exhaustive", "[]~~p -> ~~[]p"
    )
    assert code == 1
    assert out == (
        '{"model":{"pi":{"w1":"1"},"truth_set":["0","1"],'
        '"valuation":{"w1":{"p":"1/4"}},"worlds":["w1"]},'
        '"value":"0","verdict":"refuted","world":"w1"}\n'
    )


def test_check_valid_exact_output(capsys):
    code, out, err = invoke(capsys, "check", "--logic", "kd45", "--mode", "exhaustive", "<>top")
    assert code == 0
    assert out == '{"bound":10,"models_checked":3,"verdict":"valid"}\n'


def test_check_unknown_on_random_budget(capsys):
    code, out, err = invoke(
        capsys, "check", "--logic", "k45", "--mode", "random", "--budget", "50", "p -> p"
    )
    assert code == 2
    assert out == '{"budget":50,"verdict":"unknown"}\n'


def test_check_random_countermodel_exact_output(capsys):
    # pins the sampler: interior truth set anchors and the KD45 normal world
    code, out, err = invoke(
        capsys, "check", "--logic", "kd45", "--mode", "random", "--seed", "3",
        "--budget", "400", "[]p -> p",
    )
    assert code == 1
    assert out == (
        '{"model":{"pi":{"w1":"2/5","w2":"1"},'
        '"truth_set":["0","1/6","1/5","1/3","3/4","1"],'
        '"valuation":{"w1":{"p":"3/4"},"w2":{"p":"1"}},"worlds":["w1","w2"]},'
        '"value":"3/4","verdict":"refuted","world":"w1"}\n'
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("countermodel", "--seed", "0", "[]~~p -> ~~[]p"),
            '{"model":{"pi":{"w2":"1"},"truth_set":["0","1"],'
            '"valuation":{"w2":{"p":"1/4"}},"worlds":["w2"]},'
            '"value":"0","verdict":"refuted","world":"w2"}\n',
        ),
        (
            ("countermodel", "--seed", "1", "[]~~p -> ~~[]p"),
            '{"model":{"pi":{"w2":"1"},"truth_set":["0","1"],'
            '"valuation":{"w2":{"p":"1/6"}},"worlds":["w2"]},'
            '"value":"0","verdict":"refuted","world":"w2"}\n',
        ),
        (
            ("countermodel", "--seed", "2", "[]~~p -> ~~[]p"),
            '{"model":{"pi":{"w5":"1"},"truth_set":["0","1"],'
            '"valuation":{"w5":{"p":"1/3"}},"worlds":["w5"]},'
            '"value":"0","verdict":"refuted","world":"w5"}\n',
        ),
        (
            ("check", "--mode", "random", "--logic", "kd45", "[]p -> p"),
            '{"model":{"pi":{"w1":"1","w2":"0","w3":"0","w4":"1/3","w5":"1/5"},'
            '"truth_set":["0","1/6","1/4","1/2","5/6","1"],'
            '"valuation":{"w1":{"p":"1"},"w2":{"p":"1"},"w3":{"p":"0"},'
            '"w4":{"p":"1"},"w5":{"p":"1"}},"worlds":["w1","w2","w3","w4","w5"]},'
            '"value":"0","verdict":"refuted","world":"w3"}\n',
        ),
    ],
)
def test_random_mode_golden_output(capsys, argv, expected):
    # Literal stdout of seeded random searches: a change to the random
    # module's stream on some interpreter, or to how the sampler reads it,
    # shows here, where an oracle running on the same interpreter cannot
    # see it.  The world names tell which sampled world survived shrinking.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, expected)


def test_check_repeat_runs_byte_identical(capsys):
    args = ("check", "--logic", "k45", "--seed", "5", "[]~~p -> ~~[]p")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second
    assert first[0] == 1


def test_check_defaults_to_base_logic(capsys):
    code, out, err = invoke(capsys, "check", "--mode", "exhaustive", "<>top")
    assert code == 1  # without seriality the empty state refutes diamond-top
    assert json.loads(out)["verdict"] == "refuted"


@pytest.mark.parametrize("formula", ["[]~~p -> ~~[]p", "[]p | ~[]p"])
@pytest.mark.parametrize("mode", ["random", "hybrid", "exhaustive"])
@pytest.mark.parametrize("command", ["check", "countermodel"])
def test_check_output_revalidates_through_eval(capsys, tmp_path, command, mode, formula):
    # countermodel decodes its printed value from integer codes; eval computes
    # it exactly (the second formula's value is interior)
    code, out, err = invoke(capsys, command, "--logic", "k45", "--mode", mode, formula)
    assert code == 1
    doc = json.loads(out)
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(doc["model"]))
    code, out, err = invoke(capsys, "eval", "--model", str(path), "--world", doc["world"], formula)
    assert (code, out.strip()) == (0, doc["value"])


# -- countermodel ------------------------------------------------------------------


def test_countermodel_minimizes(capsys):
    code, out, err = invoke(
        capsys, "countermodel", "--logic", "k45", "--seed", "0", "[]~~p -> ~~[]p"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted"
    assert len(doc["model"]["worlds"]) == 1
    assert doc["model"]["truth_set"] == ["0", "1"]


@pytest.mark.parametrize(
    "logic, formula, expected",
    [
        (
            "k45",
            "q -> [](q & p)",
            '{"model":{"pi":{"w3":"1","w4":"0"},"truth_set":["0","1"],'
            '"valuation":{"w3":{"p":"0","q":"0"},"w4":{"p":"0","q":"1"}},'
            '"worlds":["w3","w4"]},"value":"0","verdict":"refuted","world":"w4"}\n',
        ),
        (
            "kd45",
            "q -> q & []q",
            '{"model":{"pi":{"w2":"0","w4":"1"},"truth_set":["0","1"],'
            '"valuation":{"w2":{"q":"1"},"w4":{"q":"0"}},'
            '"worlds":["w2","w4"]},"value":"0","verdict":"refuted","world":"w2"}\n',
        ),
        (
            "s5",
            "p -> [](q -> p)",
            '{"model":{"pi":{"w1":"1","w5":"1"},"truth_set":["0","1"],'
            '"valuation":{"w1":{"p":"0","q":"1"},"w5":{"p":"1","q":"0"}},'
            '"worlds":["w1","w5"]},"value":"0","verdict":"refuted","world":"w5"}\n',
        ),
    ],
)
def test_countermodel_golden_shrunk_output(capsys, logic, formula, expected):
    # Each search finds a 4- or 5-world countermodel; shrinking drops worlds,
    # snaps values to 0 and 1 and empties the truth set's interior.
    code, out, err = invoke(capsys, "countermodel", "--logic", logic, "--seed", "0", formula)
    assert (code, out) == (1, expected)


def test_check_countermodel_and_eval_build_no_formula_nodes(capsys, tmp_path, monkeypatch):
    # They read the parser's op list alone.  The formula's names are fresh,
    # so a node built for it would be new: count constructions, and the
    # node table, which would keep a node that outlived the call.
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"worlds": ["a", "b"], "pi": {"a": "1", "b": "1/2"},
                                "valuation": {"a": {"nodeless_p": "1/2"}}}))
    text = "nodeless_q -> [](nodeless_q & nodeless_p) | ~<>~nodeless_r"
    made = []
    new = syntax.Formula.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(syntax.Formula, "__new__", staticmethod(counting))
    gc.collect()
    before = len(syntax._NODES)
    for argv in [
        ["check", text],
        ["check", "--mode", "exhaustive", "--max-worlds", "2", "--max-truth", "3", text],  # a swept hit
        ["countermodel", text],
        ["countermodel", "--mode", "exhaustive", "--max-worlds", "2", "--max-truth", "3", text],
        ["eval", "--model", str(path), text],
    ]:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == ((0 if argv[0] == "eval" else 1), ""), argv
    gc.collect()
    assert (made, len(syntax._NODES)) == ([], before)


def test_countermodel_builds_one_model_and_evaluates_nothing(capsys, monkeypatch):
    # A random hit is shrunk on its codes: the printed model is the one exact
    # model built, and its value is decoded, not evaluated again.
    built, evaluated = [], []
    init, evaluate = semantics.PiGFModel.__init__, semantics.evaluate

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_evaluate(*args):
        evaluated.append(args)
        return evaluate(*args)

    monkeypatch.setattr(semantics.PiGFModel, "__init__", counting_init)
    monkeypatch.setattr(semantics, "evaluate", counting_evaluate)
    monkeypatch.setattr(decider, "_exhaustive", None)  # the random search must hit
    code, out, err = invoke(capsys, "countermodel", "--logic", "k45", "--seed", "0", "q -> [](q & p)")
    assert (code, len(built), len(evaluated)) == (1, 1, 0)
    assert model_to_json(built[0]) == json.loads(out)["model"]


def test_countermodel_exhaustive_cross_check_raises_on_disagreement(capsys, monkeypatch):
    # The shrunk sweep hit is checked against exact evaluation; a wrong
    # value code is an internal error (also under python -O), not a bogus model.
    # Every one-model evaluation, the shrink's, reads world 0 as refuting at
    # code 1.
    evaluate = decider.evaluate_compiled

    def wrong(ops, columns, frame, top):
        values = evaluate(ops, columns, frame, top)
        return [[1, *v[1:]] for v in values] if len(frame) == 2 else values

    monkeypatch.setattr(decider, "evaluate_compiled", wrong)
    code, out, err = invoke(capsys, "countermodel", "--mode", "exhaustive", "[]~~p -> ~~[]p")
    assert (code, out) == (4, "")
    assert "integer sweep and exact evaluation disagree" in err


def test_countermodel_matches_the_exact_shrink_oracle():
    # CLI countermodel shrinks the search's codes; before, it decided, shrank
    # the exact model and evaluated the result again.  Stdout must not
    # change.  Tiny budgets make hybrid searches fall back to the sweep.
    rng = random.Random(16)
    caps = [(None, None), (1, 3), (2, 3), (3, 4), (2, 2)]
    cases = []
    for n in range(720):
        f = random_formula_bounded(rng, names=("p", "q", "r"), max_ell=10, require_var=True)
        logic = rng.choice(list(LogicId))
        max_worlds, max_truth = rng.choice(caps)
        mode = ("random", "hybrid", "exhaustive")[n % 3]
        cfg = SearchConfig(mode, rng.choice([1, 4, 30]), rng.randrange(4), max_worlds, max_truth)
        cases.append((f, logic, cfg))
    # rare shrinkings whose last accepted step coarsens the truth set and
    # so moves the refuting value
    for text, logic, cfg in [
        ("q -> r -> []r", LogicId.S5, SearchConfig("random", 30, 1, 2, 4)),
        ("p -> []p", LogicId.KD45, SearchConfig("random", 4, 3, 1, 4)),
        ("<>(p -> []p)", LogicId.KD45, SearchConfig("hybrid", 4, 0, 4, 6)),
    ]:
        cases.append((parse(text), logic, cfg))
    kinds = Counter()
    for f, logic, cfg in cases:
        argv = ["countermodel", "--logic", logic.value, "--mode", cfg.mode,
                "--budget", str(cfg.budget), "--seed", str(cfg.seed)]
        if cfg.max_worlds is not None:
            argv += ["--max-worlds", str(cfg.max_worlds), "--max-truth", str(cfg.max_truth)]
        code, out, err = run_captured(*argv, render(f))
        assert (code, out, err) == (*oracle_countermodel(f, logic, cfg), ""), argv
        mode = cfg.mode
        if mode == "hybrid" and decider._random_hit(compile_formulas([f]), logic, cfg) is None:
            mode = "fallback"
        kinds[mode, code] += 1
    print(sorted(kinds.items()))
    assert kinds["fallback", 1] >= 20 and kinds["exhaustive", 1] >= 150
    assert kinds["random", 1] >= 150 and kinds["hybrid", 1] >= 150


# -- corpus ---------------------------------------------------------------------------


def test_corpus_all_schemes_survive(capsys):
    code, out, err = invoke(capsys, "corpus", "--logic", "kd45", "--budget", "300", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert all(line.endswith("\tok") for line in lines)
    assert "checked 24 schemes, 0 refuted" in err


def test_corpus_runs_are_deterministic(capsys):
    a = invoke(capsys, "corpus", "--logic", "k45", "--budget", "120", "--seed", "3")
    b = invoke(capsys, "corpus", "--logic", "k45", "--budget", "120", "--seed", "3")
    assert a == b
    assert a[0] == 0
    assert len(a[1].splitlines()) == 22


def test_corpus_samples_a_scheme_that_world_types_do_not_certify(capsys, monkeypatch):
    # corpus certifies each scheme by world types at the sampler's caps and
    # samples only the others: a non-theorem patched in prints the sampler's
    # refutation, byte for byte as when every scheme was sampled
    schemes = syntax.corpus("k45")
    patched = schemes[:3] + [("T", parse("[]p -> p")), ("D", parse("[]p -> <>p"))] + schemes[3:5]
    monkeypatch.setattr(cli, "corpus", lambda logic: patched)
    code, out, err = invoke(capsys, "corpus", "--logic", "k45", "--budget", "300", "--seed", "3")
    assert (code, err) == (1, "checked 7 schemes, 2 refuted\n")
    assert out == "K_□\tok\nK_◇\tok\nF_□\tok\nT\trefuted\tw1\t4/5\nD\trefuted\tw1\t3/4\nP\tok\nFS2\tok\n"


# -- frame ------------------------------------------------------------------------------


def test_frame_relational_report(capsys, tmp_path):
    doc = {"worlds": ["a", "b"], "R": {"a": {"b": "1"}}, "valuation": {}}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "frame", "--model", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["transitive"] is True
    assert report["euclidean"] is False
    assert ["a", "b", "b"] in report["witnesses"]["euclidean"]
    assert report["serial"] is False
    assert report["witnesses"]["seriality"] == ["b"]


def test_frame_accepts_possibilistic_file(capsys, m0_path):
    code, out, err = invoke(capsys, "frame", "--model", m0_path)
    assert code == 0
    report = json.loads(out)
    assert report["transitive"] and report["euclidean"] and report["serial"]


def test_frame_of_possibilistic_files_needs_no_relation(capsys, tmp_path, m0_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("possibilistic frame read through a relation")

    monkeypatch.setattr(RelationalModel, "rel", refuse)
    monkeypatch.setattr(semantics, "embed_pig", refuse)
    doc = {"worlds": ["a", "b"], "pi": {"a": "1/2", "b": "0"}, "valuation": {}}
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "frame", "--model", str(path))
    assert (code, err) == (0, "")
    assert out == (
        '{"euclidean":true,"serial":false,"transitive":true,'
        '"witnesses":{"euclidean":[],"seriality":["a","b"],"transitivity":[]}}\n'
    )
    code, out, err = invoke(capsys, "frame", "--model", m0_path)
    assert (code, err) == (0, "")
    assert out == (
        '{"euclidean":true,"serial":true,"transitive":true,'
        '"witnesses":{"euclidean":[],"seriality":[],"transitivity":[]}}\n'
    )


def test_frame_of_large_possibilistic_file(capsys, tmp_path):
    worlds = [f"w{i}" for i in range(200)]
    pi = {w: f"{i}/200" for i, w in enumerate(worlds)}
    path = tmp_path / "pi200.json"
    path.write_text(json.dumps({"worlds": worlds, "pi": pi, "valuation": {}}))
    code, out, err = invoke(capsys, "frame", "--model", str(path))
    assert code == 0
    assert json.loads(out) == {
        "euclidean": True,
        "serial": False,
        "transitive": True,
        "witnesses": {"euclidean": [], "seriality": worlds, "transitivity": []},
    }


def test_frame_relational_report_matches_oracle(capsys, tmp_path):
    model = random_sparse_relational(random.Random(11), 6)
    report = oracle_frame_report(model)
    assert report.transitivity_witnesses and report.euclidean_witnesses
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(model_to_json(model)))
    code, out, err = invoke(capsys, "frame", "--model", str(path))
    expected = {
        "transitive": report.transitive,
        "euclidean": report.euclidean,
        "serial": report.serial,
        "witnesses": {
            "transitivity": [list(t) for t in report.transitivity_witnesses],
            "euclidean": [list(t) for t in report.euclidean_witnesses],
            "seriality": list(report.seriality_witnesses),
        },
    }
    assert code == 0
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


# -- error handling ------------------------------------------------------------------------


def test_malformed_formula_is_usage_error(capsys):
    code, out, err = invoke(capsys, "check", "--logic", "k45", "(p")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "position" in err


def test_unknown_world_is_usage_error(capsys, m0_path):
    code, out, err = invoke(capsys, "eval", "--model", m0_path, "--world", "zz", "p")
    assert code == 3
    assert "zz" in err


def test_missing_model_file_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "no-such-file.json")
    code, out, err = invoke(capsys, "eval", "--model", missing, "p")
    assert (code, out) == (3, "")
    assert err == f"error: {missing}: No such file or directory\n"
    code, out, err = invoke(capsys, "frame", "--model", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == f"error: {tmp_path}: Is a directory\n"


def test_bad_json_model_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, out, err = invoke(capsys, "eval", "--model", str(path), "p")
    assert code == 3
    # a file that is not UTF-8 names the file and the byte, not the codec
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(capsys, "eval", "--model", str(path), "p")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"worlds": "ab", "pi": {"a": "1", "b": "1"}},
        {"worlds": ["a"], "pi": ["1"]},
        {"worlds": ["a"], "pi": {"a": "1"}, "valuation": {"a": ["1/2"]}},
        {"worlds": ["a"], "pi": {"a": "1"}, "truth_set": "01"},
        {"worlds": ["a"], "R": {"a": ["1"]}},
    ],
)
def test_malformed_model_schema_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "eval", "--model", str(path), "p")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, where",
    [
        # a bad literal is named at its first occurrence: valuation, R, pi, truth_set
        ({"worlds": ["a", "b"], "pi": {"a": "1", "b": "7/2"}, "valuation": {"a": {"p": "1"}, "b": {"p": "7/2"}}}, "valuation['b']['p']"),
        ({"worlds": ["a", "b"], "R": {"a": {"b": "7/2"}, "b": {"a": "7/2"}}, "valuation": {"a": {"p": "1"}}}, "R['a']['b']"),
        ({"worlds": ["a", "b"], "pi": {"a": "1", "b": "7/2"}, "truth_set": ["0", "7/2", "1"]}, "pi['b']"),
        ({"worlds": ["a"], "pi": {"a": "1"}, "truth_set": ["0", "1", "7/2"]}, "truth_set[2]"),
    ],
)
def test_bad_model_literal_is_located(capsys, tmp_path, doc, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (("eval", "--model", str(path), "p"), ("frame", "--model", str(path))):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {where}: rational '7/2' outside [0, 1]\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"worlds": ["a"], "pi": {"a": "1e-999999999"}}, "pi['a']: bad rational literal '1e-999999999'"),
        ({"worlds": ["a"], "pi": {"a": "1"}, "valuation": {"a": {"p": "1e-5000"}}}, "valuation['a']['p']: bad rational literal '1e-5000'"),
        ({"worlds": ["a"], "pi": {"a": "1", "b": "1"}}, "pi mentions unknown world 'b'"),
    ],
    ids=["huge-exponent", "unprintable", "unknown-pi-world"],
)
def test_hostile_model_file_is_one_line_usage_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (("eval", "--model", str(path), "p"), ("frame", "--model", str(path))):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "deep, shallow",
    [("~" * 2000 + "p", "~~p"), ("(" * 300 + "p" + ")" * 300, "p")],
    ids=["negations", "parentheses"],
)
def test_deeply_nested_formula_runs_like_its_shallow_form(capsys, m0_path, deep, shallow):
    for command in (
        ("check", "--mode", "random", "--budget", "10"),
        ("countermodel", "--budget", "50"),
        ("eval", "--model", m0_path),
    ):
        code, out, err = invoke(capsys, *command, deep)
        assert (code, out) == invoke(capsys, *command, shallow)[:2], command
        assert "Traceback" not in err


def test_deep_box_chain_is_decided_without_traceback(capsys):
    code, out, err = invoke(capsys, "check", "--mode", "random", "--budget", "10", "[]" * 20_000 + "p")
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_wide_disjunction_check_finishes(capsys):
    formula = " | ".join(f"p{i}" for i in range(40))
    code, out, err = invoke(capsys, "check", "--mode", "random", "--budget", "10", formula)
    assert code in (1, 2)
    assert "Traceback" not in err


def test_deeply_nested_model_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = invoke(capsys, "eval", "--model", str(path), "p")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "nested too deeply" in err and "Traceback" not in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    # A failing cross-check in the sweep is a bug, never a verdict.  The
    # sweep's hit comes from _first_hit, so a wrong code is planted on it.
    first_hit = decider._first_hit
    monkeypatch.setattr(decider, "_first_hit", lambda *args, **kw: replace(first_hit(*args, **kw), world=0, code=1))
    code, out, err = invoke(capsys, "check", "--mode", "exhaustive", "[]~~p -> ~~[]p")
    assert (code, out) == (4, "")
    assert "Traceback" in err
    assert err.splitlines()[-1].startswith("internal error: RuntimeError:")


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = invoke(capsys, "check", "--logic", "k45", "--frobnicate", "p")
    assert code == 3


def test_bad_logic_choice_is_usage_error(capsys):
    code, out, err = invoke(capsys, "check", "--logic", "k99", "p")
    assert code == 3


def test_no_command_is_usage_error(capsys):
    code, out, err = invoke(capsys)
    assert code == 3


@pytest.mark.parametrize(
    "argv, usage",
    [(["--help"], "usage: godelmodal "), (["countermodel", "--help"], "usage: godelmodal countermodel ")],
)
def test_help_returns_exit_ok(capsys, argv, usage):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage)


# Argument tails for each command: abbreviations, --flag=value, negative ints,
# "--", repeated flags, help, unknown flags, bad choices, bad ints, and missing
# and extra positionals.
_SEARCH_TAILS = [
    ["p"],
    ["--logic", "kd45", "--mode", "random", "--budget", "5", "--seed", "3", "--max-worlds", "2", "--max-truth", "3", "p -> q"],
    ["--lo", "s5", "--max-w", "2", "--max-t=4", "p"],
    ["--max", "2", "p"],
    ["--logic=kd45", "--budget=7", "p"],
    ["--seed", "-1", "--budget=-5", "p"],
    ["-1"],
    ["--seed", "2", "--", "~p"],
    ["--", "p", "q"],
    ["p", "--"],
    ["--seed", "1", "--seed", "2", "p"],
    ["p", "--help"],
    ["--logic", "k99", "p"],
    ["--mode", "fast", "p"],
    ["--budget", "ten", "p"],
    ["--seed", "1.5", "p"],
    ["--budget"],
    ["--logic", "k45"],
    ["p", "q"],
]
_ARGV_TAILS = {
    "check": _SEARCH_TAILS,
    "countermodel": _SEARCH_TAILS,
    "eval": [
        ["--model", "m.json", "p"],
        ["--model=m.json", "--world", "a", "p"],
        ["--mod", "m.json", "--w=-1", "p"],
        ["--model", "m.json", "--", "--world"],
        ["--model", "a", "--model", "b", "p"],
        ["p"],
        ["--world", "a"],
        ["--model", "m.json", "p", "q"],
    ],
    "corpus": [
        ["--logic", "s5", "--budget", "3", "--seed", "-2"],
        ["--lo=kd45", "--bu", "4"],
        ["--seed", "1", "--seed", "2"],
        ["--budget", "x"],
        ["--logic", "k99"],
        ["p"],
        ["--", "p"],
    ],
    "frame": [
        ["--model", "m.json"],
        ["--mo=m.json"],
        ["--model", "a", "--model", "b"],
        ["--model"],
        ["p"],
        ["--model", "m.json", "--", "p"],
    ],
}
_COMMON_TAILS = [[], ["-h"], ["--help"], ["--he"], ["-h", "p"], ["--nosuch"], ["-x", "p"], ["--"], ["--", "p"]]
_TOP_LEVEL_ARGVS = [[], ["--help"], ["-h"], ["nosuch", "p"], ["Check", "p"], ["--logic", "k45", "check", "p"], ["--", "check", "p"]]


def _parse_outcome(parse, argv):
    """What parsing argv ends in: the namespace without the command's name,
    a usage error's text, or argparse's exit with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(list(argv))
    except cli._UsageError as exc:
        return "usage error", str(exc), out.getvalue(), err.getvalue()
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    return "namespace", fields, out.getvalue(), err.getvalue()


def test_command_parser_reads_argv_as_the_top_level_parser_does():
    # Each command's own parser against the top-level parser that hands it
    # the arguments: argparse's behaviour may drift between Python versions.
    seen = set()
    argvs = [[command, *tail] for command, tails in _ARGV_TAILS.items() for tail in tails + _COMMON_TAILS]
    for argv in argvs + _TOP_LEVEL_ARGVS:
        expected = _parse_outcome(cli._PARSER.parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == expected, argv
        seen.add((argv[0] if argv else None, expected[0]))
    # every command meets all three outcomes
    for command in _ARGV_TAILS:
        assert {kind for name, kind in seen if name == command} == {"namespace", "usage error", "exit"}, command


# -- fuzzing ---------------------------------------------------------------------------


def shallow_formulas():
    return st.recursive(
        st.sampled_from(["p", "q", "0", "1", "top"]),
        lambda kids: st.one_of(
            st.builds(str.__add__, st.sampled_from(["~", "[]", "<>"]), kids),
            kids.map(lambda f: "(" + f + ")"),
            st.builds(
                lambda f, op, g: f + op + g,
                kids,
                st.sampled_from([" & ", " | ", " -> ", " <-> "]),
                kids,
            ),
        ),
        max_leaves=6,
    )


def formula_texts():
    depth = st.integers(0, 2000)
    return st.one_of(
        shallow_formulas(),
        st.builds(lambda op, n, f: op * n + f, st.sampled_from(["~", "[]", "<>", "~[]"]), depth, shallow_formulas()),
        st.builds(lambda n, f: "(" * n + f + ")" * n, depth, shallow_formulas()),
    )


def run_captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_well_behaved(directory, argv):
    """Exit code in 0-3, no traceback, and every countermodel re-evaluates
    through eval to its printed value, which is below 1."""
    code, out, err = run_captured(*argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code == 1:
        doc = json.loads(out)
        path = directory / "countermodel.json"
        path.write_text(json.dumps(doc["model"]))
        revalued = run_captured("eval", "--model", str(path), "--world", doc["world"], argv[-1])
        assert revalued == (0, doc["value"] + "\n", ""), argv
        assert Fraction(doc["value"]) < 1, argv


@settings(max_examples=60)  # a deep formula proved valid under caps takes up to 1 s
@given(
    formula=formula_texts(),
    command=st.sampled_from(["check", "countermodel"]),
    logic=st.sampled_from(["k45", "kd45", "s5"]),
    search=st.sampled_from(
        [
            ("--mode", "random", "--budget", "30"),
            ("--mode", "exhaustive", "--max-worlds", "2", "--max-truth", "3"),
            ("--mode", "hybrid", "--budget", "30", "--max-worlds", "1", "--max-truth", "3"),
        ]
    ),
    seed=st.integers(0, 3),
)
def test_fuzz_search_commands(tmp_path_factory, formula, command, logic, search, seed):
    argv = (command, "--logic", logic, *search, "--seed", str(seed), formula)
    assert_well_behaved(tmp_path_factory.mktemp("fuzz"), argv)


JUNK = st.one_of(
    st.sampled_from(["0", "1", "1/2", "3/2", "-1/3", "1/0", "x", "", "a"]),
    st.integers(-2, 2),
    st.none(),
    st.booleans(),
    st.lists(st.just("1"), max_size=2),
    st.dictionaries(st.sampled_from(["a", "p"]), st.just("1"), max_size=1),
)

BASE_MODELS = [
    M0_DOC,
    {"worlds": ["a", "b"], "pi": {"a": "1", "b": "1/3"}, "valuation": {"a": {"p": "1/2"}, "b": {"q": "1"}}},
    {"worlds": ["a", "b"], "R": {"a": {"b": "1"}, "b": {"a": "2/3"}}, "valuation": {"b": {"p": "1/3"}}},
]


@st.composite
def model_texts(draw):
    """A valid model file with one leaf replaced, one key dropped, or its
    text cut short."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_MODELS)))
    slots = []  # (container, key) for every entry under the root
    stack = [doc]
    while stack:
        node = stack.pop()
        for key in range(len(node)) if isinstance(node, list) else list(node):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    container, key = draw(st.sampled_from(slots))
    mutation = draw(st.sampled_from(["replace", "drop", "truncate", "none"]))
    if mutation == "replace":
        container[key] = draw(JUNK)
    elif mutation == "drop":
        del container[key]
    text = json.dumps(doc)
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@given(
    text=model_texts(),
    formula=formula_texts(),
    world=st.sampled_from([(), ("--world", "a"), ("--world", "zz")]),
)
def test_fuzz_model_files(tmp_path_factory, text, formula, world):
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "model.json"
    path.write_text(text)
    assert_well_behaved(directory, ("eval", "--model", str(path), *world, formula))
    assert_well_behaved(directory, ("frame", "--model", str(path)))
