"""The four workloads: seeded inputs, the calls into godelmodal, and checks.

Each builder turns a seed into a fixed list of ops.  An op's ``call`` is the
timed part: one in-process ``godelmodal.cli.run(argv)`` with stdout captured,
or one library call.  Its ``check`` judges the output against the answer the
reference semantics in ``reference.py`` computes, and returns None when the
output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# Random-search budget per corpus scheme, and the two CLI seeds a pass uses,
# so one pass is 140 searches of 100 sampled models each.
CORPUS_BUDGET = 100
CORPUS_SEEDS_PER_PASS = 2

# Exhaustive-sweep caps (max worlds, max truth values) for certify, one wide
# and one deep: every scheme finishes, and at (2, 2) each two-variable scheme
# still sweeps about 9.4k canonical models.
CERTIFY_CAPS = ((2, 2), (1, 5))

# Refute formulas per complexity band (l counted on the desugared formula),
# and how many reference samples a planted countermodel may take to find.
REFUTE_BANDS = ((3, 6), (7, 11), (12, 17), (18, 26))
REFUTE_PER_BAND = 216
REFUTE_PLANT_TRIES = 4
# (logic, worlds, truth values) of the planted countermodels, cycled per band
REFUTE_SHAPES = tuple(
    (logic, n, m) for logic in ("k45", "kd45", "s5") for n in (1, 2, 3) for m in (2, 3, 4)
)

# World counts of the evaluate model files, and formulas evaluated per file;
# relational evaluation and frame checks cost O(|W|^3), so relational files
# stay smaller.
POSSIBILISTIC_WORLDS = (10, 15, 20, 25, 30, 35, 40)
RELATIONAL_WORLDS = (8, 10, 12, 14, 16, 18, 20)
FORMULAS_PER_FILE = 5


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], object] = lambda out: out


def _cli_call(cli, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    return call


def _one_json_line(out: str) -> dict | None:
    lines = out.splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


# ---------------------------------------------------------------------------
# corpus and certify: the named schemes, which are all theorems


def build_corpus(gm, cli, seed: int, work: Path) -> list[Op]:
    expected = {"verdict": "unknown", "budget": CORPUS_BUDGET}

    def check(result) -> str | None:
        code, out = result
        doc = _one_json_line(out)
        if doc is not None and doc.get("verdict") == "refuted":
            return "soundness failure: a theorem was refuted"
        if code != 2 or doc != expected:
            return f"expected exit 2 and {expected}, got exit {code} and {out!r}"
        return None

    ops = []
    for k in range(CORPUS_SEEDS_PER_PASS):
        cli_seed = str(seed * CORPUS_SEEDS_PER_PASS + k)
        for logic in ref.LOGICS:
            for _, text in ref.corpus(logic):
                argv = ["check", "--logic", logic, "--mode", "random",
                        "--budget", str(CORPUS_BUDGET), "--seed", cli_seed, text]
                ops.append(Op(_cli_call(cli, argv), check))
    return ops


def build_certify(gm, cli, seed: int, work: Path) -> list[Op]:
    # Exhaustive mode ignores --seed, so the inputs are the same for every
    # seed; the seed is passed anyway, as a user would.
    ops = []
    for (max_worlds, max_truth), logic in itertools.product(CERTIFY_CAPS, ref.LOGICS):
        for _, text in ref.corpus(logic):
            bound = 2 * (ref.ell(ref.parse(text)) + 2)

            def check(result, bound=bound) -> str | None:
                code, out = result
                doc = _one_json_line(out)
                if code != 0 or doc is None or set(doc) != {"verdict", "bound", "models_checked"}:
                    return f"expected exit 0 and a valid verdict, got exit {code} and {out!r}"
                if doc["verdict"] != "valid" or doc["bound"] != bound:
                    return f"expected valid with bound {bound}, got {out!r}"
                if not isinstance(doc["models_checked"], int) or doc["models_checked"] < 1:
                    return f"bad models_checked in {out!r}"
                return None

            argv = ["check", "--logic", logic, "--mode", "exhaustive",
                    "--max-worlds", str(max_worlds), "--max-truth", str(max_truth),
                    "--seed", str(seed), text]
            ops.append(Op(_cli_call(cli, argv), check))
    return ops


# ---------------------------------------------------------------------------
# refute: random formulas, each with a countermodel planted by the reference


def _plant(rng: random.Random, f: tuple, logic: str, n_worlds: int, n_truth: int) -> bool:
    """Whether a reference sample of this size refutes f within a few tries;
    formulas refuted that easily keep hybrid search out of the sweep."""
    for _ in range(REFUTE_PLANT_TRIES):
        model = ref.random_model(rng, n_worlds, logic, n_truth=n_truth)
        if any(v < ref.ONE for v in ref.evaluate(model, f)):
            return True
    return False


def _refute_check(f: tuple, logic: str, max_worlds: int, max_truth: int):
    def check(result) -> str | None:
        code, out = result
        doc = _one_json_line(out)
        if code != 1 or doc is None or doc.get("verdict") != "refuted":
            return f"expected exit 1 and a countermodel, got exit {code} and {out!r}"
        try:
            model = ref.from_json(doc["model"])
            idx = model["worlds"].index(doc["world"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"unreadable countermodel {out!r}: {exc!r}"
        value = ref.evaluate(model, f)[idx]
        if ref.fmt(value) != doc["value"] or value >= ref.ONE:
            return f"printed value {doc['value']} but the reference gives {ref.fmt(value)}"
        if not ref.satisfies_logic(model, logic):
            return f"countermodel breaks the {logic} pi constraint"
        truth = model["truth"] or []
        if len(model["worlds"]) > max_worlds or len(truth) > max_truth or not {ref.ZERO, ref.ONE} <= set(truth):
            return f"countermodel outside the caps ({max_worlds}, {max_truth})"
        return None

    return check


def build_refute(gm, cli, seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for lo, hi in REFUTE_BANDS:
        for k in range(REFUTE_PER_BAND):
            # every band gets the same mix of logics and planted sizes
            logic, max_worlds, max_truth = REFUTE_SHAPES[k % len(REFUTE_SHAPES)]
            while True:
                f = ref.random_formula(rng, rng.randint(1, 6))
                if lo <= ref.ell(f) <= hi and _plant(rng, f, logic, max_worlds, max_truth):
                    break
            argv = ["countermodel", "--logic", logic,
                    "--max-worlds", str(max_worlds), "--max-truth", str(max_truth),
                    "--seed", str(rng.randrange(1 << 30)), ref.render(f)]
            ops.append(Op(_cli_call(cli, argv), _refute_check(f, logic, max_worlds, max_truth)))
    return ops


# ---------------------------------------------------------------------------
# evaluate: model files through CLI eval and frame, plus filtrate/transport


def _evaluate_formula(rng: random.Random) -> tuple:
    # Three modal subformulas and a middling size keep the per-file cost
    # the same from seed to seed.
    while True:
        f = ref.random_formula(rng, 4)
        if ref.modal_count(f) == 3 and 11 <= ref.ell(f) <= 12:
            return f


def _reference_of(model) -> dict:
    """A godelmodal PiGFModel read into the reference shape."""
    return {
        "worlds": list(model.worlds),
        "pi": dict(model.pi),
        "R": None,
        "val": {w: dict(model.base.valuation.get(w, {})) for w in model.worlds},
        "truth": list(model.truth_set),
    }


def _eval_op(cli, path: Path, model: dict, f: tuple) -> Op:
    expected = [f"{w}\t{ref.fmt(v)}" for w, v in zip(model["worlds"], ref.evaluate(model, f))]

    def check(result) -> str | None:
        code, out = result
        if code != 0 or out.splitlines() != expected:
            return f"eval of {ref.render(f)} on {path.name}: exit {code}, wrong values"
        return None

    return Op(_cli_call(cli, ["eval", "--model", str(path), ref.render(f)]), check)


def _frame_op(cli, path: Path, model: dict) -> Op:
    expected = ref.frame_expectation(model)

    def check(result) -> str | None:
        code, out = result
        if code != 0 or _one_json_line(out) != expected:
            return f"frame of {path.name}: exit {code}, wrong report"
        return None

    return Op(_cli_call(cli, ["frame", "--model", str(path)]), check)


def _filtrate_op(gm, model: dict, f: tuple, x: str) -> Op:
    base = gm.PiGModel(model["worlds"], model["pi"], model["val"])
    sigma = gm.subformulas(gm.parse(ref.render(f)))
    parts = sorted(ref.subformulas(ref.expand(f)) | {ref.BOT}, key=repr)
    x_at = model["worlds"].index(x)
    expected = {g: ref.evaluate(model, g)[x_at] for g in parts}
    max_worlds = 1 + ref.modal_count(f)

    def check(result) -> str | None:
        got = _reference_of(result)
        ws = got["worlds"]
        if x not in ws or len(ws) > max_worlds or ws != [w for w in model["worlds"] if w in ws]:
            return f"filtrate kept worlds {ws}, needs {x} and at most {max_worlds}"
        if any(got["pi"][w] != model["pi"][w] or got["val"][w] != model["val"][w] for w in ws):
            return "filtrate changed pi or the valuation of a kept world"
        at = ws.index(x)
        for g in parts:
            if ref.evaluate(got, g)[at] != expected[g]:
                return f"filtrate disagrees with the model on {ref.render(g)} at {x}"
        return None

    return Op(lambda: gm.filtrate(base, sigma, x), check, _reference_of)


def _transport_op(gm, rng: random.Random, model: dict, f: tuple) -> Op:
    rounded = gm.PiGFModel(gm.PiGModel(model["worlds"], model["pi"], model["val"]), gm.TruthSet(model["truth"]))
    points = ref.random_fixing_breakpoints(rng, model["truth"])
    h = gm.OrderEmbedding(points)

    def image(v):
        return ref.apply_breakpoints(points, v)

    expected = {
        "worlds": list(model["worlds"]),
        "pi": {w: image(v) for w, v in model["pi"].items()},
        "R": None,
        "val": {w: {p: image(v) for p, v in row.items()} for w, row in model["val"].items()},
        "truth": list(model["truth"]),
    }
    expected_values = [image(v) for v in ref.evaluate(model, f)]

    def check(result) -> str | None:
        got = _reference_of(result)
        if got != expected:
            return "transport did not push pi and the valuation through the embedding"
        if ref.evaluate(got, f) != expected_values:
            return f"evaluation of {ref.render(f)} does not commute with the embedding"
        return None

    return Op(lambda: gm.transport(rounded, h), check, _reference_of)


def build_evaluate(gm, cli, seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n_pos, n_rel in zip(POSSIBILISTIC_WORLDS, RELATIONAL_WORLDS):
        logic = rng.choice(("k45", "kd45"))
        plain = ref.random_model(rng, n_pos, logic)
        rounded = ref.random_model(rng, n_pos, logic, n_truth=rng.randint(3, 5))
        relational = ref.random_relational(rng, n_rel)
        for kind, model in (("pig", plain), ("pigf", rounded), ("rel", relational)):
            path = work / f"{kind}-{len(model['worlds'])}.json"
            path.write_text(json.dumps(ref.to_json(model)), encoding="utf-8")
            ops.append(_frame_op(cli, path, model))
            for _ in range(FORMULAS_PER_FILE):
                f = _evaluate_formula(rng)
                ops.append(_eval_op(cli, path, model, f))
                if kind == "pig":
                    ops.append(_filtrate_op(gm, model, f, rng.choice(model["worlds"])))
                elif kind == "pigf":
                    ops.append(_transport_op(gm, rng, model, f))
    return ops


BUILDERS = {
    "corpus": build_corpus,
    "certify": build_certify,
    "refute": build_refute,
    "evaluate": build_evaluate,
}
