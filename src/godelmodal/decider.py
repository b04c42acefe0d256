"""Validity checking by bounded countermodel search.

A formula is valid over the rounded possibilistic semantics exactly when no
model with |W| + |T| below a bound derived from the formula's subformula
count refutes it.  Only the relative order of the finitely many values in a
model matters to evaluation, so the search enumerates one representative per
order type, realized on the evenly spaced rational grid.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .algebra import ONE, ZERO, TruthSet, format_rational
from .semantics import (
    PiGFModel,
    PiGModel,
    UnknownWorldError,
    eval_pigf,
    evaluate_compiled,
    model_to_json,
)
from .syntax import Formula, LogicId, compile_formulas, complexity_ell

MODES = ("exhaustive", "random", "hybrid")


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "hybrid"
    budget: int = 10_000
    seed: int = 0
    max_worlds: int | None = None
    max_truth: int | None = None


@dataclass(frozen=True)
class Valid:
    bound_used: int
    models_checked: int


@dataclass(frozen=True)
class Refuted:
    countermodel: PiGFModel
    world: str
    value: Fraction


@dataclass(frozen=True)
class Unknown:
    description: str
    budget: int


Verdict = Valid | Refuted | Unknown


def bound_for(f: Formula) -> int:
    """Ceiling on |W| + |T| that a complete countermodel sweep must reach."""
    return 2 * (complexity_ell(f) + 2)


def _check_config(cfg: SearchConfig) -> None:
    if cfg.mode not in MODES:
        raise ValueError(f"unknown search mode {cfg.mode!r}")
    if cfg.budget < 0:
        raise ValueError("budget must be nonnegative")
    if cfg.max_worlds is not None and cfg.max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    if cfg.max_truth is not None and cfg.max_truth < 2:
        raise ValueError("max_truth must be at least 2")


# ---------------------------------------------------------------------------
# canonical enumeration
#
# A model assigns values to slots: one pi value per world, one valuation
# value per world and variable, plus the interior members of T.  Values are
# encoded as integer codes 0, 1..j, j+1 where j is the number of distinct
# interior values: code 0 is 0, code j+1 is 1, interior code c realizes the
# grid point c/K.  Every interior code must be used by a model slot or claimed
# by T, which makes each order type appear exactly once.


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
) -> PiGFModel:
    worlds = tuple(f"w{i + 1}" for i in range(len(rows)))
    pi = {w: _decode(row[0], top_code, k_grid) for w, row in zip(worlds, rows)}
    valuation = {
        w: {p: _decode(row[1 + i], top_code, k_grid) for i, p in enumerate(names)}
        for w, row in zip(worlds, rows)
    }
    truth = TruthSet(
        [ZERO, ONE] + [Fraction(r, k_grid) for r in t_ranks]
    )
    return PiGFModel(PiGModel(worlds, pi, valuation), truth)


# The sweep also identifies models that only differ by a renaming of worlds:
# rows are generated in nondecreasing order.  Renaming is a model isomorphism,
# so coverage of order types up to the bound is kept; it cuts the sweep by a
# factor of up to n! per size.


def _sorted_row_models(
    alphabet: Sequence[tuple[int, ...]],
    masks: Sequence[int],
    n_rows: int,
    need: int,
) -> Iterator[tuple[tuple[int, ...], ...]]:
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
            yield from rec(i, depth + 1, acc | masks[i])

    yield from rec(0, 0, 0)


def _sweep_size(
    n_worlds: int,
    n_truth: int,
    names: tuple[str, ...],
    logic: LogicId,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], list[int], int, int]]:
    """Canonical world-sorted models of exactly these dimensions, as integer
    code structures (rows, t_ranks, t_codes, top_code, k_grid)."""
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
                yield rows, t_ranks, t_codes, top_code, k_grid


def _first_refutation(
    ops: list[tuple],
    root: int,
    rows: Sequence[Sequence[int]],
    t_codes: Sequence[int],
    top: int,
) -> tuple[int, int] | None:
    """The first world whose root code is below top, with that code, in a
    model given as integer code rows (pi, then one code per variable)."""
    columns = list(zip(*rows))
    values = evaluate_compiled(ops, columns[1:], columns[:1], 0, top, t_codes)[root]
    for idx, code in enumerate(values):
        if code != top:
            return idx, code
    return None


def _size_order(bound: int, cfg: SearchConfig) -> list[tuple[int, int]]:
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


def _exhaustive(f: Formula, logic: LogicId, cfg: SearchConfig) -> Verdict:
    bound = bound_for(f)
    ops, (root,), names = compile_formulas([f])
    checked = 0
    for n_worlds, n_truth in _size_order(bound, cfg):
        for rows, t_ranks, t_codes, top_code, k_grid in _sweep_size(
            n_worlds, n_truth, names, logic
        ):
            checked += 1
            hit = _first_refutation(ops, root, rows, t_codes, top_code)
            if hit is not None:
                idx, code = hit
                model = _materialize(names, rows, t_ranks, top_code, k_grid)
                world = model.worlds[idx]
                value = eval_pigf(model, world, f)
                # the integer evaluation must mirror the exact one
                if value != _decode(code, top_code, k_grid) or value >= ONE:
                    raise RuntimeError(
                        f"integer sweep and exact evaluation disagree on {model!r}"
                    )
                return Refuted(model, world, value)
    return Valid(bound, checked)


# ---------------------------------------------------------------------------
# randomized search

_DENOMS = (2, 3, 4, 5, 6, 8, 12)
# Sampled values lie on the grid {0, 1/120, ..., 1}: 120 is the lcm of
# _DENOMS.  Code c stands for c/120, so code order is value order.
_GRID = 120


def _random_code(rng: random.Random, anchors: Sequence[int]) -> int:
    roll = rng.random()
    if roll < 0.22:
        return 0
    if roll < 0.44:
        return _GRID
    if anchors and roll < 0.60:
        return rng.choice(anchors)
    d = rng.choice(_DENOMS)
    return rng.randint(0, d) * (_GRID // d)


def _sample(
    rng: random.Random, n_worlds: int, n_truth: int, n_vars: int, logic: LogicId
) -> tuple[list[tuple[int, ...]], list[int]]:
    """A random rounded model obeying the logic's frame constraint, as code
    rows (pi, then one code per variable) and the sorted interior truth set
    codes; values sometimes coincide with truth set members."""
    interior: set[int] = set()
    while len(interior) < n_truth - 2:
        d = rng.choice(_DENOMS)
        interior.add(rng.randint(1, d - 1) * (_GRID // d))
    anchors = sorted(interior)
    if logic is LogicId.S5:
        pis = [_GRID] * n_worlds
    else:
        pis = [_random_code(rng, anchors) for _ in range(n_worlds)]
        if logic is LogicId.KD45:
            pis[rng.choice(range(n_worlds))] = _GRID
    rows = [(p, *(_random_code(rng, anchors) for _ in range(n_vars))) for p in pis]
    return rows, anchors


def random_pigf_model(
    rng: random.Random,
    n_worlds: int,
    n_truth: int,
    var_names: Sequence[str],
    logic: LogicId,
) -> PiGFModel:
    """A random rounded model; values sometimes coincide with truth set members."""
    rows, anchors = _sample(rng, n_worlds, n_truth, len(var_names), logic)
    return _materialize(var_names, rows, anchors, _GRID, _GRID)


def random_search(
    f: Formula, logic: LogicId, cfg: SearchConfig
) -> tuple[PiGFModel, str, Fraction] | None:
    """Sample cfg.budget models within the size bound; return the first
    countermodel found, or None.  Deterministic in cfg.seed."""
    _check_config(cfg)
    rng = random.Random(cfg.seed)
    bound = bound_for(f)
    ops, (root,), names = compile_formulas([f])
    worlds_cap = max(1, min(cfg.max_worlds or 5, bound - 2))
    for _ in range(cfg.budget):
        n = rng.randint(1, worlds_cap)
        truth_cap = max(2, min(cfg.max_truth or 6, bound - n))
        m = rng.randint(2, truth_cap)
        rows, anchors = _sample(rng, n, m, len(names), logic)
        hit = _first_refutation(ops, root, rows, [0, *anchors, _GRID], _GRID)
        if hit is not None:
            idx, code = hit
            model = _materialize(names, rows, anchors, _GRID, _GRID)
            return model, model.worlds[idx], _decode(code, _GRID, _GRID)
    return None


def decide(f: Formula, logic: LogicId, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Search for a countermodel of f over models of the given logic.

    exhaustive: sweep every canonical model with |W| + |T| within the bound,
    smallest sizes first; the first refutation in the fixed enumeration order
    wins, and a Valid verdict certifies the whole bounded space (subject to
    any max_worlds/max_truth caps).  random: sample cfg.budget models and
    report Unknown when none refutes.  hybrid: random first, then exhaustive.
    """
    _check_config(cfg)
    if cfg.mode in ("random", "hybrid"):
        found = random_search(f, logic, cfg)
        if found is not None:
            return Refuted(*found)
        if cfg.mode == "random":
            return Unknown(
                f"no countermodel among {cfg.budget} sampled models", cfg.budget
            )
    return _exhaustive(f, logic, cfg)


# ---------------------------------------------------------------------------
# countermodel minimization
#
# shrink works on rank codes: code i is the i-th smallest value of the input
# (0, 1, the truth set, pi and the valuation).  It only ever writes 0, 1 or a
# member of the current truth set, all of them in that table, and evaluation
# with truth set rounding depends only on the order of values, so checking a
# candidate on codes accepts exactly the models the exact check would.


def _snap_key(code: int, truth: Sequence[int], top: int) -> tuple[int, int]:
    # prefer endpoints, then truth set members, then anything else; ties go
    # to the smaller value, which makes snapping terminate
    if code == 0 or code == top:
        rank = 0
    elif code in truth:
        rank = 1
    else:
        rank = 2
    return (rank, code)


def shrink(
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
    at_world = evaluate_compiled(ops, codes[1:], codes[:1], 0, top, truth)[root]
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
                    if _snap_key(new, truth, top) >= _snap_key(old, truth, top):
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


def verdict_to_json(verdict: Verdict) -> dict:
    """The stable JSON rendering of a verdict."""
    if isinstance(verdict, Valid):
        return {
            "verdict": "valid",
            "bound": verdict.bound_used,
            "models_checked": verdict.models_checked,
        }
    if isinstance(verdict, Refuted):
        return {
            "verdict": "refuted",
            "model": model_to_json(verdict.countermodel),
            "world": verdict.world,
            "value": format_rational(verdict.value),
        }
    if isinstance(verdict, Unknown):
        return {"verdict": "unknown", "budget": verdict.budget}
    raise TypeError(f"not a verdict: {verdict!r}")
