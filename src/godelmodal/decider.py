"""Validity checking by countermodel search.

Exhaustive mode decides validity by world types: the module worldtypes,
through its one entry _world_size, finds the smallest countermodel size
within the caps or proves there is none.  A refutation then comes from a
sweep of that one size: the canonical models, one per order type, in a
fixed order, so it is the first countermodel a sweep of all sizes up to
the bound 2(l + 2) would meet.  They lie on the
grid of k_grid = |W|(1 + #variables) + |T| steps: a model with j interior
values uses the codes 0..j, and k_grid for 1.

Random mode samples models instead, and hybrid tries random first.  Both
searches evaluate their models in batches of 1, 2, 4, ... models, each in
one pass of the op list, each modal op in one pass over the batch's worlds,
and one reader, _first_hit, takes the first countermodel of either.  A
sampled batch is drawn straight into evaluate_compiled's batch form, code
columns with the models end to end; the draws read the seeded stream
exactly as sampling one model at a time does, so the first countermodel is
the same.  The draws never read the formula, so searches that agree on the
seed, the size caps and the batch cap share one stream, which a process
keeps in a streams._Streams table, a memo of _draw; the table decides what
is read, drawn and kept, and hands the search each batch's frame, kept or
drawn, with the same codes.  So no verdict or output byte depends on what
is kept.
One driver, _search, runs the phases of each mode for decide and the
countermodel path alike.

Both searches find a countermodel in code form, a _Hit, which is a
semantics._Coded, and semantics._decode builds its exact model only for
the verdict.  The countermodel path (_decide with minimize, behind CLI
countermodel) shrinks the hit on its codes as well, so it builds one
exact model, the shrunk one it prints, and evaluates nothing exactly.
The private functions take a compiled formula, which syntax._parse_ops
emits straight from a text, so CLI check and countermodel build no node;
decide, random_search, shrink and bound_for compile a Formula on entry.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from contextlib import closing
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, islice, product
from operator import or_
from typing import Iterable, Iterator, Sequence

from .algebra import ONE, ZERO, format_rational
from .semantics import (
    PiGFModel,
    _check_class,
    _check_world,
    _Coded,
    _decode,
    _encode,
    _evaluate,
    evaluate_compiled,
    model_to_json,
)
from .streams import _Streams
from .syntax import Formula, LogicId, _Compiled, _ell, compile_formulas
from .worldtypes import _world_size

MODES = ("exhaustive", "random", "hybrid")


@dataclass(frozen=True)
class SearchConfig:
    """Search settings; building one with a field of the wrong type raises
    TypeError, and with a bad value ValueError.  A cap of None is no cap."""

    mode: str = "hybrid"
    budget: int = 10_000
    seed: int = 0
    max_worlds: int | None = None
    max_truth: int | None = None

    def __post_init__(self) -> None:
        for name in ("budget", "seed", "max_worlds", "max_truth"):
            value = getattr(self, name)
            if not isinstance(value, int) and (value is not None or name in ("budget", "seed")):
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        if self.mode not in MODES:
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.max_worlds is not None and self.max_worlds < 1:
            raise ValueError("max_worlds must be at least 1")
        if self.max_truth is not None and self.max_truth < 2:
            raise ValueError("max_truth must be at least 2")


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
    return _bound(compile_formulas([f])[0])


def _bound(ops: list[tuple]) -> int:
    return 2 * (_ell(ops) + 2)


# ---------------------------------------------------------------------------
# canonical enumeration
#
# A model assigns values to slots: one pi value per world, one valuation
# value per world and variable, plus the interior members of T.  A size
# (|W|, |T|) is coded on the grid of K = |W|(1 + #variables) + |T| steps,
# _grid(K): a model with j distinct interior values uses the codes 0..j,
# and K for 1.  Every interior code must be used by a model slot or claimed
# by T, which makes each order type appear exactly once.  The models come
# in batch frames, which _first_hit reads as it reads the random search's.


@dataclass(frozen=True)
class _Hit(_Coded):
    """A countermodel in code form, as a search finds it and shrinking keeps
    it: a possibilistic model with a truth set whose variables start with
    the formula's, in compiled order, on a search's grid or the rank table
    of semantics._encode.  world is the index of the refuting world and
    code its value there, below the top code.  swept marks a hit of the
    integer sweep, which _refuted checks against exact evaluation."""

    world: int
    code: int
    swept: bool = False


@cache
def _grid(k: int) -> tuple[Fraction, ...]:
    """The table of the grid of k steps: code c stands for c/k, so code k
    for 1."""
    return (ZERO, *(Fraction(c, k) for c in range(1, k)), ONE)


def _refuted(compiled: _Compiled, hit: _Hit) -> Refuted:
    """The verdict of a countermodel in code form: its one exact model, the
    refuting world and the decoded value.  A swept hit's value is checked
    against exact evaluation, which must agree with the integer one."""
    model = _decode(hit)
    world = model.worlds[hit.world]
    value = hit.table[hit.code]
    if hit.swept:
        exact = _evaluate(model, compiled)[hit.world]
        if exact != value or exact >= ONE:
            raise RuntimeError(f"integer sweep and exact evaluation disagree on {model!r}")
    return Refuted(model, world, value)


def _sweep_size(n_worlds: int, n_truth: int, names: tuple[str, ...], logic: LogicId, most: int) -> Iterator[tuple]:
    """Canonical world-sorted models of exactly these dimensions, by their
    count j of interior codes, then truth set, then rows, in batches of
    evaluate_compiled's batch form (columns, (pi, counts, truths)): 1, 2,
    4, ... up to most models of one truth set.

    A model's rows, its worlds' codes, strictly increase in alphabet order.
    Increasing rows identify models that only differ by a renaming of
    worlds, a model isomorphism; that cuts a size by a factor of up to n!.
    Strictly increasing rows also drop models with a duplicated world.  Min
    and max are idempotent, so a duplicate never changes a value: a model
    with a duplicated row refutes only if the model without the copy does,
    and that model lies in the earlier size (|W| - 1, |T|).  A duplicate
    can therefore never be the first hit of a sweep that visits sizes by
    increasing |W| + |T|, and dropping them changes no refutation it reports.
    """
    width = 1 + len(names)
    k_grid = n_worlds * width + n_truth
    s5 = logic is LogicId.S5  # every pi is 1
    for j in range(k_grid - 1):
        codes = (*range(j + 1), k_grid)
        alphabet = list(product((k_grid,) if s5 else codes, *[codes] * (width - 1)))
        # bit c for each interior code c a row uses, and bit 0 if its pi is
        # 1, built one position at a time in the alphabet's order
        bits = [0, *(1 << c for c in range(1, j + 1)), 0]
        masks = [1] if s5 else [*bits[:-1], 1]
        for _ in range(width - 1):
            masks = [m | b for m in masks for b in bits]
        for t_ranks in combinations(range(1, j + 1), n_truth - 2):
            # each interior code outside T is used, and under KD45 and S5 some
            # world is fully possible
            need = sum(1 << r for r in range(1, j + 1) if r not in t_ranks) | (logic is not LogicId.K45)
            t_codes = [0, *t_ranks, k_grid]
            models = (
                picks
                for picks in combinations(range(len(alphabet)), n_worlds)
                if not need & ~reduce(or_, map(masks.__getitem__, picks))
            )
            size = 1
            while batch := list(islice(models, size)):
                pi, *columns = zip(*(alphabet[i] for picks in batch for i in picks))
                yield columns, (pi, [n_worlds] * len(batch), [t_codes] * len(batch))
                size = min(2 * size, most)


def _first_hit(
    compiled: _Compiled, batches: Iterable[tuple[Sequence, tuple]], top: int, swept: bool = False
) -> _Hit | None:
    """The first countermodel, in code form, of batches in evaluate_compiled's
    batch form on the grid of top steps, or None: the first refuting world
    of the first batch that holds one, the world a model-by-model search
    would return.  Only its model is sliced out of the frame, and a batch
    without a hit costs a count of its root values."""
    ops, (root,), names = compiled
    for columns, frame in batches:
        values = evaluate_compiled(ops, columns, frame, top)[root]
        if values.count(top) < len(values):
            break
    else:
        return None
    hit = next(w for w, v in enumerate(values) if v != top)
    pi, counts, truths = frame
    ends = list(accumulate(counts))
    j = bisect_right(ends, hit)  # the model that holds the hit
    start, end = ends[j] - counts[j], ends[j]
    sample = [column[start:end] for column in columns]
    return _Hit(None, names, [pi[start:end]], sample, truths[j], _grid(top), hit - start, values[hit], swept)


def _exhaustive(compiled: _Compiled, logic: LogicId, cfg: SearchConfig) -> Valid | _Hit:
    """Decide a compiled formula exactly within the caps in two phases:
    world types (worldtypes._world_size) find the size (|W|, |T|) that
    holds a whole-bound sweep's first countermodel, or Valid, which reports
    the whole bound 2(l + 2) and the number of complete order types
    examined; then a sweep of that one size returns the countermodel in
    code form, marked swept."""
    ops, (root,), names = compiled
    size, examined = _world_size(ops, root, len(names), logic, cfg.max_worlds, cfg.max_truth)
    if size is None:
        return Valid(_bound(ops), examined)
    n_worlds, n_truth = size
    batches = _sweep_size(n_worlds, n_truth, names, logic, _batch_cap(n_worlds, ops))
    hit = _first_hit(compiled, batches, n_worlds * (1 + len(names)) + n_truth, swept=True)
    if hit is None:
        raise RuntimeError(f"world types found a countermodel of size {size}, the sweep none")
    return hit


# ---------------------------------------------------------------------------
# randomized search

_DENOMS = (2, 3, 4, 5, 6, 8, 12)
# Sampled values lie on the grid {0, 1/120, ..., 1}: 120 is the lcm of
# _DENOMS.  Code c stands for c/120, so code order is value order.
_GRID = 120
# For each denominator d, randint(0, d) and randint(1, d - 1) written as
# draws below d + 1 and d - 1: (the bound, its bit length, the grid step).
_ANY = tuple((d + 1, (d + 1).bit_length(), _GRID // d) for d in _DENOMS)
_INNER = tuple((d - 1, (d - 1).bit_length(), _GRID // d) for d in _DENOMS)
# The number of distinct interior values those draws can give
_N_INNER = len({i * step for below, _, step in _INNER for i in range(1, below + 1)})

# The most models in one batch of either search, and the most values one
# batch's evaluation may hold over the whole op list; see _batch_cap.
_BATCH = 256
_BATCH_VALUES = 1 << 20
# the sample streams the random searches of this process share, within
# _BATCH_VALUES bytes in all; see _random_hit
_STREAMS = _Streams(_BATCH_VALUES)


def _batch_cap(worlds: int, ops: list[tuple]) -> int:
    """The most models in one batch of models of at most w = worlds worlds:
    _BATCH, lowered so that b models, b * w values per op, stay within
    _BATCH_VALUES values over the op list (8 MiB of list slots; CPython
    shares small ints, and a sample's var op values are its column's bytes)
    unless one model alone holds more.  A formula of a few dozen ops at the
    default 5-world cap runs full batches of 256 samples, a few hundred KiB."""
    return max(1, min(_BATCH, _BATCH_VALUES // (worlds * len(ops))))


def _draw(
    rng: random.Random,
    count: int,
    n_vars: int,
    logic: LogicId,
    n_worlds: int,
    n_truth: int,
    caps: tuple[int, ...] | None = None,
) -> tuple[list[list[int]], tuple[list[int], list[int], list[list[int]]]]:
    """count random rounded models obeying the logic's frame constraint, in
    evaluate_compiled's batch form (columns, (pi, counts, truths)): one code
    column per variable and the pi codes, the models end to end, each
    model's world count and its sorted truth set codes.  Values sometimes
    coincide with truth set members.

    With caps None every model has n_worlds worlds and n_truth truth values.
    Otherwise n_worlds is a cap and caps[w] the truth cap of w worlds: each
    model draws |W| = randint(1, n_worlds), then |T| = randint(2,
    caps[|W|]); n_truth is then not read.  A model draws
    its interior truth values, then pi at each world (all 1 under S5), under
    KD45 a world whose pi is set to 1, then each world's variable codes.
    The grid holds only _N_INNER interior values, so a model drawing a
    larger |T| stops at that many: its truth set has min(|T|, _N_INNER + 2)
    members.

    The loop spells out the random module's calls.  randint(a, b) is a plus
    a draw below b - a + 1, choice(seq) is seq[a draw below len(seq)], and
    a draw below n takes getrandbits(n.bit_length()) until the result is
    below n.  That is CPython's _randbelow_with_getrandbits, the same for
    n > 0 in the 3.10 to 3.13 stdlib, so rng yields exactly the models that
    plain calls to rng.random, rng.randint and rng.choice in this order
    would; tests/helpers.oracle_random_search makes those calls.
    """
    rand = rng.random
    bits = rng.getrandbits
    n_denoms = len(_DENOMS)
    k_denoms = n_denoms.bit_length()
    kd45 = logic is LogicId.KD45
    columns: list[list[int]] = [[] for _ in range(n_vars)]
    worlds: list[int] = []
    pis: list[int] = []
    truths: list[list[int]] = []
    n, m = n_worlds, n_truth
    k_worlds = n_worlds.bit_length()
    if caps is not None:
        # randint(2, cap) for each |W|, as a draw below cap - 1
        truth_draws = [(c - 1, (c - 1).bit_length()) for c in caps]
    for _ in range(count):
        if caps is not None:
            r = bits(k_worlds)
            while r >= n_worlds:
                r = bits(k_worlds)
            n = 1 + r
            below, k = truth_draws[n]
            r = bits(k)
            while r >= below:
                r = bits(k)
            m = 2 + r
        interior: set[int] = set()
        want = min(m - 2, _N_INNER)
        while len(interior) < want:
            r = bits(k_denoms)
            while r >= n_denoms:
                r = bits(k_denoms)
            below, k, step = _INNER[r]
            r = bits(k)
            while r >= below:
                r = bits(k)
            interior.add((1 + r) * step)
        anchors = sorted(interior)
        n_anchors = len(anchors)
        k_anchors = n_anchors.bit_length()
        codes = [_GRID] * n if logic is LogicId.S5 else []
        pick = kd45
        # pi codes up to n, then the variable codes world by world
        for stop in (n, n + n * n_vars):
            for _ in range(stop - len(codes)):
                roll = rand()
                if roll < 0.22:
                    codes.append(0)
                elif roll < 0.44:
                    codes.append(_GRID)
                elif anchors and roll < 0.60:
                    r = bits(k_anchors)
                    while r >= n_anchors:
                        r = bits(k_anchors)
                    codes.append(anchors[r])
                else:
                    r = bits(k_denoms)
                    while r >= n_denoms:
                        r = bits(k_denoms)
                    below, k, step = _ANY[r]
                    r = bits(k)
                    while r >= below:
                        r = bits(k)
                    codes.append(r * step)
            if pick:
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                codes[r] = _GRID
                pick = False
        for v, column in enumerate(columns, n):
            column += codes[v::n_vars]
        worlds.append(n)
        pis += codes[:n]
        truths.append([0, *anchors, _GRID])
    return columns, (pis, worlds, truths)


def random_pigf_model(
    rng: random.Random,
    n_worlds: int,
    n_truth: int,
    var_names: Sequence[str],
    logic: LogicId | str,
) -> PiGFModel:
    """A random rounded model; values sometimes coincide with truth set members."""
    if n_worlds < 1:
        raise ValueError("a model needs at least one world")
    if n_truth < 2:
        raise ValueError("n_truth must be at least 2")
    columns, (pi, _, (truth,)) = _draw(rng, 1, len(var_names), LogicId(logic), n_worlds, n_truth)
    return _decode(_Coded(None, tuple(var_names), [pi], columns, truth, _grid(_GRID)))


def random_search(
    f: Formula, logic: LogicId | str, cfg: SearchConfig
) -> tuple[PiGFModel, str, Fraction] | None:
    """Sample cfg.budget models within the size bound; return the first
    countermodel found, or None.  Deterministic in cfg.seed."""
    compiled = compile_formulas([f])
    hit = _random_hit(compiled, LogicId(logic), cfg)
    if hit is None:
        return None
    found = _refuted(compiled, hit)
    return found.countermodel, found.world, found.value


def _random_hit(compiled: _Compiled, logic: LogicId, cfg: SearchConfig) -> _Hit | None:
    """random_search's first countermodel, in code form on the 1/120 grid.

    Samples are drawn in batches of 1, 2, 4, ... up to _batch_cap samples,
    in order from one rng, and _first_hit reads the first hit off them;
    doubling from 1 keeps a hit on the first samples as cheap as one sample.
    _STREAMS.batches reads, draws and keeps the batches, and yields each as
    a batch frame.
    """
    ops, _, names = compiled
    worlds_cap, caps = _sample_caps(_bound(ops), cfg)
    key = (cfg.seed, _batch_cap(worlds_cap, ops), len(names), logic, worlds_cap, cfg.max_truth or 6, caps)
    with closing(_STREAMS.batches(key, cfg.budget, _draw)) as batches:
        return _first_hit(compiled, batches, _GRID)


def _sample_caps(bound: int, cfg: SearchConfig) -> tuple[int, tuple[int, ...]]:
    """The random search's size caps within the bound: |W| <= the first,
    and |T| <= caps[w] for w worlds.  So every sample, whatever its values
    on the 1/120 grid, lies in the space that _world_size decides at the
    caps (that world cap, the largest caps[w] with w >= 1): it certifies
    that no model of those sizes refutes when it finds no size there, and
    then no sample refutes."""
    worlds = max(1, min(cfg.max_worlds or 5, bound - 2))
    return worlds, tuple([max(2, min(cfg.max_truth or 6, bound - w)) for w in range(worlds + 1)])


def _certified(f: Formula, logic: LogicId, cfg: SearchConfig) -> bool:
    """Whether world types prove that random_search(f, logic, cfg) finds
    no countermodel, by _sample_caps' argument."""
    ops, (root,), names = compile_formulas([f])
    worlds, caps = _sample_caps(_bound(ops), cfg)
    return _world_size(ops, root, len(names), logic, worlds, max(caps[1:]))[0] is None


def _search(compiled: _Compiled, logic: LogicId, cfg: SearchConfig) -> _Hit | Valid | None:
    """The search of cfg.mode: the random phase unless the mode is
    exhaustive, then the exhaustive phase unless the mode is random or the
    random phase hit.  None means the random budget found nothing."""
    if cfg.mode != "exhaustive":
        hit = _random_hit(compiled, logic, cfg)
        if hit is not None or cfg.mode == "random":
            return hit
    return _exhaustive(compiled, logic, cfg)


def decide(f: Formula, logic: LogicId | str, cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Search for a countermodel of f over models of logic, a LogicId or its
    value string; anything else raises ValueError.

    exhaustive: decide by world types whether some model within the
    max_worlds/max_truth caps refutes f; a Valid verdict certifies the whole
    bounded space, and a refutation is the first one a sweep of canonical
    models, smallest sizes first, would meet.  random: sample cfg.budget
    models and report Unknown when none refutes.  hybrid: random first,
    then exhaustive.
    """
    return _decide(compile_formulas([f]), LogicId(logic), cfg)


def _decide(compiled: _Compiled, logic: LogicId, cfg: SearchConfig, minimize=False) -> Verdict:
    """decide on a compiled formula.  With minimize, as CLI countermodel
    asks, any countermodel is shrunk as shrink would shrink its exact
    model, but on the codes the search found it in: the result is the one
    exact model built, with the worlds' original names, and its value is
    decoded from the shrinking's last evaluation."""
    found = _search(compiled, logic, cfg)
    if isinstance(found, _Hit):
        return _refuted(compiled, _shrunk(compiled, found, logic) if minimize else found)
    return found or Unknown(f"no countermodel among {cfg.budget} sampled models", cfg.budget)


# ---------------------------------------------------------------------------
# countermodel minimization
#
# _shrunk shrinks a countermodel in code form, a _Hit.
# The countermodel path hands it a search's hit as found, on the 1/120 grid
# or a sweep's grid; shrink hands it an exact model's rank codes from
# semantics._encode, with a column for every variable of the valuation, the
# formula's first, and decodes the result with semantics._decode.  Either
# way the model stays on codes until the end.


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


def _shrunk(compiled: _Compiled, hit: _Hit, logic: LogicId) -> _Hit:
    """Greedily minimize a countermodel in code form: drop worlds, coarsen
    the truth set, snap values toward endpoints and truth set members.  The
    model is copied into code columns, pi, then one column per variable,
    the formula's first in compiled order; each live world's codes are
    snapped in place, column by column.  A pi column that breaks the
    logic's constraint raises ValueError.

    Returns hit at the kept worlds, which keep their names, with the kept
    truth codes, and the refuting world and its value code from the last
    accepted evaluation, whose model the result is, since a rejected
    candidate changes nothing; with none accepted they are hit's.  A snap
    where no var op reads is kept unevaluated, and one evaluation at the
    end stands in for all such snaps; it marks no pass as changed.

    Any coding whose order is the order of the values gives the same
    result, which is why a search's hit and shrink's rank codes agree.
    Evaluation with truth set rounding compares values and returns 0, top,
    one of its inputs or a truth set member, so it maps along the coding.
    Shrinking writes only 0, top or a truth set member, found by bisection,
    which compares; it ranks candidates by _snap_key, which compares and
    tests membership, ties included.  So every decision is the same, and
    every kept code is the coding of the exact shrink's value.
    """
    ops, (root,), _ = compiled
    columns = [list(column) for column in (*hit.rows, *hit.columns)]
    truth, anchor, code, top = list(hit.truth), hit.world, hit.code, len(hit.table) - 1

    def refuting(worlds: list[int], t_codes: list[int]) -> tuple[int, int] | None:
        # the first kept world whose root code is below top, with that code
        pi, *kept = [[column[w] for w in worlds] for column in columns]
        values = evaluate_compiled(ops, kept, ([pi], t_codes), top)[root]
        return next(((w, c) for w, c in zip(worlds, values) if c != top), None)

    def lawful(worlds: list[int]) -> bool:
        if logic is LogicId.KD45:
            return any(columns[0][w] == top for w in worlds)
        if logic is LogicId.S5:
            return all(columns[0][w] == top for w in worlds)
        return True

    live = list(range(len(columns[0])))
    if not lawful(live):
        raise ValueError("model violates the logic's frame constraint")
    unread = set(range(1, len(columns))) - {1 + op[1] for op in ops if op[0] == "var"}
    snapped = False
    changed = True
    while changed:
        changed = False
        for w in list(live):
            if len(live) == 1:
                break
            kept = [v for v in live if v != w]
            found = refuting(kept, truth) if lawful(kept) else None
            if found is not None:
                live, (anchor, code), changed = kept, found, True
        for t in truth[1:-1]:
            coarser = [c for c in truth if c != t]
            found = refuting(live, coarser)
            if found is not None:
                truth, (anchor, code), changed = coarser, found, True
        for w in live:
            for i, column in enumerate(columns):
                old = column[w]
                down = truth[bisect_right(truth, old) - 1]
                up = truth[bisect_left(truth, old)]
                for new in (0, top, down, up):
                    if _snap_key(new, truth, top) >= _snap_key(old, truth, top):
                        continue
                    column[w] = new
                    if i in unread:
                        snapped = True
                        break
                    found = refuting(live, truth) if lawful(live) else None
                    if found is not None:
                        (anchor, code), changed = found, True
                        break
                    column[w] = old
    if snapped:
        anchor, code = refuting(live, truth)
    pi, *small = [[column[i] for i in live] for column in columns]
    worlds = [hit.worlds[i] if hit.worlds else f"w{i + 1}" for i in live]
    return replace(
        hit, worlds=worlds, rows=[pi], columns=small, truth=truth, world=live.index(anchor), code=code
    )


def shrink(
    model: PiGFModel, world: str, f: Formula, logic: LogicId | str
) -> tuple[PiGFModel, str]:
    """Greedily minimize a countermodel: drop worlds, coarsen the truth set,
    snap values toward endpoints and truth set members.  The result still
    refutes f, satisfies the logic's constraint, and is never larger.  Kept
    worlds keep their names and the variables of their valuation rows.
    This is _shrunk on the rank codes from semantics._encode, decoded by
    semantics._decode.  A model without a truth set raises TypeError."""
    _check_class(model, "shrink", PiGFModel)
    logic = LogicId(logic)
    compiled = compile_formulas([f])
    ops, (root,), names = compiled
    _check_world(model.worlds, world)
    valuation = model.base.valuation
    # one column per variable: the formula's first, in compiled order
    coded = _encode(model, [*names, *sorted({p for row in valuation.values() for p in row} - set(names))])
    anchor = model.worlds.index(world)
    at_world = coded.values(ops)[root][anchor]
    if at_world == len(coded.table) - 1:
        raise ValueError("shrink needs a countermodel")
    small = _shrunk(compiled, _Hit(**vars(coded), world=anchor, code=at_world), logic)
    return _decode(small, valuation), small.worlds[small.world]


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
