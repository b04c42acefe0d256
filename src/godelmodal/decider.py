"""Validity checking by countermodel search.

Exhaustive mode decides validity by world types.  Box and diamond values
do not depend on the world, and rounding into a finite truth set gives the
finite model property, so once each modal subformula is given a constant,
every world is checked on its own row (pi, e(p1), ...).  A depth-first
search over the constants' order type, with a set cover of the rows that
meet its conditions, finds the smallest countermodel size or proves there
is none; it is the quasimodel method of Caicedo, Metcalfe, Rodriguez and
Rogger (Decidability of order-based modal logics, JCSS 2017) for
world-independent modal values.  A row is one bit of an integer, so the
search costs a few integer operations per op and level, none per row.  A
refutation then comes from a sweep of that one size: the canonical models,
one per order type, in a fixed order, so it is the first countermodel a
sweep of all sizes up to the bound 2(l + 2) would meet.  They lie on the
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
from itertools import accumulate, combinations, combinations_with_replacement, islice, product
from operator import or_
from typing import Iterable, Iterator, Sequence

from .algebra import ONE, ZERO, format_rational
from .semantics import (
    PiGFModel,
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


# ---------------------------------------------------------------------------
# world types
#
# Rows are coded against K interior truth levels 0 < c1 < ... < cK < 1.
# With width = 1 + #variables and step = width + 1, level j is code
# j * step, and a value strictly between levels j and j + 1 is code
# j * step + 1 + r, r its rank among the row's values in that gap.  Values
# of different worlds are only ever compared through a modal value, which
# is a level, so one row per order type against the levels is enough.

_REFUTED = 1  # requirement bits: some world refutes the formula,
_NORMAL = 2  # some world has pi = 1 (KD45), and bit 2 + d for modal op d


def _level_codes(level: int, blocks: int, step: int) -> Iterator[list[int]]:
    """The codes of the blocks of each row with this many blocks whose
    highest slot is in the level's group, by slot choice in increasing
    order: that slot is 2 * level + 1 or 2 * level + 2, or at most 2 at
    level 0.  A block in slot s is code s // 2 * step + s % 2, and one that
    shares a gap slot with the block below it the next code."""
    high = 2 * level + 2
    low = 2 * level + 1 if level else 0
    if not blocks:
        if not level:
            yield []
        return
    for head in combinations_with_replacement(range(high + 1), blocks - 1):
        codes: list[int] = []
        for i, s in enumerate(head):
            shared = i > 0 and head[i - 1] == s
            if shared and s % 2 == 0:
                break  # two blocks on one level
            codes.append(codes[-1] + 1 if shared else s // 2 * step + s % 2)
        else:
            below = head[-1] if head else -1
            for s in range(max(below, low), high + 1):
                if s != below:
                    yield [*codes, s // 2 * step + s % 2]
                elif s % 2:
                    yield [*codes, codes[-1] + 1]


def _ranked_orders(n: int) -> dict[int, tuple[int, list[list[int]]]]:
    """The weak orders of n items by block count: how many there are, and
    per item and rank the orders where the item has that rank, the first
    order the lowest bit.

    An order of n items with b blocks extends an order of the first n - 1:
    one with b blocks, whose block k the last item joins, or one with
    b - 1 blocks, where the last item opens a new block k and the blocks
    from k on move up one.  For each k in turn, the joins come first.  So
    each step shifts the shorter orders' rank sets into place, a few
    integer operations per block and none per order."""
    by_blocks: dict[int, tuple[int, list[list[int]]]] = {0: (1, [])}
    for m in range(n):
        grown = {}
        for blocks in range(1, m + 2):
            ranked = [[0] * blocks for _ in range(m + 1)]
            count = 0
            for k in range(blocks):
                for source, opens in ((blocks, False), (blocks - 1, True)):
                    if source in by_blocks:
                        size, earlier = by_blocks[source]
                        for ranks, rows_by_rank in zip(ranked, earlier):
                            for r, rows in enumerate(rows_by_rank):
                                ranks[r + (opens and r >= k)] |= rows << count
                        ranked[m][k] |= ((1 << size) - 1) << count
                        count += size
            grown[blocks] = (count, ranked)
        by_blocks = grown
    return by_blocks


def _world_table(k_top: int, width: int, logic: LogicId) -> Iterator[list[list[int]]]:
    """The world tables of 0, 1, ..., k_top interior levels, in turn: one
    row per order type of a world's width values against the levels, as
    columns (pi, then one per variable; under S5 pi is 1) of threshold
    bit-sets, where entry c holds bit r iff row r's code is at least c.

    A row is a weak order of its values whose blocks, in order, sit in
    slots: slot 2j is level j, which holds at most one block, and slot
    2j + 1 the gap above it, where blocks take consecutive codes.  Rows are
    nested by level: first the rows within slots 0-2, then for each next
    level g those whose highest slot is its gap or the level itself, slot
    2g + 1 or 2g + 2 (_level_codes).  Within a level they go by block
    count, then by slot choice, and the weak orders of one block count fill
    a run of rows per choice.  Codes do not depend on the number of
    levels, and slot 2k + 2 is level k + 1, the top of k levels, so the
    table of k levels is the first rows of the table of k + 1.  So there is
    one table: each level's rows are added to the same column lists, which
    grow by that level's codes, and the table is yielded again.  A level
    that no one asks for is never built."""
    step = width + 1
    s5 = logic is LogicId.S5
    ranked = _ranked_orders(width - s5)
    # per free value and code, the rows where it has that code
    columns: list[list[int]] = [[] for _ in range(width - s5)]
    pi: list[int] = []
    n = 0
    for level in range(k_top + 1):
        top = (level + 1) * step
        for column in columns:
            column += [0] * (top + 1 - len(column))
        for blocks, (orders, local) in ranked.items():
            # one run's rows are gathered apart, so that an or copies only
            # them, and then shifted into place
            runs = [[0] * (top + 1) for _ in columns]
            offset = 0
            for codes in _level_codes(level, blocks, step):
                for run, ranks in zip(runs, local):
                    for code, rows in zip(codes, ranks):
                        run[code] |= rows << offset
                offset += orders
            for column, run in zip(columns, runs):
                for c, rows in enumerate(run):
                    column[c] |= rows << n
            n += offset
        # entries of the earlier rows are closed upward already, so this
        # only closes the new rows'
        for column in columns:
            for c in range(top - 1, -1, -1):
                column[c] |= column[c + 1]
        if s5:
            pi[:] = [(1 << n) - 1] * (top + 1)
        yield [pi] * s5 + columns


def _cover_size(masks: Iterable[int], need: int, limit: int) -> int | None:
    """The fewest masks whose union holds need, if that is at most limit;
    the search passes its mask-class dicts, whose keys are the masks."""
    masks = {x & need for x in masks}
    reach = {0}
    for size in range(limit + 1):
        if need in reach:
            return size
        grown = {r | x for r in reach for x in masks}
        if grown == reach:
            return None
        reach = grown
    return None


def _imp(xs: list[int], ys: list[int]) -> list[int]:
    # x -> y is 1 where x <= y, the rows where each threshold of x holds y's
    le = ys[0]  # entry 0 holds every row
    for x, y in zip(xs, ys):
        le &= ~x | y
    return [le | y for y in ys]


def _span_values(ops: list[tuple], span: tuple[int, int], vals: dict, table: list) -> dict:
    """Evaluate the modal-free ops[start:stop] into vals, which holds every
    value the span reads, as threshold bit-sets over the rows of table."""
    for i in range(*span):
        op = ops[i]
        if op[0] == "and":
            vals[i] = [x & y for x, y in zip(vals[op[1]], vals[op[2]])]
        elif op[0] == "imp":
            vals[i] = _imp(vals[op[1]], vals[op[2]])
        else:
            vals[i] = table[1 + op[1]] if op[0] == "var" else [table[0][0]] + [0] * (len(table[0]) - 1)
    return vals


def _split(parts: dict[int, int], keep: int, rows: int, bit: int) -> dict[int, int]:
    """Mask classes cut to keep, their rows in rows moved to mask | bit."""
    out = {}
    for mask, p in parts.items():
        for m, q in ((mask | bit, p & keep & rows), (mask, p & keep & ~rows)):
            if q:
                out[m] = q
    return out


def _world_types(
    ops: list[tuple], root: int, table: list[list[int]], logic: LogicId, limit: int
) -> tuple[int | None, int]:
    """The fewest worlds, if at most limit, of a countermodel whose truth
    set has exactly K interior members, all of them modal values; and the
    number of complete order types examined.  table is the world table of
    K levels, as _world_table yields it: K is its top code over step, less
    one.

    A depth-first search gives the modal ops, in postorder, levels 0..K+1,
    using every interior level.  Level c of a box asks every world for
    pi -> b >= c (universal) and, if c < 1, some world for pi -> b below
    the next level (existential); a diamond asks for min(pi, b) <= c and,
    if c > 0, for some world above the previous level.  Worlds failing a
    universal condition are dropped.  A prefix survives while at most limit
    of the remaining rows together meet every existential requirement so
    far, plus pi = 1 under KD45; the rows only shrink down the search, so
    this pruning is sound, and every surviving prefix is the true value
    vector of a model of at most limit worlds.  A complete order type needs one
    more requirement: some world whose value of the formula is below 1.

    A complete order type is counted as examined before that cover test,
    which it must pass too, and evaluated only if it passes.  A stacked
    prefix is tested again when popped only if limit fell since it was
    pushed.

    Row r of table is bit r.  A row's values do not depend on the other
    rows, so a state shares with its parent the threshold bit-sets, over
    every row, of the ops a later op still reads.  Its rows are mask
    classes: a dict from the asked requirement bits met to those rows, so
    the cover test reads only its keys.  A child cuts each class down to
    its kept rows and splits it once on its witnesses.  The answer reads
    only sets of rows, the classes and their masks, never row numbers, so
    it does not depend on the order of the rows.
    """
    step = len(table) + 1
    top = len(table[0]) - 1
    k_levels = top // step - 1
    pi, full = table[0], table[0][0]
    modal = [i for i, op in enumerate(ops) if op[0] in ("box", "dia")]
    # the last op that reads each op's values; a var op's argument is a column
    last_read = {a: i for i, op in enumerate(ops) if op[0] != "var" for a in op[1:]}
    last_read[root] = len(ops)
    cuts = [*modal, len(ops)]
    vals = _span_values(ops, (0, cuts[0]), {}, table)
    need = _NORMAL if logic is LogicId.KD45 else 0
    parts = _split({0: full}, full, pi[top], _NORMAL) if need else {0: full}

    def settle(vals: dict, parts: dict[int, int], need: int) -> int | None:
        # a complete order type also needs a world that refutes the formula
        return _cover_size(_split(parts, full, ~vals[root][top], _REFUTED), need | _REFUTED, limit)

    if not modal:
        return settle(vals, parts, need), 1
    best, examined = None, 0
    stack = [(0, vals, parts, need, 0, limit + 1)]  # the root is tested
    while stack:
        d, vals, parts, need, used, pushed = stack.pop()
        if limit < pushed and _cover_size(parts, need, limit) is None:
            continue  # limit fell since this prefix was stacked
        i = modal[d]
        box, body = ops[i][0] == "box", ops[i][1]
        carried = [k for k in vals if last_read[k] > i]  # still read after op i
        complete = d + 1 == len(modal)
        # A box at level j keeps the worlds whose term lies at or above
        # level j, and those below level j + 1 witness it; a diamond keeps
        # those at or below level j, and those above level j - 1 witness it.
        # Levels are visited so that the kept worlds only grow.
        terms = _imp(pi, vals[body]) if box else [p & b for p, b in zip(pi, vals[body])]
        terms += [0]  # no term reaches past top
        bit = 4 << d
        children = []
        for j in range(k_levels + 1, -1, -1) if box else range(k_levels + 2):
            grown = used | (1 << j) if 0 < j <= k_levels else used
            if k_levels - grown.bit_count() > len(modal) - d - 1:
                continue  # too few ops left to use every interior level
            asked = j <= k_levels if box else j > 0
            witnesses = 0 if not asked else ~terms[(j + 1) * step] if box else terms[(j - 1) * step + 1]
            marked = need | bit if asked else need
            split = _split(parts, terms[j * step] if box else ~terms[j * step + 1], witnesses, bit)
            if not split:
                continue
            examined += complete
            # prune before building the values; a complete type that cannot
            # cover marked cannot cover it with a refuting world either
            if _cover_size(split, marked, limit) is None:
                continue
            child = {k: vals[k] for k in carried}
            child[i] = [full] * (j * step + 1) + [0] * (top - j * step)
            _span_values(ops, (i + 1, cuts[d + 1]), child, table)
            if not complete:
                children.append((d + 1, child, split, marked, grown, limit))
                continue
            size = settle(child, split, marked)
            if size is not None:
                best, limit = size, size - 1
                if not limit:
                    return best, examined
        # explore level 0 first
        stack.extend(children if box else reversed(children))
    return best, examined


def _exhaustive(compiled: _Compiled, logic: LogicId, cfg: SearchConfig) -> Valid | _Hit:
    """Decide a compiled formula exactly within the caps by world types,
    then sweep the one size (|W|, |T|) that holds a whole-bound sweep's first countermodel,
    returned in code form and marked swept.

    Let m be the number of modal ops.  Filtration caps: any rounded
    countermodel shrinks to one with |W| <= m + 1 (m + 2 under KD45) and
    |T| <= m + 2 whose interior truth values are all modal values.  Coarsen
    T to {0, 1} and the modal values: each modal value already lies in the
    coarser set, so no rounding and no value changes.  Then keep the
    refuting world, one world per box below 1 whose term stays below the
    next truth value, one per diamond above 0 whose term stays above the
    previous one, and under KD45 one world with pi = 1; the witnesses keep
    every modal value, so every value at a kept world stays.  Neither step
    grows |W| or |T|, so the countermodel of the first size that a sweep of
    all sizes by increasing |W| + |T|, then |W|, would reach is of this kind,
    and world types with K <= m interior levels and at most m + 1 (m + 2)
    rows find that size.
    One _world_table is built, level by level: the search of each K reads
    the table of K levels, its rows nested by level, and a level past the
    last search is never built.  Which rows a search reads, not their
    order, decides its answer, so this is the search of a table built for
    each K.
    Valid reports the whole bound 2(l + 2) and the number of complete
    order types examined.
    """
    ops, (root,), names = compiled
    bound = _bound(ops)
    m = sum(op[0] in ("box", "dia") for op in ops)
    worlds = m + 2 if logic is LogicId.KD45 else m + 1
    if cfg.max_worlds is not None:
        worlds = min(worlds, cfg.max_worlds)
    top_k = m if cfg.max_truth is None else min(m, cfg.max_truth - 2)
    tables = _world_table(top_k, 1 + len(names), logic)
    best = None
    examined = 0
    for k in range(top_k + 1):
        limit = worlds
        if best is not None:
            # the size (n, k + 2) must sort before best: n + k + 2 < sum of
            # best, or equal sums and n below best's worlds
            limit = min(limit, best[0] + best[1] - k - 2)
        if limit < 1:
            break
        n_worlds, seen = _world_types(ops, root, next(tables), logic, limit)
        examined += seen
        if n_worlds is not None:
            best = (n_worlds, k + 2)
    if best is None:
        return Valid(bound, examined)
    n_worlds, n_truth = best
    batches = _sweep_size(n_worlds, n_truth, names, logic, _batch_cap(n_worlds, ops))
    hit = _first_hit(compiled, batches, n_worlds * (1 + len(names)) + n_truth, swept=True)
    if hit is None:
        raise RuntimeError(f"world types found a countermodel of size {best}, the sweep none")
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
    bound = _bound(ops)
    worlds_cap = max(1, min(cfg.max_worlds or 5, bound - 2))
    n_truth = cfg.max_truth or 6
    # the truth set cap of each world count, within the bound
    caps = tuple([max(2, min(n_truth, bound - w)) for w in range(worlds_cap + 1)])
    key = (cfg.seed, _batch_cap(worlds_cap, ops), len(names), logic, worlds_cap, n_truth, caps)
    with closing(_STREAMS.batches(key, cfg.budget, _draw)) as batches:
        return _first_hit(compiled, batches, _GRID)


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
    if not isinstance(model, PiGFModel):
        raise TypeError(f"shrink needs a PiGFModel, not {type(model).__name__}")
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
