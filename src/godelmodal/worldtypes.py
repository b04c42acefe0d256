"""World types, the first phase of exhaustive mode.

Box and diamond values do not depend on the world, and rounding into a
finite truth set gives the finite model property, so once each modal
subformula is given a constant, every world is checked on its own row
(pi, e(p1), ...).  A depth-first search over the constants' order type,
with a set cover of the rows that meet its conditions, finds the smallest
countermodel size or proves there is none; it is the quasimodel method of
Caicedo, Metcalfe, Rodriguez and Rogger (Decidability of order-based modal
logics, JCSS 2017) for world-independent modal values.  A row is one bit
of an integer, so the search costs a few integer operations per op and
level, none per row.  _world_size is the one entry: the size that holds
the first countermodel a sweep of the whole bound meets, or None.

Rows are coded against K interior truth levels 0 < c1 < ... < cK < 1.
With width = 1 + #variables and step = width + 1, level j is code
j * step, and a value strictly between levels j and j + 1 is code
j * step + 1 + r, r its rank among the row's values in that gap.  Values
of different worlds are only ever compared through a modal value, which
is a level, so one row per order type against the levels is enough.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from .syntax import LogicId

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


def _world_size(
    ops: list[tuple], root: int, n_vars: int, logic: LogicId, max_worlds: int | None, max_truth: int | None
) -> tuple[tuple[int, int] | None, int]:
    """The size (|W|, |T|) that holds the first countermodel a sweep of the
    whole bound meets within the caps, or None if no model within them
    refutes; and the number of complete order types examined.

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
    """
    m = sum(op[0] in ("box", "dia") for op in ops)
    worlds = m + 2 if logic is LogicId.KD45 else m + 1
    if max_worlds is not None:
        worlds = min(worlds, max_worlds)
    top_k = m if max_truth is None else min(m, max_truth - 2)
    tables = _world_table(top_k, 1 + n_vars, logic)
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
    return best, examined
