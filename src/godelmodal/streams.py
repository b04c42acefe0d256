"""Sample streams that the random searches of one process share.

The random search (decider._random_hit) evaluates samples in batches of 1,
2, 4, ... up to a batch cap, and its samples depend only on the seed and
the sampler's arguments, never on the formula.  Searches that agree on
those read one stream, so a process keeps each stream's batches here: a
memo of the sampler's batch frames, packed by _pack in a layout that only
this module knows.  A stream's batches are all full but perhaps the last,
which holds as many samples as the search that drew it asked for.
_Streams.batches owns the policy: it reads, replays, draws, keeps and
publishes, and the search only evaluates the frames it yields.
"""

from __future__ import annotations

import random
import sys
import threading
from array import array
from collections import OrderedDict
from itertools import accumulate, pairwise
from typing import Iterator

# the bytes of a packed count
_UINT = array("I").itemsize
# The bytes a table entry holds besides its codes, from sys.getsizeof and
# tracemalloc: its key, truth caps and batch tuples, its seed and dict node,
# and 8 bytes per truth cap; then each batch's bytes header and tuple slot.
_ENTRY = 400
_BATCH_HEAD = 41


def _pack(frame: tuple) -> bytes:
    """A batch frame, as the sampler draws it, packed as _unpack reads it:
    the model count and each model's world count as unsigned ints (there
    may be more than 255 worlds), then one byte for each model's truth set
    size and for each code, all below 256: the pi codes, one column per
    variable and the truth set codes, the models end to end."""
    columns, (pi, counts, truths) = frame
    codes = [len(truth) for truth in truths]
    codes += pi
    for column in columns:
        codes += column
    for truth in truths:
        codes += truth
    return array("I", [len(counts), *counts]).tobytes() + bytes(codes)


def _samples(data: bytes) -> int:
    """The number of models a packed batch holds."""
    return int.from_bytes(data[:_UINT], sys.byteorder)


def _unpack(
    data: bytes, count: int, n_vars: int
) -> tuple[list[bytes], tuple[bytes, list[int], list[bytes]]]:
    """The frame of the first count models of a packed batch of n_vars code
    columns, sliced straight from data: the columns and (pi, counts,
    truths), the codes and world counts _pack was given for them."""
    size = _samples(data)
    head = (1 + size) * _UINT
    worlds = memoryview(data)[_UINT:head].cast("I")
    total = sum(worlds)
    counts = worlds[:count].tolist()
    used = sum(counts)
    pi = head + size
    columns = [data[pi + total * v:pi + total * v + used] for v in range(1, 1 + n_vars)]
    truths = accumulate(data[head:head + count], initial=pi + total * (1 + n_vars))
    return columns, (data[pi:pi + used], counts, [data[a:b] for a, b in pairwise(truths)])


def _cost(key: tuple, batches: tuple[bytes, ...]) -> int:
    """The bytes a table entry holds; its key ends with the truth caps."""
    return _ENTRY + 8 * len(key[-1]) + sum(map(len, batches)) + _BATCH_HEAD * len(batches)


class _Streams:
    """Sample streams by key (seed, batch cap, then the sampler's arguments
    after count): each stream's batches in order.  A published entry is
    never changed, only replaced by one of more samples, so a search reads
    its batches without the lock.  The entries hold at most bound bytes in
    all, counted by _cost; the least recently used goes first."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.entries: OrderedDict[tuple, tuple[bytes, ...]] = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def batches(self, key: tuple, budget: int, draw) -> Iterator[tuple]:
        """The batches of budget samples of the stream key, as batch frames
        of count samples of a batch of 1, 2, 4, ... up to key[1] samples.

        The kept batches come first, unpacked.  From the first batch the
        table lacks, or holds short of count, the stream is drawn on the
        generator's own random.Random(key[0]), after replaying, and throwing
        away, the full batches before that batch; draw(rng, count, *key[2:])
        returns count samples as a frame of key[2] columns, yielded as drawn.
        A last batch of count < size samples draws just those, the first
        count samples of the full batch, and is kept as the stream's last: a
        search of the same budget reads it, and a longer one draws the batch
        in full and keeps that in its place.  No generator state is kept: its
        2.5 KB is many times the codes of a short stream, and only a stream
        that grows pays the replay.  The drawn batches are packed and kept
        while the entry's _cost stays within bound, and published when the
        generator is exhausted or closed.  It holds its own batch list and
        rng, so a search suspended at any batch and resumed later, whatever
        other searches publish meanwhile, gets the batches of an
        uninterrupted one."""
        with self.lock:
            batches = list(self.entries.get(key, ()))
            if batches:
                self.entries.move_to_end(key)
        grew = False
        keep = True
        rng = None
        size = 1
        i = 0
        try:
            while budget > 0:
                count = min(size, budget)
                if i < len(batches) and count <= _samples(batches[i]):
                    frame = _unpack(batches[i], count, key[2])
                else:
                    if rng is None:
                        rng = random.Random(key[0])
                        for j in range(i):
                            draw(rng, min(1 << j, key[1]), *key[2:])
                    frame = draw(rng, count, *key[2:])
                    if keep:
                        data = _pack(frame)
                        keep = _cost(key, (*batches[:i], data)) <= self.bound
                        if keep:
                            # a kept batch short of size is the stream's last
                            batches[i:] = [data]
                            grew = True
                yield frame
                budget -= count
                size = min(2 * size, key[1])
                i += 1
        finally:
            if grew:
                with self.lock:
                    old = self.entries.get(key)
                    if old is None or sum(map(_samples, batches)) > sum(map(_samples, old)):
                        # publish, unless another search published as much
                        self.entries[key] = batches = tuple(batches)
                        self.entries.move_to_end(key)
                        self.nbytes += _cost(key, batches) - (_cost(key, old) if old else 0)
                        while self.nbytes > self.bound:
                            self.nbytes -= _cost(*self.entries.popitem(last=False))

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.nbytes = 0
