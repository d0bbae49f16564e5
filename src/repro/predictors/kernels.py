"""Array kernels for the vectorised trace-replay engine.

These primitives exploit the central property of the reference fetch
loop when wrong-path modelling is off: *every* structure's state
evolution (instruction cache, PHT, BTB, NLS table, RAS, global
history) is fully determined by the trace — predictions never feed
back into state.  Simulation therefore decomposes into independent
exact per-structure replays, each expressible as a handful of sorts,
searchsorteds and segmented scans over the packed trace columns:

* :func:`ragged_ranges` — expand per-event lengths into flat
  (row, offset) streams (cache-line accesses per block);
* :func:`previous_same_key` — for each element, the index of the
  previous element with the same key (direct-mapped cache hits);
* :func:`last_write_lookup` — for each query ``(key, time)``, the
  index of the last write to ``key`` at or before ``time``
  (tables with last-write-wins slots: BTB, NLS, PHT point queries);
* :func:`counter_scan` — segmented prefix composition of saturating
  clamp-add updates (exact 2-bit PHT counter replay);
* :func:`gshare_histories` — the global history register before each
  conditional, under per-epoch (flush) resets;
* :func:`segmented_counts` — per-element inclusive count of flagged
  same-key predecessors (cache-frame fill generations).

All kernels are pure NumPy and deterministic.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def ragged_ranges(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand per-row lengths into flat ``(row_ids, offsets, first)``.

    ``row_ids[j]`` is the row that flat element *j* belongs to,
    ``offsets[j]`` its 0-based position within that row, and
    ``first[i]`` the flat index of row *i*'s first element (the
    exclusive cumulative sum of ``lengths``).  Rows must have
    length >= 1.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    first = np.zeros(n, dtype=np.int64)
    if n:
        np.cumsum(lengths[:-1], out=first[1:])
    total = int(first[-1] + lengths[-1]) if n else 0
    row_ids = np.zeros(total, dtype=np.int64)
    if n > 1:
        row_ids[first[1:]] = 1
        np.cumsum(row_ids, out=row_ids)
    offsets = np.arange(total, dtype=np.int64) - first[row_ids]
    return row_ids, offsets, first


def previous_same_key(keys: np.ndarray) -> np.ndarray:
    """For each element, the index of the previous element with the
    same key, or -1 if none.

    Elements are implicitly ordered by index (time).
    """
    keys = np.asarray(keys, dtype=np.int64)
    m = len(keys)
    if m == 0:
        return np.full(0, -1, dtype=np.int64)
    return LastWriteIndex(keys, np.arange(m, dtype=np.int64)).previous_in_key()


class LastWriteIndex:
    """A sorted index over timestamped slot writes.

    Built once from ``(keys, times)`` — times must be non-decreasing
    along the original index order (all replay write streams are in
    event order) — the index answers vectorised *last write to this
    key at or before this time* queries via one binary search over a
    composite ``key * B + time`` array, and derives related orderings
    (previous same-key element, most-recent-flagged-write) from the
    same single sort.
    """

    __slots__ = ("n", "order", "sorted_keys", "big", "composite")

    def __init__(self, keys: np.ndarray, times: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        self.n = len(keys)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]
        if self.n == 0:
            return
        self.big = int(times.max()) + 2
        self.composite = self.sorted_keys * self.big + times[self.order]

    def positions(self, query_keys: np.ndarray, query_times: np.ndarray) -> np.ndarray:
        """Sorted-array position of the last write with the query's
        key at or before the query's time, or -1.

        Query times may be negative (matching nothing).
        """
        query_keys = np.asarray(query_keys, dtype=np.int64)
        query_times = np.asarray(query_times, dtype=np.int64)
        if self.n == 0 or len(query_keys) == 0:
            return np.full(len(query_keys), -1, dtype=np.int64)
        probes = query_keys * self.big + np.clip(query_times, -1, self.big - 2)
        pos = np.searchsorted(self.composite, probes, side="right") - 1
        safe = np.maximum(pos, 0)
        found = (pos >= 0) & (self.sorted_keys[safe] == query_keys)
        return np.where(found, pos, -1)

    def query(self, query_keys: np.ndarray, query_times: np.ndarray) -> np.ndarray:
        """Original write index of the last matching write, or -1."""
        pos = self.positions(query_keys, query_times)
        if self.n == 0:
            return pos
        return np.where(pos >= 0, self.order[np.maximum(pos, 0)], -1)

    def resolve(self, positions: np.ndarray) -> np.ndarray:
        """Map :meth:`positions` results back to original indices."""
        if self.n == 0:
            return positions
        return np.where(positions >= 0, self.order[np.maximum(positions, 0)], -1)

    def previous_positions(self) -> np.ndarray:
        """For each write (original order), the sorted position of the
        previous write to the same key, or -1.

        For strictly increasing times this equals ``positions(keys,
        times - 1)`` — each write's own slot queried one tick before it
        lands — read straight off the key runs, with no binary search.
        """
        prev = np.full(self.n, -1, dtype=np.int64)
        if self.n < 2:
            return prev
        same = self.sorted_keys[1:] == self.sorted_keys[:-1]
        prev_sorted = np.full(self.n, -1, dtype=np.int64)
        prev_sorted[1:][same] = np.nonzero(same)[0]
        prev[self.order] = prev_sorted
        return prev

    def previous_in_key(self) -> np.ndarray:
        """For each write, the original index of the previous write to
        the same key, or -1 — derived from the existing sort."""
        return self.resolve(self.previous_positions())

    def filtered_last(self, flags: np.ndarray) -> np.ndarray:
        """Per sorted position, the original index of the most recent
        *flagged* write at or before that position within the same key
        run, or -1.

        Composes with :meth:`positions`: ``filtered_last(f)[p]`` for a
        query position *p* is the last flagged write at or before the
        query time — how the NLS replay answers "last *taken* write"
        without a second sort.
        """
        if self.n == 0:
            return np.full(0, -1, dtype=np.int64)
        flags = np.asarray(flags, dtype=bool)
        first = segment_starts(self.sorted_keys)
        marked = np.where(
            flags[self.order], np.arange(self.n, dtype=np.int64), -1
        )
        latest = np.maximum.accumulate(marked)
        # a previous key-run's position is always < this run's first
        # element, so clamping to the run start masks cross-run leaks
        valid = latest >= first
        return np.where(valid, self.order[np.maximum(latest, 0)], -1)


def last_write_lookup(
    write_keys: np.ndarray,
    write_times: np.ndarray,
    query_keys: np.ndarray,
    query_times: np.ndarray,
) -> np.ndarray:
    """For each query, the index (into the write arrays) of the last
    write with the same key at or before the query time, or -1.

    Write times must be non-negative and non-decreasing along the
    original index order; query times may be negative (matching
    nothing).  Convenience wrapper over :class:`LastWriteIndex` for
    one-shot lookups.
    """
    n_queries = len(query_keys)
    if len(write_keys) == 0 or n_queries == 0:
        return np.full(n_queries, -1, dtype=np.int64)
    return LastWriteIndex(write_keys, write_times).query(query_keys, query_times)


def counter_scan(
    group_ids: np.ndarray,
    takens: np.ndarray,
    initial: int,
    maximum: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact segmented replay of saturating-counter updates.

    ``group_ids`` must be sorted ascending; within a group, elements
    are in time order.  Each element applies ``x -> clamp(x + a, 0,
    maximum)`` with ``a = +1`` if taken else ``-1`` to its group's
    counter, which starts at ``initial``.  Returns ``(before,
    after)`` — the counter value seen by each update before and
    after it applies.

    Uses the closed-form composition of clamp-add maps: any
    composition of ``x -> clamp(x + a_i, lo_i, hi_i)`` is itself
    ``x -> clamp(x + A, LO, HI)``, with

    ``f2 . f1 = (a1 + a2, clamp(lo1 + a2, lo2, hi2),
    clamp(hi1 + a2, lo2, hi2))``

    so a pointer-jumping prefix pass computes every prefix map in
    O(log longest-run) vector steps.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    n = len(group_ids)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    add = np.where(np.asarray(takens, dtype=bool), 1, -1).astype(np.int64)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, maximum, dtype=np.int64)
    # parent[k]: start of the not-yet-folded prefix; -1 once element k's
    # map covers its whole group prefix
    parent = np.arange(-1, n - 1, dtype=np.int64)
    if n > 1:
        parent[1:][group_ids[1:] != group_ids[:-1]] = -1
    parent[0] = -1
    active = np.nonzero(parent >= 0)[0]
    while len(active):
        p = parent[active]
        a1, lo1, hi1 = add[p], lo[p], hi[p]
        a2, lo2, hi2 = add[active], lo[active], hi[active]
        add[active] = a1 + a2
        lo[active] = np.clip(lo1 + a2, lo2, hi2)
        hi[active] = np.clip(hi1 + a2, lo2, hi2)
        parent[active] = parent[p]
        active = active[parent[active] >= 0]
    after = np.clip(initial + add, lo, hi)
    before = np.full(n, initial, dtype=np.int64)
    if n > 1:
        cont = group_ids[1:] == group_ids[:-1]
        before[1:][cont] = after[:-1][cont]
    return before, after


def gshare_histories(
    takens: np.ndarray,
    segment_first: np.ndarray,
    bits: int,
) -> np.ndarray:
    """The global history register value before each conditional.

    ``takens`` are the outcomes of all conditionals in time order;
    ``segment_first[k]`` is the index of the first conditional in
    *k*'s flush epoch (history resets to 0 on flush).  Bit *b* of the
    history before conditional *k* is the outcome of conditional
    ``k - 1 - b`` when that index lies within *k*'s epoch, so the
    register is assembled from ``bits`` shifted, validity-masked
    vector adds.
    """
    takens = np.asarray(takens, dtype=np.int64)
    segment_first = np.asarray(segment_first, dtype=np.int64)
    n = len(takens)
    history = np.zeros(n, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    for bit in range(bits):
        source = positions - 1 - bit
        valid = source >= segment_first
        history[valid] += takens[source[valid]] << bit
    return history


def segmented_counts(keys: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per element, the inclusive count of *flagged* elements with the
    same key at or before it.

    Elements are implicitly in time order.  The icache replay uses
    this with ``flags = miss`` to number each access's cache-frame
    *fill generation* — the count of fills the frame has seen — so
    frontend state bound to an evicted line is retired simply by
    keying it with the generation it was written under.
    """
    keys = np.asarray(keys, dtype=np.int64)
    flags = np.asarray(flags, dtype=bool)
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    flagged = flags[order].astype(np.int64)
    running = np.cumsum(flagged)
    first = segment_starts(keys[order])
    within = running - running[first] + flagged[first]
    counts = np.empty(n, dtype=np.int64)
    counts[order] = within
    return counts


def segment_starts(group_ids: np.ndarray) -> np.ndarray:
    """For each element of a sorted-by-group sequence, the index of
    the first element of its group."""
    group_ids = np.asarray(group_ids, dtype=np.int64)
    n = len(group_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = group_ids[1:] != group_ids[:-1]
    indices = np.where(is_start, np.arange(n, dtype=np.int64), 0)
    return np.maximum.accumulate(indices)
