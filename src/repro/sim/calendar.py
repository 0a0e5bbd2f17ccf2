"""An adaptive calendar-queue scheduler with exact ``(time, seq)`` order.

The kernel's pending-event structure.  A binary heap pays
O(log n) comparisons per operation — and every comparison is a
Python-level ``ScheduledCallback.__lt__`` call — so the per-event cost
grows with the *population* of pending events, not with the work done.
At paper scale (hundreds of pending events) that is invisible; at the
ROADMAP's 1000-node / 10⁵-terminal machine every idle terminal holds a
pending arrival and the heap burns tens of Python comparisons per
push and pop.

A calendar queue (Brown 1988) spreads pending events over an array of
time buckets, each ``width`` seconds wide, jointly covering one *year*
``[year_start, year_start + num_buckets * width)``:

* **push** — events due in the current year are appended, unsorted, to
  their bucket (two float ops and a C-speed ``list.append``); events
  beyond the year go to an overflow heap.
* **pop** — the queue walks buckets in time order.  A bucket is sorted
  *once*, when the cursor reaches it (Timsort under an
  ``operator.attrgetter`` key: C-speed comparisons, no ``__lt__``
  calls), descending, then consumed by ``list.pop()`` from the tail —
  a physical removal, required because the kernel recycles popped
  handles and rewrites their ``(time, seq)``.
* **adaptation** — a fixed width cannot serve this simulator's
  workload, which is extremely *skewed*: 10⁵ idle-terminal think
  timers spread over hundreds of simulated seconds coexist with a
  service-event stream thousands of times denser near ``now``.  A
  width derived from the global span (span/buckets) puts thousands of
  near-term events into every bucket and the structure degenerates
  into O(n) sorted-insertions.  Instead, the geometry tracks the
  *dispatch-density* of the head, ladder-queue style:

  - when the cursor reaches a bucket holding more events than
    ``_SPLIT_THRESHOLD``, the near tier is re-anchored at that
    bucket's earliest event with a proportionally narrower width
    (events pushed past the new, nearer year end spill to overflow);
  - when a year is exhausted, the queue re-anchors at the overflow
    head, draws the events due in the new year out of the overflow
    heap, and re-sizes the bucket count to the number of events
    dispatched during the finished year (consecutive low-yield years
    widen the width again, so sparse stretches — an idle tail, a
    think-time gap — cost a few cheap re-anchors instead of long
    empty-bucket scans).

  Far-future events therefore live in the overflow heap (paying
  O(log n) only twice — on entering and on being drawn into their
  year), while the dense near-term stream pays O(1) amortized
  appends/pops against buckets that are never far from one event
  deep.

Exactness (the property the determinism suite enforces): the partition
of events into buckets is by the *monotone* map ``floor((t -
year_start) / width)``, so bucket order refines time order, the lazy
per-bucket sort refines it to full ``(time, seq)`` order, and ties are
impossible (``seq`` is unique).  Events that land in an
already-passed bucket (possible only for pushes at the cursor's own
timestamp) merge into the sorted current run; the overflow heap never
holds anything earlier than the year end.  Pops therefore come out in
exactly the order a binary heap would produce (the test suite checks
this against ``heapq``).  All re-anchor decisions
depend only on the operation sequence and event times, never on wall
clock, so the structure is deterministic too.

Cancellation matches heap semantics: ``ScheduledCallback.cancel`` flips
a flag and the dead entry is reaped when popped, never eagerly.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.sim.kernel import ScheduledCallback

__all__ = ["CalendarQueue"]

#: Sort/insort key: C-speed (time, seq) tuples instead of Python __lt__.
_TIME_SEQ = attrgetter("time", "seq")


def _reverse_key(handle: "ScheduledCallback"):
    """Insort key for the descending current run (latest first).

    The current run is kept sorted *descending* so consumption is a
    physical ``list.pop()`` from the tail.  That matters beyond
    aesthetics: the kernel recycles popped handles and rewrites their
    ``(time, seq)`` slots, so a consumed entry must leave the structure
    immediately — a lazily skipped prefix would see its sort keys
    mutate underneath later bisects.
    """
    return (-handle.time, -handle.seq)


#: Bucket-count clamp (powers of two).  The floor keeps tiny queues
#: trivial; the cap bounds re-anchor cost for pathological densities.
_MIN_BUCKETS_POW = 3
_MAX_BUCKETS_POW = 17

#: Width floor guards the degenerate all-events-at-one-instant span.
_MIN_WIDTH = 1e-12

#: A visited bucket deeper than this triggers a narrower re-anchor...
_SPLIT_THRESHOLD = 48
#: ...aiming for roughly this occupancy afterwards.
_SPLIT_TARGET = 8

#: A year that dispatched fewer events than this widens the next one.
_SPARSE_YEAR = 4


class CalendarQueue:
    """Pending-event queue; pops in exact global ``(time, seq)`` order.

    The kernel drives it through three calls: :meth:`push`,
    :meth:`peek` (which also advances the internal cursor), and
    :meth:`pop` (valid immediately after a successful peek).
    """

    __slots__ = (
        "_buckets",
        "_num_buckets",
        "_width",
        "_year_start",
        "_year_end",
        "_cursor",
        "_current",
        "_overflow",
        "_size",
        "_pops",
    )

    def __init__(self) -> None:
        self._num_buckets = 1 << _MIN_BUCKETS_POW
        self._buckets: List[List[ScheduledCallback]] = [
            [] for _ in range(self._num_buckets)
        ]
        self._width = 1.0
        self._year_start = 0.0
        self._year_end = float(self._num_buckets)
        #: Index of the bucket currently being consumed; -1 = before
        #: bucket 0 (nothing sorted yet).
        self._cursor = -1
        #: The current bucket, sorted descending; consumed from the tail.
        self._current: List[ScheduledCallback] = []
        #: Events beyond the current year, ordered by handle ``__lt__``.
        self._overflow: List[ScheduledCallback] = []
        self._size = 0
        #: Pops since the last re-anchor; sizes the next year's buckets.
        self._pops = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def push(self, handle: "ScheduledCallback") -> None:
        """Insert ``handle``; O(1) amortized for in-year events."""
        self._size += 1
        time = handle.time
        if time >= self._year_end:
            heapq.heappush(self._overflow, handle)
            return
        index = int((time - self._year_start) / self._width)
        if index >= self._num_buckets:
            # Float rounding at the year's far edge.
            index = self._num_buckets - 1
        if index <= self._cursor:
            # The cursor has already passed (or is inside) this bucket:
            # merge into the descending current run.  (A negative index
            # — a push earlier than the year start — lands here too.)
            current = self._current
            if len(current) > _SPLIT_THRESHOLD:
                self._split_current(handle)
            else:
                insort(current, handle, key=_reverse_key)
        else:
            self._buckets[index].append(handle)

    def peek(self) -> Optional["ScheduledCallback"]:
        """The earliest pending handle, or ``None`` when empty.

        Advances the cursor (sorting buckets, re-anchoring the year)
        until the earliest event sits at the tail of the current run;
        :meth:`pop` may then take it in O(1).
        """
        current = self._current
        if current:
            return current[-1]
        if self._size == 0:
            return None
        while True:
            handle = self._advance()
            if handle is not None:
                return handle
            # A split or rollover re-anchored the year; rescan.

    def pop(self) -> "ScheduledCallback":
        """Remove and return the earliest handle (peek's answer).

        Physically removes the entry — the kernel recycles popped
        handles, so no reference may linger in the queue.
        """
        if not self._current and self.peek() is None:
            raise IndexError("pop from empty CalendarQueue")
        self._size -= 1
        self._pops += 1
        return self._current.pop()

    # ------------------------------------------------------------------
    # Cursor advance and re-anchoring
    # ------------------------------------------------------------------

    def _advance(self) -> Optional["ScheduledCallback"]:
        """Move the cursor to the next non-empty bucket and sort it.

        Returns the earliest handle, or ``None`` when the geometry was
        re-anchored (bucket split or year rollover) and the caller
        must rescan.
        """
        buckets = self._buckets
        num_buckets = self._num_buckets
        cursor = self._cursor
        while cursor + 1 < num_buckets:
            cursor += 1
            bucket = buckets[cursor]
            if not bucket:
                continue
            self._cursor = cursor
            if len(bucket) > _SPLIT_THRESHOLD and self._split(cursor):
                return None
            bucket.sort(key=_TIME_SEQ, reverse=True)
            buckets[cursor] = []
            self._current = bucket
            return bucket[-1]
        self._cursor = cursor
        self._rollover()
        return None

    def _split(self, cursor: int) -> bool:
        """Re-anchor with a narrower width at an overloaded bucket.

        Returns False — leaving the bucket to be sorted and consumed
        as-is — when the width already sits at its floor or every
        event in the bucket shares one timestamp (narrowing cannot
        separate them).
        """
        bucket = self._buckets[cursor]
        earliest = latest = bucket[0].time
        for handle in bucket:
            time = handle.time
            if time < earliest:
                earliest = time
            elif time > latest:
                latest = time
        floor = max(_MIN_WIDTH, math.ulp(earliest))
        if latest <= earliest or self._width <= floor:
            return False
        # Collect the whole near tier (the current run is empty here;
        # buckets before the cursor were consumed).
        items = bucket
        for index in range(cursor + 1, self._num_buckets):
            tail = self._buckets[index]
            if tail:
                items.extend(tail)
        shift = (len(bucket) // _SPLIT_TARGET).bit_length()
        width = self._width / (1 << shift)
        if width < floor:
            width = floor
        self._apply_geometry(earliest, width, len(items))
        self._replace(items)
        self._drain_overflow()
        return True

    def _split_current(self, handle: "ScheduledCallback") -> None:
        """Re-anchor with a narrower width when the current run balloons.

        A bucket can be innocently small when the cursor sorts it yet
        balloon afterwards: while the simulation's clock crawls across
        the bucket's time range, every newly scheduled event due within
        the rest of that range merges into the sorted current run.  A
        too-wide bucket (the bootstrap geometry, or a density surge)
        would then degrade pushes into O(n) sorted-insertions — the
        classic calendar-queue failure under skew.  Re-anchoring at the
        run's earliest event with a proportionally narrower width
        restores O(1) appends; events past the nearer year end spill to
        overflow.

        Falls back to a plain insort when the run shares one timestamp
        (narrowing cannot separate it) or the width is at its floor.
        """
        current = self._current
        earliest = current[-1].time
        latest = current[0].time
        time = handle.time
        if time < earliest:
            earliest = time
        elif time > latest:
            latest = time
        floor = max(_MIN_WIDTH, math.ulp(earliest))
        if latest <= earliest or self._width <= floor:
            insort(current, handle, key=_reverse_key)
            return
        shift = (len(current) // _SPLIT_TARGET).bit_length()
        width = self._width / (1 << shift)
        items = current
        items.append(handle)
        for index in range(self._cursor + 1, self._num_buckets):
            tail = self._buckets[index]
            if tail:
                items.extend(tail)
        self._apply_geometry(earliest, width, len(items))
        self._replace(items)
        self._drain_overflow()

    def _rollover(self) -> None:
        """Start the next year at the overflow head.

        Only reached with the near tier fully consumed, so everything
        pending lives in the overflow heap.  The new year's bucket
        count follows the finished year's dispatch count, and a
        low-yield year widens the width — sparse stretches re-anchor
        a few times geometrically instead of scanning empty buckets.
        """
        overflow = self._overflow
        if not overflow:
            raise AssertionError(
                "CalendarQueue accounting error: size "
                f"{self._size} but no pending events found"
            )
        pops = self._pops
        width = self._width
        if pops < _SPARSE_YEAR:
            width *= 4.0
        self._apply_geometry(overflow[0].time, width, pops)
        self._drain_overflow()

    def _apply_geometry(
        self, year_start: float, width: float, population: int
    ) -> None:
        """Reset buckets/cursor for a new year anchored at an event.

        ``population`` sizes the bucket count (clamped power of two);
        ``width`` is widened as needed so the year strictly advances
        past its start despite float rounding at large magnitudes.
        """
        num_buckets = 1 << min(
            _MAX_BUCKETS_POW,
            max(_MIN_BUCKETS_POW, population.bit_length()),
        )
        floor = max(_MIN_WIDTH, math.ulp(year_start))
        if width < floor:
            width = floor
        year_end = year_start + width * num_buckets
        while year_end <= year_start:
            width *= 2.0
            year_end = year_start + width * num_buckets
        self._num_buckets = num_buckets
        self._buckets = [[] for _ in range(num_buckets)]
        self._width = width
        self._year_start = year_start
        self._year_end = year_end
        self._cursor = -1
        self._current = []
        self._pops = 0

    def _replace(self, items: List["ScheduledCallback"]) -> None:
        """Distribute collected near-tier events into fresh geometry.

        Events past the (possibly nearer) new year end move to the
        overflow heap in one O(n) heapify rather than n heappushes.
        """
        year_end = self._year_end
        year_start = self._year_start
        width = self._width
        num_buckets = self._num_buckets
        buckets = self._buckets
        far: List[ScheduledCallback] = []
        for handle in items:
            time = handle.time
            if time >= year_end:
                far.append(handle)
                continue
            index = int((time - year_start) / width)
            if index >= num_buckets:
                index = num_buckets - 1
            buckets[index].append(handle)
        if far:
            overflow = self._overflow
            overflow.extend(far)
            heapq.heapify(overflow)

    def _drain_overflow(self) -> None:
        """Pull overflow events that now fall inside the year.

        Keeps the invariant that the overflow heap never holds
        anything earlier than ``year_end`` — each far event pays its
        two O(log n) heap operations exactly once.
        """
        overflow = self._overflow
        if not overflow or overflow[0].time >= self._year_end:
            return
        year_end = self._year_end
        year_start = self._year_start
        width = self._width
        num_buckets = self._num_buckets
        buckets = self._buckets
        heappop = heapq.heappop
        while overflow and overflow[0].time < year_end:
            handle = heappop(overflow)
            index = int((handle.time - year_start) / width)
            if index >= num_buckets:
                index = num_buckets - 1
            buckets[index].append(handle)
