"""Unit tests for the adaptive calendar-queue scheduler.

The contract under test (see :mod:`repro.sim.calendar`): pops come out
in exact global ``(time, seq)`` order — bit-identical to a binary
heap — across every adaptation the structure performs internally
(bucket splits, year rollovers, sparse-year widening, overflow
spills).  Ordering tests are differential against ``heapq`` on the
same operation sequence; a few white-box probes pin the adaptation
behaviour itself so a regression shows up as the geometry silently
degenerating rather than as a slow full-suite run.
"""

import heapq
import random

import pytest

from repro.sim.calendar import CalendarQueue
from repro.sim.kernel import Environment


class Handle:
    """Stand-in for the kernel's ``ScheduledCallback`` heap entry."""

    __slots__ = ("time", "seq")

    def __init__(self, time, seq):
        self.time = time
        self.seq = seq

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


def drain(queue):
    out = []
    while queue:
        head = queue.peek()
        popped = queue.pop()
        assert popped is head
        out.append(popped)
    return out


def keys(handles):
    return [(h.time, h.seq) for h in handles]


def test_empty_queue_protocol():
    queue = CalendarQueue()
    assert len(queue) == 0
    assert not queue
    assert queue.peek() is None
    with pytest.raises(IndexError):
        queue.pop()


def test_pops_in_time_seq_order():
    queue = CalendarQueue()
    rng = random.Random(0x5EED)
    handles = [
        Handle(round(rng.uniform(0.0, 50.0), 6), seq)
        for seq in range(2000)
    ]
    for handle in handles:
        queue.push(handle)
    assert keys(drain(queue)) == sorted(keys(handles))


def test_same_time_ties_pop_in_seq_order():
    queue = CalendarQueue()
    handles = [Handle(4.25, seq) for seq in range(500)]
    for handle in reversed(handles):
        queue.push(handle)
    assert drain(queue) == handles


def test_push_behind_cursor_merges_into_current_run():
    # Pushes at (or before) the head's own timestamp must land in the
    # already-sorted current run, not a passed bucket.
    queue = CalendarQueue()
    for seq in range(8):
        queue.push(Handle(float(seq), seq))
    first = queue.pop()
    assert (first.time, first.seq) == (0.0, 0)
    late = Handle(0.0, 100)  # same time as the popped head, later seq
    queue.push(late)
    mid = Handle(0.5, 101)  # inside the consumed part of the year
    queue.push(mid)
    assert queue.pop() is late
    assert queue.pop() is mid
    assert [h.seq for h in drain(queue)] == [1, 2, 3, 4, 5, 6, 7]


def test_interleaved_with_recycling_matches_heap():
    """Differential check with the kernel's handle-recycling pattern.

    Popped handles are immediately reused for later pushes with a
    rewritten ``(time, seq)`` — the reason consumption must physically
    remove entries.  The shadow model is a plain tuple heap.
    """
    queue = CalendarQueue()
    shadow = []
    rng = random.Random(0xCA1)
    now = 0.0
    seq = 0
    free = []
    for step in range(20_000):
        if shadow and rng.random() < 0.5:
            expected = heapq.heappop(shadow)
            got = queue.pop()
            assert (got.time, got.seq) == expected
            now = got.time
            free.append(got)
        else:
            # Mixed horizon: mostly near-term, some far-future (think
            # timers), occasional same-instant reschedules.
            draw = rng.random()
            if draw < 0.70:
                delay = rng.uniform(0.0, 2.0)
            elif draw < 0.95:
                delay = rng.uniform(100.0, 500.0)
            else:
                delay = 0.0
            handle = free.pop() if free else Handle(0.0, 0)
            handle.time = now + delay
            handle.seq = seq
            queue.push(handle)
            heapq.heappush(shadow, (handle.time, handle.seq))
            seq += 1
    while shadow:
        got = queue.pop()
        assert (got.time, got.seq) == heapq.heappop(shadow)
    assert queue.peek() is None


def test_far_future_events_sit_in_overflow_until_their_year():
    queue = CalendarQueue()
    near = [Handle(float(seq) * 0.1, seq) for seq in range(10)]
    far = [
        Handle(1e6 + float(seq), 1000 + seq) for seq in range(10)
    ]
    for handle in far + near:
        queue.push(handle)
    # The bootstrap year is [0, 8): every far event overflows.
    assert len(queue._overflow) == len(far)
    got = drain(queue)
    assert got == near + far
    assert not queue._overflow


def test_dense_bucket_split_narrows_geometry():
    # 5000 events inside [0, 1) — one bootstrap bucket.  Consuming
    # them must re-anchor with a much narrower width instead of
    # insertion-sorting a 5000-entry run.
    queue = CalendarQueue()
    rng = random.Random(7)
    handles = [
        Handle(rng.uniform(0.0, 1.0), seq) for seq in range(5000)
    ]
    for handle in handles:
        queue.push(handle)
    assert queue.peek() is not None  # forces the first advance/split
    assert queue._width < 1.0
    assert keys(drain(queue)) == sorted(keys(handles))


def test_ballooning_current_run_splits_on_push():
    # The run is small when sorted but balloons afterwards: pushes
    # landing at the cursor must eventually re-anchor rather than
    # degrade into O(n) insorts.
    queue = CalendarQueue()
    queue.push(Handle(0.0, 0))
    assert queue.peek() is not None
    old_width = queue._width
    for seq in range(1, 400):
        # All due inside the current (bootstrap-wide) bucket range.
        queue.push(Handle(0.5 + seq * 1e-4, seq))
    assert queue._width < old_width
    assert [h.seq for h in drain(queue)] == list(range(400))


def test_sparse_tail_widens_instead_of_scanning():
    # Exponentially spaced events: every year is sparse, so rollover
    # must widen the width geometrically (a handful of re-anchors)
    # rather than walk empty buckets.
    queue = CalendarQueue()
    handles = [
        Handle(float(4**power), power) for power in range(16)
    ]
    for handle in handles:
        queue.push(handle)
    assert drain(queue) == handles
    assert queue._width > 1.0


def test_all_events_at_one_instant_hit_the_width_floor():
    # Narrowing cannot separate identical timestamps: the split path
    # must fall back gracefully (no infinite re-anchor loop).
    queue = CalendarQueue()
    handles = [Handle(3.0, seq) for seq in range(200)]
    for handle in handles:
        queue.push(handle)
    assert drain(queue) == handles


def test_kernel_cancellation_is_lazy_and_exact():
    """Cancelled handles are reaped at pop time, never eagerly."""
    env = Environment()
    fired = []
    keep = env.schedule(2.0, fired.append, "keep")
    dead = env.schedule(1.0, fired.append, "dead")
    env.schedule(3.0, fired.append, "tail")
    dead.cancel()
    assert keep is not dead
    env.run()
    assert fired == ["keep", "tail"]
    assert env.now == 3.0


def test_kernel_reschedule_after_cancel_reuses_handle_safely():
    env = Environment()
    fired = []
    dead = env.schedule(5.0, fired.append, "dead")
    dead.cancel()

    def chain(label, left):
        fired.append(label)
        if left:
            env.schedule(1.0, chain, label, left - 1)

    env.schedule(1.0, chain, "tick", 3)
    env.run()
    assert fired == ["tick"] * 4
    # Reaping a cancelled entry never advances the clock.
    assert env.now == 4.0
