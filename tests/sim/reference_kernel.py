"""Reference dispatch structures for differential kernel tests.

The kernel keeps pending callbacks in one calendar queue plus a
same-time fast lane.  Both are representations of a single order,
ascending ``(time, seq)``, so any structure that yields that order
must give bit-identical simulations.  This module builds the two
simplest such structures, test-side only, so that the kernel can be
checked against them without the kernel carrying toggles for them:

* :class:`HeapQueue` -- a binary heap with the calendar queue's
  ``push``/``peek``/``pop`` protocol (scheduler ``"heap"``);
* :class:`QueueOnlyLane` -- stands in for the fast lane and sends
  every zero-delay callback to the queue instead (fast lane off), so
  each dispatch goes through the one ordered structure.

:func:`use` swaps them into a freshly built :class:`Environment`;
:func:`install` does so for every environment built while a pytest
``monkeypatch`` is active, which covers whole-simulation runs.
"""

import heapq

from repro.sim.kernel import Environment

SCHEDULERS = ("calendar", "heap")

# Captured at import so that repeated installs replace, not stack.
_KERNEL_INIT = Environment.__init__


class HeapQueue:
    """``heapq`` over kernel handles, ordered by their ``__lt__``."""

    __slots__ = ("_heap",)

    def __init__(self):
        self._heap = []

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)

    def push(self, handle):
        heapq.heappush(self._heap, handle)

    def peek(self):
        return self._heap[0] if self._heap else None

    def pop(self):
        return heapq.heappop(self._heap)


class QueueOnlyLane:
    """An always-empty fast lane that forwards appends to the queue."""

    __slots__ = ("_queue",)

    def __init__(self, queue):
        self._queue = queue

    def __bool__(self):
        return False

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def append(self, handle):
        self._queue.push(handle)

    def clear(self):
        pass


def use(env, scheduler="calendar", fast_lane=True):
    """Rebuild ``env``'s pending-event structures; call before scheduling."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler={scheduler!r}; expected {SCHEDULERS}")
    assert not env._fast and env._cal.peek() is None, "env already in use"
    if scheduler == "heap":
        env._cal = HeapQueue()
    if not fast_lane:
        env._fast = QueueOnlyLane(env._cal)
    return env


def install(monkeypatch, scheduler="calendar", fast_lane=True):
    """Apply :func:`use` to every :class:`Environment` built from now on."""

    def reference_init(env, *args, **kwargs):
        _KERNEL_INIT(env, *args, **kwargs)
        use(env, scheduler=scheduler, fast_lane=fast_lane)

    monkeypatch.setattr(Environment, "__init__", reference_init)
