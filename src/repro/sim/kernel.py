"""A generator-coroutine discrete-event simulation kernel.

This is the substrate standing in for DeNet, the Modula-2 simulation
language the paper used.  The model is deliberately SimPy-like:

* An :class:`Environment` owns the simulation clock and the pending-event
  queues.
* A *process* is a Python generator.  It advances by ``yield``-ing
  *waitables* — :class:`Timeout`, :class:`Event`, another
  :class:`Process`, or the combinators :class:`AllOf` / :class:`AnyOf` —
  and is resumed when the waitable fires.
* A process can be interrupted: :meth:`Process.interrupt` throws
  :class:`Interrupt` into the generator at its current yield point.  The
  transaction manager uses this to abort cohorts that are blocked inside
  the concurrency control manager or busy at a resource.

The kernel is intentionally small, but it is exact: events at equal
simulated times fire in schedule order (FIFO tie-breaking), canceled
timers never fire, and waitable bookkeeping is cleaned up on interrupt so
that no process is ever resumed twice.

Hot-path design (the per-event cost caps every figure replication):

* **One pending-event structure.**  Timed callbacks live in a
  :class:`~repro.sim.calendar.CalendarQueue`, which pops in exact
  global ``(time, seq)`` order — the order a binary heap over the same
  handles would give (``tests/sim/test_calendar.py`` checks it against
  ``heapq``).
* **Same-time fast lane.**  Zero-delay work — deferred event
  deliveries, process-termination notifications, pending interrupts —
  is the majority of all scheduled callbacks, and none of it needs a
  priority queue: it always runs at the current timestamp.  Such
  callbacks go onto a FIFO ``deque`` instead.  Every callback carries
  the global sequence number it was scheduled with, and the dispatch
  loop interleaves same-time calendar entries with fast-lane entries
  in exact sequence order, so FIFO tie-breaking is preserved.
* **Allocation-free handles.**  :class:`ScheduledCallback` handles are
  pooled and reused, and order themselves via ``__lt__`` on
  ``(time, seq)`` slots.
* **Pooled timeouts.**  :meth:`Environment.timeout` recycles fired
  :class:`Timeout` objects from a free list.  A timeout is single-use:
  once it has fired and resumed its waiter it may be handed out again,
  so holding on to a fired timeout object is not supported.
* **No cyclic GC mid-dispatch.**  The loop allocates at a steady,
  predictable rate; letting the cyclic collector interrupt it every
  few hundred allocations costs ~10-15% of wall time on event-dense
  workloads.  :meth:`Environment.run` disables collection for the
  duration of the loop and restores it on exit.

There are exactly two dispatch loops.  :meth:`Environment.run` is the
clean loop every production run uses; it carries no instrumentation.
:meth:`Environment._run_instrumented` serves the runtime sanitizer and
its differential confirmer through one seam: an ordering policy for
each same-time batch (FIFO, or reverse for the confirmer) plus
optional observe hooks (see :meth:`Environment.__init__`).
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, \
    Tuple

from repro.sim.calendar import CalendarQueue

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Mailbox",
    "Process",
    "ScheduledCallback",
    "SimulationError",
    "Timeout",
    "Waitable",
]

#: The generator type driven by the kernel.  The values sent back into the
#: generator are whatever the waitable resolved to.
ProcessGenerator = Generator["Waitable", Any, Any]

#: Fired timeouts kept for reuse per environment (bounds pool memory).
_TIMEOUT_POOL_LIMIT = 128

#: Dispatched/reaped callback handles kept for reuse per environment.
_HANDLE_POOL_LIMIT = 512


def _handle_seq(handle: "ScheduledCallback") -> int:
    """Sort key for same-time batches in the instrumented loop."""
    return handle.seq


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. waiting on a consumed event twice)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (the transaction manager passes the abort reason).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ScheduledCallback:
    """Handle for a callback placed on the calendar queue or fast lane.

    Scheduling is append-only; cancellation just flips a flag and the
    entry is discarded when popped.  Positional arguments are stored on
    the handle and passed to the callback when it runs, so the hot
    scheduling paths (event delivery, timeout firing, process
    notification) need no per-event closure allocation.  ``__lt__``
    orders handles by ``(time, seq)``: the global FIFO tie-break.

    Ownership: once a handle has run (or was cancelled and reaped by the
    dispatch loop), it belongs to the kernel again and may be recycled
    for a future ``schedule`` call.  Callers must therefore drop their
    reference no later than the callback firing, and never call
    :meth:`cancel` on a handle whose callback has already run.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "ScheduledCallback") -> bool:
        # Exact comparison is sound here: both sides are stored
        # schedule times (never arithmetic results), and the seq
        # tie-break below handles the equal case explicitly.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True


class Waitable:
    """Base class for things a process may ``yield``."""

    __slots__ = ()

    def _subscribe(self, process: "Process") -> None:
        raise NotImplementedError

    def _unsubscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Event(Waitable):
    """A one-shot event that processes can wait on.

    The event starts pending; :meth:`succeed` fires it with a value and
    wakes every waiter.  Waiting on an already-fired event resumes the
    waiter immediately (on the next scheduler step at the current time).
    """

    __slots__ = ("env", "_fired", "_value", "_waiters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._fired = False
        self._value: Any = None
        # None (no waiter) | a single waiter | a list of waiters.  The
        # single-waiter case is the overwhelming majority, so no list is
        # allocated for it.
        self._waiters: Any = None

    @property
    def fired(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` while pending)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking all current waiters with ``value``.

        Delivery is *deferred* to the next scheduler step at the current
        time: firing an event never reenters the caller, so resource and
        concurrency control managers can fire grant events while
        iterating over their own state.
        """
        if self._fired:
            raise SimulationError("event already fired")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            if type(waiters) is list:
                schedule_now = self.env.schedule_now
                deliver = self._deliver_step
                for process in waiters:
                    schedule_now(deliver, process)
            else:
                self.env.schedule_now(self._deliver_step, waiters)
        return self

    def _deliver(self, process: "Process") -> None:
        self.env.schedule_now(self._deliver_step, process)

    def _deliver_step(self, process: "Process") -> None:
        # The waiter may have been interrupted (and moved on) between
        # the fire and this delivery; only resume if it still waits
        # on this event.
        if process._alive and process._waiting_on is self:
            process._resume(self._value)

    def _subscribe(self, process: "Process") -> None:
        if self._fired:
            self.env.schedule_now(self._deliver_step, process)
            return
        waiters = self._waiters
        if waiters is None:
            self._waiters = process
        elif type(waiters) is list:
            waiters.append(process)
        else:
            self._waiters = [waiters, process]

    def _unsubscribe(self, process: "Process") -> None:
        waiters = self._waiters
        if waiters is process:
            self._waiters = None
        elif type(waiters) is list:
            try:
                waiters.remove(process)
            except ValueError:
                pass


class Timeout(Waitable):
    """Delay waitable; resumes the waiting process after ``delay``.

    The scheduled-callback handle is stored per subscription — the
    common single-waiter case uses two slots, concurrent extra waiters
    (rare) go to an overflow list — so cancellation never depends on
    ``id(process)`` keys, which could collide after garbage collection
    reuses an id.  Fired timeouts created via
    :meth:`Environment.timeout` are recycled through the environment's
    pool; treat a timeout as single-use once it has fired.
    """

    __slots__ = ("env", "delay", "value", "_waiter", "_handle", "_extra")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.delay = delay
        self.value = value
        self._waiter: Optional[Process] = None
        self._handle: Optional[ScheduledCallback] = None
        self._extra: Optional[
            List[Tuple["Process", ScheduledCallback]]
        ] = None

    def _subscribe(self, process: "Process") -> None:
        handle = self.env.schedule(self.delay, self._fire, process)
        if self._waiter is None:
            self._waiter = process
            self._handle = handle
        else:
            if self._extra is None:
                self._extra = []
            self._extra.append((process, handle))

    def _fire(self, process: "Process") -> None:
        if self._waiter is process:
            self._waiter = None
            self._handle = None
        elif self._extra:
            for index, (waiter, _handle) in enumerate(self._extra):
                if waiter is process:
                    del self._extra[index]
                    break
        if process._alive and process._waiting_on is self:
            process._resume(self.value)
        if self._waiter is None and not self._extra:
            self.env._recycle_timeout(self)

    def _unsubscribe(self, process: "Process") -> None:
        if self._waiter is process:
            assert self._handle is not None
            self._handle.cancel()
            self._waiter = None
            self._handle = None
            return
        if self._extra:
            for index, (waiter, handle) in enumerate(self._extra):
                if waiter is process:
                    handle.cancel()
                    del self._extra[index]
                    return


class Process(Waitable):
    """A running generator, driven by the environment.

    A process is itself waitable: yielding a process waits for its
    termination and resolves to its return value.  If the awaited process
    died with an unhandled exception, that exception is re-raised in the
    waiter.
    """

    __slots__ = (
        "env",
        "name",
        "_generator",
        "_alive",
        "_result",
        "_exception",
        "_waiting_on",
        "_watchers",
        "_resuming",
    )

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str = "",
    ):
        self.env = env
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._alive = True
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiting_on: Optional[Waitable] = None
        self._watchers: list[Process] = []
        self._resuming = False
        san = env._san
        if san is not None:
            san.note_process(self)
        env.schedule_now(self._start)

    def _start(self) -> None:
        self._step(self._generator.send, None)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` while alive)."""
        return self._result

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process is a no-op; that makes races between
        a cohort finishing and the coordinator aborting it harmless.
        """
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
            self._waiting_on = None
            self._step(self._generator.throw, Interrupt(cause))
        else:
            # Not yet started (or mid-schedule): deliver the interrupt on
            # the next step at the current time.
            self.env.schedule_now(
                self._deliver_pending_interrupt, cause
            )

    def _deliver_pending_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
            self._waiting_on = None
        self._step(self._generator.throw, Interrupt(cause))

    def _resume(self, value: Any) -> None:
        self._waiting_on = None
        self._step(self._generator.send, value)

    def _step(
        self, advance: Callable[[Any], Any], argument: Any
    ) -> None:
        if not self._alive:
            return
        try:
            target = advance(argument)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Interrupt:
            # The process let the interrupt escape: treat as termination.
            self._finish(result=None)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to waiters
            self._finish(exception=exc)
            return
        if not isinstance(target, Waitable):
            self._finish(
                exception=SimulationError(
                    f"process {self.name!r} yielded a non-waitable: "
                    f"{target!r}"
                )
            )
            return
        self._waiting_on = target
        target._subscribe(self)

    def _finish(
        self,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._alive = False
        self._result = result
        self._exception = exception
        # Drop the generator: it closes the reference cycle through its
        # own frame (frame locals -> model objects -> this process), so
        # finished-transaction machinery is freed by reference counting
        # instead of waiting for the cyclic collector.
        self._generator = None  # type: ignore[assignment]
        watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            self._notify(watcher)
        if exception is not None and not watchers:
            # Nobody is waiting: surface the failure loudly rather than
            # silently losing it.
            self.env._record_crash(self, exception)

    def _notify(self, watcher: "Process") -> None:
        self.env.schedule_now(self._notify_step, watcher)

    def _notify_step(self, watcher: "Process") -> None:
        if not (watcher._alive and watcher._waiting_on is self):
            return
        if self._exception is not None:
            watcher._waiting_on = None
            watcher._step(
                watcher._generator.throw, self._exception
            )
        else:
            watcher._resume(self._result)

    def _subscribe(self, process: "Process") -> None:
        if self._alive:
            self._watchers.append(process)
        else:
            self._notify(process)

    def _unsubscribe(self, process: "Process") -> None:
        try:
            self._watchers.remove(process)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class _JoinWatcher:
    """Lightweight per-child subscriber used by :class:`AllOf`/:class:`AnyOf`.

    Earlier versions of the kernel spawned a collector :class:`Process`
    (a full generator) per combinator child; a sweep-heavy simulation
    allocates millions of those.  This shim implements just enough of
    the process protocol — ``_alive``/``_waiting_on`` for the deferred
    delivery checks, ``_resume`` for values, and the
    ``_generator.throw``/``_step`` pair for the exception path of
    :meth:`Process._notify_step` — to subscribe to a child directly.
    """

    __slots__ = ("owner", "index", "name", "_alive", "_waiting_on")

    def __init__(self, owner: "Waitable", index: int, child: Waitable):
        self.owner = owner
        self.index = index
        self.name = f"{type(owner).__name__.lower()}-watcher"
        self._alive = True
        self._waiting_on: Optional[Waitable] = child
        child._subscribe(self)

    @property
    def _generator(self) -> "_JoinWatcher":
        return self

    def throw(self, exception: BaseException) -> None:
        raise exception  # pragma: no cover - marker, never driven

    def _resume(self, value: Any) -> None:
        self._alive = False
        self._waiting_on = None
        self.owner._child_fired(self.index, value)

    def _step(self, advance: Callable[[Any], Any], argument: Any) -> None:
        # Only reached when a Process child died with an exception
        # (Process._notify_step calls watcher._step(throw, exc)).
        self._alive = False
        self._waiting_on = None
        self.owner._child_failed(self, argument)

    def detach(self) -> None:
        """Stop watching the child (used when another child won)."""
        if not self._alive:
            return
        self._alive = False
        child = self._waiting_on
        self._waiting_on = None
        if child is not None:
            child._unsubscribe(self)


class AllOf(Waitable):
    """Waits until every child waitable has fired; resolves to a list.

    Results are ordered as the children were given.  Children are
    watched inline via :class:`_JoinWatcher` — no collector process is
    spawned per child.
    """

    __slots__ = ("env", "_children", "_pending", "_results", "_proxy")

    def __init__(self, env: "Environment", children: Iterable[Waitable]):
        self.env = env
        self._children = list(children)
        self._pending = len(self._children)
        self._results: list[Any] = [None] * len(self._children)
        self._proxy = Event(env)
        if self._pending == 0:
            self._proxy.succeed([])
            return
        for index, child in enumerate(self._children):
            _JoinWatcher(self, index, child)

    def _child_fired(self, index: int, value: Any) -> None:
        self._results[index] = value
        self._pending -= 1
        if self._pending == 0 and not self._proxy.fired:
            self._proxy.succeed(list(self._results))

    def _child_failed(
        self, watcher: _JoinWatcher, exception: BaseException
    ) -> None:
        # Matches the old collector-process behaviour: the failure is
        # recorded as an unobserved crash and the join never fires.
        self.env._record_crash(watcher, exception)

    def _subscribe(self, process: "Process") -> None:
        self._proxy._subscribe(process)
        # Deferred deliveries check ``process._waiting_on is event``;
        # point the waiter at the proxy so the check matches.
        process._waiting_on = self._proxy

    def _unsubscribe(self, process: "Process") -> None:
        self._proxy._unsubscribe(process)


class AnyOf(Waitable):
    """Waits until the first child fires; resolves to ``(index, value)``.

    When the first child fires, the watchers on the remaining children
    are detached (their subscriptions cancelled), so losing children
    never accumulate dead subscribers and a losing timer's queue entry is
    cancelled rather than left to fire as a no-op.
    """

    __slots__ = ("env", "_proxy", "_watchers")

    def __init__(self, env: "Environment", children: Iterable[Waitable]):
        self.env = env
        self._proxy = Event(env)
        # Child firings are always delivered via the scheduler (never
        # synchronously during _subscribe), so the full watcher list is
        # in place before any _child_fired can run.
        self._watchers = [
            _JoinWatcher(self, index, child)
            for index, child in enumerate(children)
        ]

    def _child_fired(self, index: int, value: Any) -> None:
        if not self._proxy.fired:
            self._proxy.succeed((index, value))
            watchers, self._watchers = self._watchers, []
            for watcher in watchers:
                watcher.detach()

    def _child_failed(
        self, watcher: _JoinWatcher, exception: BaseException
    ) -> None:
        self.env._record_crash(watcher, exception)

    def _subscribe(self, process: "Process") -> None:
        self._proxy._subscribe(process)
        # See AllOf._subscribe: align the waiter with the proxy event.
        process._waiting_on = self._proxy

    def _unsubscribe(self, process: "Process") -> None:
        self._proxy._unsubscribe(process)


class Mailbox:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an :class:`Event` that fires
    with the next item (immediately, via deferred delivery, if one is
    already queued).  The transaction manager uses one mailbox per
    cohort for two-phase-commit control messages.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest pending getter if any."""
        san = self.env._san
        if san is not None:
            san.write(("mailbox", self))
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item."""
        san = self.env._san
        if san is not None:
            san.write(("mailbox", self))
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Environment:
    """Simulation clock, pending-event queues, and process factory.

    ``now`` is a plain attribute (read-hot); treat it as read-only from
    model code.  ``dispatch_count`` counts callbacks actually run — the
    events/second benchmarks divide it by wall-clock time.

    ``sanitizer`` and ``tiebreak`` are the instrumented loop's seam.
    ``sanitizer`` is an observer with ``advance_time(now)``,
    ``begin_event(handle)``, ``end_event(handle)`` and
    ``note_reaped(handle)`` hooks, plus ``new_handle`` (the handle
    factory) and ``attach_env``; ``False`` counts as no sanitizer.
    ``tiebreak`` is the order within a same-time batch: ``"fifo"``
    (the default, the clean loop's order) or ``"reverse-batch"`` (the
    differential confirmer's perturbation).  The two are mutually
    exclusive: the race detector's footprint model assumes FIFO.
    """

    __slots__ = (
        "now",
        "_cal",
        "_fast",
        "_seq",
        "_crashes",
        "_timeout_pool",
        "_handle_pool",
        "_san",
        "_reverse_batch",
        "dispatch_count",
    )

    def __init__(
        self,
        sanitizer: Optional[Any] = None,
        tiebreak: Optional[str] = None,
    ):
        if tiebreak not in (None, "fifo", "reverse-batch"):
            raise ValueError(
                f"tiebreak={tiebreak!r}; expected 'fifo' or 'reverse-batch'"
            )
        reverse_batch = tiebreak == "reverse-batch"
        if not sanitizer:
            sanitizer = None
        if sanitizer is not None and reverse_batch:
            raise SimulationError(
                "sanitizer and a non-FIFO tiebreak are mutually "
                "exclusive: the race detector's footprint model assumes "
                "the kernel's documented FIFO seq order"
            )
        self.now = 0.0
        self._cal = CalendarQueue()
        self._fast: deque[ScheduledCallback] = deque()
        self._seq = 0
        self._crashes: list[tuple[Process, BaseException]] = []
        self._timeout_pool: list[Timeout] = []
        self._handle_pool: list[ScheduledCallback] = []
        # None on the clean path, so every model-side hook is one
        # attribute load and a predictable branch.
        self._san = sanitizer
        self._reverse_batch = reverse_batch
        if sanitizer is not None:
            sanitizer.attach_env(self)
        self.dispatch_count = 0

    @property
    def scheduler(self) -> str:
        """The pending-event structure (always ``"calendar"``)."""
        return "calendar"

    @property
    def crashes(self) -> list[tuple["Process", BaseException]]:
        """Processes that died with unobserved exceptions."""
        return list(self._crashes)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        san = self._san
        if san is not None:
            # Sanitized handles are never pooled: stable identity is
            # what makes lifecycle misuse detectable.
            handle = san.new_handle(self.now + delay, seq, callback, args)
        else:
            pool = self._handle_pool
            if pool:
                handle = pool.pop()
                handle.time = self.now + delay
                handle.seq = seq
                handle.callback = callback
                handle.args = args
                handle.cancelled = False
            else:
                handle = ScheduledCallback(
                    self.now + delay, seq, callback, args
                )
        if delay == 0.0:
            self._fast.append(handle)
        else:
            self._cal.push(handle)
        return handle

    def schedule_now(
        self, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` on the next step at the current time.

        The zero-delay fast path used by all deferred deliveries; it
        skips the negative-delay check and the calendar queue.
        """
        seq = self._seq
        self._seq = seq + 1
        san = self._san
        if san is not None:
            handle = san.new_handle(self.now, seq, callback, args)
        else:
            pool = self._handle_pool
            if pool:
                handle = pool.pop()
                handle.time = self.now
                handle.seq = seq
                handle.callback = callback
                handle.args = args
                handle.cancelled = False
            else:
                handle = ScheduledCallback(self.now, seq, callback, args)
        self._fast.append(handle)
        return handle

    def process(
        self, generator: ProcessGenerator, name: str = ""
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a delay waitable (recycling fired ones from the pool)."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(
                    f"negative timeout delay: {delay!r}"
                )
            timeout = pool.pop()
            timeout.delay = delay
            timeout.value = value
            return timeout
        return Timeout(self, delay, value)

    def _recycle_timeout(self, timeout: Timeout) -> None:
        if self._san is not None:
            # No pooling under the sanitizer: recycled waitables would
            # alias unrelated events and confuse lifecycle tracking.
            return
        pool = self._timeout_pool
        if len(pool) < _TIMEOUT_POOL_LIMIT:
            pool.append(timeout)

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """Create a join waitable over ``children``."""
        return AllOf(self, children)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        """Create a first-of waitable over ``children``."""
        return AnyOf(self, children)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock reaches ``until``.

        When stopped by ``until``, the clock is advanced exactly to
        ``until`` so that time-weighted statistics close their intervals
        at the requested horizon.  ``until`` must not lie in the past.

        Dispatch order: the earliest ``(time, seq)`` across the
        calendar queue and the fast lane runs next.  Fast-lane entries
        always carry the current timestamp, so the comparison only
        needs the sequence number when a calendar entry is due at the
        same instant.
        """
        if self._san is not None or self._reverse_batch:
            self._run_instrumented(until)
            return
        cal = self._cal
        fast = self._fast
        peek = cal.peek
        pop = cal.pop
        pool = self._handle_pool
        pool_append = pool.append
        now = self.now
        dispatched = self.dispatch_count
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        try:
            while True:
                if fast:
                    handle = fast[0]
                    top = peek()
                    # Exact: calendar entry times are stored schedule
                    # values and ``now`` was copied from one, so
                    # equality means "same instant" by construction.
                    if (
                        top is not None
                        and top.time == now
                        and top.seq < handle.seq
                    ):
                        handle = top
                        pop()
                    else:
                        fast.popleft()
                else:
                    handle = peek()
                    if handle is None:
                        break
                    if until is not None and handle.time > until:
                        self.now = until
                        return
                    pop()
                if handle.cancelled:
                    handle.callback = None
                    handle.args = ()
                    if len(pool) < _HANDLE_POOL_LIMIT:
                        pool_append(handle)
                    continue
                time = handle.time
                # Exact: avoids a redundant attribute write when the
                # clock has not moved; both values are stored schedule
                # times, never arithmetic results.
                if time != now:
                    now = time
                    self.now = time
                dispatched += 1
                handle.callback(*handle.args)
                # The handle is kernel-owned again (see
                # ScheduledCallback); recycle it.
                handle.callback = None
                handle.args = ()
                if len(pool) < _HANDLE_POOL_LIMIT:
                    pool_append(handle)
        finally:
            self.dispatch_count = dispatched
            if pause_gc:
                gc.enable()
        if until is not None and until > self.now:
            self.now = until

    def _run_instrumented(self, until: Optional[float]) -> None:
        """The :meth:`run` loop with an ordering policy and observe hooks.

        Dispatch proceeds in same-time *batches*: every callback queued
        for the next instant (the fast lane plus the calendar entries
        due then), sorted by seq.  Work a batch member schedules at the
        same instant has a larger seq than every member, so it lands in
        a later batch.  Run ascending (FIFO), the batches therefore
        reproduce the clean loop's global ``(time, seq)`` order
        exactly, which is what lets a sanitized run equal a clean one.
        Run descending (``reverse-batch``), they permute only causally
        unrelated same-time events: children still run after their
        parents, and every callback still runs once at its time.

        The clock advances only when a live callback runs, and the
        cyclic collector is paused, as in the clean loop.  Handles are
        not recycled here (sanitized handles need stable identities).
        A callback that raises out of the loop abandons the rest of its
        batch.
        """
        san = self._san
        descending = self._reverse_batch
        cal = self._cal
        fast = self._fast
        now = self.now
        dispatched = self.dispatch_count
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        try:
            while True:
                if fast:
                    instant = fast[0].time
                else:
                    top = cal.peek()
                    if top is None:
                        break
                    if until is not None and top.time > until:
                        self.now = until
                        return
                    instant = top.time
                batch = list(fast)
                fast.clear()
                while True:
                    top = cal.peek()
                    # Exact: stored schedule times (see the clean loop).
                    if top is None or top.time != instant:
                        break
                    batch.append(top)
                    cal.pop()
                batch.sort(key=_handle_seq, reverse=descending)
                for handle in batch:
                    # Re-checked per handle: a batch member may cancel
                    # a later member of the same batch.
                    if handle.cancelled:
                        if san is not None:
                            san.note_reaped(handle)
                        continue
                    time = handle.time
                    # Exact: see the clean loop.
                    if time != now:
                        now = time
                        self.now = time
                        if san is not None:
                            san.advance_time(time)
                    dispatched += 1
                    if san is None:
                        handle.callback(*handle.args)
                        continue
                    san.begin_event(handle)
                    try:
                        handle.callback(*handle.args)
                    finally:
                        san.end_event(handle)
        finally:
            self.dispatch_count = dispatched
            if pause_gc:
                gc.enable()
        if until is not None and until > self.now:
            self.now = until

    def _record_crash(
        self, process: Process, exception: BaseException
    ) -> None:
        self._crashes.append((process, exception))

    def check_crashes(self) -> None:
        """Raise the first unobserved process failure, if any.

        The simulation driver calls this after :meth:`run` so that bugs
        in model code fail tests instead of silently skewing statistics.
        """
        if self._crashes:
            process, exception = self._crashes[0]
            raise SimulationError(
                f"process {process.name!r} crashed: {exception!r}"
            ) from exception
