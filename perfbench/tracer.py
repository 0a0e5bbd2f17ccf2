"""Per-layer tracing of the simulator, applied from outside ``src/``.

The tracer wraps the functions at each layer boundary of ``repro`` and
records, for every wrapped call, a span (name, start, end, parent) and
a call count.  A span's *self time* is its duration minus the part its
child spans cover, so summing self times over every span name never
exceeds the traced wall time.

Three mechanisms put spans where the work happens:

* **Boundary methods** (``CPU.execute``, ``LockManager.acquire``,
  ``NetworkManager.post`` ...) are replaced on their class or module.
* **Dispatched callbacks**: ``Environment.schedule``/``schedule_now``
  wrap each callback so that the kernel's dispatch runs it inside a
  span named after the callback's own layer.  Every wrapped callback
  also bumps a dispatch counter, which must equal the kernel's own
  ``Environment.dispatch_count``.
* **Process steps**: ``Process._step`` runs each generator resumption
  inside a span named after the generator's module, so a transaction
  body's time lands in ``core.transaction_manager``, not the kernel.

:meth:`Tracer.install` must run before any ``Simulation`` is built:
several model objects capture bound methods at construction.  It
patches classes in place and is meant for a process that exists only
to take one traced measurement.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer name; the first matching prefix wins.  Code
#: in ``repro.sim.kernel`` and in this benchmark is the dispatch loop
#: itself and gets no span of its own (its time is kernel self time).
_LAYER_PREFIXES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("repro.sim.kernel", None),
    ("repro.sim.calendar", "sim.calendar"),
    ("repro.sim.resources", "sim.resources"),
    ("repro.core.resource_manager", "sim.resources"),
    ("repro.cc.locks", "cc.locks"),
    ("repro.cc.wfg", "cc.wfg"),
    ("repro.cc.", "cc.manager"),
    ("repro.router.", "router"),
    ("repro.core.database", "core.database"),
    ("repro.core.network", "core.network"),
    ("repro.core.workload", "core.workload"),
    ("repro.core.metrics", "core.metrics"),
    ("repro.core.", "core.transaction_manager"),
    ("repro.experiments.executor", "experiments.executor"),
    ("repro.experiments.worker_pool", "experiments.worker_pool"),
    ("repro.experiments.result_cache", "experiments.result_cache"),
)

#: Spans kept for the span dump; counters and self times cover all.
SPAN_LIMIT = 20000


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module's code belongs to (None: kernel or foreign)."""
    if not module or not module.startswith("repro."):
        return None
    for prefix, layer in _LAYER_PREFIXES:
        if module.startswith(prefix):
            return layer
    return module[len("repro."):]


class Tracer:
    """Span and call-count recorder for one traced process."""

    def __init__(self):
        #: Span name -> calls, self seconds, and calls whose result was
        #: a success (granted request, passed prepare) where observed.
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.positive: Dict[str, int] = {}
        #: Callbacks the kernel dispatched (one-element list: the
        #: closures below increment it without an attribute lookup).
        self.dispatched = [0]
        #: Counters captured when the measured window opens (the
        #: simulation resets its statistics after warmup).
        self.window: Dict[str, int] = {}
        #: The first :data:`SPAN_LIMIT` spans, as
        #: (id, parent id, name, start, end) in completion order.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._children: List[float] = []
        self._open: List[int] = []
        self._ids = itertools.count(1)
        self._code_names: Dict[object, Optional[str]] = {}
        self._run = self._span_runner()
        #: Pool-worker totals, summed over every relayed chunk.
        self.worker: Dict[str, object] = {
            "calls": {}, "self_s": {}, "positive": {}, "dispatched": 0,
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and drop recorded spans."""
        for table in (self.calls, self.positive):
            for key in table:
                table[key] = 0
        for key in self.self_s:
            self.self_s[key] = 0.0
        self.dispatched[0] = 0
        self.window.clear()
        self.spans.clear()
        self._children.clear()
        self._open.clear()

    def _register(self, name: str) -> None:
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

    def _span_runner(self) -> Callable:
        """``run(name, function, args, kwargs)``: one call inside a span."""
        calls = self.calls
        self_s = self.self_s
        children = self._children
        open_ids = self._open
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def run(name, function, args, kwargs):
            calls[name] += 1
            span_id = next(ids)
            children.append(0.0)
            open_ids.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                duration = end - start
                self_s[name] += duration - children.pop()
                if children:
                    children[-1] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((
                        span_id,
                        open_ids[-1] if open_ids else 0,
                        name,
                        start,
                        end,
                    ))

        return run

    def wrap(
        self,
        name: str,
        function: Callable,
        positive: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """``function`` recording a span ``name`` around each call.

        ``positive(result)`` marks calls that succeeded (a granted
        request, a passed prepare) in :attr:`positive`.
        """
        self._register(name)
        run = self._run
        if positive is None:

            def traced(*args, **kwargs):
                return run(name, function, args, kwargs)

        else:
            self.positive.setdefault(name, 0)
            positives = self.positive

            def traced(*args, **kwargs):
                result = run(name, function, args, kwargs)
                if positive(result):
                    positives[name] += 1
                return result

        return traced

    def name_of_callable(self, callback: Callable) -> Optional[str]:
        """Span name for running ``callback``, or None for kernel code."""
        function = getattr(callback, "__func__", callback)
        key = getattr(function, "__code__", function)
        if key in self._code_names:
            return self._code_names[key]
        layer = layer_of_module(getattr(function, "__module__", None))
        name = None
        if layer is not None:
            name = f"{layer}:{getattr(function, '__qualname__', '?')}"
            self._register(name)
        self._code_names[key] = name
        return name

    def name_of_code(self, code) -> Optional[str]:
        """Span name for resuming a generator whose code is ``code``."""
        if code in self._code_names:
            return self._code_names[code]
        module = None
        for name, candidate in list(sys.modules.items()):
            path = getattr(candidate, "__file__", None)
            if path is not None and path == code.co_filename:
                module = name
                break
        layer = layer_of_module(module)
        name = None
        if layer is not None:
            name = f"{layer}:{code.co_qualname}"
            self._register(name)
        self._code_names[code] = name
        return name

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every layer boundary of ``repro`` (see module doc)."""
        import repro.cc.registry  # noqa: F401 - imports every algorithm
        import repro.cc.wfg as wfg
        from repro.cc.base import NodeCCManager, RequestResult
        from repro.cc.locks import LockManager
        from repro.core.database import PageVersionStore
        from repro.core.metrics import MetricsCollector
        from repro.core.network import NetworkManager, _Courier
        from repro.core.simulation import Simulation
        from repro.core.workload import Source, _TerminalWatcher
        from repro.experiments import executor, worker_pool
        from repro.experiments.executor import SweepExecutor
        from repro.experiments.result_cache import ResultCache
        from repro.router.classifier import RoutingPolicy
        from repro.router.dispatch import RoutedCC, RoutedNodeManager
        from repro.router.features import FeatureExtractor
        from repro.sim.calendar import CalendarQueue
        from repro.sim.kernel import Environment, Process
        from repro.sim.resources import CPU, Disk

        def patch(owner, attribute, layer, positive=None):
            function = owner.__dict__[attribute]
            name = f"{layer}:{function.__qualname__}"
            setattr(owner, attribute, self.wrap(name, function, positive))

        patch(Environment, "run", "sim.kernel")
        self._patch_dispatch(Environment)
        self._patch_process_step(Process)
        for method in ("push", "pop", "peek"):
            patch(CalendarQueue, method, "sim.calendar")
        for method in (
            "execute", "execute_message", "cancel", "_reschedule_ps",
        ):
            patch(CPU, method, "sim.resources")
        for method in ("access", "cancel"):
            patch(Disk, method, "sim.resources")
        for method in (
            "acquire", "cancel_request", "release_all", "waits_for_edges",
        ):
            patch(LockManager, method, "cc.locks")
        self._patch_module_functions(
            wfg,
            ("build_adjacency", "find_cycle_from", "youngest",
             "break_all_deadlocks"),
            "cc.wfg",
        )

        def granted(response) -> bool:
            return response.result is RequestResult.GRANTED

        def passed(vote) -> bool:
            return vote is True

        checks = {
            "read_request": granted, "write_request": granted,
            "prepare": passed,
        }
        for manager in _subclasses(NodeCCManager):
            layer = "router" if manager is RoutedNodeManager else "cc.manager"
            for method in (
                "read_request", "write_request", "prepare", "commit",
                "abort", "register_cohort", "on_conflict",
            ):
                if method in manager.__dict__:
                    patch(manager, method, layer, checks.get(method))
        for method in ("install", "latest", "versions"):
            patch(PageVersionStore, method, "core.database")
        for method in (
            "_route", "assign_timestamps", "assign_commit_timestamp",
            "on_commit", "on_abort",
        ):
            patch(RoutedCC, method, "router")
        for method in ("choose", "record_commit", "record_abort"):
            patch(RoutingPolicy, method, "router")
        for method in ("classify", "is_read_only"):
            patch(FeatureExtractor, method, "router")
        self._patch_post(NetworkManager)
        patch(NetworkManager, "_transmit", "core.network")
        for method in ("_start", "_resume"):
            patch(_Courier, method, "core.network")
        for method in ("generate", "think_time", "page_processing_instructions"):
            patch(Source, method, "core.workload")
        patch(_TerminalWatcher, "_resume", "core.workload")
        for method in list(vars(MetricsCollector)):
            if method.startswith("record_"):
                patch(MetricsCollector, method, "core.metrics")
        self._patch_window(Simulation)
        for method in ("get", "put"):
            patch(ResultCache, method, "experiments.result_cache")
        for method in ("run_many", "_run_pool"):
            patch(SweepExecutor, method, "experiments.executor")
        self._patch_module_functions(
            worker_pool, ("get_pool",), "experiments.worker_pool"
        )
        self._patch_worker_relay(executor, SweepExecutor)

    def _patch_module_functions(self, module, names, layer) -> None:
        """Replace module functions here and where they were imported."""
        for name in names:
            original = getattr(module, name)
            traced = self.wrap(f"{layer}:{name}", original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(name) is original
                ):
                    setattr(loaded, name, traced)

    def _dispatcher(self, callback: Callable) -> Callable:
        dispatched = self.dispatched
        name = self.name_of_callable(callback)
        if name is None:

            def run(*args):
                dispatched[0] += 1
                return callback(*args)

            return run
        run_span = self._run

        def run_traced(*args):
            dispatched[0] += 1
            return run_span(name, callback, args, {})

        return run_traced

    def _patch_dispatch(self, environment) -> None:
        schedule = environment.schedule
        schedule_now = environment.schedule_now
        dispatcher = self._dispatcher

        def traced_schedule(env, delay, callback, *args):
            return schedule(env, delay, dispatcher(callback), *args)

        def traced_schedule_now(env, callback, *args):
            return schedule_now(env, dispatcher(callback), *args)

        environment.schedule = traced_schedule
        environment.schedule_now = traced_schedule_now

    def _patch_process_step(self, process) -> None:
        step = process._step
        name_of_code = self.name_of_code
        run_span = self._run

        def traced_step(proc, advance, argument):
            generator = proc._generator
            name = None
            if generator is not None:
                name = name_of_code(generator.gi_code)
            if name is None:
                return step(proc, advance, argument)
            return run_span(name, step, (proc, advance, argument), {})

        process._step = traced_step

    def _patch_post(self, network) -> None:
        """Trace ``post`` and run each delivered handler in its layer."""
        post = self.wrap("core.network:NetworkManager.post", network.post)
        name_of_callable = self.name_of_callable
        run_span = self._run

        def in_span(name, handler):
            return lambda payload: run_span(name, handler, (payload,), {})

        def traced_post(net, source, destination, handler, payload=None,
                        on_drop=None):
            name = name_of_callable(handler)
            if name is not None:
                handler = in_span(name, handler)
            return post(net, source, destination, handler, payload, on_drop)

        network.post = traced_post

    def _patch_window(self, simulation) -> None:
        reset = simulation._reset_statistics
        tracer = self

        def traced_reset(sim):
            reset(sim)
            tracer.window = {
                "dispatched": tracer.dispatched[0],
                "transmits": tracer.calls[
                    "core.network:NetworkManager._transmit"
                ],
            }

        simulation._reset_statistics = traced_reset

    def _patch_worker_relay(self, executor, sweep_executor) -> None:
        """Carry worker-side layer totals back with each chunk.

        Pool workers are forked after :meth:`install`, so they inherit
        the patched classes.  The replacement ``_run_chunk`` keeps the
        original's module and qualified name, so the parent pickles it
        by reference and each worker resolves it to this wrapper.
        """
        run_chunk = executor._run_chunk
        tracer = self

        def relay_run_chunk(index, configs, cache_dir):
            tracer.reset()
            index, blob, stats = run_chunk(index, configs, cache_dir)
            stats["perfbench_trace"] = tracer.totals()
            return index, blob, stats

        relay_run_chunk.__module__ = run_chunk.__module__
        relay_run_chunk.__qualname__ = run_chunk.__qualname__
        executor._run_chunk = relay_run_chunk
        absorb = sweep_executor._absorb_chunk

        def relay_absorb(sweeper, chunk, blob, chunk_stats):
            totals = chunk_stats.pop("perfbench_trace", None)
            if totals is not None:
                tracer.merge_worker(totals)
            return absorb(sweeper, chunk, blob, chunk_stats)

        sweep_executor._absorb_chunk = self.wrap(
            "experiments.executor:SweepExecutor._absorb_chunk", relay_absorb
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        """Picklable counters (no spans) for relaying across processes."""
        return {
            "calls": {k: v for k, v in self.calls.items() if v},
            "self_s": {k: v for k, v in self.self_s.items() if v},
            "positive": {k: v for k, v in self.positive.items() if v},
            "dispatched": self.dispatched[0],
        }

    def merge_worker(self, totals: Dict[str, object]) -> None:
        """Add one worker chunk's totals to :attr:`worker`."""
        _add_totals(self.worker, totals)

    def combined_totals(self) -> Dict[str, object]:
        """This process's totals plus every relayed worker's."""
        combined = self.totals()
        _add_totals(combined, self.worker)
        return combined


def _add_totals(target: Dict[str, object], totals: Dict[str, object]) -> None:
    for table in ("calls", "self_s", "positive"):
        into = target[table]
        for key, value in totals[table].items():
            into[key] = into.get(key, 0) + value
    target["dispatched"] += totals["dispatched"]


def _subclasses(cls) -> List[type]:
    """Every subclass of ``cls``, depth first, in definition order."""
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
