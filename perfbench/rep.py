"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every
repetition pays the import and the build it measures and reports the
high-water RSS of an interpreter that ran nothing else::

    python3 perfbench/rep.py --workload router-mixed --seed 42 --mode plain

Set-up and run times are reported twice: as measured (``*_raw_s``)
and rescaled to the reference host (``setup_s``, ``wall_s``; see
``REFERENCE_LOOP_S``).

Modes: ``plain`` times set-up and the run; ``trace`` installs the
layer tracer first and reports per-layer counters; ``audit`` (router
workload only) attaches a serializability auditor and counts
serialization cycles among non-MVCC commits; ``warm`` only compiles
the package's byte code, so no timed repetition pays for it.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (temporary caches, span dumps).
OUT_DIR = ROOT / ".perfbench"
GOLDENS = ROOT / "tests" / "integration" / "goldens" / "fig2_fig10_smoke.json"

#: Workload name -> why it is in the benchmark.  Between them the two
#: load every layer of ``LAYER_METRICS``: the router point drives the
#: kernel, resources, network, workload, metrics and four CC algorithms
#: in one process; the sweep's fig. 2 points (2PL with deadlock
#: detection among them) run in pool workers under the executor and
#: the result cache.  Each run is long, and there are only two, because
#: the host's speed swings for minutes at a time (``REFERENCE_LOOP_S``).
WORKLOADS: Dict[str, str] = {
    "router-mixed": (
        "router over one relation: snapshot reads beside hot-key "
        "updates load MVCC, BTO, OPT and 2PL in one process"
    ),
    "fig-sweep": (
        "fig2+fig10 smoke sweeps on 2 pool workers, then a warm "
        "re-read: executor, worker pool and result cache"
    ),
}

#: Pool workers for the sweep workload (the benchmark host has 2 cores).
SWEEP_JOBS = 2

#: The reference loop: this many pure-Python additions.  The shared
#: host's speed swings by up to ~70% in spells of seconds to minutes,
#: per vCPU.  Timed in the same interpreter right before and right
#: after a repetition's work, the loop slows with it: on a 7-minute
#: router-mixed series, per-repetition wall time spread 0.24
#: (IQR/median) and wall time over loop time 0.06.
REFERENCE_ITERATIONS = 2_000_000
#: Set-up and run times are rescaled to a host on which the reference
#: loop takes this long: ``t * REFERENCE_LOOP_S / measured loop time``.
REFERENCE_LOOP_S = 0.1

#: Per-layer metrics reported by a traced run, with their units.  Host
#: times are self times; ``sim_s`` values and utilizations are the
#: model's simulated answers, reported for context.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel.events", "count"),
    ("sim.kernel.events_per_s", "1/s"),
    ("sim.kernel.events_per_commit", "count"),
    ("sim.kernel.self_s", "s"),
    ("sim.calendar.push_calls", "count"),
    ("sim.calendar.pop_calls", "count"),
    ("sim.calendar.self_s", "s"),
    ("sim.resources.cpu_execute_calls", "count"),
    ("sim.resources.cpu_rearm_calls", "count"),
    ("sim.resources.cpu_cancel_calls", "count"),
    ("sim.resources.cpu_self_s", "s"),
    ("sim.resources.disk_access_calls", "count"),
    ("sim.resources.disk_self_s", "s"),
    ("sim.resources.node_cpu_util", "ratio"),
    ("sim.resources.disk_util", "ratio"),
    ("sim.resources.host_cpu_util", "ratio"),
    ("cc.locks.acquire_calls", "count"),
    ("cc.locks.acquire_self_s", "s"),
    ("cc.locks.release_all_self_s", "s"),
    ("cc.locks.waits_for_edges_calls", "count"),
    ("cc.locks.waits_for_edges_self_s", "s"),
    ("cc.locks.blocking_count", "count"),
    ("cc.locks.mean_blocking_sim_s", "sim_s"),
    ("cc.wfg.detect_calls", "count"),
    ("cc.wfg.self_s", "s"),
    ("cc.manager.request_calls", "count"),
    ("cc.manager.self_s", "s"),
    ("cc.manager.granted_share", "ratio"),
    ("cc.manager.prepare_pass_share", "ratio"),
    ("core.database.version_install_calls", "count"),
    ("core.database.version_self_s", "s"),
    ("router.choose_calls", "count"),
    ("router.self_s", "s"),
    ("router.cross_class_cycles", "count"),
    ("core.network.post_calls", "count"),
    ("core.network.self_s", "s"),
    ("core.workload.generate_calls", "count"),
    ("core.workload.self_s", "s"),
    ("core.metrics.record_self_s", "s"),
    ("core.transaction_manager.useful_share", "ratio"),
    ("core.transaction_manager.restarts", "count"),
    ("core.transaction_manager.self_s", "s"),
    ("experiments.executor.pool_wall_s", "s"),
    ("experiments.executor.worker_compute_s", "s"),
    ("experiments.executor.coordination_s", "s"),
    ("experiments.executor.chunks", "count"),
    ("experiments.executor.ipc_bytes", "B"),
    ("experiments.worker_pool.spawn_s", "s"),
    ("experiments.result_cache.get_calls", "count"),
    ("experiments.result_cache.hit_share", "ratio"),
    ("experiments.result_cache.put_self_s", "s"),
    ("experiments.result_cache.bytes_per_entry", "B"),
    ("experiments.result_cache.stores", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
)

#: Wrapped functions that must see calls on the simulation workload;
#: a zero means the tracer missed a call path.
_EXPECTED_CALLS = (
    "sim.kernel:Environment.run",
    "sim.calendar:CalendarQueue.push",
    "sim.calendar:CalendarQueue.pop",
    "sim.resources:CPU.execute",
    "sim.resources:Disk.access",
    "core.network:NetworkManager.post",
    "core.network:NetworkManager._transmit",
    "core.workload:Source.generate",
    "core.metrics:MetricsCollector.record_commit",
    "router:RoutingPolicy.choose",
    "router:RoutedNodeManager.read_request",
    "core.database:PageVersionStore.install",
    "cc.locks:LockManager.acquire",
)


def _fidelity(name: str, seed: int):
    from repro.experiments.fidelity import Fidelity

    return dataclasses.replace(getattr(Fidelity, name)(), seed=seed)


def simulation_config(workload: str, seed: int):
    """The fixed-horizon configuration a simulation workload runs.

    ``target_commits=0`` fixes the simulated horizon, so every
    repetition does the same work.
    """
    if workload != "router-mixed":
        raise ValueError(f"not a simulation workload: {workload}")
    from repro.experiments.router import mixed_config

    config = mixed_config(_fidelity("bench", seed), "router", 0.0)
    return config.with_(target_commits=0, max_duration=config.duration)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_loop_s() -> float:
    """Host seconds the reference loop takes now."""
    started = time.perf_counter()
    total = 0
    for value in range(REFERENCE_ITERATIONS):
        total += value
    return time.perf_counter() - started


def _times(setup_s: float, wall_s: float,
           loops: Tuple[float, float]) -> Dict:
    """Raw and reference-host set-up and run times of one repetition."""
    loop_s = (loops[0] + loops[1]) / 2
    return {
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "loop_s": loop_s,
        "setup_s": setup_s * REFERENCE_LOOP_S / loop_s,
        "wall_s": wall_s * REFERENCE_LOOP_S / loop_s,
    }


def _peak_rss_mb() -> float:
    """High-water RSS of this interpreter (MiB).

    Pool workers are left out: which grid points a worker happens to
    run depends on chunk timing, and their peaks vary with it.  Their
    per-simulation memory is what the single-simulation workload
    measures.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_result(result, problems: List[str]) -> None:
    """Invariants every simulated result must satisfy."""
    for field in (
        "avg_node_cpu_utilization", "avg_disk_utilization",
        "host_cpu_utilization",
    ):
        value = getattr(result, field)
        if not 0.0 <= value <= 1.0 + 1e-9:
            problems.append(f"{result.label}: {field}={value} not in [0, 1]")


def _install_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer


def _dump_spans(tracer, workload: str, seed: int, origin: float) -> str:
    """Write the recorded span sample; returns its path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    spans = [
        {"id": span_id, "parent": parent, "name": name,
         "start": start - origin, "end": end - origin}
        for span_id, parent, name, start, end in tracer.spans
    ]
    path.write_text(json.dumps({"spans": spans}), encoding="utf-8")
    return str(path.relative_to(ROOT))


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


def measure_simulation(workload: str, seed: int, mode: str) -> Dict:
    loop_before = reference_loop_s()
    started = time.perf_counter()
    from repro.core.simulation import Simulation

    config = simulation_config(workload, seed)
    tracer = _install_tracer() if mode == "trace" else None
    auditor = _arm_auditor() if mode == "audit" else None
    simulation = Simulation(config, auditor=auditor)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.reset()
    run_started = time.perf_counter()
    result = simulation.run()
    wall_s = time.perf_counter() - run_started
    loop_after = reference_loop_s()
    events = simulation.env.dispatch_count
    problems: List[str] = []
    _check_result(result, problems)
    if result.commits <= 0:
        problems.append("no commits in the measured window")
    record = {
        **_times(setup_s, wall_s, (loop_before, loop_after)),
        "peak_rss_mb": _peak_rss_mb(),
        "digest": _digest({"result": result.as_dict(), "events": events}),
        "events": events,
        "commits": result.commits,
        "scheduler": simulation.env.scheduler,
        "problems": problems,
    }
    if tracer is not None:
        totals = tracer.totals()
        window_events = events - tracer.window.get("dispatched", 0)
        record["layers"] = layer_metrics(
            totals, [result], wall_s,
            {
                "sim.kernel.events_per_commit": (
                    window_events / max(result.commits, 1)
                ),
            },
        )
        record["spans_file"] = _dump_spans(
            tracer, workload, seed, run_started
        )
        _cross_check(tracer, simulation, result, wall_s, problems)
    if auditor is not None:
        record["cross_class_cycles"] = auditor.cross_class_cycles()
    return record


def _cross_check(tracer, simulation, result, wall_s,
                 problems: List[str]) -> None:
    """Trace counters against the program's own counters."""
    calls = tracer.calls
    if tracer.dispatched[0] != simulation.env.dispatch_count:
        problems.append(
            f"trace saw {tracer.dispatched[0]} dispatches, kernel "
            f"counted {simulation.env.dispatch_count}"
        )
    transmits = (
        calls["core.network:NetworkManager._transmit"]
        - tracer.window.get("transmits", 0)
    )
    if transmits != result.messages_sent:
        problems.append(
            f"trace saw {transmits} transmits in the measured window, "
            f"messages_sent={result.messages_sent}"
        )
    for name in _EXPECTED_CALLS:
        if not calls.get(name):
            problems.append(f"trace saw no calls to {name}")
    if not any(
        count for name, count in calls.items()
        if name.startswith("core.transaction_manager:")
    ):
        problems.append("trace saw no transaction-manager process steps")
    total_self = sum(tracer.self_s.values())
    if total_self > wall_s:
        problems.append(
            f"layer self times sum to {total_self:.3f} s > traced "
            f"wall {wall_s:.3f} s"
        )


def _arm_auditor():
    """An Auditor that also remembers each commit's routed algorithm."""
    from repro.core.audit import Auditor

    class ArmAuditor(Auditor):
        def __init__(self):
            super().__init__()
            self.arms: Dict[Tuple[int, int], str] = {}

        def on_committed(self, transaction) -> None:
            super().on_committed(transaction)
            self.arms[self._key(transaction)] = transaction.routed_algorithm

        def cross_class_cycles(self) -> int:
            """Strongly connected components of the serialization
            graph restricted to non-MVCC commits that span more than
            one algorithm; each holds at least one cycle."""
            keep = {
                key for key, arm in self.arms.items() if arm != "mvcc"
            }
            adjacency: Dict = {}
            for source, target in sorted(self.serialization_edges()):
                if source in keep and target in keep:
                    adjacency.setdefault(source, []).append(target)
            return sum(
                1 for component in _components(adjacency)
                if len(component) > 1
                and len({self.arms[key] for key in component}) > 1
            )

    return ArmAuditor()


def _components(adjacency: Dict) -> List[List]:
    """Tarjan's strongly connected components, iteratively."""
    index: Dict = {}
    low: Dict = {}
    on_stack = set()
    stack: List = []
    found: List[List] = []
    counter = 0
    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, edge = work[-1]
            if edge == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            neighbors = adjacency.get(node, [])
            if edge < len(neighbors):
                work[-1] = (node, edge + 1)
                neighbor = neighbors[edge]
                if neighbor not in index:
                    work.append((neighbor, 0))
                elif neighbor in on_stack:
                    low[node] = min(low[node], index[neighbor])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                found.append(component)
    return found


# ----------------------------------------------------------------------
# Figure sweep workload
# ----------------------------------------------------------------------


def _series_payload(series_list) -> List[Dict]:
    """The goldens' format (tests/integration/test_figure_regression)."""
    return [
        {
            "title": series.title,
            "x_values": list(series.x_values),
            "curves": {
                name: list(values)
                for name, values in series.curves.items()
            },
        }
        for series in series_list
    ]


def measure_sweep(seed: int, mode: str) -> Dict:
    """Cold fig2+fig10 smoke sweep on the pool, then a warm re-read.

    The seed shuffles the order in which the 30 grid points are
    submitted (and so how they are chunked); the figures, which the
    goldens pin, do not depend on it.
    """
    loop_before = reference_loop_s()
    started = time.perf_counter()
    from repro.experiments import runner, worker_pool
    from repro.experiments.partitioning import figure10
    from repro.experiments.scaling import ALGORITHMS, figure2, scaling_config

    tracer = _install_tracer() if mode == "trace" else None
    cache_dir = OUT_DIR / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    executor = runner.configure(jobs=SWEEP_JOBS, cache_dir=cache_dir)
    try:
        spawn_started = time.perf_counter()
        worker_pool.get_pool(SWEEP_JOBS).submit(os.getpid).result()
        spawn_s = time.perf_counter() - spawn_started
        setup_s = time.perf_counter() - started
        fidelity = _fidelity("smoke", 42)
        configs = [
            scaling_config(fidelity, algorithm, think_time, nodes)
            for nodes in (1, 8)
            for algorithm in ALGORITHMS
            for think_time in fidelity.think_times
        ]
        random.Random(seed).shuffle(configs)
        if tracer is not None:
            tracer.reset()
        run_started = time.perf_counter()
        results = runner.run_many(configs)
        cold = {
            "fig2": _series_payload(figure2(fidelity)),
            "fig10": _series_payload(figure10(fidelity)),
        }
        cold_stats = executor.stats.as_dict()
        stores = executor.cache.entry_count()
        runner.clear_cache()
        warm = {
            "fig2": _series_payload(figure2(fidelity)),
            "fig10": _series_payload(figure10(fidelity)),
        }
        wall_s = time.perf_counter() - run_started
        loop_after = reference_loop_s()
        cache = executor.cache
        bytes_per_entry = cache.size_bytes() / max(stores, 1)
        cache_stats = cache.stats.as_dict()
    finally:
        worker_pool.shutdown_pool()
        runner.configure()
        shutil.rmtree(cache_dir, ignore_errors=True)
    problems: List[str] = []
    for result in results:
        _check_result(result, problems)
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    if cold != goldens:
        problems.append("cold sweep differs from the fig2/fig10 goldens")
    if warm != goldens:
        problems.append("warm re-read differs from the fig2/fig10 goldens")
    distinct = len(set(configs))
    if stores != distinct:
        problems.append(f"{stores} cache entries stored, expected {distinct}")
    if cache_stats["hits"] != distinct:
        problems.append(
            f"warm re-read hit {cache_stats['hits']} of {distinct} entries"
        )
    record = {
        **_times(setup_s, wall_s, (loop_before, loop_after)),
        "peak_rss_mb": _peak_rss_mb(),
        "digest": _digest(cold),
        "events": None,
        "commits": sum(result.commits for result in results),
        "points": distinct,
        "parent_cache_stores": cache_stats["stores"],
        "problems": problems,
    }
    if tracer is not None:
        merged = tracer.combined_totals()
        worker = tracer.worker
        commits = max(record["commits"], 1)
        pool_wall = cold_stats["pool_wall_seconds"]
        compute = cold_stats["worker_compute_seconds"]
        gets = merged["calls"].get(
            "experiments.result_cache:ResultCache.get", 0
        )
        record["layers"] = layer_metrics(
            merged, results, wall_s,
            {
                "sim.kernel.events_per_commit": (
                    merged["dispatched"] / commits
                ),
                "experiments.executor.pool_wall_s": pool_wall,
                "experiments.executor.worker_compute_s": compute,
                "experiments.executor.coordination_s": (
                    pool_wall - compute / SWEEP_JOBS
                ),
                "experiments.executor.chunks": cold_stats[
                    "chunks_dispatched"
                ],
                "experiments.executor.ipc_bytes": cold_stats["ipc_bytes"],
                "experiments.worker_pool.spawn_s": spawn_s,
                "experiments.result_cache.get_calls": gets,
                "experiments.result_cache.hit_share": (
                    cache_stats["hits"] / gets if gets else 0.0
                ),
                "experiments.result_cache.bytes_per_entry": bytes_per_entry,
                "experiments.result_cache.stores": stores,
            },
        )
        record["spans_file"] = _dump_spans(tracer, "fig-sweep", seed,
                                           run_started)
        parent_self = sum(tracer.totals()["self_s"].values())
        if parent_self > wall_s:
            problems.append(
                f"parent self times sum to {parent_self:.3f} s > traced "
                f"wall {wall_s:.3f} s"
            )
        worker_self = sum(worker["self_s"].values())
        if not worker["dispatched"]:
            problems.append("no worker trace totals were relayed")
        if worker_self > SWEEP_JOBS * pool_wall:
            problems.append(
                f"worker self times sum to {worker_self:.3f} s > "
                f"{SWEEP_JOBS} x pool wall {pool_wall:.3f} s"
            )
    return record


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(totals: Dict, results: List, wall_s: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value this process can know.

    ``extra`` holds values measured outside the tracer and overrides
    the defaults.  ``sim.kernel.events_per_s``,
    ``router.cross_class_cycles`` and ``trace.overhead_share`` need
    other repetitions; ``run.py`` fills them in.
    """
    calls = totals["calls"]
    self_s = totals["self_s"]
    positive = totals["positive"]

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def self_time(prefix: str) -> float:
        return sum(
            value for name, value in self_s.items()
            if name.startswith(prefix)
        )

    def matching(table: Dict, layer: str, *suffixes: str) -> int:
        return sum(
            value for name, value in table.items()
            if name.startswith(layer) and name.endswith(suffixes)
        )

    requests = matching(calls, "cc.manager:", ".read_request",
                        ".write_request")
    prepares = matching(calls, "cc.manager:", ".prepare")
    commits = sum(result.commits for result in results)
    aborts = sum(result.aborts for result in results)
    blocking = sum(result.blocking_count for result in results)
    blocked_time = sum(
        result.blocking_count * result.mean_blocking_time
        for result in results
    )

    def mean(field: str) -> float:
        return sum(getattr(r, field) for r in results) / len(results)

    values = {
        "sim.kernel.events": totals["dispatched"],
        "sim.kernel.events_per_s": 0.0,
        "sim.kernel.events_per_commit": 0.0,
        "sim.kernel.self_s": self_time("sim.kernel:"),
        "sim.calendar.push_calls": count("sim.calendar:CalendarQueue.push"),
        "sim.calendar.pop_calls": count("sim.calendar:CalendarQueue.pop"),
        "sim.calendar.self_s": self_time("sim.calendar:"),
        "sim.resources.cpu_execute_calls": count("sim.resources:CPU.execute"),
        "sim.resources.cpu_rearm_calls": count(
            "sim.resources:CPU._reschedule_ps"
        ),
        "sim.resources.cpu_cancel_calls": count("sim.resources:CPU.cancel"),
        "sim.resources.cpu_self_s": self_time("sim.resources:CPU."),
        "sim.resources.disk_access_calls": count("sim.resources:Disk.access"),
        "sim.resources.disk_self_s": self_time("sim.resources:Disk."),
        "sim.resources.node_cpu_util": mean("avg_node_cpu_utilization"),
        "sim.resources.disk_util": mean("avg_disk_utilization"),
        "sim.resources.host_cpu_util": mean("host_cpu_utilization"),
        "cc.locks.acquire_calls": count("cc.locks:LockManager.acquire"),
        "cc.locks.acquire_self_s": self_time("cc.locks:LockManager.acquire"),
        "cc.locks.release_all_self_s": self_time(
            "cc.locks:LockManager.release_all"
        ),
        "cc.locks.waits_for_edges_calls": count(
            "cc.locks:LockManager.waits_for_edges"
        ),
        "cc.locks.waits_for_edges_self_s": self_time(
            "cc.locks:LockManager.waits_for_edges"
        ),
        "cc.locks.blocking_count": blocking,
        "cc.locks.mean_blocking_sim_s": (
            blocked_time / blocking if blocking else 0.0
        ),
        "cc.wfg.detect_calls": count(
            "cc.wfg:find_cycle_from", "cc.wfg:break_all_deadlocks"
        ),
        "cc.wfg.self_s": self_time("cc.wfg:"),
        "cc.manager.request_calls": requests,
        "cc.manager.self_s": self_time("cc.manager:"),
        "cc.manager.granted_share": (
            matching(positive, "cc.manager:", ".read_request",
                     ".write_request") / requests if requests else 0.0
        ),
        "cc.manager.prepare_pass_share": (
            matching(positive, "cc.manager:", ".prepare") / prepares
            if prepares else 0.0
        ),
        "core.database.version_install_calls": count(
            "core.database:PageVersionStore.install"
        ),
        "core.database.version_self_s": self_time(
            "core.database:PageVersionStore."
        ),
        "router.choose_calls": count("router:RoutingPolicy.choose"),
        "router.self_s": self_time("router:"),
        "router.cross_class_cycles": 0,
        "core.network.post_calls": count("core.network:NetworkManager.post"),
        "core.network.self_s": self_time("core.network:"),
        "core.workload.generate_calls": count("core.workload:Source.generate"),
        "core.workload.self_s": self_time("core.workload:"),
        "core.metrics.record_self_s": self_time("core.metrics:"),
        "core.transaction_manager.useful_share": (
            commits / (commits + aborts) if commits + aborts else 0.0
        ),
        "core.transaction_manager.restarts": aborts,
        "core.transaction_manager.self_s": self_time(
            "core.transaction_manager:"
        ),
        "experiments.executor.pool_wall_s": 0.0,
        "experiments.executor.worker_compute_s": 0.0,
        "experiments.executor.coordination_s": 0.0,
        "experiments.executor.chunks": 0,
        "experiments.executor.ipc_bytes": 0,
        "experiments.worker_pool.spawn_s": 0.0,
        "experiments.result_cache.get_calls": 0,
        "experiments.result_cache.hit_share": 0.0,
        "experiments.result_cache.put_self_s": self_time(
            "experiments.result_cache:ResultCache.put"
        ),
        "experiments.result_cache.bytes_per_entry": 0.0,
        "experiments.result_cache.stores": 0,
        "trace.wall_s": wall_s,
        "trace.overhead_share": 0.0,
    }
    values.update(extra)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "trace", "audit", "warm"),
        default="plain",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "warm":
        ok = compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
        record: Dict = {"problems": [] if ok else ["src/repro: compile failed"]}
    elif args.workload == "fig-sweep":
        record = measure_sweep(args.seed, args.mode)
    else:
        record = measure_simulation(args.workload, args.seed, args.mode)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
