"""Scaleout benchmark: simulator event rate as the machine grows.

Runs the registered ``scaleout`` experiment's fixed-per-node-load
configuration (see :mod:`repro.experiments.scaleout`) at a sweep of
machine sizes and records wall-clock events per second, throughput and
p99 per point.  Every timed point runs in a fresh child interpreter so
allocator state from earlier points cannot skew the measurement (see
:func:`_timed_run`); that also makes the per-point ``peak_rss_mb`` the
high-water mark of exactly one configuration.

Records are appended to ``BENCH_scaleout.json`` at the repo root
(override with ``$REPRO_BENCH_OUT``).  Rates are machine-dependent, so
each point carries the interpreter *spin rate* and the normalized
``events_per_spin``; the committed baseline
(``benchmarks/baselines/scaleout_events.json``) stores the fast path's
normalized rate per node count and the regression check compares
against it with a 30% tolerance — that is the events/sec floor the CI
``scaleout-smoke`` job enforces with ``$REPRO_BENCH_ENFORCE=1``.

Environment knobs:

* ``REPRO_SCALEOUT_NODES`` — comma-separated node counts overriding
  the fidelity default (CI uses a reduced sweep).

Run standalone (the full sweep reaches 1000 nodes / 10⁵ terminals)::

    REPRO_FIDELITY=bench python benchmarks/bench_scaleout.py

or through pytest (same JSON record)::

    pytest benchmarks/bench_scaleout.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX host
    resource = None

# Standalone-script convenience: make src/ importable without
# PYTHONPATH (pytest runs get it from the usual test environment).
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(
        0, str(Path(__file__).resolve().parents[1] / "src")
    )

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaleout import (
    scaleout_config,
    scaleout_node_counts,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_scaleout.json"
BASELINE_PATH = (
    Path(__file__).resolve().parent
    / "baselines"
    / "scaleout_events.json"
)

#: Allowed normalized-throughput drop before the check fails.
REGRESSION_TOLERANCE = 0.30

_SPIN_ITERATIONS = 2_000_000


def spin_rate(iterations: int = _SPIN_ITERATIONS) -> float:
    """Pure-Python iterations/second on this interpreter (best of 3)."""
    best = float("inf")
    for _ in range(3):
        counter = 0
        started = time.perf_counter()
        for value in range(iterations):
            counter += value
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return iterations / best


def _node_counts(fidelity: Fidelity) -> tuple:
    override = os.environ.get("REPRO_SCALEOUT_NODES")
    if override:
        return tuple(
            int(part) for part in override.split(",") if part.strip()
        )
    return scaleout_node_counts(fidelity)


def _measure(fidelity: Fidelity, num_nodes: int) -> dict:
    """One timed run of the scaleout configuration."""
    simulation = Simulation(scaleout_config(fidelity, num_nodes))
    started = time.perf_counter()
    result = simulation.run()
    wall = time.perf_counter() - started
    events = simulation.env.dispatch_count
    peak_rss_mb = None
    if resource is not None:
        # Meaningful per configuration because every timed point runs
        # in its own child interpreter: this is the high-water mark of
        # exactly one simulation.  ru_maxrss is in KiB on Linux.
        peak_rss_mb = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            1,
        )
    return {
        "nodes": num_nodes,
        "terminals": simulation.config.workload.num_terminals,
        "events_dispatched": events,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(
            events / wall if wall > 0 else 0.0, 1
        ),
        "throughput": round(result.throughput, 3),
        "response_p99": round(result.response_time_p99, 4),
        "commits": result.commits,
        "peak_rss_mb": peak_rss_mb,
    }


def _timed_run(fidelity: Fidelity, num_nodes: int) -> dict:
    """Run one measurement in a fresh interpreter.

    Big points allocate hundreds of MB; running them back to back in
    one process lets earlier points' allocator and GC state skew later
    wall-clock readings by tens of percent.  A child process per point
    keeps every measurement cold-started and comparable.  The child
    re-runs this file with ``--one`` and prints the measurement as
    JSON; the timed window (inside :func:`_measure`) never includes
    interpreter startup.
    """
    env = dict(os.environ)
    env["REPRO_FIDELITY"] = fidelity.name
    completed = subprocess.run(
        [
            sys.executable,
            os.fspath(Path(__file__).resolve()),
            "--one",
            str(num_nodes),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_benchmark(fidelity: Fidelity) -> dict:
    """Sweep machine sizes, one fresh interpreter per point."""
    rate = spin_rate()
    points = []
    for num_nodes in _node_counts(fidelity):
        point = _timed_run(fidelity, num_nodes)
        point["events_per_spin"] = round(
            point["events_per_sec"] / rate, 6
        )
        points.append(point)
    return {
        "benchmark": "scaleout",
        "fidelity": fidelity.name,
        "workload": "fixed per-node load, 100 terminals/node, "
        "think 360s, 2pl",
        "spin_rate": round(rate, 1),
        "points": points,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }


def load_baselines() -> dict:
    """Committed normalized rates, keyed by node count."""
    try:
        data = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def check_regression(record: dict) -> tuple[bool, str]:
    """Per-node-count events_per_spin floor vs the committed baseline."""
    baselines = load_baselines()
    if not baselines:
        return True, "no committed baseline; recorded only"
    failures = []
    checked = []
    for point in record["points"]:
        baseline = baselines.get(str(point["nodes"]))
        if not isinstance(baseline, (int, float)):
            continue
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        measured = point["events_per_spin"]
        checked.append(
            f"nodes={point['nodes']}: {measured:.6f} vs baseline "
            f"{baseline:.6f} (floor {floor:.6f})"
        )
        if measured < floor:
            failures.append(checked[-1])
    message = "; ".join(checked) or "no matching baseline entries"
    return not failures, message


def _out_path() -> Path:
    override = os.environ.get("REPRO_BENCH_OUT")
    return Path(override) if override else DEFAULT_OUT


def append_record(record: dict, path: Path) -> None:
    """Append to the JSON trajectory (a list of records)."""
    records = []
    if path.is_file():
        try:
            records = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(records, list):
                records = [records]
        except (OSError, ValueError):
            records = []
    records.append(record)
    path.write_text(
        json.dumps(records, indent=2) + "\n", encoding="utf-8"
    )


def test_scaleout_events_per_sec():
    """Record the scaleout sweep; enforce the floor when asked."""
    fidelity = Fidelity.from_env(default="smoke")
    record = run_benchmark(fidelity)
    ok, message = check_regression(record)
    record["baseline_check"] = message
    append_record(record, _out_path())
    print(json.dumps(record, indent=2))
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        assert ok, f"scaleout event rate regressed: {message}"


if __name__ == "__main__":  # pragma: no cover
    if len(sys.argv) > 1 and sys.argv[1] == "--one":
        # Child-process mode (see _timed_run): one measurement, JSON
        # on stdout.
        print(
            json.dumps(
                _measure(
                    Fidelity.from_env(default="smoke"),
                    int(sys.argv[2]),
                )
            )
        )
    else:
        test_scaleout_events_per_sec()
