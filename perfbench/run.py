"""The repository's benchmark: host time for fixed simulated work.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload router-mixed --seed 42 \\
        --seconds 55 --trace 0

Every workload is a batch: terminals form a closed loop in *simulated*
time, and the benchmark measures how much *host* time one fixed
simulated horizon costs.  Each repetition runs in a fresh interpreter
(``rep.py``), so set-up time and peak RSS are those of one workload
run and no earlier repetition's garbage is alive.  Repetitions repeat
until ``--seconds`` is used up (at least three).

``--trace 0`` reports the end-to-end metrics, medians over the
repetitions: ``wall_s`` (host seconds for the horizon), ``setup_s``
(import ``repro``, build the ``Simulation``; for ``fig-sweep`` also
start the first pool worker) and ``peak_rss_mb``.  The two times are
rescaled to a reference host by a loop timed in the same interpreter
just before and after the work (``rep.REFERENCE_LOOP_S``), because the
shared host's speed swings by up to ~70% for minutes at a time; the
raw medians are printed beside them.  Failed repetitions
are the JSON's ``failed`` out of ``attempted``; the simulated model
outputs (throughput, response times, abort ratio) are never end-to-end
metrics, because a correctness fix may honestly change them.

``--trace 1`` runs untraced repetitions, then one traced repetition
(``tracer.py``) and, for ``router-mixed``, one audited repetition, and
reports the per-layer metrics of ``rep.LAYER_METRICS``.

Output checks, any of which makes the run fail with exit code 1: a
repetition raised or tripped the kernel's crash check; repetitions
(traced ones included) disagree on the digest of
``SimulationResult.as_dict()`` and the dispatched event count; a
result breaks a model invariant; ``fig-sweep`` differs from
``tests/integration/goldens/fig2_fig10_smoke.json``; or the trace's
counters disagree with the program's own.

A spin rate taken once per process does not track the host: across
three 5-repetition processes, the fig. 2 2PL point's medians spread
by about 10% while such a spin rate spread by about 30%.  The
reference loop is therefore timed inside every repetition, next to
the work it rescales.  Comparing two commits as interleaved A/B pairs
of runs still removes what is left of the host's drift.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from rep import LAYER_METRICS, ROOT, WORKLOADS

#: Settings that select alternative code paths or sweep layouts.  Both
#: sides of a comparison must run on the defaults.
FORBIDDEN_ENV = (
    "REPRO_KERNEL_SCHED",
    "REPRO_KERNEL_FASTLANE",
    "REPRO_KERNEL_GC_PAUSE",
    "REPRO_WORKLOAD_AGG",
    "REPRO_SIMSAN",
    "REPRO_JOBS",
    "REPRO_CHUNK",
    "REPRO_CACHE_DIR",
)

MIN_REPETITIONS = 3
#: Untraced repetitions of a traced run (the overhead baseline).
TRACE_BASELINE_REPETITIONS = 2
#: No repetition may outlive this, nor end after RUN_DEADLINE_S, so a
#: run ends within 180 s.
REPETITION_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 175.0
#: Stop starting repetitions after this much of the run.
RUN_LIMIT_S = 160.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Measured times printed beside the rescaled ones.
RAW_TIMES = (("wall_raw_s", "s"), ("setup_raw_s", "s"), ("loop_s", "s"))


class RepetitionFailed(Exception):
    """A repetition exited non-zero or printed no record."""


def run_repetition(workload: str, seed: int, mode: str,
                   timeout: float) -> Dict:
    """Run ``rep.py`` in a fresh interpreter; its JSON record."""
    command = [
        sys.executable, str(Path(__file__).with_name("rep.py")),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    env = dict(os.environ)
    env["TMPDIR"] = str(ROOT / ".perfbench")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise RepetitionFailed(f"{mode} repetition timed out") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-5:]
        raise RepetitionFailed(
            f"{mode} repetition exited {completed.returncode}: "
            + " | ".join(tail)
        )
    try:
        return json.loads(lines[-1])
    except ValueError as error:
        raise RepetitionFailed(f"{mode} repetition printed no record") \
            from error


class Run:
    """Repetitions of one workload and what they found."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.records: Dict[str, List[Dict]] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def repeat(self, mode: str) -> Optional[Dict]:
        """One repetition; failures are counted, not raised."""
        self.attempted += 1
        try:
            record = run_repetition(
                self.workload, self.seed, mode,
                min(REPETITION_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed()),
            )
        except RepetitionFailed as error:
            self.failed += 1
            self.problems.append(str(error))
            return None
        if record["problems"]:
            self.failed += 1
            self.problems.extend(record["problems"])
        self.records.setdefault(mode, []).append(record)
        return record

    def repeat_for(self, mode: str, seconds: float, minimum: int) -> None:
        """Repeat while the next repetition fits in ``seconds``."""
        durations: List[float] = []
        while True:
            done = len(durations)
            if done >= minimum:
                projected = self.elapsed() + statistics.median(durations)
                if projected > seconds or projected > RUN_LIMIT_S:
                    return
            started = time.perf_counter()
            if self.repeat(mode) is None:
                return
            durations.append(time.perf_counter() - started)

    def digests(self) -> Dict[str, int]:
        """How many repetitions produced each output digest."""
        found: Dict[str, int] = {}
        for mode in ("plain", "trace", "audit"):
            for record in self.records.get(mode, []):
                found[record["digest"]] = found.get(record["digest"], 0) + 1
        return found


def median_of(records: List[Dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def end_to_end(run: Run) -> Dict[str, float]:
    plain = run.records.get("plain", [])
    return {name: median_of(plain, name) for name, _ in END_TO_END}


def per_layer(run: Run) -> Dict[str, float]:
    traced = run.records["trace"][0]
    values = dict(traced["layers"])
    untraced_wall = median_of(run.records["plain"], "wall_raw_s")
    values["trace.overhead_share"] = (
        values["trace.wall_s"] / untraced_wall - 1.0
    )
    values["sim.kernel.events_per_s"] = (
        values["sim.kernel.events"] / untraced_wall
    )
    for record in run.records.get("audit", []):
        values["router.cross_class_cycles"] = record["cross_class_cycles"]
    return values


def describe(run: Run, seconds: float, trace: bool) -> None:
    """Human-readable report: context, samples, checks."""
    plain = run.records.get("plain", [])
    first = plain[0] if plain else {}
    context = {
        "workload": run.workload,
        "why": WORKLOADS[run.workload],
        "seed": run.seed,
        "seconds": seconds,
        "trace": int(trace),
        "scheduler": first.get("scheduler"),
        "events": first.get("events"),
        "commits": first.get("commits"),
        "digests": run.digests(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }
    if run.workload == "fig-sweep" and first:
        context["points"] = first["points"]
        # Workers store the entries; the parent's CacheStats.stores
        # stays 0 on the pool path, so stores are counted from the
        # cache directory instead.
        context["parent_cache_stores"] = first["parent_cache_stores"]
    for record in run.records.get("trace", []):
        context["spans_file"] = record.get("spans_file")
    print("context: " + json.dumps(context, sort_keys=True))
    for name, unit in END_TO_END + RAW_TIMES:
        samples = [record[name] for record in plain]
        if samples:
            print(
                f"  {name:<12} median {statistics.median(samples):.4f} {unit}"
                f"  min {min(samples):.4f}  max {max(samples):.4f}"
                f"  n={len(samples)}"
            )
    print(
        f"  {'failed_share':<12} {run.failed}/{run.attempted} = "
        f"{run.failed / max(run.attempted, 1):.4f}"
    )
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its report and result line; correct?"""
    run = Run(workload, seed)
    if trace:
        run.repeat_for("plain", 0.0, TRACE_BASELINE_REPETITIONS)
        run.repeat("trace")
        if workload == "router-mixed":
            run.repeat("audit")
    else:
        run.repeat_for("plain", seconds, MIN_REPETITIONS)
    digests = run.digests()
    if len(digests) > 1:
        run.problems.append(f"repetitions disagree: digests {digests}")
    correct = (
        not run.problems
        and bool(run.records.get("plain"))
        and (not trace or bool(run.records.get("trace")))
    )
    describe(run, seconds, trace)
    metrics: Dict[str, Dict[str, object]] = {}
    if correct:
        if trace:
            values = per_layer(run)
            table = LAYER_METRICS
        else:
            values = end_to_end(run)
            table = END_TO_END
        for name, unit in table:
            if trace:
                print(f"  {name:<44} {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the simulator end to end and per layer."
    )
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all"),
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    forbidden = [name for name in FORBIDDEN_ENV if name in os.environ]
    if forbidden:
        print(
            "refusing to run with " + ", ".join(forbidden) + " set: "
            "both sides of a comparison must run on the defaults",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_repetition("router-mixed", args.seed, "warm",
                       REPETITION_TIMEOUT_S)
    except RepetitionFailed as error:
        print(f"cannot compile repro: {error}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = [
        measure(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
