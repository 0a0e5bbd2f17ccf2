"""The benchmark's layer tracer must still find what it patches.

``perfbench/tracer.py`` measures the simulator from outside ``src/``:
it replaces ``Environment.run``, ``schedule`` and ``schedule_now``,
``Process._step``, ``CalendarQueue.push``/``pop``/``peek`` and
``workload._TerminalWatcher._resume`` (among others) by name, and the
benchmark records ``Environment.scheduler`` and ``dispatch_count``.
A refactor that renames or bypasses one of them would leave the
benchmark silently measuring nothing, so this test installs the tracer
in a fresh interpreter (it patches classes in place for good), runs a
smoke-fidelity router point, and checks that every such name saw
calls and that the traced dispatches match the kernel's own count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.router import mixed_config

simulation = Simulation(mixed_config(Fidelity.smoke(), "router", 0.0))
result = simulation.run()
print(json.dumps({
    "calls": {name: count for name, count in tracer.calls.items() if count},
    "traced_dispatches": tracer.dispatched[0],
    "dispatch_count": simulation.env.dispatch_count,
    "scheduler": simulation.env.scheduler,
    "commits": result.commits,
}))
"""

#: Patched names whose calls the tracer counts under these span names.
EXPECTED_CALLS = (
    "sim.kernel:Environment.run",
    "sim.calendar:CalendarQueue.push",
    "sim.calendar:CalendarQueue.pop",
    "sim.calendar:CalendarQueue.peek",
    "core.workload:_TerminalWatcher._resume",
)


def _traced_router_run():
    env = dict(os.environ)
    source = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source, env.get("PYTHONPATH")))
    )
    # Leave no byte code behind in the benchmark's directory.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(REPO_ROOT / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_tracer_sees_every_patched_kernel_and_workload_name():
    report = _traced_router_run()
    calls = report["calls"]
    assert report["commits"] > 0
    for name in EXPECTED_CALLS:
        assert calls.get(name, 0) > 0, f"trace saw no calls to {name}"
    # Process._step is traced under the resumed generator's layer.
    assert any(
        count
        for name, count in calls.items()
        if name.startswith("core.transaction_manager:")
    ), "trace saw no transaction-manager process steps"
    # schedule/schedule_now wrap every callback, so the traced
    # dispatches are exactly the kernel's own count.
    assert report["traced_dispatches"] == report["dispatch_count"] > 0
    assert report["scheduler"] == "calendar"
