"""simsan: a runtime determinism sanitizer for the simulation kernel.

simlint (:mod:`repro.lint`) guards the bit-reproducibility property
statically; simsan guards it *dynamically*.  An opt-in instrumented
execution mode — ``Environment(sanitizer=...)`` /
``Simulation(config, sanitizer=...)`` / ``$REPRO_SIMSAN=1`` — routes
cheap hook points in the kernel, the stream registry,
the resources, the network, and the fault injector into a
:class:`~repro.sanitizer.core.Sanitizer`, which runs four checkers:

``same-time-race``
    Two same-timestamp events with intersecting read/write footprints
    over kernel-visible mutable state (lock tables, mailboxes, CPU/disk
    queues, streams, couriers) whose relative order is decided only by
    the scheduling sequence number.  A differential confirmer re-runs
    the configuration under a perturbed tie-break order
    (``tiebreak="reverse-batch"``) and diffs the
    :class:`~repro.core.metrics.SimulationResult` to classify each flag
    as benign-commutative (warning) or outcome-changing (error).
``stream-discipline``
    Every runtime stream lookup is checked against the
    :func:`~repro.sim.streams.register_stream` registry and the drawing
    component's declared ownership — closing the dynamic-name hole the
    static ``stream-registry`` rule must exempt.
``handle-lifecycle``
    ``cancel()`` on a handle whose callback already ran (which under
    pooling would kill an unrelated recycled event), and double-cancel
    before reap.
``leak-audit``
    End-of-run audit generalizing ``faults.assert_no_leaks``: orphaned
    processes and undelivered couriers on drained runs, cohorts or
    couriers stranded on crashed nodes, and cancelled handles never
    reaped.

Findings are ordinary :class:`~repro.lint.violations.Violation`
objects: they flow through the existing text/JSON/SARIF reporters,
``# simsan: waive[check-id]`` inline comments, and a checked-in
baseline (``src/repro/sanitizer/baseline.json``).  Entry points:
``python -m repro.sanitizer`` and ``--sanitize`` on the experiments
runner.
"""

from repro.sanitizer.checks import CHECKS, get_check
from repro.sanitizer.core import Sanitizer
from repro.sanitizer.driver import run_sanitized
from repro.sanitizer.session import (
    activate,
    deactivate,
    sanitizing_active,
)

__all__ = [
    "CHECKS",
    "Sanitizer",
    "activate",
    "deactivate",
    "get_check",
    "run_sanitized",
    "sanitizing_active",
]
