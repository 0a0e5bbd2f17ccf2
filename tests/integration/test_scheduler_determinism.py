"""The pending-event structure must not change one number.

The kernel's calendar queue and same-time fast lane are performance
representations of a single order, ascending ``(time, seq)``, so
every reported metric must be *bit-identical* when the same model
runs on the simplest structures that give that order: the test-side
binary heap and a queue-only path with the fast lane bypassed (see
:mod:`tests.sim.reference_kernel`).

Coverage: the full scheduler × fast-lane cross on the Figure 2 point
(the saturated scaling workload), the scheduler square on a Figure
10-style restart-heavy point, and the two extreme corners on a
faulted run (crashes + message loss reach the scheduler through
entirely different event paths — recovery timers, retransmissions —
so fault schedules are where an ordering bug would hide).
"""

import itertools

from repro.core.simulation import run_simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config
from repro.faults.schedule import FaultConfig

from tests.sim import reference_kernel

FIDELITY = Fidelity.smoke()

#: (scheduler, fast_lane) — the kernel's own structures first; every
#: comparison is against this corner.
FULL_CROSS = list(
    itertools.product(reference_kernel.SCHEDULERS, (True, False))
)


def _fig02_point():
    config = scaling_config(
        FIDELITY, algorithm="2pl", think_time=0.0, num_nodes=8
    )
    return config.with_(target_commits=0, max_duration=config.duration)


def _fig10_point():
    config = scaling_config(
        FIDELITY, algorithm="opt", think_time=0.0, num_nodes=8
    )
    return config.with_(target_commits=0, max_duration=config.duration)


def _faulted_point():
    config = scaling_config(
        FIDELITY, algorithm="2pl", think_time=8.0, num_nodes=8
    )
    return config.with_(
        target_commits=0,
        max_duration=config.duration,
        faults=FaultConfig(
            node_mtbf=60.0,
            node_mttr=1.0,
            message_loss_probability=0.005,
        ),
    )


def _run(monkeypatch, config, scheduler, fast_lane):
    reference_kernel.install(
        monkeypatch, scheduler=scheduler, fast_lane=fast_lane
    )
    return run_simulation(config)


def _assert_identical(reference, other):
    assert reference.as_dict() == other.as_dict()
    # The flat dict omits per-node breakdowns; "bit-identical" means
    # every reported number, so compare those too.
    assert (
        reference.per_node_cpu_utilization
        == other.per_node_cpu_utilization
    )
    assert (
        reference.per_node_disk_utilization
        == other.per_node_disk_utilization
    )
    assert reference.abort_reasons == other.abort_reasons


def test_full_toggle_cross_bit_identical_fig02(monkeypatch):
    config = _fig02_point()
    reference = _run(monkeypatch, config, *FULL_CROSS[0])
    assert reference.commits > 0  # the runs exercise the kernel
    for combo in FULL_CROSS[1:]:
        _assert_identical(
            reference, _run(monkeypatch, config, *combo)
        )


def test_scheduler_source_square_bit_identical_fig10(monkeypatch):
    """Restart-heavy OPT point: schedules are maximally order-
    sensitive, so any divergence in pop order shows up here.  (Arrivals
    have one source, the aggregated terminal source, so the square is
    now scheduler × fast lane.)"""
    config = _fig10_point()
    reference = _run(monkeypatch, config, "calendar", True)
    assert reference.commits > 0
    for scheduler, fast_lane in (
        ("calendar", False),
        ("heap", True),
        ("heap", False),
    ):
        _assert_identical(
            reference,
            _run(monkeypatch, config, scheduler, fast_lane),
        )


def test_faulted_run_bit_identical_across_extremes(monkeypatch):
    """Crash/recovery timers and retransmissions flow through the
    scheduler on paths the failure-free tests never touch."""
    config = _faulted_point()
    reference = _run(monkeypatch, config, "calendar", True)
    heap_only = _run(monkeypatch, config, "heap", False)
    _assert_identical(reference, heap_only)
    assert reference.commits > 0
