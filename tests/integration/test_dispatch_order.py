"""Dispatch-order oracle: every run dispatches in exact ``(time, seq)`` order.

The kernel promises that callbacks run in ascending scheduled time,
ties broken by the global sequence number they were scheduled with
(FIFO).  The calendar queue, the same-time fast lane and handle
pooling are all representations of that one order, so instead of
crossing implementation toggles this test checks the order itself.

``Environment.schedule``/``schedule_now`` are wrapped so that every
callback logs the ``(time, seq)`` it was scheduled with when it runs.
On real workload points — the fig. 2 saturated 2PL point, a
restart-heavy fig. 10 OPT point, a faulted 2PL run (crash/recovery
timers and retransmissions take event paths the failure-free points
never touch) and the router's mixed blend — the logged sequence must
be strictly increasing, every callback must run with the clock at its
scheduled time, and a rerun must reproduce the sequence and the result
bit for bit.
"""

import hashlib
import struct

import pytest

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.router import mixed_config
from repro.experiments.scaling import scaling_config
from repro.faults.schedule import FaultConfig
from repro.sim.kernel import Environment

FIDELITY = Fidelity.smoke()

_PACK = struct.Struct("<dq").pack


def _fixed_horizon(config):
    return config.with_(target_commits=0, max_duration=config.duration)


def _fig02_point():
    return _fixed_horizon(
        scaling_config(FIDELITY, algorithm="2pl", think_time=0.0, num_nodes=8)
    )


def _fig10_point():
    return _fixed_horizon(
        scaling_config(FIDELITY, algorithm="opt", think_time=0.0, num_nodes=8)
    )


def _faulted_point():
    config = scaling_config(
        FIDELITY, algorithm="2pl", think_time=8.0, num_nodes=8
    )
    return _fixed_horizon(config).with_(
        faults=FaultConfig(
            node_mtbf=60.0,
            node_mttr=1.0,
            message_loss_probability=0.005,
        ),
    )


def _router_point():
    return mixed_config(FIDELITY, "router", 0.0)


POINTS = {
    "fig02-2pl": _fig02_point,
    "fig10-opt": _fig10_point,
    "faulted-2pl": _faulted_point,
    "router": _router_point,
}


class DispatchLog:
    """Checks and digests the ``(time, seq)`` of each dispatched callback."""

    def __init__(self):
        self.count = 0
        self.last = None
        self.disorders = []
        self.clock_skews = []
        self._digest = hashlib.sha256()

    def wrap(self, env, time, callback):
        # The handle about to be created takes the next sequence number.
        seq = env._seq

        def logged(*args):
            self.record(env.now, time, seq)
            return callback(*args)

        return logged

    def record(self, now, time, seq):
        key = (time, seq)
        if self.last is not None and not self.last < key:
            self.disorders.append((self.last, key))
        if now != time:
            self.clock_skews.append((now, key))
        self.last = key
        self.count += 1
        self._digest.update(_PACK(time, seq))

    def digest(self):
        return self._digest.hexdigest()


@pytest.fixture
def dispatch_logs(monkeypatch):
    """Route every schedule call through a fresh :class:`DispatchLog`."""
    logs = []
    schedule = Environment.schedule
    schedule_now = Environment.schedule_now

    def logged_schedule(env, delay, callback, *args):
        return schedule(
            env, delay, logs[-1].wrap(env, env.now + delay, callback), *args
        )

    def logged_schedule_now(env, callback, *args):
        return schedule_now(
            env, logs[-1].wrap(env, env.now, callback), *args
        )

    monkeypatch.setattr(Environment, "schedule", logged_schedule)
    monkeypatch.setattr(Environment, "schedule_now", logged_schedule_now)

    def run(config):
        logs.append(DispatchLog())
        simulation = Simulation(config)
        result = simulation.run()
        return logs[-1], simulation, result

    return run


@pytest.mark.parametrize("point", sorted(POINTS))
def test_dispatch_order_strictly_increasing_and_replayable(
    point, dispatch_logs
):
    config = POINTS[point]()
    log, simulation, result = dispatch_logs(config)
    assert result.commits > 0  # the run exercised the model
    assert log.count == simulation.env.dispatch_count > 0
    assert log.disorders[:3] == []
    assert log.clock_skews[:3] == []

    rerun_log, _, rerun_result = dispatch_logs(config)
    assert rerun_log.count == log.count
    assert rerun_log.digest() == log.digest()
    assert rerun_result.as_dict() == result.as_dict()
    assert (
        rerun_result.per_node_cpu_utilization
        == result.per_node_cpu_utilization
    )
    assert rerun_result.abort_reasons == result.abort_reasons
