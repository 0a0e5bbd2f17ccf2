"""Same-time fast lane must not change a single reported number.

The kernel's zero-delay fast lane is a pure scheduling-representation
change: every callback still runs in exact global ``(time, seq)``
order, so a simulation must produce *bit-identical* metrics with the
fast lane in use and with it bypassed (every zero-delay callback sent
through the calendar queue instead; see
:mod:`tests.sim.reference_kernel`).  These tests run real workload
points — the Figure 2 scaling configuration and a Figure 10-style
degradation point — both ways and compare the full result dictionary.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import scaling_config

from tests.sim import reference_kernel

# Short but non-trivial horizon: a few hundred thousand kernel events
# across the pair of runs, with real contention, aborts, and restarts.
FIDELITY = Fidelity.smoke()


def _fig02_point():
    """Figure 2 scaling workload at the saturated end (8-node, 2PL)."""
    config = scaling_config(
        FIDELITY, algorithm="2pl", think_time=0.0, num_nodes=8
    )
    return config.with_(target_commits=0, max_duration=config.duration)


def _fig10_point():
    """A Figure 10-style degradation point: OPT under heavy load,
    where restarts make the schedule highly sensitive to event
    ordering."""
    config = scaling_config(
        FIDELITY, algorithm="opt", think_time=0.0, num_nodes=8
    )
    return config.with_(target_commits=0, max_duration=config.duration)


def _run_with_fastlane(monkeypatch, config, enabled: bool):
    reference_kernel.install(monkeypatch, fast_lane=enabled)
    return run_simulation(config)


@pytest.mark.parametrize(
    "point", [_fig02_point, _fig10_point], ids=["fig02", "fig10"]
)
def test_fastlane_toggle_bit_identical(monkeypatch, point):
    config = point()
    with_lane = _run_with_fastlane(monkeypatch, config, True)
    without_lane = _run_with_fastlane(monkeypatch, config, False)
    assert with_lane.as_dict() == without_lane.as_dict()
    # The flat dict omits the per-node breakdowns; compare those too so
    # "bit-identical" really means every reported number.
    assert (
        with_lane.per_node_cpu_utilization
        == without_lane.per_node_cpu_utilization
    )
    assert (
        with_lane.per_node_disk_utilization
        == without_lane.per_node_disk_utilization
    )
    assert with_lane.abort_reasons == without_lane.abort_reasons
    # Sanity: the runs actually exercised the kernel.
    assert with_lane.commits > 0
