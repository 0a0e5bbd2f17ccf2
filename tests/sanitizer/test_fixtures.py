"""Every checker fires on its seeded fixture — exactly once — and
stays silent on the matching near-miss, on the kernel's calendar
queue and on the reference heap.

This is the detection-coverage contract from the sanitizer's spec: a
checker that cannot demonstrably fire is not a checker, and a checker
that fires on the near-miss would drown real findings in noise.
"""

import pytest

from repro.sanitizer import checks

from tests.sanitizer import fixtures
from tests.sim.reference_kernel import SCHEDULERS


def by_check(sanitizer, check_id):
    return [
        violation
        for violation in sanitizer.finalize()
        if violation.rule_id == check_id
    ]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestSameTimeRace:
    def test_independent_writes_flag_exactly_once(self, scheduler):
        sanitizer = fixtures.race_independent_writes(scheduler)
        races = by_check(sanitizer, checks.SAME_TIME_RACE)
        assert len(races) == 1
        assert len(sanitizer.finalize()) == 1
        finding = races[0]
        assert "write/write" in finding.message
        assert "mailbox" in finding.message
        # No confirmer at kernel level: unclassified, check default.
        assert "[unconfirmed]" in finding.message
        assert finding.severity == "warning"
        # Anchored at the model-level call site, not inside kernel.py.
        assert finding.path.endswith("tests/sanitizer/fixtures/__init__.py")

    def test_repeated_pair_dedups_to_one_finding(self, scheduler):
        sanitizer = fixtures.race_repeated_pair_still_one_finding(
            scheduler
        )
        assert len(by_check(sanitizer, checks.SAME_TIME_RACE)) == 1

    def test_parent_child_same_time_is_causally_ordered(self, scheduler):
        sanitizer = fixtures.race_near_miss_parent_child(scheduler)
        assert sanitizer.finalize() == []

    def test_distinct_timestamps_do_not_race(self, scheduler):
        sanitizer = fixtures.race_near_miss_distinct_timestamps(scheduler)
        assert sanitizer.finalize() == []

    def test_read_read_does_not_race(self, scheduler):
        sanitizer = fixtures.race_near_miss_read_read(scheduler)
        assert sanitizer.finalize() == []


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestStreamDiscipline:
    def test_unregistered_draw_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.stream_unregistered_draw(scheduler)
        findings = by_check(sanitizer, checks.STREAM_DISCIPLINE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "mystery-stream" in findings[0].message
        assert "register_stream" in findings[0].message
        assert findings[0].severity == "error"

    def test_cross_owner_draw_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.stream_cross_owner_draw(scheduler)
        findings = by_check(sanitizer, checks.STREAM_DISCIPLINE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        message = findings[0].message
        assert "'workload'" in message and "'resources'" in message

    def test_owned_and_dynamic_family_draws_stay_clean(self, scheduler):
        sanitizer = fixtures.stream_near_miss_owned_draws(scheduler)
        assert sanitizer.finalize() == []


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestHandleLifecycle:
    def test_stale_cancel_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.handle_stale_cancel(scheduler)
        findings = by_check(sanitizer, checks.HANDLE_LIFECYCLE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "already" in findings[0].message
        assert findings[0].severity == "error"

    def test_double_cancel_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.handle_double_cancel(scheduler)
        findings = by_check(sanitizer, checks.HANDLE_LIFECYCLE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "double cancel" in findings[0].message
        assert findings[0].severity == "warning"

    def test_single_cancel_before_dispatch_is_clean(self, scheduler):
        sanitizer = fixtures.handle_near_miss_single_cancel(scheduler)
        assert sanitizer.finalize() == []


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestLeakAudit:
    def test_orphaned_process_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.leak_orphaned_process(scheduler)
        findings = by_check(sanitizer, checks.LEAK_AUDIT)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "stuck-waiter" in findings[0].message
        assert findings[0].severity == "error"

    def test_unreaped_cancelled_handle_flags_exactly_once(self, scheduler):
        sanitizer = fixtures.leak_unreaped_cancelled_handle(scheduler)
        findings = by_check(sanitizer, checks.LEAK_AUDIT)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "never reaped" in findings[0].message

    def test_completed_process_is_clean(self, scheduler):
        sanitizer = fixtures.leak_near_miss_completed_process(scheduler)
        assert sanitizer.finalize() == []
