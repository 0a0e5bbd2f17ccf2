"""Tests for the kernel hot-path machinery.

Covers the same-time fast lane (interleaving with equal-time calendar
entries in exact sequence order), handle/timeout pooling (recycled
objects never replay stale callbacks), the per-subscription timeout
handles, AnyOf loser cleanup, and the interrupt-vs-deferred-delivery
races the transaction manager depends on.
"""

import pytest

from repro.sim.kernel import (
    Environment,
    Interrupt,
    Mailbox,
    Timeout,
)

from tests.sim import reference_kernel


@pytest.fixture
def env():
    return Environment()


class TestFastLaneOrdering:
    def test_zero_delay_goes_to_fast_lane(self, env):
        env.schedule(0.0, lambda: None)
        env.schedule_now(lambda: None)
        env.schedule(1.0, lambda: None)
        assert len(env._fast) == 2
        assert len(env._cal) == 1

    def test_heap_only_when_disabled(self):
        # The fast-lane-off reference must really bypass the lane, or
        # the differential tests below would compare a path with itself.
        env = reference_kernel.use(
            Environment(), scheduler="heap", fast_lane=False
        )
        env.schedule(0.0, lambda: None)
        env.schedule_now(lambda: None)
        assert len(env._fast) == 0
        assert isinstance(env._cal, reference_kernel.HeapQueue)
        assert len(env._cal) == 2

    def test_same_time_heap_entry_precedes_later_fast_entry(self, env):
        # Two calendar entries due at t=1.0; the first one's callback pushes
        # fast-lane work.  That work was scheduled *after* the second
        # calendar entry, so FIFO tie-breaking requires that entry to
        # run first even though the fast lane is non-empty.
        order = []

        def first():
            order.append("h1")
            env.schedule_now(lambda: order.append("f1"))
            env.schedule_now(lambda: order.append("f2"))

        env.schedule(1.0, first)
        env.schedule(1.0, lambda: order.append("h2"))
        env.run()
        assert order == ["h1", "h2", "f1", "f2"]

    def test_fast_entry_precedes_same_time_heap_entry_by_seq(self, env):
        # Here the fast-lane entry is scheduled *before* the equal-time
        # calendar entry, so it must win the tie.
        order = []

        def first():
            order.append("h1")
            env.schedule_now(lambda: order.append("f1"))
            env.schedule(0.5, lambda: order.append("h2"))
            # h2 sits in the calendar at the same timestamp it will share
            # with nothing: advance via an exact-time collision instead.

        env.schedule(1.0, first)
        env.run()
        assert order == ["h1", "f1", "h2"]

    def test_schedule_order_preserved_across_lanes(self, env):
        # Interleave zero-delay (fast lane) and strictly-positive-delay
        # (calendar) entries that all come due at the same instant and check
        # global schedule order is preserved exactly.
        order = []

        def at_one():
            order.append(0)
            env.schedule(0.0, order.append, 1)
            env.schedule(0.0, order.append, 2)
            env.schedule_now(order.append, 3)

        env.schedule(1.0, at_one)
        env.run()
        assert order == [0, 1, 2, 3]

    def test_matches_heap_only_kernel(self):
        # The same scripted scenario must produce the same execution
        # order with the fast lane on and on the heap-only reference.
        def scenario(env):
            order = []

            def tick(tag):
                order.append((env.now, tag))
                if tag < 3:
                    env.schedule_now(tick, tag + 1)
                    env.schedule(0.0, tick, tag + 10)

            env.schedule(1.0, tick, 0)
            env.schedule(1.0, tick, 100)
            env.run()
            return order

        heap_only = reference_kernel.use(
            Environment(), scheduler="heap", fast_lane=False
        )
        assert scenario(Environment()) == scenario(heap_only)

    def test_until_with_pending_fast_work_drains_current_time(self, env):
        seen = []
        env.schedule(1.0, lambda: env.schedule_now(seen.append, "z"))
        env.run(until=1.0)
        assert seen == ["z"]
        assert env.now == 1.0


class TestHandlePooling:
    def test_handles_are_recycled(self, env):
        env.schedule(1.0, lambda: None)
        env.run()
        assert len(env._handle_pool) == 1
        recycled = env._handle_pool[-1]
        handle = env.schedule(1.0, lambda: None)
        assert handle is recycled

    def test_recycled_handle_forgets_cancellation(self, env):
        seen = []
        handle = env.schedule(1.0, seen.append, "a")
        handle.cancel()
        env.run()
        assert seen == []
        # The cancelled handle was reaped into the pool; reusing it must
        # deliver the new callback.
        reused = env.schedule(1.0, seen.append, "b")
        assert reused is handle
        env.run()
        assert seen == ["b"]

    def test_cancelled_timer_never_fires_after_reuse(self, env):
        # A process abandons its timeout (interrupt); the timer's handle
        # is cancelled, reaped, and recycled into later scheduling.  The
        # old timeout must never resume anyone.
        resumed = []

        def sleeper():
            try:
                yield env.timeout(5.0)
                resumed.append("timer")
            except Interrupt:
                resumed.append("interrupt")

        process = env.process(sleeper())
        env.schedule(1.0, process.interrupt)
        # Plenty of churn after the cancellation so the pooled handle is
        # reused many times before t=5.0 passes.
        for step in range(50):
            env.schedule(1.0 + step * 0.1, lambda: None)
        env.run()
        assert resumed == ["interrupt"]
        assert env.now == 5.9

    def test_dispatch_count_counts_real_callbacks_only(self, env):
        handle = env.schedule(1.0, lambda: None)
        handle.cancel()
        env.schedule(2.0, lambda: None)
        env.run()
        assert env.dispatch_count == 1


class TestTimeoutPooling:
    def test_fired_timeout_is_recycled(self, env):
        def sleeper():
            yield env.timeout(1.0)

        env.process(sleeper())
        env.run()
        assert len(env._timeout_pool) == 1
        pooled = env._timeout_pool[-1]
        fresh = env.timeout(2.0)
        assert fresh is pooled
        assert fresh.delay == 2.0

    def test_recycled_timeout_rejects_negative_delay(self, env):
        def sleeper():
            yield env.timeout(1.0)

        env.process(sleeper())
        env.run()
        from repro.sim.kernel import SimulationError

        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_two_waiters_one_interrupted(self, env):
        # Both processes wait on one Timeout object; each subscription
        # has its own scheduled handle, so interrupting one must not
        # disturb the other's wakeup.
        timeout = Timeout(env, 2.0, value="pop")
        woke = []

        def waiter(tag):
            try:
                woke.append((tag, (yield timeout)))
            except Interrupt:
                woke.append((tag, "interrupted"))

        env.process(waiter("a"))
        victim = env.process(waiter("b"))
        env.schedule(1.0, victim.interrupt)
        env.run()
        assert sorted(woke) == [("a", "pop"), ("b", "interrupted")]


class TestAnyOfLoserCleanup:
    def test_losing_timer_is_cancelled(self, env):
        event = env.event()
        fired = []

        def racer():
            index, value = yield env.any_of(
                [env.timeout(100.0), event]
            )
            fired.append((index, value))

        env.process(racer())
        env.schedule(1.0, event.succeed, "won")
        env.run()
        assert fired == [(1, "won")]
        # The losing timer's calendar entry was cancelled, so the run ended
        # at the event's time rather than the timer's horizon.
        assert env.now == 1.0

    def test_losing_event_drops_subscription(self, env):
        winner = env.event()
        loser = env.event()

        def racer():
            yield env.any_of([winner, loser])

        env.process(racer())
        env.schedule(1.0, winner.succeed)
        env.run()
        assert loser._waiters is None

    def test_watchers_list_emptied_on_first_fire(self, env):
        winner = env.event()
        combo = env.any_of([winner, env.event(), env.event()])

        def racer():
            yield combo

        env.process(racer())
        env.schedule(1.0, winner.succeed)
        env.run()
        assert combo._watchers == []


class TestInterruptDeliveryRaces:
    def test_interrupt_between_fire_and_delivery(self, env):
        # The event fires (delivery deferred to the next step) and the
        # waiter is interrupted at the same timestamp before delivery
        # runs.  The interrupt must win and the stale delivery must not
        # resume the process a second time.
        event = env.event()
        log = []

        def waiter():
            try:
                log.append(("value", (yield event)))
            except Interrupt as interrupt:
                log.append(("interrupt", interrupt.cause))
            return "done"

        process = env.process(waiter())

        def fire_then_interrupt():
            event.succeed("payload")
            process.interrupt("abort")

        env.schedule(1.0, fire_then_interrupt)
        env.run()
        env.check_crashes()
        assert log == [("interrupt", "abort")]
        assert not process.alive

    def test_interrupt_before_first_step(self, env):
        # Interrupting a process that has not started yet defers the
        # interrupt to the process's first step.
        log = []

        def body():
            try:
                yield env.timeout(1.0)
                log.append("timed out")
            except Interrupt:
                log.append("interrupted")

        process = env.process(body())
        process.interrupt("early")
        env.run()
        assert log == ["interrupted"]


class TestMailboxWithFastLane:
    @pytest.mark.parametrize("fast_lane", [True, False])
    def test_fifo_under_mixed_put_get(self, fast_lane):
        # Items must come out in put order no matter how gets and puts
        # interleave, with the fast lane on and with it bypassed.
        env = reference_kernel.use(Environment(), fast_lane=fast_lane)
        mailbox = Mailbox(env)
        received = []

        def consumer():
            for _ in range(6):
                received.append((yield mailbox.get()))

        def producer():
            mailbox.put(1)  # queued: no getter yet
            mailbox.put(2)
            yield env.timeout(1.0)
            mailbox.put(3)  # consumer now blocked on a getter
            mailbox.put(4)  # no getter (one get at a time): queued
            yield env.timeout(1.0)
            mailbox.put(5)
            mailbox.put(6)

        env.process(consumer())
        env.process(producer())
        env.run()
        env.check_crashes()
        assert received == [1, 2, 3, 4, 5, 6]

    def test_get_before_put_resolves_on_put(self, env):
        mailbox = Mailbox(env)
        received = []

        def consumer():
            received.append((yield mailbox.get()))

        env.process(consumer())
        env.schedule(1.0, mailbox.put, "late")
        env.run()
        assert received == ["late"]
