"""The transaction manager (paper §2.1, §3.3).

Models the execution of distributed transactions:

* A **terminal** loops: think (exponential), originate a transaction,
  wait for its successful completion.
* The **coordinator** runs at the host node.  Per attempt it pays a
  process-startup CPU cost, sends "load cohort" messages to the
  processing nodes, waits for cohorts (all at once when parallel, one
  after another when sequential), then drives a centralized two-phase
  commit: prepare messages out, votes back, commit messages out, acks
  back.  The same protocol is used for all concurrency control
  algorithms.
* A **cohort** runs at its processing node.  It pays a startup cost,
  then performs its accesses: each read is a concurrency control
  request, a disk I/O, and a burst of CPU; each update adds a write
  request and another CPU burst, with the disk write-back happening
  asynchronously after commit (``InstPerUpdate`` CPU to initiate).

Aborts travel as messages: whoever decides a transaction must die
(wound, deadlock victim, timestamp rejection, failed certification)
notifies the coordinator at the host, which broadcasts abort messages to
all loaded cohorts and awaits their acknowledgements.  Cohorts keep
holding locks — and keep burning resources — until the abort message
reaches their node, which is what makes aborts genuinely expensive under
8-way parallelism, as the paper stresses.  After aborting, the
coordinator waits one (exponentially distributed) average observed
response time before rerunning the same transaction, as in [Agra87a].
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cc.base import CCAlgorithm, NodeCCManager, RequestResult
from repro.core.config import SimulationConfig
from repro.core.database import PageId
from repro.core.metrics import MetricsCollector
from repro.core.network import HOST_NODE, NetworkManager
from repro.core.node import Node
from repro.core.tracing import EventKind
from repro.core.transaction import (
    Cohort,
    Transaction,
    TransactionState,
)
from repro.core.workload import AggregatedTerminalSource, RetryBackoff, \
    Source
from repro.sim.kernel import Environment, Interrupt, Mailbox
from repro.sim.stats import Tally
from repro.sim.streams import RandomStreams

__all__ = ["TransactionManager"]

#: Control message verbs delivered to cohort mailboxes.
_PREPARE = "prepare"
_COMMIT = "commit"


class TransactionManager:
    """Drives terminals, coordinators, and cohorts."""

    def __init__(
        self,
        env: Environment,
        config: SimulationConfig,
        host: Node,
        proc_nodes: List[Node],
        network: NetworkManager,
        cc_algorithm: CCAlgorithm,
        metrics: MetricsCollector,
        streams: RandomStreams,
        source: Source,
        auditor=None,
        tracer=None,
        fault_injector=None,
    ):
        self.env = env
        self.config = config
        self.host = host
        self.proc_nodes = proc_nodes
        self.network = network
        self.cc_algorithm = cc_algorithm
        self.metrics = metrics
        self.streams = streams
        self.source = source
        #: Optional serializability auditor (see repro.core.audit).
        self.auditor = auditor
        #: Optional lifecycle tracer (see repro.core.tracing).
        self.tracer = tracer
        #: Hoisted tracer flag checked at the hot call sites so that
        #: untraced runs (the normal case) skip the _trace call entirely.
        self._tracing = tracer is not None
        #: Running average of observed response times; drives the
        #: restart delay.  Deliberately never reset at warmup — it is a
        #: control variable of the model, not a reported metric.
        self._observed_response = Tally()
        self.active_transactions = 0
        # Per-access constants hoisted off the config object chains.
        self._inst_per_startup = config.resources.inst_per_startup
        self._inst_per_cc_request = config.inst_per_cc_request
        self._inst_per_update = config.resources.inst_per_update
        #: Fault injector (``None`` keeps every 2PC wait exactly the
        #: failure-free protocol; see ``repro.faults``).
        self.faults = fault_injector
        if fault_injector is not None:
            fault_config = fault_injector.config
            self._execution_timeout = fault_config.execution_timeout
            self._prepare_timeout = fault_config.prepare_timeout
            self._decision_timeout = fault_config.decision_timeout
            self._ack_timeout = fault_config.ack_timeout
            self._retry_backoff = RetryBackoff(
                streams.get(
                    "fault-retry-backoff",
                    owner="transaction-manager",
                ),
                fault_config.retry_backoff_base,
                fault_config.retry_backoff_multiplier,
                fault_config.retry_backoff_cap,
            )
        else:
            self._retry_backoff = None

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the terminal population.

        One :class:`AggregatedTerminalSource` drives every terminal with
        plain callbacks, so memory stays O(in-flight transactions).
        """
        self._arrival_source = AggregatedTerminalSource(
            self.env, self.source, self
        )
        self._arrival_source.start()

    def _trace(
        self,
        kind,
        transaction: Transaction,
        node: Optional[int] = None,
        detail=None,
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now,
                kind,
                transaction.tid,
                transaction.attempt,
                node,
                detail,
            )

    # ------------------------------------------------------------------
    # Coordinator
    # ------------------------------------------------------------------

    def _run_transaction(self, transaction: Transaction):
        """Run one transaction to successful completion (with restarts)."""
        while True:
            self.cc_algorithm.assign_timestamps(
                transaction, self.env.now
            )
            transaction.begin_attempt()
            if self._tracing:
                self._trace(EventKind.ATTEMPT_STARTED, transaction)
            committed = yield self.env.process(
                self._attempt(transaction),
                name=f"coord-{transaction.tid}.{transaction.attempt}",
            )
            if committed:
                response = self.env.now - transaction.origination_time
                self.metrics.record_commit(response)
                if self.faults is not None and self.faults.degraded:
                    self.metrics.record_degraded_commit()
                if transaction.routed_class is not None:
                    self.metrics.record_class_commit(
                        transaction.routed_class,
                        transaction.routed_algorithm,
                        response,
                    )
                self.cc_algorithm.on_commit(
                    transaction, response, self.env.now
                )
                self._observed_response.record(response)
                if self.auditor is not None:
                    self.auditor.on_committed(transaction)
                self._trace(
                    EventKind.COMMITTED, transaction, detail=response
                )
                return
            transaction.num_aborts += 1
            self.metrics.record_abort(transaction.abort_reason)
            if transaction.routed_class is not None:
                self.metrics.record_class_abort(
                    transaction.routed_class
                )
            self.cc_algorithm.on_abort(
                transaction, transaction.abort_reason, self.env.now
            )
            if self.auditor is not None:
                self.auditor.on_aborted(transaction)
            self._trace(
                EventKind.ABORTED,
                transaction,
                detail=transaction.abort_reason,
            )
            if (
                self._retry_backoff is not None
                and transaction.abort_reason is not None
                and transaction.abort_reason.startswith("fault-")
            ):
                # Failure-induced abort: exponential backoff instead
                # of the observed-response-time restart delay, so a
                # down node is not hammered by immediate retries.
                transaction.fault_retries += 1
                delay = self._retry_backoff.delay(
                    transaction.fault_retries
                )
            else:
                transaction.fault_retries = 0
                delay = self._restart_delay()
            self._trace(
                EventKind.RESTART_SCHEDULED, transaction, detail=delay
            )
            if delay > 0.0:
                yield self.env.timeout(delay)

    def _restart_delay(self) -> float:
        """Exponential delay, mean = observed average response time."""
        if self._observed_response.count:
            mean = self._observed_response.mean
        else:
            mean = self.config.workload.initial_restart_delay
        return self.streams.exponential(
            "restart-delay", mean, owner="transaction-manager"
        )

    def _attempt(self, transaction: Transaction):
        """One execution attempt; returns True on commit."""
        env = self.env
        transaction.abort_event = env.event()
        # Coordinator process startup at the host.
        yield from self.host.resources.execute(self._inst_per_startup)
        cohorts = transaction.cohorts
        for cohort in cohorts:
            cohort.done_event = env.event()
            cohort.vote_event = env.event()
            cohort.commit_ack_event = env.event()
            cohort.abort_ack_event = env.event()
            cohort.mailbox = Mailbox(env)
        # ----- execution phase -----
        if transaction.parallel:
            for cohort in cohorts:
                self._post_load(cohort)
            all_done = env.all_of(
                [cohort.done_event for cohort in cohorts]
            )
            if self.faults is None:
                yield env.any_of([all_done, transaction.abort_event])
            else:
                yield from self._await_with_timeout(
                    transaction, all_done, self._execution_timeout,
                    "fault-execution-timeout", record_blocked=False,
                )
        else:
            for cohort in cohorts:
                self._post_load(cohort)
                if self.faults is None:
                    yield env.any_of(
                        [cohort.done_event, transaction.abort_event]
                    )
                else:
                    yield from self._await_with_timeout(
                        transaction, cohort.done_event,
                        self._execution_timeout,
                        "fault-execution-timeout",
                        record_blocked=False,
                    )
                if transaction.abort_pending:
                    break
        if transaction.abort_pending:
            yield from self._abort_protocol(transaction)
            return False
        # ----- two-phase commit: phase one -----
        transaction.state = TransactionState.PREPARING
        self.cc_algorithm.assign_commit_timestamp(
            transaction, env.now
        )
        for cohort in cohorts:
            if self._tracing:
                self._trace(
                    EventKind.PREPARE_SENT, transaction, cohort.node
                )
            self._post_control(cohort, _PREPARE)
        all_votes = env.all_of(
            [cohort.vote_event for cohort in cohorts]
        )
        if self.faults is None:
            yield env.any_of([all_votes, transaction.abort_event])
        else:
            # Presumed abort: a vote lost to the network or a crashed
            # participant resolves to abort after prepare_timeout.
            yield from self._await_with_timeout(
                transaction, all_votes, self._prepare_timeout,
                "fault-prepare-timeout", record_blocked=True,
            )
        if transaction.abort_pending:
            yield from self._abort_protocol(transaction)
            return False
        if not all(
            cohort.vote_event.fired and cohort.vote_event.value
            for cohort in cohorts
        ):
            transaction.mark_abort("certification-failed")
            yield from self._abort_protocol(transaction)
            return False
        # ----- phase two: the decision is final -----
        transaction.state = TransactionState.COMMITTING
        for cohort in cohorts:
            self._post_control(cohort, _COMMIT)
        if self.faults is None:
            yield env.all_of(
                [cohort.commit_ack_event for cohort in cohorts]
            )
        else:
            yield from self._drive_decision(cohorts, commit=True)
        transaction.state = TransactionState.COMMITTED
        return True

    # ------------------------------------------------------------------
    # Fault-mode coordinator waits (never entered failure-free)
    # ------------------------------------------------------------------

    def _await_with_timeout(
        self, transaction, target, timeout, reason, record_blocked
    ):
        """Wait for ``target`` or the abort event, presuming abort when
        neither fires within ``timeout`` (lost message, crashed node).
        """
        env = self.env
        started = env.now
        index, _value = yield env.any_of(
            [target, transaction.abort_event, env.timeout(timeout)]
        )
        if index == 2 and not transaction.abort_pending:
            if record_blocked:
                self.metrics.record_blocked_2pc(env.now - started)
            transaction.mark_abort(reason)

    def _drive_decision(self, cohorts, commit):
        """Resend the final phase-two decision until every cohort acks.

        The decision is irrevocable, so the coordinator never gives
        up: each ``ack_timeout`` expiry re-posts the decision to the
        still-silent cohorts (their node may be down; the message is
        dropped and retried until recovery).  Terminates because every
        outage ends and resident crash state converts resends into
        recovery acknowledgements.
        """
        env = self.env

        def _ack(cohort):
            if commit:
                return cohort.commit_ack_event
            return cohort.abort_ack_event

        pending = [c for c in cohorts if not _ack(c).fired]
        started = env.now
        waited = False
        while pending:
            index, _value = yield env.any_of([
                env.all_of([_ack(c) for c in pending]),
                env.timeout(self._ack_timeout),
            ])
            if index == 0:
                break
            waited = True
            pending = [c for c in pending if not _ack(c).fired]
            for cohort in pending:
                if commit:
                    self._post_control(cohort, _COMMIT)
                else:
                    self.network.post(
                        HOST_NODE, cohort.node,
                        self._deliver_abort, cohort,
                    )
        if waited:
            # One span per stalled decision, not per resend round.
            self.metrics.record_blocked_2pc(env.now - started)

    # ------------------------------------------------------------------
    # Messages from coordinator to cohorts
    # ------------------------------------------------------------------

    def _post_load(self, cohort: Cohort) -> None:
        cohort.load_posted = True
        if self._tracing:
            self._trace(
                EventKind.COHORT_LOADED, cohort.transaction, cohort.node
            )
        self.network.post(
            HOST_NODE, cohort.node, self._deliver_load, cohort
        )

    def _deliver_load(self, cohort: Cohort) -> None:
        transaction = cohort.transaction
        if cohort.attempt != transaction.attempt:
            # Delayed past a restart (fault mode): a stale cohort must
            # not start and leak locks into the new attempt.
            return
        if transaction.abort_pending:
            # An abort raced ahead; the pending ABORT message (queued
            # behind this one) will clean up and acknowledge.
            return
        cohort.started = True
        if self._tracing:
            self._trace(
                EventKind.COHORT_STARTED, transaction, cohort.node
            )
        cohort.process = self.env.process(
            self._cohort_body(cohort),
            name=(
                f"cohort-{transaction.tid}.{transaction.attempt}"
                f"@{cohort.node}"
            ),
        )
        if self.faults is not None:
            self.faults.register_resident(cohort)

    def _post_control(self, cohort: Cohort, verb: str) -> None:
        self.network.post(
            HOST_NODE, cohort.node, self._deliver_control,
            (cohort, verb),
        )

    def _deliver_control(
        self, payload: Tuple[Cohort, str]
    ) -> None:
        cohort, verb = payload
        if cohort.attempt != cohort.transaction.attempt:
            return  # stale: delayed past a restart (fault mode)
        if (
            verb == _COMMIT
            and cohort.crashed
            and not cohort.commit_ack_event.fired
        ):
            # The node crashed after this cohort voted yes; the commit
            # decision is final, so the recovery manager REDOes from
            # the log and acknowledges on the cohort's behalf.
            self.network.post(
                cohort.node, HOST_NODE, self._deliver_commit_ack,
                cohort,
            )
            return
        if cohort.mailbox is not None:
            cohort.mailbox.put(verb)

    # ------------------------------------------------------------------
    # Messages from cohorts to coordinator
    # ------------------------------------------------------------------

    # The ``fired`` guards below make delivery idempotent: fault-mode
    # resends and recovery acknowledgements can produce duplicates.
    # Failure-free runs deliver each exactly once.

    @staticmethod
    def _deliver_done(cohort: Cohort) -> None:
        if not cohort.done_event.fired:
            cohort.done_event.succeed()

    @staticmethod
    def _deliver_vote(payload: Tuple[Cohort, bool]) -> None:
        cohort, vote = payload
        if not cohort.vote_event.fired:
            cohort.vote_event.succeed(vote)

    @staticmethod
    def _deliver_commit_ack(cohort: Cohort) -> None:
        if not cohort.commit_ack_event.fired:
            cohort.commit_ack_event.succeed()

    # ------------------------------------------------------------------
    # Abort path
    # ------------------------------------------------------------------

    def request_abort(
        self, transaction: Transaction, reason: str, from_node: int
    ) -> None:
        """CC entry point: ask the coordinator to abort ``transaction``.

        The request travels as a message from ``from_node`` to the host
        (unless it originates at the host itself); state checks repeat
        at delivery time, so wounds that arrive after the victim entered
        its second commit phase are correctly non-fatal.
        """
        if transaction.abort_pending or not transaction.abortable:
            return
        payload = (transaction, reason, transaction.attempt)
        self.network.post(
            from_node, HOST_NODE, self._deliver_abort_request, payload
        )

    def _deliver_abort_request(
        self, payload: Tuple[Transaction, str, int]
    ) -> None:
        transaction, reason, attempt = payload
        if transaction.attempt != attempt:
            return  # stale: the transaction already restarted
        if transaction.abort_pending or not transaction.abortable:
            return
        transaction.mark_abort(reason)
        self._trace(
            EventKind.ABORT_REQUESTED, transaction, detail=reason
        )
        if (
            transaction.abort_event is not None
            and not transaction.abort_event.fired
        ):
            transaction.abort_event.succeed()

    def _abort_protocol(self, transaction: Transaction):
        """Broadcast aborts to loaded cohorts; await acknowledgements."""
        transaction.state = TransactionState.ABORTING
        posted = [
            cohort
            for cohort in transaction.cohorts
            if cohort.load_posted
        ]
        for cohort in posted:
            self.network.post(
                HOST_NODE, cohort.node, self._deliver_abort, cohort
            )
        if posted:
            if self.faults is None:
                yield self.env.all_of(
                    [cohort.abort_ack_event for cohort in posted]
                )
            else:
                yield from self._drive_decision(posted, commit=False)
        transaction.state = TransactionState.ABORTED

    def _deliver_abort(self, cohort: Cohort) -> None:
        if cohort.attempt != cohort.transaction.attempt:
            # Stale (fault mode): the transaction already restarted and
            # the new attempt owns any locks under this transaction.
            return
        if cohort.process is not None and cohort.process.alive:
            cohort.process.interrupt("abort")
        manager = self._cc_manager(cohort.node)
        manager.abort(cohort)
        self.network.post(
            cohort.node, HOST_NODE, self._deliver_abort_ack, cohort
        )

    @staticmethod
    def _deliver_abort_ack(cohort: Cohort) -> None:
        if not cohort.abort_ack_event.fired:
            cohort.abort_ack_event.succeed()

    # ------------------------------------------------------------------
    # Cohorts
    # ------------------------------------------------------------------

    def _cc_manager(self, node: int) -> NodeCCManager:
        manager = self.proc_nodes[node].cc_manager
        assert manager is not None, "processing node lacks CC manager"
        return manager

    def _cohort_body(self, cohort: Cohort):
        transaction = cohort.transaction
        node = self.proc_nodes[cohort.node]
        resources = node.resources
        manager = self._cc_manager(cohort.node)
        try:
            # Cohort process startup at the processing node.
            yield from resources.execute(self._inst_per_startup)
            manager.register_cohort(cohort)
            for access in cohort.spec.accesses:
                if access.install_only:
                    # Write-all leg of a replicated update: write
                    # permission plus processing, no read, no disk
                    # read (the content comes from the reading copy).
                    granted = yield from self._cc_access(
                        cohort, manager, resources, access.page,
                        write=True,
                    )
                    if not granted:
                        self._report_local_reject(cohort)
                        return
                    yield from resources.execute(
                        self.source.page_processing_instructions(
                            transaction.class_config
                        )
                    )
                    continue
                granted = yield from self._cc_access(
                    cohort, manager, resources, access.page,
                    write=False,
                )
                if not granted:
                    self._report_local_reject(cohort)
                    return
                yield from resources.disk_read()
                yield from resources.execute(
                    self.source.page_processing_instructions(
                        transaction.class_config
                    )
                )
                if access.is_update:
                    granted = yield from self._cc_access(
                        cohort, manager, resources, access.page,
                        write=True,
                    )
                    if not granted:
                        self._report_local_reject(cohort)
                        return
                    yield from resources.execute(
                        self.source.page_processing_instructions(
                            transaction.class_config
                        )
                    )
            cohort.finished_work = True
            if self._tracing:
                self._trace(
                    EventKind.COHORT_DONE, transaction, cohort.node
                )
            self.network.post(
                cohort.node, HOST_NODE, self._deliver_done, cohort
            )
            # ----- two-phase commit, participant side -----
            # The PREPARE wait needs no monitoring even in fault mode:
            # until it votes the cohort is recoverable (a lost PREPARE
            # ends in the coordinator's prepare-timeout abort, whose
            # message interrupts this process), and most of the wait is
            # sibling cohorts still executing — not 2PC blocking.
            verb = yield cohort.mailbox.get()
            assert verb == _PREPARE, f"unexpected control {verb!r}"
            vote = manager.prepare(cohort)
            if self._tracing:
                self._trace(
                    EventKind.VOTED, transaction, cohort.node, vote
                )
            self.network.post(
                cohort.node, HOST_NODE, self._deliver_vote,
                (cohort, vote),
            )
            # Having voted yes, the cohort is in the 2PC window of
            # vulnerability: it cannot unilaterally decide, so a lost
            # decision leaves it genuinely blocked (until a resend
            # lands) — the span the availability metrics report.
            if self.faults is None:
                verb = yield cohort.mailbox.get()
            else:
                verb = yield from self._monitored_get(cohort)
            assert verb == _COMMIT, f"unexpected control {verb!r}"
            installed = manager.commit(cohort)
            if self.auditor is not None:
                self.auditor.on_installed(cohort, installed)
            yield from self._write_back(resources, installed)
            self.network.post(
                cohort.node, HOST_NODE, self._deliver_commit_ack,
                cohort,
            )
        except Interrupt:
            # Aborted by the coordinator (or the node crashed): CC
            # cleanup happened — or will — via the abort message or
            # the crash reset.
            return
        finally:
            if self.faults is not None:
                self.faults.forget_resident(cohort)

    def _monitored_get(self, cohort: Cohort):
        """Mailbox get with participant-side blocking detection.

        A participant that voted yes cannot unilaterally abort; when
        the decision message is lost it sits blocked on 2PC.  Each
        ``decision_timeout`` expiry re-arms the wait, and the total
        blocked span is recorded once delivery (or an interrupt) ends
        it.  Fault mode only.
        """
        env = self.env
        get_event = cohort.mailbox.get()
        started = env.now
        waited = False
        while True:
            index, value = yield env.any_of(
                [get_event, env.timeout(self._decision_timeout)]
            )
            if index == 0:
                if waited:
                    self.metrics.record_blocked_2pc(env.now - started)
                return value
            waited = True

    def _write_back(
        self, resources, pages: List[PageId]
    ):
        """Initiate the asynchronous post-commit disk writes."""
        for _page in pages:
            yield from resources.execute(self._inst_per_update)
            resources.initiate_async_write()

    def _cc_access(
        self,
        cohort: Cohort,
        manager: NodeCCManager,
        resources,
        page: PageId,
        write: bool,
    ):
        """One concurrency control request; returns True when granted."""
        if self._inst_per_cc_request > 0.0:
            yield from resources.execute(self._inst_per_cc_request)
        if write:
            response = manager.write_request(cohort, page)
        else:
            response = manager.read_request(cohort, page)
        if response.result is RequestResult.GRANTED:
            if not write and self.auditor is not None:
                self.auditor.on_read_granted(cohort, page)
            return True
        if response.result is RequestResult.REJECTED:
            return False
        assert response.event is not None
        blocked_at = self.env.now
        if self._tracing:
            self._trace(
                EventKind.BLOCKED,
                cohort.transaction,
                cohort.node,
                page,
            )
        outcome = yield response.event
        self.metrics.record_blocking(self.env.now - blocked_at)
        if cohort.transaction.routed_class is not None:
            self.metrics.record_class_blocking(
                cohort.transaction.routed_class
            )
        if self._tracing:
            self._trace(
                EventKind.UNBLOCKED,
                cohort.transaction,
                cohort.node,
                outcome,
            )
        granted = outcome is RequestResult.GRANTED
        if granted and not write and self.auditor is not None:
            self.auditor.on_read_granted(cohort, page)
        return granted

    def _report_local_reject(self, cohort: Cohort) -> None:
        """A cohort's own request was rejected: tell the coordinator."""
        transaction = cohort.transaction
        payload = (
            transaction,
            "timestamp-reject",
            transaction.attempt,
        )
        self.network.post(
            cohort.node,
            HOST_NODE,
            self._deliver_abort_request,
            payload,
        )
