"""The workload source (paper §3.2, Table 2).

The source generates the access specification for each new transaction.
The paper's workload: 128 terminals attached to the host, divided into
groups of 16, terminals in each group generating transactions that
access a common relation.  A transaction touches *every* partition of
its relation (FileCount = partitions per relation, FileProb uniform),
reading ``NumPages`` pages per partition on average — the actual count
drawn uniformly from [mean/2, 3*mean/2] (4..12 for the default 8,
footnote 12) — and updating each read page with WriteProb.

Crucially, *"the nature of transaction access streams is independent of
data placement and machine size"* (footnote 8): the same pages are drawn
regardless of where partitions live, and only the grouping of accesses
into cohorts changes with placement.  The source therefore draws page
accesses per partition first and groups them by node afterwards.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.core.config import TransactionClassConfig, WorkloadConfig
from repro.core.database import Database, PageId
from repro.core.tracing import EventKind
from repro.core.transaction import AccessSpec, CohortSpec, PageAccess, \
    Transaction
from repro.sim.streams import RandomStreams

__all__ = [
    "AggregatedTerminalSource",
    "RetryBackoff",
    "Source",
]


class RetryBackoff:
    """Terminal-level exponential backoff for failure-induced aborts.

    When a transaction dies to an injected failure (a ``fault-``
    prefixed abort reason) the terminal retries after a jittered
    exponential delay whose mean doubles — by ``multiplier`` — with
    each consecutive failure, capped at ``cap``.  The jitter is drawn
    from the dedicated ``fault-retry-backoff`` stream, so backoff
    never perturbs the failure-free draw sequences.  Constructed only
    when fault injection is active.
    """

    def __init__(self, stream, base: float, multiplier: float,
                 cap: float):
        self._draw = stream.expovariate
        self.base = base
        self.multiplier = multiplier
        self.cap = cap

    def delay(self, consecutive_failures: int) -> float:
        """Jittered delay after the N-th consecutive failure abort."""
        exponent = max(0, consecutive_failures - 1)
        mean = min(self.cap, self.base * self.multiplier ** exponent)
        if mean <= 0.0:
            return 0.0
        return self._draw(1.0 / mean)


class Source:
    """Generates per-transaction access specifications for terminals."""

    def __init__(
        self,
        config: WorkloadConfig,
        database: Database,
        streams: RandomStreams,
    ):
        self.config = config
        self.database = database
        self.streams = streams
        self._class_bounds = self._assign_class_bounds()
        # Hot-path stream handles: the named-stream lookups below are
        # made once here instead of per draw.  Streams are seeded by
        # name, so grabbing them eagerly changes no draw sequence.
        self._page_count_stream = streams.get(
            "page-count", owner="workload"
        )
        self._page_choice_stream = streams.get(
            "page-choice", owner="workload"
        )
        self._write_coin_stream = streams.get(
            "write-coin", owner="workload"
        )
        self._inst_draw = streams.get(
            "inst-per-page", owner="workload"
        ).expovariate
        # Zipf-skewed page choice (access_skew > 0): cumulative-weight
        # tables per (theta, population) and the dedicated draw stream,
        # both created on first skewed draw so uniform workloads touch
        # neither — the default path stays bit-identical to the paper.
        self._skew_tables: Dict[Tuple[float, int], List[float]] = {}
        self._skew_draw = None
        # Per-terminal think-stream handles, created on first draw.  At
        # 10^5+ terminals, materialising every stream up front costs
        # O(terminals) startup work for terminals that may never think;
        # laziness changes no draw sequence (streams are seeded by
        # name, not by creation order).
        self._think_draws: Dict[int, object] = {}
        self._inv_think = (
            1.0 / config.think_time if config.think_time > 0.0 else 0.0
        )

    def _assign_class_bounds(self) -> List[int]:
        """Split terminals between classes by ClassFrac (deterministic).

        Returns cumulative terminal-count boundaries — one per class —
        so :meth:`class_of` is a bisect over O(num_classes) ints
        instead of an indexed O(num_terminals) materialised list.
        Quotas follow the paper's rule: each class gets
        ``round(ClassFrac * terminals)`` capped by what remains, and
        the last class absorbs the remainder so every terminal
        generates work.
        """
        bounds: List[int] = []
        assigned = 0
        remaining = self.config.num_terminals
        for index, cls in enumerate(self.config.classes):
            if index == len(self.config.classes) - 1:
                quota = remaining
            else:
                quota = round(cls.terminal_fraction
                              * self.config.num_terminals)
                quota = min(quota, remaining)
            assigned += quota
            remaining -= quota
            bounds.append(assigned)
        return bounds

    def class_of(self, terminal: int) -> TransactionClassConfig:
        """The transaction class terminal ``terminal`` generates."""
        return self.config.classes[
            bisect_right(self._class_bounds, terminal)
        ]

    def relation_of(self, terminal: int) -> int:
        """The relation this terminal's group accesses.

        Terminals are split into ``num_relations`` equal groups in
        terminal order (groups of 16 for the Table 4 defaults).
        """
        num_relations = self.database.num_relations
        return terminal * num_relations // self.config.num_terminals

    def generate(self, terminal: int) -> AccessSpec:
        """Draw the access specification for a new transaction."""
        cls = self.class_of(terminal)
        relation = self.relation_of(terminal)
        partitions = self._choose_partitions(cls, relation)
        page_accesses: List[PageAccess] = []
        for partition in partitions:
            page_accesses.extend(
                self._draw_partition_accesses(cls, relation, partition)
            )
        placed = self._place_accesses(page_accesses)
        cohorts = self._group_into_cohorts(placed)
        return AccessSpec(relation=relation, cohorts=tuple(cohorts))

    def _place_accesses(
        self, accesses: Sequence[PageAccess]
    ) -> List[tuple]:
        """Assign each access to node(s): read-one / write-all.

        Without replication every access goes to the page's single
        node.  With copies > 1 the read happens at one randomly chosen
        copy; an update additionally produces an install-only write
        access at every other copy site.
        """
        placed: List[tuple] = []
        for access in accesses:
            copy_nodes = self.database.nodes_of_page(access.page)
            if len(copy_nodes) == 1:
                placed.append((copy_nodes[0], access))
                continue
            read_index = self.streams.uniform_int(
                "copy-choice", 0, len(copy_nodes) - 1,
                owner="workload",
            )
            placed.append((copy_nodes[read_index], access))
            if access.is_update:
                for index, node in enumerate(copy_nodes):
                    if index == read_index:
                        continue
                    placed.append(
                        (
                            node,
                            PageAccess(
                                page=access.page,
                                is_update=True,
                                install_only=True,
                            ),
                        )
                    )
        return placed

    def _choose_partitions(
        self, cls: TransactionClassConfig, relation: int
    ) -> Sequence[int]:
        """FileCount/FileProb: which partitions the transaction touches."""
        total = self.database.config.partitions_per_relation
        count = min(cls.file_count, total)
        if count == total:
            return range(total)
        chosen = self.streams.sample_without_replacement(
            "file-choice", total, count, owner="workload"
        )
        return sorted(chosen)

    def _draw_partition_accesses(
        self, cls: TransactionClassConfig, relation: int, partition: int
    ) -> List[PageAccess]:
        """Draw the page reads (and update flags) for one partition."""
        num_pages = self._page_count_stream.randint(
            cls.min_pages_per_file, cls.max_pages_per_file
        )
        pages_per_partition = self.database.pages_per_partition
        num_pages = min(num_pages, pages_per_partition)
        if cls.access_skew > 0.0:
            page_indices = self._draw_skewed_indices(
                cls.access_skew, pages_per_partition, num_pages
            )
        else:
            page_indices = self._page_choice_stream.sample(
                range(pages_per_partition), num_pages
            )
        write_probability = cls.write_probability
        coin = self._write_coin_stream.random
        accesses = []
        for index in page_indices:
            page = PageId(relation, partition, index)
            # Mirrors RandomStreams.bernoulli: degenerate probabilities
            # consume no draw.
            if write_probability <= 0.0:
                is_update = False
            elif write_probability >= 1.0:
                is_update = True
            else:
                is_update = coin() < write_probability
            accesses.append(PageAccess(page=page, is_update=is_update))
        return accesses

    def _zipf_cumulative(
        self, theta: float, population: int
    ) -> List[float]:
        """Cumulative (unnormalized) Zipf(theta) weights over ranks.

        Rank r (page index r, zero-based) has weight 1/(r+1)^theta, so
        low page indices are the hot keys.  Tables are memoized per
        (theta, population) — one O(population) pass per distinct
        class/partition-size pairing.
        """
        table = self._skew_tables.get((theta, population))
        if table is None:
            table = []
            total = 0.0
            for rank in range(population):
                total += 1.0 / float(rank + 1) ** theta
                table.append(total)
            self._skew_tables[(theta, population)] = table
        return table

    def _draw_skewed_indices(
        self, theta: float, population: int, count: int
    ) -> List[int]:
        """``count`` distinct Zipf(theta)-distributed page indices.

        Inverse-CDF draws from the dedicated ``page-skew`` stream with
        rejection of duplicates, so the result mirrors the uniform
        path's sample-without-replacement contract.  Every draw comes
        from ``page-skew`` only: skewed classes never consume
        ``page-choice`` draws, and uniform classes never consume
        ``page-skew`` draws.
        """
        if count >= population:
            return list(range(population))
        if self._skew_draw is None:
            self._skew_draw = self.streams.get(
                "page-skew", owner="workload"
            ).random
        table = self._zipf_cumulative(theta, population)
        total = table[-1]
        draw = self._skew_draw
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            index = bisect_right(table, draw() * total)
            if index >= population:
                index = population - 1
            if index in seen:
                continue
            seen.add(index)
            chosen.append(index)
        return chosen

    def _group_into_cohorts(
        self, placed: Sequence[tuple]
    ) -> List[CohortSpec]:
        """Group (node, access) pairs into one cohort per node."""
        by_node: dict[int, List[PageAccess]] = {}
        for node, access in placed:
            by_node.setdefault(node, []).append(access)
        return [
            CohortSpec(node=node, accesses=tuple(node_accesses))
            for node, node_accesses in sorted(by_node.items())
        ]

    def think_time(self, terminal: int) -> float:
        """Draw an exponential think time (0 when the mean is 0)."""
        if self.config.think_time <= 0.0:
            return 0.0
        draw = self._think_draws.get(terminal)
        if draw is None:
            draw = self.streams.get(
                f"think-{terminal}", owner="workload"
            ).expovariate
            self._think_draws[terminal] = draw
        return draw(self._inv_think)

    def page_processing_instructions(
        self, cls: TransactionClassConfig
    ) -> float:
        """Exponential per-page instruction count (mean InstPerPage)."""
        mean = cls.inst_per_page
        if mean <= 0.0:
            return 0.0
        return self._inst_draw(1.0 / mean)


class _TerminalWatcher:
    """Process-protocol shim subscribing a terminal to its transaction.

    Stands in for a terminal Process's ``yield txn_process``: it
    implements just enough of the process protocol —
    ``_alive``/``_waiting_on`` for the deferred-delivery check,
    ``_resume`` for normal completion, and the ``_generator.throw`` /
    ``_step`` pair for the exception path of
    :meth:`Process._notify_step` — to be notified when the transaction
    process finishes.  If the transaction died with an exception, the
    shim records an unobserved crash under the name ``terminal-N``.
    """

    __slots__ = ("owner", "terminal", "name", "_alive", "_waiting_on")

    def __init__(self, owner: "AggregatedTerminalSource",
                 terminal: int, process) -> None:
        self.owner = owner
        self.terminal = terminal
        self.name = f"terminal-{terminal}"
        self._alive = True
        self._waiting_on = process
        process._subscribe(self)

    @property
    def _generator(self) -> "_TerminalWatcher":
        return self

    def throw(self, exception: BaseException) -> None:
        raise exception  # pragma: no cover - marker, never driven

    def _resume(self, value) -> None:
        self._alive = False
        self._waiting_on = None
        self.owner._transaction_finished(self.terminal)

    def _step(self, advance, argument) -> None:
        # Only reached when the transaction process died with an
        # exception (Process._notify_step calls _step(throw, exc)).
        self._alive = False
        self._waiting_on = None
        self.owner.env._record_crash(self, argument)


class AggregatedTerminalSource:
    """Batched arrival source: the host's terminals without Processes.

    Each terminal cycles think → generate → run → think.  Holding one
    generator Process per terminal would keep a suspended frame, a
    Process object and a Timeout alive for every idle terminal; at the
    10⁵ terminals of the scaleout experiment that dominates memory and
    startup time.  This source keeps only a scheduled arrival handle
    per idle terminal and drives the whole population with plain
    callbacks.

    Its draw and sequence discipline is part of the model (the fig. 2 /
    fig. 10 goldens pin it):

    * Per-terminal think times come from the ``think-{terminal}``
      streams, drawn inside the boot step at t=0 and inside the
      watcher-resume step after each transaction finishes.
    * Shared-stream draws (``page-count``, ``page-choice``,
      ``write-coin``, ``file-choice``…) happen in ``generate`` at the
      arrival instant, inside the arrival callback.
    * Boot consumes one ``schedule_now`` per terminal; each think
      consumes one ``schedule``; each arrival consumes one
      ``schedule_now`` (transaction-process start); each completion
      consumes one ``schedule_now`` (watcher notification).

    Terminals all attach to the host node in this model (paper §3.2),
    so one source per simulation is one source per (host) node.
    """

    def __init__(self, env, source: Source, manager) -> None:
        self.env = env
        self.source = source
        #: The owning TransactionManager (transaction execution, metrics
        #: and tracing stay there; only arrival generation moves here).
        self.manager = manager

    def start(self) -> None:
        """Boot every terminal (one zero-delay callback each)."""
        env = self.env
        boot = self._boot
        for terminal in range(self.source.config.num_terminals):
            env.schedule_now(boot, terminal)

    def _boot(self, terminal: int) -> None:
        think = self.source.think_time(terminal)
        if think > 0.0:
            self.env.schedule(think, self._arrive, terminal)
        else:
            self._arrive(terminal)

    def _arrive(self, terminal: int) -> None:
        """The terminal submits: draw the spec, start the transaction."""
        manager = self.manager
        source = self.source
        spec = source.generate(terminal)
        transaction = Transaction(
            terminal,
            source.class_of(terminal),
            spec,
            self.env.now,
        )
        manager.active_transactions += 1
        if manager._tracing:
            manager._trace(EventKind.ORIGINATED, transaction)
        process = self.env.process(
            manager._run_transaction(transaction),
            name=f"txn-{transaction.tid}",
        )
        _TerminalWatcher(self, terminal, process)

    def _transaction_finished(self, terminal: int) -> None:
        self.manager.active_transactions -= 1
        think = self.source.think_time(terminal)
        if think > 0.0:
            self.env.schedule(think, self._arrive, terminal)
        else:
            self._arrive(terminal)
