"""The shipped simlint rule set.

Each rule targets a bug class this codebase has actually hit (or nearly
hit) while keeping figure replications seed-stable:

``id-keyed-container``
    ``d[id(obj)]`` — CPython reuses ids after garbage collection, so an
    id-keyed entry can be claimed by an unrelated object (the PR 2
    ``Timeout`` bug).  Key containers by the object itself.
``unseeded-global-random``
    Module-level ``random.*`` / ``numpy.random.*`` draws inside the
    simulator share one ambient stream: any new call site perturbs
    every stream after it and breaks common-random-numbers runs.  All
    randomness must come from injected ``random.Random`` streams.
``wall-clock``
    ``time.time()`` / ``datetime.now()`` readings leak host timing into
    a simulation whose only clock is ``env.now``.
``unordered-set-iteration``
    Iterating a ``set`` where schedules, grants, or victims are decided
    makes the outcome hash-order-dependent; wrap in ``sorted()`` with
    an explicit key.
``unordered-dict-iteration``
    Iterating a dict (or its ``items()``/``keys()``/``values()`` views)
    where schedules, grants, or victims are decided couples the outcome
    to insertion history rather than a canonical order — and key-view
    set algebra (``d.keys() - e``) is outright hash-ordered.  Warning
    severity: insertion order *is* deterministic, so intended uses
    carry a waiver naming that intent instead of a sort.
``float-time-equality``
    ``==`` / ``!=`` on simulated-time floats is only sound when both
    sides are copies of the same scheduled value; anywhere else it
    silently depends on floating-point drift.  Flagged so every exact
    comparison is either restructured or carries a justifying
    suppression.
``process-protocol``
    Kernel misuse inside generator process bodies: yielding a value
    that is obviously not a :class:`~repro.sim.kernel.Waitable`
    (a bare ``yield``, a literal) or calling ``env.run()`` reentrantly
    from inside a process.
``fault-stream-misuse``
    The fault subsystem's no-perturbation guarantee rests on drawing
    exclusively from dedicated ``fault-*`` random streams: a fault
    module that touches a shared stream (``page-choice``,
    ``restart-delay``, ...) silently changes every failure-free draw
    sequence after it and breaks the bit-identical-without-faults
    property.  Flags stream draws inside ``repro/faults/`` whose
    stream name does not start with ``fault-``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.registry import Rule, register
from repro.lint.stream_draws import iter_stream_draws
from repro.lint.violations import Violation

__all__ = [
    "FaultStreamMisuseRule",
    "FloatTimeEqualityRule",
    "IdKeyedContainerRule",
    "ProcessProtocolRule",
    "UnorderedDictIterationRule",
    "UnorderedSetIterationRule",
    "UnseededGlobalRandomRule",
    "WallClockRule",
]


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


@register
class IdKeyedContainerRule(Rule):
    """Containers keyed by ``id(...)``."""

    rule_id = "id-keyed-container"
    summary = (
        "container keyed by id(obj): ids are recycled after GC, so a "
        "stale entry can be claimed by an unrelated object; key by the "
        "object itself (identity hash) or attach the state to it"
    )
    version = 1

    _KEYED_METHODS = frozenset(
        {"get", "pop", "setdefault", "add", "discard", "remove"}
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and _is_id_call(
                node.slice
            ):
                violations.append(self.violation(path, node))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._KEYED_METHODS
                    and node.args
                    and _is_id_call(node.args[0])
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(node, ast.Compare):
                if any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in node.ops
                ) and _is_id_call(node.left):
                    violations.append(self.violation(path, node))
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        violations.append(self.violation(path, key))
        return violations


@register
class UnseededGlobalRandomRule(Rule):
    """Module-level RNG draws inside the simulator packages."""

    rule_id = "unseeded-global-random"
    summary = (
        "module-level RNG call shares the ambient global stream; draw "
        "from an injected random.Random stream instead (see "
        "repro.sim.streams)"
    )
    version = 1
    include = ("repro/sim/", "repro/core/", "repro/cc/")

    _RNG_FUNCS = frozenset(
        {
            "betavariate",
            "choice",
            "choices",
            "expovariate",
            "gammavariate",
            "gauss",
            "getrandbits",
            "lognormvariate",
            "normalvariate",
            "paretovariate",
            "randbytes",
            "randint",
            "random",
            "randrange",
            "sample",
            "seed",
            "shuffle",
            "triangular",
            "uniform",
            "vonmisesvariate",
            "weibullvariate",
        }
    )

    def check(self, tree, source, path):
        violations: List[Violation] = []
        bare_imports: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name in self._RNG_FUNCS:
                            bare_imports.add(
                                alias.asname or alias.name
                            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    func.attr in self._RNG_FUNCS
                    and self._is_global_rng_module(func.value)
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(func, ast.Name):
                if func.id in bare_imports:
                    violations.append(self.violation(path, node))
        return violations

    @staticmethod
    def _is_global_rng_module(node: ast.AST) -> bool:
        # ``random.<fn>(...)`` — the stdlib module, not a Random
        # instance (instances are never named ``random`` here).
        if isinstance(node, ast.Name):
            return node.id == "random"
        # ``numpy.random.<fn>`` / ``np.random.<fn>``.
        if isinstance(node, ast.Attribute) and node.attr == "random":
            value = node.value
            return isinstance(value, ast.Name) and value.id in (
                "numpy",
                "np",
            )
        return False


@register
class WallClockRule(Rule):
    """Host-clock reads outside CLI/benchmark timing code."""

    rule_id = "wall-clock"
    summary = (
        "wall-clock read inside simulation code: the only clock is "
        "env.now; host time makes runs irreproducible"
    )
    version = 1
    # CLI progress timing and benchmark harnesses legitimately measure
    # wall time; everything else simulates it.
    exclude = ("experiments/", "benchmarks/")

    _TIME_FUNCS = frozenset(
        {
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "time",
            "time_ns",
        }
    )
    _DATETIME_FUNCS = frozenset({"now", "today", "utcnow"})

    def check(self, tree, source, path):
        violations: List[Violation] = []
        bare_imports: Set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in self._TIME_FUNCS:
                        bare_imports.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if (
                    func.attr in self._TIME_FUNCS
                    and isinstance(value, ast.Name)
                    and value.id == "time"
                ):
                    violations.append(self.violation(path, node))
                elif (
                    func.attr in self._DATETIME_FUNCS
                    and self._is_datetime_ref(value)
                ):
                    violations.append(self.violation(path, node))
            elif isinstance(func, ast.Name):
                if func.id in bare_imports:
                    violations.append(self.violation(path, node))
        return violations

    @staticmethod
    def _is_datetime_ref(node: ast.AST) -> bool:
        # ``datetime.now`` / ``date.today`` / ``datetime.datetime.now``.
        if isinstance(node, ast.Name):
            return node.id in ("datetime", "date")
        if isinstance(node, ast.Attribute):
            return node.attr in ("datetime", "date")
        return False


class _SetlikeTracker(ast.NodeVisitor):
    """Per-function map of local names bound to set-valued expressions."""

    def __init__(self) -> None:
        self.setlike_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_setlike(node.value, self.setlike_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.setlike_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_setlike(
            node.value, self.setlike_names
        ):
            if isinstance(node.target, ast.Name):
                self.setlike_names.add(node.target.id)
        self.generic_visit(node)

    # Name resolution stays within one function body.
    def visit_FunctionDef(self, node) -> None:  # pragma: no cover
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def _is_setlike(
    node: ast.AST, local_names: Optional[Set[str]] = None
) -> bool:
    """Whether ``node`` is syntactically a ``set`` expression.

    Recognizes set displays/comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls, ``d.get(k, set())`` / ``d.pop(k, set())``
    (the set-valued default makes the result a set), and — when
    ``local_names`` is supplied — local variables previously bound to
    one of the above.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
            "set",
            "frozenset",
        ):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop")
            and any(_is_setlike(arg) for arg in node.args)
        ):
            return True
    if (
        local_names is not None
        and isinstance(node, ast.Name)
        and node.id in local_names
    ):
        return True
    return False


@register
class UnorderedSetIterationRule(Rule):
    """Set iteration where schedules and victims are decided."""

    rule_id = "unordered-set-iteration"
    summary = (
        "iteration order of a set is hash-dependent; wrap in sorted() "
        "with an explicit key so grant/victim order is deterministic"
    )
    version = 1
    include = ("repro/cc/", "repro/sim/", "repro/core/")

    def check(self, tree, source, path):
        violations: List[Violation] = []
        # One tracker per function scope (module level gets its own).
        scopes: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scopes.append(node)
        for scope in scopes:
            tracker = _SetlikeTracker()
            for statement in scope.body:
                tracker.visit(statement)
            names = tracker.setlike_names
            for node in self._iter_scope(scope):
                iterables: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(
                    node,
                    (
                        ast.ListComp,
                        ast.SetComp,
                        ast.DictComp,
                        ast.GeneratorExp,
                    ),
                ):
                    iterables.extend(
                        generator.iter
                        for generator in node.generators
                    )
                for iterable in iterables:
                    if _is_setlike(iterable, names):
                        violations.append(
                            self.violation(path, iterable)
                        )
        return violations

    @staticmethod
    def _iter_scope(scope: ast.AST):
        """Nodes of ``scope`` excluding nested function bodies."""
        body = scope.body
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ) and node is not scope:
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


#: Dict view accessors whose iteration order is the insertion history.
_DICT_VIEW_METHODS = frozenset({"items", "keys", "values"})

#: Builtins whose result cannot depend on the iteration order of a
#: comprehension argument; a dict iterated inside one is harmless.
_ORDER_FREE_CONSUMERS = frozenset(
    {"all", "any", "sum", "min", "max", "len", "set", "frozenset",
     "sorted"}
)


class _DictlikeTracker(ast.NodeVisitor):
    """Per-function map of local names bound to dict-valued expressions."""

    def __init__(self) -> None:
        self.dictlike_names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_dictlike(node.value, self.dictlike_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.dictlike_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_dictlike(
            node.value, self.dictlike_names
        ):
            if isinstance(node.target, ast.Name):
                self.dictlike_names.add(node.target.id)
        self.generic_visit(node)

    # Name resolution stays within one function body.
    def visit_FunctionDef(self, node) -> None:  # pragma: no cover
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def _is_dict_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
        and not node.args
        and not node.keywords
    )


def _is_dictlike(
    node: ast.AST, local_names: Optional[Set[str]] = None
) -> bool:
    """Whether ``node`` is syntactically a ``dict`` expression.

    Recognizes dict displays/comprehensions, ``dict(...)`` /
    ``defaultdict(...)`` / ``Counter(...)`` / ``OrderedDict(...)``
    calls, ``d.get(k, {})`` / ``d.pop(k, {})`` (the dict-valued default
    makes the result a dict), and — when ``local_names`` is supplied —
    local variables previously bound to one of the above.
    """
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
            "dict",
            "defaultdict",
            "Counter",
            "OrderedDict",
        ):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop")
            and any(_is_dictlike(arg) for arg in node.args)
        ):
            return True
    if (
        local_names is not None
        and isinstance(node, ast.Name)
        and node.id in local_names
    ):
        return True
    return False


@register
class UnorderedDictIterationRule(Rule):
    """Dict iteration where schedules and victims are decided."""

    rule_id = "unordered-dict-iteration"
    summary = (
        "iteration order of a dict is its insertion history, not a "
        "canonical order; where grants, victims, or wakeups are "
        "decided this couples the outcome to arrival order — iterate "
        "sorted(...) with an explicit key, or waive with the reason "
        "the insertion order is the intended one"
    )
    severity = "warning"
    version = 1
    include = ("repro/cc/", "repro/sim/", "repro/core/")

    def check(self, tree, source, path):
        violations: List[Violation] = []
        exempt = self._order_free_comprehensions(tree)
        scopes: List[ast.AST] = [tree]
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                scopes.append(node)
        for scope in scopes:
            tracker = _DictlikeTracker()
            for statement in scope.body:
                tracker.visit(statement)
            names = tracker.dictlike_names
            for node in UnorderedSetIterationRule._iter_scope(scope):
                iterables: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(
                    node,
                    (
                        ast.ListComp,
                        ast.SetComp,
                        ast.DictComp,
                        ast.GeneratorExp,
                    ),
                ) and node not in exempt:
                    iterables.extend(
                        generator.iter
                        for generator in node.generators
                    )
                for iterable in iterables:
                    if self._is_dict_ordered(iterable, names):
                        violations.append(
                            self.violation(path, iterable)
                        )
        return violations

    @staticmethod
    def _is_dict_ordered(
        node: ast.AST, names: Set[str]
    ) -> bool:
        """Iterables whose order is a dict's insertion history (or, for
        key-view set algebra, hash order)."""
        if _is_dict_view_call(node) or _is_dictlike(node, names):
            return True
        # d.keys() | e, d.keys() - e, ...: KeysView set algebra
        # produces a plain *unordered* set.
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return _is_dict_view_call(node.left) or _is_dict_view_call(
                node.right
            )
        return False

    @staticmethod
    def _order_free_comprehensions(tree: ast.AST) -> Set[ast.AST]:
        """Comprehensions consumed by order-insensitive builtins."""
        exempt: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE_CONSUMERS
                and len(node.args) == 1
                and isinstance(
                    node.args[0],
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp),
                )
            ):
                exempt.add(node.args[0])
        return exempt


_TIME_ATTRS = frozenset({"now", "time"})


def _is_timeish(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS
    if isinstance(node, ast.Name):
        return node.id in _TIME_ATTRS
    return False


def _flow_scopes(tree: ast.AST) -> List[ast.AST]:
    """Module plus every nested function/class body (each a CFG scope)."""
    scopes: List[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            scopes.append(node)
    return scopes


@register
class FloatTimeEqualityRule(Rule):
    """Exact float comparison on simulated-time expressions.

    v2 is flow-sensitive: a comparison whose operands are *provably*
    pure copies of stored schedule times — timeish loads, or locals
    every one of whose reaching definitions is a clean copy chain
    (:class:`repro.lint.flow.taint.CleanTime`) — is discharged, because
    exact equality of copies of one scheduled value is sound.  Any
    operand the dataflow cannot prove clean (parameters, arithmetic,
    opaque bindings) still flags, exactly as v1 did syntactically.
    """

    rule_id = "float-time-equality"
    summary = (
        "== / != on simulated time is exact float comparison; it is "
        "only sound for copies of one scheduled value — the dataflow "
        "could not prove both operands are pure copies, so "
        "restructure, or suppress with a justification"
    )
    version = 2
    # Simulator sources only: tests legitimately assert exact clock
    # values the kernel guarantees.
    include = ("repro/sim/", "repro/core/", "repro/cc/")
    extra_hash_modules = (
        "repro.lint.flow.cfg",
        "repro.lint.flow.dataflow",
        "repro.lint.flow.taint",
    )

    def check(self, tree, source, path):
        candidates = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and self._offending_pairs(node)
        ]
        if not candidates:
            return []
        from repro.lint.flow.dataflow import FunctionFlow
        from repro.lint.flow.taint import CleanTime

        violations: List[Violation] = []
        remaining = candidates
        for scope in _flow_scopes(tree):
            if not remaining:
                break
            flow = FunctionFlow(scope)
            clean = CleanTime(flow)
            unowned = []
            for compare in remaining:
                index = flow.owner_of(compare)
                if index is None:
                    unowned.append(compare)
                elif not self._discharged(compare, clean, index):
                    violations.append(self.violation(path, compare))
            remaining = unowned
        # Comparisons no scope's CFG owns (decorator/default oddities)
        # flag syntactically, as v1 did.
        violations.extend(
            self.violation(path, compare) for compare in remaining
        )
        violations.sort(key=lambda v: (v.line, v.col))
        return violations

    @staticmethod
    def _offending_pairs(node: ast.Compare) -> List[tuple]:
        operands = [node.left, *node.comparators]
        pairs = []
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_timeish(left) or _is_timeish(right):
                pairs.append((left, right))
        return pairs

    def _discharged(self, compare, clean, index) -> bool:
        return all(
            clean.clean(left, index) and clean.clean(right, index)
            for left, right in self._offending_pairs(compare)
        )


#: Environment factory/combinator methods whose results are waitables;
#: a generator yielding one of these is treated as a sim-process body.
_ENV_WAITABLE_METHODS = frozenset(
    {"all_of", "any_of", "event", "process", "timeout"}
)


def _mentions_env(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in ("env", "_env"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in (
            "env",
            "_env",
        ):
            return True
    return False


def _is_env_waitable_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ENV_WAITABLE_METHODS
        and _mentions_env(node.func.value)
    )


_OBVIOUS_NON_WAITABLE = (
    ast.Constant,
    ast.Tuple,
    ast.List,
    ast.Dict,
    ast.Set,
    ast.JoinedStr,
    ast.BinOp,
    ast.BoolOp,
    ast.Compare,
    ast.UnaryOp,
)


@register
class ProcessProtocolRule(Rule):
    """Kernel protocol misuse inside generator process bodies."""

    rule_id = "process-protocol"
    summary = (
        "sim-process protocol misuse: processes must yield Waitables "
        "(Event/Timeout/Process/AllOf/AnyOf) and never reenter "
        "env.run()"
    )
    version = 1

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._check_function(node, path, violations)
        return violations

    def _check_function(
        self,
        function: ast.AST,
        path: str,
        violations: List[Violation],
    ) -> None:
        yields = [
            node
            for node in self._function_body_walk(function)
            if isinstance(node, ast.Yield)
        ]
        if not yields:
            return
        is_process = any(
            y.value is not None and _is_env_waitable_call(y.value)
            for y in yields
        )
        # env.run() from inside *any* generator is reentrant dispatch:
        # the kernel is single-threaded and run() is not recursive.
        for node in self._function_body_walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
                and _mentions_env(node.func.value)
            ):
                violations.append(
                    self.violation(
                        path,
                        node,
                        "env.run() called from inside a generator: "
                        "the kernel dispatch loop is not reentrant",
                    )
                )
        if not is_process:
            return
        for y in yields:
            if y.value is None:
                violations.append(
                    self.violation(
                        path,
                        y,
                        "bare yield in a sim process: processes must "
                        "yield a Waitable, and None is not one",
                    )
                )
            elif isinstance(y.value, _OBVIOUS_NON_WAITABLE):
                violations.append(
                    self.violation(
                        path,
                        y,
                        "sim process yields a non-Waitable literal; "
                        "the kernel will kill the process with "
                        "SimulationError",
                    )
                )

    @staticmethod
    def _function_body_walk(function: ast.AST):
        """Walk a function body without entering nested functions."""
        stack = list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


@register
class FaultStreamMisuseRule(Rule):
    """Fault-subsystem draws from non-``fault-`` random streams.

    Built on the same draw extraction
    (:func:`~repro.lint.stream_draws.iter_stream_draws`) as the
    whole-program ``stream-registry`` rule; this one adds the fault
    subsystem's stricter discipline — inside ``repro/faults/`` the
    drawn name must *provably* start with ``fault-``, so a dynamic or
    unprovable name is flagged here even though the registry rule
    (which checks spelling, not isolation) gives it the benefit of the
    doubt.
    """

    rule_id = "fault-stream-misuse"
    summary = (
        "fault code must draw only from dedicated fault-* streams: a "
        "draw from a shared stream perturbs every failure-free "
        "sequence after it and breaks bit-identical no-fault runs"
    )
    version = 2
    include = ("repro/faults/",)

    def check(self, tree, source, path):
        violations: List[Violation] = []
        for draw in iter_stream_draws(tree):
            if draw.provably_prefixed("fault-"):
                continue
            violations.append(
                Violation(
                    rule_id=self.rule_id,
                    path=path,
                    line=draw.line,
                    col=draw.col,
                    message=self.summary,
                    severity=self.severity,
                )
            )
        return violations
