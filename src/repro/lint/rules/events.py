"""Event-contract rules (``E``): the engine's fast-path and allocation invariants.

PR 5's speedups rest on a bookkeeping contract: every fast path that elides
queue trips must credit exactly the events it skipped, so
``Environment.events_processed`` stays a machine-independent *model* count
(``tests/test_fastpath.py`` asserts bit-identity dynamically; E301 catches the
omission at review time).  E302 keeps the event hierarchy allocation-lean and
E303 catches the classic stale-clock bug in process generators.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import Finding, LineFix, MODEL_PACKAGES, Module, Rule, register
from repro.lint.rules._helpers import function_defs, walk_shallow

__all__ = ["UncreditedFastPath", "EventSlots", "StaleNowAcrossYield"]

#: Resource internals whose access from *outside* the owning object marks a
#: fast path: only code that bypasses the evented request/release protocol
#: reaches into another object's slot and waiter lists.
_FASTPATH_INTERNALS = frozenset({"users", "_waiters", "_grant", "_pop_waiter"})

#: Calls that satisfy the crediting contract (each either credits elided
#: events directly or is an engine primitive that self-credits).
_CREDITING_CALLS = frozenset({"credit_events", "trigger_inplace", "complete"})

#: Class names of the ``repro.simcore.events`` / ``resources`` hierarchy; a
#: subclass of any of these is an event type and must declare ``__slots__``.
_EVENT_BASES = frozenset(
    {
        "Event",
        "Timeout",
        "PooledTimeout",
        "Initialize",
        "Interruption",
        "Process",
        "ConditionEvent",
        "AllOf",
        "Request",
        "Release",
        "StorePut",
        "StoreGet",
        "ContainerPut",
        "ContainerGet",
    }
)


def _attr_tail(node: ast.expr) -> Optional[str]:
    """The final attribute/name segment of an expression (``a.b.C`` → ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class UncreditedFastPath(Rule):
    """E301: a function that bypasses the evented resource protocol must credit."""

    id = "E301"
    name = "uncredited-fastpath"
    rationale = (
        "A fast path that reaches into a resource's `users`/`_waiters` lists "
        "elides the request/release queue trips; unless it calls "
        "`Environment.credit_events` (or the self-crediting `trigger_inplace`"
        "/`complete`) in the same function, `events_processed` diverges "
        "between the fast and slow paths and bit-identity is lost."
    )
    # The kernel itself (repro.simcore) is the audited mechanism layer where
    # these lists live; the rule polices everyone reaching in from outside.
    scope = tuple(p for p in MODEL_PACKAGES if p != "repro.simcore")

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag functions touching foreign resource internals without crediting."""
        for func in function_defs(module.tree):
            touches: List[ast.AST] = []
            credits = False
            for node in walk_shallow(func, include_root=False):
                if isinstance(node, ast.Attribute) and node.attr in _FASTPATH_INTERNALS:
                    base = node.value
                    if not (isinstance(base, ast.Name) and base.id == "self"):
                        touches.append(node)
                if isinstance(node, ast.Call):
                    tail = _attr_tail(node.func)
                    if tail in _CREDITING_CALLS:
                        credits = True
            if touches and not credits:
                yield self.finding(
                    module,
                    func,
                    f"`{func.name}` reaches into resource internals (a "
                    "fast path eliding queue trips) but never calls "
                    "`credit_events`/`trigger_inplace`/`complete`; "
                    "`events_processed` will diverge from the slow path",
                )


@register
class EventSlots(Rule):
    """E302: every Event subclass must declare ``__slots__``."""

    id = "E302"
    name = "event-slots"
    rationale = (
        "Events are allocated on every timeout, message and process step; a "
        "single slotless subclass re-introduces a per-instance `__dict__` "
        "for the whole chain below it, costing memory and speed on the "
        "hottest allocation path in the simulator."
    )
    fixable = True

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag Event-derived classes without a ``__slots__`` declaration."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_attr_tail(base) in _EVENT_BASES for base in node.bases):
                continue
            has_slots = any(
                (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                )
                or (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                )
                for stmt in node.body
            )
            if not has_slots:
                yield self.finding(
                    module,
                    node,
                    f"event subclass `{node.name}` has no `__slots__`; it "
                    "re-introduces a per-instance `__dict__` on the event "
                    "allocation hot path",
                    fix=self._insert_slots_fix(module, node),
                )

    def _insert_slots_fix(self, module: Module, node: ast.ClassDef) -> Optional[LineFix]:
        """Insert ``__slots__ = ()`` after the class docstring (or header)."""
        first = node.body[0]
        indent = " " * first.col_offset
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            anchor = first.end_lineno or first.lineno
            return LineFix(
                line=anchor, new_lines=("", indent + "__slots__ = ()"), insert_after=True
            )
        header_end = first.lineno - 1
        return LineFix(
            line=header_end, new_lines=(indent + "__slots__ = ()", ""), insert_after=True
        )


class _StaleNowScanner:
    """Order-aware scan of one generator function for stale ``.now`` reads.

    Tracks variables assigned *directly* from a ``.now`` attribute read (a
    pure alias of the clock, e.g. ``start = env.now``).  After the function
    yields, such an alias no longer equals the current model time; using it
    in a statement that does not also re-read ``.now`` treats a stale
    timestamp as current.  Statements that *do* re-read the clock — the
    ubiquitous ``stats += env.now - start`` elapsed-time idiom — are exempt,
    because the fresh read anchors the arithmetic to current time.

    Two deliberate allowances beyond the fresh-read exemption:

    * statements calling a trace recorder (`record*`, `tracer.record`,
      `observe`) may pass captured timestamps — recorders take an interval
      *start* by contract, so a past value is exactly what they want;
    * a yield inside a branch that terminates (returns/raises/breaks) does
      not poison the paths that never took it — branch states are forked and
      only live branches merge back.

    Loop bodies are scanned twice so a use at the top of a loop sees the
    yields and captures of the previous iteration.
    """

    def __init__(self) -> None:
        self.pending: Dict[str, int] = {}
        self.stale: Dict[str, int] = {}
        self.reported: Set[Tuple[int, str]] = set()
        self.findings: List[Tuple[ast.AST, str, int]] = []

    # -- statement classification ---------------------------------------
    @staticmethod
    def _is_now_read(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "now"

    def _contains_now(self, stmt: ast.AST) -> bool:
        return any(self._is_now_read(n) for n in walk_shallow(stmt))

    def _contains_yield(self, stmt: ast.AST) -> bool:
        return any(
            isinstance(n, (ast.Yield, ast.YieldFrom)) for n in walk_shallow(stmt)
        )

    def _is_recording(self, stmt: ast.AST) -> bool:
        """Whether the statement hands timestamps to a trace recorder."""
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call):
                tail = _attr_tail(node.func)
                if tail is not None and (tail.startswith("record") or tail == "observe"):
                    return True
        return False

    @staticmethod
    def _terminates(body: List[ast.stmt]) -> bool:
        """Whether a branch body unconditionally leaves the enclosing flow."""
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
        )

    def _assigned_names(self, stmt: ast.AST) -> List[Tuple[str, bool]]:
        """``(name, is_pure_now_alias)`` for simple assignments in ``stmt``."""
        results: List[Tuple[str, bool]] = []
        if isinstance(stmt, ast.Assign) and len(stmt.targets) >= 1:
            pure = self._is_now_read(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    results.append((target.id, pure))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            results.append(
                (stmt.target.id, stmt.value is not None and self._is_now_read(stmt.value))
            )
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            results.append((stmt.target.id, False))
        return results

    # -- the scan ---------------------------------------------------------
    def scan(self, body: List[ast.stmt]) -> None:
        """Scan a statement sequence in source order."""
        for stmt in body:
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._visit_leaf(stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test)
                for _ in range(2):
                    self.scan(stmt.body)
                self.scan(stmt.orelse)
            elif isinstance(stmt, ast.If):
                self._visit_leaf(stmt.test)
                self._scan_branches([stmt.body, stmt.orelse])
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._visit_leaf(item.context_expr)
                self.scan(stmt.body)
            elif isinstance(stmt, ast.Try):
                self.scan(stmt.body)
                for handler in stmt.handlers:
                    self.scan(handler.body)
                self.scan(stmt.orelse)
                self.scan(stmt.finalbody)
            else:
                self._visit_leaf(stmt)

    def _scan_branches(self, branches: List[List[ast.stmt]]) -> None:
        """Scan exclusive branches on forked state; merge only live exits.

        A branch whose last statement returns/raises/breaks never reaches
        the code after the conditional, so its yields and captures must not
        leak there.  Staleness from the live branches merges as a union
        (conservative for divergent assignments).
        """
        base = (dict(self.pending), dict(self.stale))
        merged_pending: Dict[str, int] = {}
        merged_stale: Dict[str, int] = {}
        for body in branches:
            self.pending, self.stale = dict(base[0]), dict(base[1])
            self.scan(body)
            if not self._terminates(body):
                merged_pending.update(self.pending)
                merged_stale.update(self.stale)
        self.pending, self.stale = merged_pending, merged_stale

    def _visit_leaf(self, stmt: Optional[ast.AST]) -> None:
        """Process one non-compound statement (or a compound head expression)."""
        if stmt is None:
            return
        fresh = self._contains_now(stmt) or self._is_recording(stmt)
        assigned = dict(self._assigned_names(stmt))
        # Uses of stale aliases (skip names being reassigned in this statement).
        if not fresh:
            for node in walk_shallow(stmt):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in self.stale
                    and node.id not in assigned
                ):
                    key = (node.lineno, node.id)
                    if key not in self.reported:
                        self.reported.add(key)
                        self.findings.append((node, node.id, self.stale[node.id]))
        # Assignments update the alias tracking.
        for name, pure in self._assigned_names(stmt):
            if pure:
                self.pending[name] = stmt.lineno
                self.stale.pop(name, None)
            else:
                self.pending.pop(name, None)
                self.stale.pop(name, None)
        # A yield invalidates every alias captured so far.
        if self._contains_yield(stmt):
            self.stale.update(self.pending)
            self.pending.clear()


@register
class StaleNowAcrossYield(Rule):
    """E303: a captured ``env.now`` must not be treated as current after a yield."""

    id = "E303"
    name = "stale-now"
    rationale = (
        "`yield` suspends a process for an unknown amount of model time; a "
        "variable holding a pre-yield `env.now` read is a *timestamp*, not "
        "the current time.  Elapsed-time arithmetic that re-reads `.now` in "
        "the same statement (`env.now - start`) is the sanctioned idiom; any "
        "other post-yield use treats a stale clock as fresh."
    )
    scope = MODEL_PACKAGES

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag post-yield uses of now-aliases in statements with no fresh read."""
        for func in function_defs(module.tree):
            if not any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for n in walk_shallow(func, include_root=False)
            ):
                continue
            scanner = _StaleNowScanner()
            scanner.scan(func.body)
            for node, name, captured_line in scanner.findings:
                yield self.finding(
                    module,
                    node,
                    f"`{name}` holds `env.now` captured at line {captured_line}, "
                    "before a yield; model time has advanced — re-read "
                    "`env.now` (or combine with a fresh `.now` read in the "
                    "same statement for elapsed-time maths)",
                )
