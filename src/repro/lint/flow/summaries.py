"""Per-function flow summaries: allocation sites, escapes, crediting shape.

The scanner walks each function's statements *in order*, tracking local names
bound to event allocations, and classifies every Event-subclass allocation
site with a verdict:

``consumed``
    yielded to the scheduler (the normal lifecycle — pool-safe);
``discarded``
    created and dropped without being held (queue-tripped fire-and-forget —
    pool-safe);
``safe-hold``
    appended to one of the engine's own waiter lists inside ``repro.simcore``
    (the protocol hold that ``step()`` itself unwinds — pool-safe);
``returned``
    handed to the caller (a factory; the *call sites* inherit the
    classification, so a returned site never condemns a class by itself);
``escapes``
    stored in an attribute or container, captured by a closure, a condition
    event or a recorder, used after its consuming yield, or passed to a call
    the analysis cannot resolve — **not** pool-safe.

Verdicts only ever escalate (the order above), so the whole-project fixed
point — parameter escape verdicts and returned-event sets feeding call-site
classification, parameter types propagating from typed call sites — is
monotone and converges in a handful of rounds.

Precision notes (all deliberate, all backstopped by :mod:`repro.sanitize`):
calls are resolved through receiver types and name candidates, never guessed;
an event-looking call on an unresolved receiver becomes an
``unresolved_event_like`` audit entry instead of a classified site; a name
that is merely *read* (attribute access, comparison) is not an escape, but
any use after the consuming yield is — that is exactly the use-after-recycle
hazard pooling introduces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.project import (
    EVENT_LIKE_METHODS,
    EXCLUDED_MODULES,
    FACTORY_EVENTS,
    FunctionInfo,
    Project,
    TypeHint,
    _annotation_hint,
    _base_tail,
)
from repro.lint.rules._helpers import walk_shallow

__all__ = ["AllocSite", "FunctionSummary", "compute_summaries", "VERDICT_ORDER"]

#: Escalation lattice for site verdicts.
VERDICT_ORDER: Dict[str, int] = {
    "discarded": 0,
    "consumed": 1,
    "safe-hold": 2,
    "returned": 3,
    "escapes": 4,
}

#: Engine entry points that *consume* an event handed to them (the event ends
#: its life inside the audited mechanism layer).
_ENGINE_CONSUMERS = frozenset(
    {"trigger_inplace", "complete", "schedule", "_recycle_consumed", "_recycle_release"}
)

#: Calls that read a value without retaining it.
_BENIGN_CALLS = frozenset(
    {"len", "isinstance", "repr", "id", "str", "print", "type", "bool", "hash", "format"}
)

#: Mutating-container method names that retain their argument.
_APPEND_METHODS = frozenset({"append", "appendleft", "add", "insert", "extend", "push"})

#: The engine's own waiter lists: events held here are unwound by the
#: protocol itself, so a hold is safe — but only from inside repro.simcore.
_PROTOCOL_CONTAINERS = frozenset({"_put_waiters", "_get_waiters", "_waiters", "callbacks"})

#: Condition-style constructors that capture their member events.
_CONDITION_CALLS = frozenset({"AllOf", "ConditionEvent", "Condition"})

#: E301's fast-path internals and crediting calls, mirrored exactly so F502
#: is a strict interprocedural upgrade of the intraprocedural rule.
_FASTPATH_INTERNALS = frozenset({"users", "_waiters", "_grant", "_pop_waiter"})
_CREDITING_CALLS = frozenset({"credit_events", "trigger_inplace", "complete"})

_MAX_ROUNDS = 8


@dataclass
class AllocSite:
    """One Event-subclass allocation site with its escape verdict."""

    classes: Tuple[str, ...]
    function: str
    module: str
    path: str
    line: int
    col: int
    verdict: str = "discarded"
    reason: str = "dropped without use"
    #: True when this site is a call to an event-returning factory rather
    #: than a spelled-out constructor or factory method.
    derived: bool = False

    def escalate(self, verdict: str, reason: str) -> None:
        """Raise the verdict (never lower it) — the lattice is monotone."""
        if VERDICT_ORDER[verdict] > VERDICT_ORDER[self.verdict]:
            self.verdict = verdict
            self.reason = reason


@dataclass
class FunctionSummary:
    """Everything the interprocedural rules need to know about one function."""

    sites: List[AllocSite] = field(default_factory=list)
    returns_events: Set[str] = field(default_factory=set)
    #: parameter name -> ("safe" | "escapes", reason)
    param_verdicts: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    credit_literals: List[int] = field(default_factory=list)
    dynamic_credit: bool = False
    credits_inplace: bool = False
    foreign_touch_lines: List[int] = field(default_factory=list)
    elide_count: int = 0
    #: Final local-name types — nested functions seed their closure
    #: environment from the enclosing function's map.
    local_types: Dict[str, TypeHint] = field(default_factory=dict)

    @property
    def credits_local(self) -> bool:
        """Whether this function itself contains any crediting evidence."""
        return bool(self.credit_literals) or self.dynamic_credit or self.credits_inplace

    def signature(self) -> Tuple[object, ...]:
        """Convergence fingerprint for the fixed point."""
        return (
            tuple(sorted((s.line, s.col, s.classes, s.verdict) for s in self.sites)),
            tuple(sorted(self.returns_events)),
            tuple(sorted(self.param_verdicts.items())),
            tuple(sorted(self.local_types.items())),
        )


@dataclass
class _Tracked:
    """A local name currently bound to one or more allocation sites."""

    sites: List[AllocSite]
    param: Optional[str] = None
    consumed: bool = False
    consumed_line: int = 0


class _Scanner:
    """One pass over one function body (re-run each fixed-point round)."""

    def __init__(self, project: Project, func: FunctionInfo) -> None:
        self.project = project
        self.func = func
        self.summary = FunctionSummary()
        self.sites_by_pos: Dict[Tuple[int, int], AllocSite] = {}
        #: local name -> inferred type
        self.types: Dict[str, TypeHint] = {}
        self.state: Dict[str, _Tracked] = {}
        self.in_simcore = func.module.startswith("repro.simcore")

    # -- entry -------------------------------------------------------------
    def run(self) -> FunctionSummary:
        """Scan the function body once and return its summary."""
        node = self.func.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._seed_closure()
        self._seed_params(node)
        for name in self.func.param_names:
            self.state[name] = _Tracked(sites=[], param=name)
            self.summary.param_verdicts.setdefault(name, ("safe", ""))
        self._scan_body(node.body)
        self._collect_crediting(node)
        self.summary.local_types = dict(self.types)
        return self.summary

    def _seed_closure(self) -> None:
        """Nested functions see the enclosing function's local types."""
        parent = self.func.parent
        depth = 0
        while parent is not None and depth < 4:
            info = self.project.functions.get(parent)
            if info is None:
                break
            if info.summary is not None:
                for name, hint in info.summary.local_types.items():
                    self.types.setdefault(name, hint)
            parent = info.parent
            depth += 1

    def _seed_params(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.args:
            # A parameter shadows any closure-inherited name.
            self.types.pop(arg.arg, None)
            if arg.arg == "self" and self.func.class_name:
                self.types[arg.arg] = TypeHint(self.func.class_name)
                continue
            hint: Optional[TypeHint] = None
            if arg.annotation is not None:
                cand = _annotation_hint(arg.annotation)
                if cand is not None and self.project._known_class(cand.name):
                    hint = cand
            if hint is None:
                hint = self.func.param_types.get(arg.arg) or None
            if hint is None and arg.arg == "env":
                hint = TypeHint("Environment")
            if hint is not None:
                self.types[arg.arg] = hint

    # -- statements --------------------------------------------------------
    def _scan_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_closure(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.If):
            self._eval(stmt.test, "benign")
            base = dict(self.state)
            self._scan_body(stmt.body)
            after_then = self.state
            self.state = dict(base)
            self._scan_body(stmt.orelse)
            # Merge: a name consumed on either exclusive branch stays
            # consumed; bindings new to one branch are kept.
            merged = dict(after_then)
            merged.update(
                {k: v for k, v in self.state.items() if k not in merged}
            )
            self.state = merged
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, "benign")
            # Two passes so a type or binding established late in the body is
            # seen by uses early in the next iteration.
            self._scan_body(stmt.body)
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._eval(stmt.test, "benign")
            self._scan_body(stmt.body)
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._scan_body(stmt.body)
            for handler in stmt.handlers:
                self._scan_body(handler.body)
            self._scan_body(stmt.orelse)
            self._scan_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                sites = self._eval(item.context_expr, "top")
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    if sites:
                        self.state[item.optional_vars.id] = _Tracked(sites=sites)
            self._scan_body(stmt.body)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_assign(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                target = stmt.target
                if isinstance(target, ast.Name):
                    self._bind(target.id, stmt.value)
                else:
                    self._scan_store_target(target, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, "benign")
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                sites = self._eval(stmt.value, "return")
                for site in sites:
                    self.summary.returns_events.update(site.classes)
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, "top")
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, "benign")
            return
        # Anything else: conservative generic walk of its expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child, "benign")

    def _scan_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            self._bind(stmt.targets[0].id, stmt.value)
            return
        for target in stmt.targets:
            self._scan_store_target(target, stmt.value)

    def _bind(self, name: str, value: ast.expr) -> None:
        """Handle ``name = value``: track allocations, propagate types."""
        if isinstance(value, ast.Name) and value.id in self.state:
            tracked = self.state[value.id]
            self._use_check(value)
            self.state[name] = tracked
            if value.id in self.types:
                self.types[name] = self.types[value.id]
            return
        sites = self._eval(value, "top")
        if sites:
            self.state[name] = _Tracked(sites=sites)
        else:
            self.state.pop(name, None)
        hint = self._infer_type(value)
        if hint is not None:
            self.types[name] = hint
        else:
            self.types.pop(name, None)

    def _scan_store_target(self, target: ast.expr, value: ast.expr) -> None:
        """An assignment into an attribute, subscript or tuple target."""
        sites = self._eval(value, "store")
        where = (
            "attribute"
            if isinstance(target, ast.Attribute)
            else "container" if isinstance(target, ast.Subscript) else "structure"
        )
        for site in sites:
            site.escalate("escapes", f"stored in {where} at line {target.lineno}")
        if isinstance(value, ast.Name) and value.id in self.state:
            self._escape_name(value.id, f"stored in {where} at line {target.lineno}")

    # -- expressions -------------------------------------------------------
    def _eval(self, expr: ast.expr, ctx: str) -> List[AllocSite]:
        """Walk one expression; returns the allocation sites it produces.

        ``ctx`` is the consuming context: ``yield`` consumes, ``top`` is a
        bare expression statement (discard), ``return`` hands to the caller,
        ``container``/``store`` retain, ``benign`` merely reads.
        """
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx)
        if isinstance(expr, ast.Name):
            if expr.id in self.state:
                self._apply_name_ctx(expr, ctx)
                tracked = self.state[expr.id]
                return list(tracked.sites)
            return []
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self._eval(expr.value, "yield")
            return []
        if isinstance(expr, ast.YieldFrom):
            if isinstance(expr.value, ast.Name) and expr.value.id in self.state:
                self._escape_name(expr.value.id, "delegated via yield from")
            else:
                self._eval(expr.value, "benign")
            return []
        if isinstance(expr, ast.Await):
            self._eval(expr.value, ctx)
            return []
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            sites: List[AllocSite] = []
            for elt in expr.elts:
                sites.extend(self._eval(elt, "container"))
            return sites
        if isinstance(expr, ast.Dict):
            sites = []
            for key in expr.keys:
                if key is not None:
                    sites.extend(self._eval(key, "container"))
            for val in expr.values:
                sites.extend(self._eval(val, "container"))
            return sites
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, "container")
        if isinstance(expr, (ast.BoolOp, ast.IfExp)):
            sites = []
            if isinstance(expr, ast.IfExp):
                self._eval(expr.test, "benign")
                sites.extend(self._eval(expr.body, ctx))
                sites.extend(self._eval(expr.orelse, ctx))
            else:
                for val in expr.values:
                    sites.extend(self._eval(val, ctx))
            return sites
        if isinstance(expr, ast.Lambda):
            self._check_closure(expr)
            return []
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in expr.generators:
                self._eval(gen.iter, "benign")
            if isinstance(expr, ast.DictComp):
                self._eval(expr.key, "container")
                self._eval(expr.value, "container")
            else:
                self._eval(expr.elt, "container")
            return []
        # Reads: attribute access, subscription, arithmetic, comparison,
        # f-strings — recurse benignly.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child, "benign")
        return []

    def _apply_name_ctx(self, expr: ast.Name, ctx: str) -> None:
        tracked = self.state[expr.id]
        self._use_check(expr)
        if ctx == "yield":
            for site in tracked.sites:
                site.escalate("consumed", "consumed by yield")
            tracked.consumed = True
            tracked.consumed_line = expr.lineno
        elif ctx == "return":
            for site in tracked.sites:
                site.escalate("returned", "returned to caller")
            self.summary.returns_events.update(
                cls for site in tracked.sites for cls in site.classes
            )
        elif ctx in ("container", "store"):
            self._escape_name(expr.id, f"stored in container at line {expr.lineno}")

    def _use_check(self, expr: ast.Name) -> None:
        tracked = self.state[expr.id]
        if tracked.consumed:
            self._escape_name(
                expr.id,
                f"used at line {expr.lineno} after its consuming yield at "
                f"line {tracked.consumed_line} (use-after-recycle hazard)",
            )

    def _escape_name(self, name: str, reason: str) -> None:
        tracked = self.state[name]
        for site in tracked.sites:
            site.escalate("escapes", reason)
        if tracked.param is not None:
            current = self.summary.param_verdicts.get(tracked.param)
            if current is None or current[0] == "safe":
                self.summary.param_verdicts[tracked.param] = ("escapes", reason)

    def _safe_hold_name(self, name: str, reason: str) -> None:
        tracked = self.state[name]
        for site in tracked.sites:
            site.escalate("safe-hold", reason)

    # -- calls -------------------------------------------------------------
    def _eval_call(self, call: ast.Call, ctx: str) -> List[AllocSite]:
        tail = _base_tail(call.func)
        classes = self._production_classes(call, tail)
        sites: List[AllocSite] = []
        if classes is not None:
            site = self._site_for(call, classes)
            self._apply_site_ctx(site, call, ctx)
            sites.append(site)
        # Receiver and arguments are walked regardless: a production's
        # arguments can themselves carry tracked events.
        if isinstance(call.func, ast.Attribute):
            self._eval(call.func.value, "benign")
        self._dispose_args(call, tail)
        return sites

    def _apply_disposal(
        self, sites: List[AllocSite], verdict: str, reason: str
    ) -> None:
        for site in sites:
            if verdict == "escapes":
                site.escalate("escapes", reason)
            elif verdict == "safe-hold":
                site.escalate("safe-hold", reason)
            else:
                site.escalate("consumed", reason)

    def _site_for(self, call: ast.Call, classes: Tuple[Tuple[str, ...], bool]) -> AllocSite:
        names, derived = classes
        key = (call.lineno, call.col_offset)
        site = self.sites_by_pos.get(key)
        if site is None:
            site = AllocSite(
                classes=names,
                function=self.func.qualname,
                module=self.func.module,
                path=self.func.path,
                line=call.lineno,
                col=call.col_offset,
                derived=derived,
            )
            self.sites_by_pos[key] = site
            self.summary.sites.append(site)
        return site

    def _apply_site_ctx(self, site: AllocSite, call: ast.Call, ctx: str) -> None:
        if ctx == "yield":
            site.escalate("consumed", "consumed by yield")
        elif ctx == "top":
            pass  # discarded: the default verdict
        elif ctx == "return":
            site.escalate("returned", "returned to caller")
        elif ctx in ("container", "store"):
            site.escalate("escapes", f"stored in container at line {call.lineno}")
        elif ctx == "as-arg":
            pass  # the enclosing call applies the disposal verdict
        else:
            site.escalate(
                "escapes", f"used in unsupported expression context at line {call.lineno}"
            )
        # A spelled-out constructor also inherits how __init__ holds `self`.
        if not site.derived and len(site.classes) == 1:
            init = self.project.method(site.classes[0], "__init__")
            if init is not None and init.summary is not None:
                verdict = init.summary.param_verdicts.get("self")
                if verdict is not None and verdict[0] == "escapes":
                    site.escalate(
                        "escapes", f"constructor stores self: {verdict[1]}"
                    )

    def _production_classes(
        self, call: ast.Call, tail: Optional[str]
    ) -> Optional[Tuple[Tuple[str, ...], bool]]:
        """Classify a call as an event allocation, if it is one."""
        if tail is None:
            return None
        # Spelled-out constructor of an Event subclass.
        if tail in self.project.event_classes and tail[:1].isupper():
            return ((tail,), False)
        if isinstance(call.func, ast.Attribute):
            hint = self._infer_receiver(call.func.value)
            if hint is not None and not hint.container:
                kind = (
                    hint.name
                    if hint.name in FACTORY_EVENTS
                    else self.project.kind_of(hint.name)
                )
                if kind is not None and tail in FACTORY_EVENTS[kind]:
                    return (FACTORY_EVENTS[kind][tail], False)
                # Resolved receiver: a method returning events is a derived
                # allocation at this call site.
                method = self.project.method(hint.name, tail)
                if method is not None and method.summary is not None:
                    returned = method.summary.returns_events
                    if returned:
                        return (tuple(sorted(returned)), True)
                return None
            if hint is None:
                self._note_unresolved(call, tail)
            return None
        # Bare-name call: resolve to a unique project function, preferring
        # the caller's own module.
        candidates = [
            f
            for f in self.project.candidates(tail)
            if f.class_name is None
        ]
        local = [f for f in candidates if f.module == self.func.module]
        chosen = local if local else candidates
        if len(chosen) == 1 and chosen[0].summary is not None:
            returned = chosen[0].summary.returns_events
            if returned:
                return (tuple(sorted(returned)), True)
        return None

    def _note_unresolved(self, call: ast.Call, tail: str) -> None:
        """Record event-looking calls on unresolved receivers for the audit."""
        if tail not in EVENT_LIKE_METHODS:
            return
        if self.func.module in EXCLUDED_MODULES:
            return
        npos = len(call.args)
        looks_like = (
            (tail == "get" and (npos == 0 or (npos == 1 and isinstance(call.args[0], ast.Lambda))))
            or (tail == "put" and npos == 1)
            or (tail == "request" and npos <= 1)
            or (tail == "release" and npos == 1)
        )
        if not looks_like:
            return
        entry = (self.func.path, call.lineno, call.col_offset, tail)
        if entry not in self.project.unresolved_event_like:
            self.project.unresolved_event_like.append(entry)

    def _dispose_args(self, call: ast.Call, tail: Optional[str]) -> None:
        """Classify how each argument is held by the callee."""
        receiver_hint: Optional[TypeHint] = None
        if isinstance(call.func, ast.Attribute):
            receiver_hint = self._infer_receiver(call.func.value)
        for index, arg in enumerate(call.args):
            self._dispose_one(call, tail, receiver_hint, arg, index, None)
        for kw in call.keywords:
            if kw.arg is None:
                self._eval(kw.value, "benign")
                continue
            self._dispose_one(call, tail, receiver_hint, kw.value, -1, kw.arg)

    def _dispose_one(
        self,
        call: ast.Call,
        tail: Optional[str],
        receiver_hint: Optional[TypeHint],
        arg: ast.expr,
        index: int,
        kw: Optional[str],
    ) -> None:
        tracked_name = (
            arg.id if isinstance(arg, ast.Name) and arg.id in self.state else None
        )
        if isinstance(arg, ast.Call):
            # A production passed straight as an argument: "as-arg" leaves
            # the site at its default verdict; the outer call decides.
            produced = self._eval_call(arg, "as-arg")
        elif tracked_name is None:
            produced = self._eval(arg, "benign")
        else:
            produced = []
        # Propagate argument types to the callee for the next round.
        self._propagate_param_type(call, tail, receiver_hint, arg, index, kw)
        if tracked_name is None and not produced:
            return
        verdict, reason = self._arg_disposal(call, tail, receiver_hint, index, kw)
        if tracked_name is not None:
            self._use_check_name(arg)
            if verdict == "escapes":
                self._escape_name(tracked_name, reason)
            elif verdict == "safe-hold":
                self._safe_hold_name(tracked_name, reason)
        self._apply_disposal(produced, verdict, reason)

    def _use_check_name(self, arg: ast.expr) -> None:
        if isinstance(arg, ast.Name) and arg.id in self.state:
            self._use_check(arg)

    def _arg_disposal(
        self,
        call: ast.Call,
        tail: Optional[str],
        receiver_hint: Optional[TypeHint],
        index: int,
        kw: Optional[str],
    ) -> Tuple[str, str]:
        """How does the callee hold an event passed at this position?"""
        line = call.lineno
        if tail is None:
            return ("escapes", f"passed to unresolved call at line {line}")
        if tail in _ENGINE_CONSUMERS:
            return ("safe", f"consumed by engine {tail}() at line {line}")
        if tail in ("succeed", "fail", "defuse"):
            return ("safe", f"event method {tail}() at line {line}")
        if tail in _BENIGN_CALLS:
            return ("safe", f"read-only {tail}() at line {line}")
        if tail in _CONDITION_CALLS:
            return ("escapes", f"captured by condition event at line {line}")
        if tail.startswith("record") or tail == "observe":
            return ("escapes", f"captured by trace recorder at line {line}")
        if tail in _APPEND_METHODS and isinstance(call.func, ast.Attribute):
            recv = call.func.value
            recv_tail = (
                recv.attr
                if isinstance(recv, ast.Attribute)
                else recv.id if isinstance(recv, ast.Name) else None
            )
            if recv_tail in _PROTOCOL_CONTAINERS and self.in_simcore:
                return (
                    "safe-hold",
                    f"held in protocol waiter list {recv_tail!r} at line {line}",
                )
            return ("escapes", f"stored in container {recv_tail!r} at line {line}")
        if tail in self.project.event_classes:
            return ("escapes", f"captured by event constructor at line {line}")
        target = self._resolve_callee(call, tail, receiver_hint)
        if target is None:
            return ("escapes", f"passed to unresolved callee {tail!r} at line {line}")
        param = self._param_at(target, index, kw)
        if param is None:
            return (
                "escapes",
                f"passed beyond known parameters of {tail!r} at line {line}",
            )
        if target.summary is None:
            return ("safe", f"callee {tail!r} not yet summarized")
        verdict = target.summary.param_verdicts.get(param)
        if verdict is not None and verdict[0] == "escapes":
            return (
                "escapes",
                f"escapes in callee {tail!r} ({verdict[1]}) at line {line}",
            )
        return ("safe", f"held safely by callee {tail!r}")

    def _resolve_callee(
        self,
        call: ast.Call,
        tail: str,
        receiver_hint: Optional[TypeHint],
    ) -> Optional[FunctionInfo]:
        # Constructing a (non-event) project class hands the argument to
        # its __init__.
        if tail in self.project.classes:
            return self.project.method(tail, "__init__")
        if isinstance(call.func, ast.Attribute):
            if receiver_hint is None or receiver_hint.container:
                return None
            return self.project.method(receiver_hint.name, tail)
        candidates = [f for f in self.project.candidates(tail) if f.class_name is None]
        local = [f for f in candidates if f.module == self.func.module]
        chosen = local if local else candidates
        return chosen[0] if len(chosen) == 1 else None

    def _param_at(
        self, target: FunctionInfo, index: int, kw: Optional[str]
    ) -> Optional[str]:
        if kw is not None:
            return kw if kw in target.param_names else None
        params = list(target.param_names)
        if params and params[0] == "self" and target.class_name is not None:
            params = params[1:]
        return params[index] if 0 <= index < len(params) else None

    def _propagate_param_type(
        self,
        call: ast.Call,
        tail: Optional[str],
        receiver_hint: Optional[TypeHint],
        arg: ast.expr,
        index: int,
        kw: Optional[str],
    ) -> None:
        if tail is None:
            return
        hint = self._infer_receiver(arg)
        if hint is None:
            return
        target = self._resolve_callee(call, tail, receiver_hint)
        if target is None:
            return
        param = self._param_at(target, index, kw)
        if param is None:
            return
        existing = target.param_types.get(param, "unset")
        if existing == "unset":
            target.param_types[param] = hint
        elif existing is not None and existing != hint:
            target.param_types[param] = None

    # -- type inference ----------------------------------------------------
    def _infer_receiver(self, expr: ast.expr) -> Optional[TypeHint]:
        if isinstance(expr, ast.Name):
            if expr.id in self.types:
                return self.types[expr.id]
            if expr.id == "env":
                return TypeHint("Environment")
            return None
        if isinstance(expr, ast.Attribute):
            if expr.attr == "env":
                return TypeHint("Environment")
            base = self._infer_receiver(expr.value)
            if base is not None and not base.container:
                return self.project.attr_type(base.name, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            base = self._infer_receiver(expr.value)
            if base is not None and base.container:
                return TypeHint(base.name)
            return None
        if isinstance(expr, ast.Call):
            tail = _base_tail(expr.func)
            if tail is not None and (
                tail in self.project.classes or tail in FACTORY_EVENTS
            ):
                return TypeHint(tail)
            # dict-like ``.get(key)`` on a typed container yields an element.
            if (
                tail == "get"
                and isinstance(expr.func, ast.Attribute)
                and len(expr.args) >= 1
            ):
                base = self._infer_receiver(expr.func.value)
                if base is not None and base.container:
                    return TypeHint(base.name)
            return None
        return None

    def _infer_type(self, value: ast.expr) -> Optional[TypeHint]:
        if isinstance(value, ast.IfExp):
            # ``Container(...) if cond else None`` — the None arm does not
            # veto the hint (uses are guarded by the same condition).
            body = self._infer_type(value.body)
            orelse = self._infer_type(value.orelse)
            if body is not None and orelse is None:
                return body
            if orelse is not None and body is None:
                return orelse
            return body if body == orelse else None
        hint = self._infer_receiver(value)
        if hint is not None:
            return hint
        return self.project._value_hint(value)

    # -- closures ----------------------------------------------------------
    def _check_closure(self, node: ast.AST) -> None:
        body = node.body if isinstance(node.body, list) else [node.body]  # type: ignore[attr-defined]
        for inner in body:
            for leaf in ast.walk(inner):
                if (
                    isinstance(leaf, ast.Name)
                    and isinstance(leaf.ctx, ast.Load)
                    and leaf.id in self.state
                ):
                    self._escape_name(
                        leaf.id, f"captured by closure at line {leaf.lineno}"
                    )

    # -- crediting (E301 mirror, recorded for F502) ------------------------
    def _collect_crediting(self, node: ast.AST) -> None:
        for leaf in walk_shallow(node):
            if isinstance(leaf, ast.Attribute):
                if leaf.attr in _FASTPATH_INTERNALS and not (
                    isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
                ):
                    self.summary.foreign_touch_lines.append(leaf.lineno)
            if isinstance(leaf, ast.Call):
                tail = _base_tail(leaf.func)
                if tail == "credit_events":
                    if (
                        len(leaf.args) == 1
                        and isinstance(leaf.args[0], ast.Constant)
                        and isinstance(leaf.args[0].value, int)
                    ):
                        self.summary.credit_literals.append(leaf.args[0].value)
                    else:
                        self.summary.dynamic_credit = True
                elif tail in _CREDITING_CALLS:
                    self.summary.credits_inplace = True
                if (
                    isinstance(leaf.func, ast.Attribute)
                    and leaf.func.attr in ("append", "remove")
                    and isinstance(leaf.func.value, ast.Attribute)
                    and leaf.func.value.attr == "users"
                    and not (
                        isinstance(leaf.func.value.value, ast.Name)
                        and leaf.func.value.value.id == "self"
                    )
                ):
                    self.summary.elide_count += 1


def _iter_summaries(project: Project) -> Iterator[Tuple[str, FunctionInfo]]:
    for qualname in sorted(project.functions):
        yield qualname, project.functions[qualname]


def compute_summaries(project: Project) -> None:
    """Run the monotone summary fixed point over the whole project."""
    previous: Optional[List[Tuple[object, ...]]] = None
    for _ in range(_MAX_ROUNDS):
        signature: List[Tuple[object, ...]] = []
        for _qualname, func in _iter_summaries(project):
            func.summary = _Scanner(project, func).run()
            signature.append(func.summary.signature())
        if signature == previous:
            break
        previous = signature
