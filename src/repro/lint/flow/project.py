"""Project-wide symbol table and call graph for the flow analyses.

A :class:`Project` is built from the same parsed :class:`Module` objects the
per-module rules consume.  It records, for the whole analyzed tree at once:

* every class definition, its base-class names and a per-attribute type map
  inferred from ``self.x = ClassName(...)`` assignments and annotated class
  fields (container shapes — ``self.x = {k: Store(...)}`` — are kept as
  *container-of* hints so subscripts resolve element types);
* every function and method, keyed by a stable qualified name, with the set
  of simple callee names for the name-based call graph;
* the transitive set of Event subclasses visible in the tree, seeded with the
  engine's own hierarchy so model packages can be analyzed without parsing
  the (already audited) engine sources.

The type lattice is deliberately small: a name either resolves to a single
known class, to a container of one class, or to nothing.  Anything that does
not resolve is *not* guessed at — the summary layer treats unresolved
receivers conservatively and reports event-looking unresolved calls so the
meta-tests can pin them to zero on the shipped tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import Module
from repro.lint.rules._helpers import dotted_name

if TYPE_CHECKING:
    from repro.lint.flow.summaries import FunctionSummary

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "Project",
    "TypeHint",
    "EXCLUDED_MODULES",
    "FACTORY_EVENTS",
    "KNOWN_EVENT_CLASSES",
]

#: Event classes defined by the engine itself.  The engine and event modules
#: are the audited mechanism layer — their allocation sites implement pooling
#: rather than use it — so the flow analyses know the hierarchy by name
#: instead of re-deriving it from sources they deliberately skip.
KNOWN_EVENT_CLASSES: Tuple[str, ...] = (
    "Event",
    "Timeout",
    "PooledTimeout",
    "Process",
    "Initialize",
    "ConditionEvent",
    "AllOf",
    "Request",
    "Release",
    "StorePut",
    "StoreGet",
    "ContainerPut",
    "ContainerGet",
)

#: Modules whose allocation sites are *not* classified: the engine mechanism
#: layer that the escape certificate is about, audited by hand and guarded at
#: runtime by :mod:`repro.sanitize`.
EXCLUDED_MODULES: Tuple[str, ...] = (
    "repro.simcore.engine",
    "repro.simcore.events",
)

#: Factory methods: receiver type -> method name -> event classes produced.
#: This is how ``yield store.get()`` becomes a StoreGet allocation site even
#: though no constructor is spelled at the call.
FACTORY_EVENTS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "Environment": {
        "sleep": ("PooledTimeout",),
        "sleep_until": ("PooledTimeout",),
        "timeout": ("Timeout",),
        "event": ("Event",),
        "process": ("Process",),
    },
    "Store": {"put": ("StorePut",), "get": ("StoreGet",)},
    "FilterStore": {"put": ("StorePut",), "get": ("StoreGet",)},
    "Container": {"put": ("ContainerPut",), "get": ("ContainerGet",)},
    "Resource": {"request": ("Request",), "release": ("Release",)},
}

#: Method names that, called on an *unresolved* receiver, look like they may
#: produce an event.  Sites like these are recorded in the project's
#: ``unresolved_event_like`` audit list instead of being classified.
EVENT_LIKE_METHODS: Tuple[str, ...] = ("put", "get", "request", "release")


@dataclass(frozen=True)
class TypeHint:
    """A resolved type: a class name, optionally a container of that class."""

    name: str
    container: bool = False


@dataclass
class ClassInfo:
    """One class definition in the analyzed tree."""

    name: str
    module: str
    node: ast.ClassDef
    bases: Tuple[str, ...]
    #: attribute name -> inferred type, from ``self.x = Cls(...)`` and
    #: annotated class fields.  Conflicting inferences delete the entry.
    attr_types: Dict[str, TypeHint] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function or method, with call-graph edges and analysis state."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]
    param_names: Tuple[str, ...]
    #: Simple names of everything this function calls (attribute tails and
    #: bare names) — the edges of the name-based call graph.
    callees: Set[str] = field(default_factory=set)
    #: Parameter types propagated from typed call sites; ``None`` marks a
    #: conflict (two call sites passed different types).
    param_types: Dict[str, Optional[TypeHint]] = field(default_factory=dict)
    #: Qualname of the enclosing function for nested defs (closures inherit
    #: the parent's inferred local types).
    parent: Optional[str] = None
    #: Filled by the summary layer's fixed point.
    summary: Optional["FunctionSummary"] = None

    @property
    def excluded(self) -> bool:
        """Whether this function lives in the unclassified engine layer."""
        return self.module in EXCLUDED_MODULES


def _base_tail(node: ast.expr) -> Optional[str]:
    name = dotted_name(node)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def _annotation_hint(node: ast.expr) -> Optional[TypeHint]:
    """Resolve a class-field annotation to a type hint, if it names a class."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the last dotted component.
        return TypeHint(node.value.rsplit(".", 1)[-1].strip("'\" "))
    if isinstance(node, ast.Subscript):
        # List[Store] / Dict[str, Store] / Optional[Store] and friends.
        outer = _base_tail(node.value)
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[-1]
        hint = _annotation_hint(inner) if isinstance(inner, ast.expr) else None
        if hint is None or hint.container:
            return None
        if outer in ("List", "Dict", "Sequence", "Tuple", "Deque", "Set", "FrozenSet"):
            return TypeHint(hint.name, container=True)
        if outer in ("Optional",):
            return hint
        return None
    tail = _base_tail(node)
    return TypeHint(tail) if tail else None


class Project:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self, modules: Iterable[Module]) -> None:
        self.modules: List[Module] = sorted(
            (m for m in modules if not m.skip_file), key=lambda m: m.module_name
        )
        self.module_by_name: Dict[str, Module] = {
            m.module_name: m for m in self.modules
        }
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: function name -> qualnames sharing it (call-graph candidate sets).
        self.functions_by_name: Dict[str, List[str]] = {}
        #: (path, line, col, receiver_method) of event-looking calls whose
        #: receiver the type lattice could not resolve.
        self.unresolved_event_like: List[Tuple[str, int, int, str]] = []
        self.event_classes: Set[str] = set(KNOWN_EVENT_CLASSES)
        for module in self.modules:
            self._index_module(module)
        self._close_event_classes()
        self._infer_attr_types()
        self._analyzed = False

    # -- construction ------------------------------------------------------
    def _index_module(self, module: Module) -> None:
        self._index_body(module, module.tree.body, class_name=None, parent=None)

    def _index_body(
        self,
        module: Module,
        body: Sequence[ast.stmt],
        class_name: Optional[str],
        parent: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    tail for tail in (_base_tail(b) for b in node.bases) if tail
                )
                info = ClassInfo(node.name, module.module_name, node, bases)
                # Last definition wins on name collisions across modules;
                # the shipped tree has none that matter (pinned by tests).
                self.classes[node.name] = info
                self._index_body(module, node.body, node.name, parent=None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = self._index_function(module, node, class_name, parent)
                self._index_body(module, node.body, None, parent=qualname)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                # Conditionally defined helpers still get indexed.
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        self._index_body(module, [child], class_name, parent)

    def _index_function(
        self,
        module: Module,
        node: ast.AST,
        class_name: Optional[str],
        parent: Optional[str],
    ) -> str:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if class_name:
            qualname = f"{module.module_name}:{class_name}.{node.name}"
        elif parent:
            qualname = f"{parent}.<locals>.{node.name}"
        else:
            qualname = f"{module.module_name}:{node.name}"
        params = tuple(a.arg for a in node.args.args)
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=module.module_name,
            path=module.path,
            node=node,
            class_name=class_name,
            param_names=params,
            parent=parent,
        )
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                tail = _base_tail(call.func)
                if tail:
                    info.callees.add(tail)
        self.functions[qualname] = info
        self.functions_by_name.setdefault(node.name, []).append(qualname)
        return qualname

    def _close_event_classes(self) -> None:
        # Transitive closure: a project class is an event class when any of
        # its base names already is one.
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                if info.name in self.event_classes:
                    continue
                if any(base in self.event_classes for base in info.bases):
                    self.event_classes.add(info.name)
                    changed = True

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            conflicted: Set[str] = set()
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    hint = _annotation_hint(stmt.annotation)
                    if hint and self._known_class(hint.name):
                        self._record_attr(info, stmt.target.id, hint, conflicted)
            for method in info.node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                param_hints: Dict[str, TypeHint] = {}
                for arg in method.args.args:
                    if arg.annotation is not None:
                        cand = _annotation_hint(arg.annotation)
                        if cand is not None and self._known_class(cand.name):
                            param_hints[arg.arg] = cand
                for node in ast.walk(method):
                    target: Optional[ast.expr] = None
                    hint: Optional[TypeHint] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target = node.targets[0]
                        hint = self._value_hint(node.value)
                        if (
                            hint is None
                            and isinstance(node.value, ast.Name)
                            and node.value.id in param_hints
                        ):
                            # ``self.resource = resource`` with an annotated
                            # parameter: the annotation types the attribute.
                            hint = param_hints[node.value.id]
                    elif isinstance(node, ast.AnnAssign):
                        # ``self._mailboxes: List[FilterStore] = [...]`` — the
                        # annotation is authoritative, the value a fallback.
                        target = node.target
                        annotated = _annotation_hint(node.annotation)
                        if annotated is not None and self._known_class(annotated.name):
                            hint = annotated
                        elif node.value is not None:
                            hint = self._value_hint(node.value)
                    if not (
                        target is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if hint is not None:
                        self._record_attr(info, target.attr, hint, conflicted)

    def _record_attr(
        self,
        info: ClassInfo,
        attr: str,
        hint: TypeHint,
        conflicted: Set[str],
    ) -> None:
        if attr in conflicted:
            return
        existing = info.attr_types.get(attr)
        if existing is not None and existing != hint:
            del info.attr_types[attr]
            conflicted.add(attr)
            return
        info.attr_types[attr] = hint

    def _value_hint(self, value: ast.expr) -> Optional[TypeHint]:
        """Infer the type of an attribute-assignment right-hand side."""
        if isinstance(value, ast.Call):
            tail = _base_tail(value.func)
            if tail and self._known_class(tail):
                return TypeHint(tail)
            return None
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            hints = {self._value_hint(e) for e in value.elts}
            if len(hints) == 1:
                (hint,) = hints
                if hint is not None and not hint.container:
                    return TypeHint(hint.name, container=True)
            return None
        if isinstance(value, ast.Dict):
            hints = {self._value_hint(v) for v in value.values if v is not None}
            if len(hints) == 1:
                (hint,) = hints
                if hint is not None and not hint.container:
                    return TypeHint(hint.name, container=True)
            return None
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            hint = self._value_hint(value.elt)
            if hint is not None and not hint.container:
                return TypeHint(hint.name, container=True)
            return None
        if isinstance(value, ast.DictComp):
            hint = self._value_hint(value.value)
            if hint is not None and not hint.container:
                return TypeHint(hint.name, container=True)
            return None
        return None

    def _known_class(self, name: str) -> bool:
        return (
            name in self.classes
            or name in FACTORY_EVENTS
            or name in self.event_classes
        )

    # -- queries -----------------------------------------------------------
    def kind_of(self, class_name: str) -> Optional[str]:
        """Resolve a class to the factory kind it behaves as (e.g. a
        ``FilterStore`` subclass resolves to ``FilterStore``)."""
        seen: Set[str] = set()
        current: Optional[str] = class_name
        while current is not None and current not in seen:
            if current in FACTORY_EVENTS:
                return current
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return None
            current = next(
                (b for b in info.bases if b in FACTORY_EVENTS or b in self.classes),
                None,
            )
        return None

    def attr_type(self, class_name: str, attr: str) -> Optional[TypeHint]:
        """Resolve an attribute's type through the class's MRO-by-name."""
        seen: Set[str] = set()
        current: Optional[str] = class_name
        while current is not None and current not in seen:
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return None
            hint = info.attr_types.get(attr)
            if hint is not None:
                return hint
            current = next((b for b in info.bases if b in self.classes), None)
        return None

    def method(self, class_name: str, method_name: str) -> Optional[FunctionInfo]:
        """Resolve a method through the class's MRO-by-name."""
        seen: Set[str] = set()
        current: Optional[str] = class_name
        while current is not None and current not in seen:
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                return None
            func = self.functions.get(f"{info.module}:{current}.{method_name}")
            if func is not None:
                return func
            current = next((b for b in info.bases if b in self.classes), None)
        return None

    def candidates(self, name: str) -> Sequence[FunctionInfo]:
        """All functions sharing a simple name (name-based call resolution)."""
        return [self.functions[q] for q in self.functions_by_name.get(name, ())]

    def analyze(self) -> None:
        """Run the summary fixed point once (idempotent)."""
        if self._analyzed:
            return
        from repro.lint.flow.summaries import compute_summaries

        compute_summaries(self)
        self._analyzed = True
