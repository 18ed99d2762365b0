"""Core of the ``repro.lint`` static-analysis framework.

The framework is deliberately small: a :class:`Module` wraps one parsed
source file (AST, lines, suppression comments), a :class:`Rule` inspects a
module and yields :class:`Finding` objects, and :func:`lint_paths` walks a
tree, runs every registered rule and returns the combined, sorted findings.

Three properties matter more than generality:

* **Determinism** — findings are sorted by ``(path, line, col, rule id)`` and
  rules are run in id order, so output is byte-stable across runs and
  machines (the linter lints itself, after all).
* **Suppression is explicit and auditable** — a finding can only be silenced
  by a trailing ``# lint: allow=<rule>`` comment on the offending line (or a
  file-level ``# lint: skip-file``), so every accepted exception is visible
  in the diff that introduced it.
* **Fixes are mechanical or absent** — a rule may attach a :class:`LineFix`
  only when the rewrite is provably behaviour-preserving (e.g. an empty
  ``__slots__`` for a slotless event subclass); everything else is a
  human's job.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "Finding",
    "LineFix",
    "Module",
    "Rule",
    "all_rules",
    "apply_fixes",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
]

#: Packages whose code defines *model* behaviour: simulation results must be a
#: pure function of the configuration and seeds, so the determinism (``D``)
#: and event-contract (``E``) rules apply here.  The measurement and driver
#: layers (``repro.bench``, ``repro.trace``, ``repro.sweep``, the threaded
#: ``repro.core`` runtime and the numeric ``repro.apps`` kernels) are
#: deliberately outside this set: wall-clock reads are their whole point.
MODEL_PACKAGES: Tuple[str, ...] = (
    "repro.simcore",
    "repro.cluster",
    "repro.workflow",
    "repro.transports",
    "repro.elastic",
    "repro.perfmodel",
    "repro.simmpi",
    "repro.faults",
)


@dataclass(frozen=True)
class LineFix:
    """A mechanical, line-oriented rewrite attached to a finding.

    ``insert_after`` is ``True`` to insert ``new_lines`` after ``line``
    (1-based), ``False`` to replace ``line`` with ``new_lines``.
    """

    line: int
    new_lines: Tuple[str, ...]
    insert_after: bool = False


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    fix: Optional[LineFix] = None

    def render(self) -> str:
        """The canonical one-line text form (``path:line:col: ID name: msg``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.name}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form (the fix is summarised as a boolean)."""
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fixable": self.fix is not None,
        }


class Module:
    """One source file under analysis: AST, lines and suppression comments."""

    def __init__(self, path: str, source: str, module_name: str) -> None:
        self.path = path
        self.source = source
        self.module_name = module_name
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=path)
        self.suppressions: Dict[int, Set[str]] = {}
        self.skip_file = False
        self._parse_suppressions()

    def _parse_suppressions(self) -> None:
        """Collect ``# lint: allow=...`` / ``# lint: skip-file`` comments.

        Comments are found with :mod:`tokenize` so directives inside string
        literals are never mistaken for suppressions.
        """
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                text = tok.string.lstrip("#").strip()
                if not text.startswith("lint:"):
                    continue
                directive = text[len("lint:") :].strip()
                if directive == "skip-file":
                    self.skip_file = True
                elif directive.startswith("allow="):
                    names = {n.strip() for n in directive[len("allow=") :].split(",")}
                    self.suppressions.setdefault(tok.start[0], set()).update(
                        n for n in names if n
                    )
        except tokenize.TokenError:  # pragma: no cover - ast.parse already passed
            pass

    def in_packages(self, prefixes: Sequence[str]) -> bool:
        """Whether this module lives under any of the dotted ``prefixes``."""
        name = self.module_name
        return any(name == p or name.startswith(p + ".") for p in prefixes)

    def suppressed(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by an ``allow`` comment on its line."""
        allowed = self.suppressions.get(finding.line)
        if not allowed:
            return False
        return bool({finding.rule, finding.name, "*"} & allowed)

class Rule:
    """Base class of one static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`.  An
    empty :attr:`scope` means the rule applies to every module; otherwise it
    is a tuple of dotted package prefixes (see :data:`MODEL_PACKAGES`).
    """

    #: Stable identifier, e.g. ``"D201"`` (``D`` determinism, ``E`` event
    #: contract, ``H`` hygiene).
    id: ClassVar[str] = ""
    #: Human-readable kebab-case name, usable in ``allow=`` comments.
    name: ClassVar[str] = ""
    #: One-paragraph rationale (rendered by ``--list-rules`` and the docs).
    rationale: ClassVar[str] = ""
    #: Dotted package prefixes the rule applies to (empty: everywhere).
    scope: ClassVar[Tuple[str, ...]] = ()
    #: Whether the rule can attach mechanical :class:`LineFix` rewrites.
    fixable: ClassVar[bool] = False

    def applies_to(self, module: Module) -> bool:
        """Whether ``module`` is inside this rule's scope."""
        if not self.scope:
            return True
        return module.in_packages(self.scope)

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    def finding(
        self,
        module: Module,
        node: ast.AST,
        message: str,
        fix: Optional[LineFix] = None,
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` in ``module``."""
        return Finding(
            rule=self.id,
            name=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix=fix,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry (keyed by id)."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (imports the rule modules)."""
    import repro.lint.rules  # noqa: F401  - registration side effect

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(
    select: Optional[Sequence[str]] = None, ignore: Optional[Sequence[str]] = None
) -> List[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    Entries match either the rule id or its kebab-case name; unknown entries
    raise ``ValueError`` so typos fail loudly instead of silently linting
    nothing.
    """
    rules = all_rules()
    known = {r.id for r in rules} | {r.name for r in rules}
    for entry in list(select or []) + list(ignore or []):
        if entry not in known:
            raise ValueError(f"unknown rule {entry!r}; known: {sorted(known)}")
    if select:
        rules = [r for r in rules if r.id in select or r.name in select]
    if ignore:
        rules = [r for r in rules if r.id not in ignore and r.name not in ignore]
    return rules


def lint_module(module: Module, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run ``rules`` (default: all) over one module, honouring suppressions."""
    if module.skip_file:
        return []
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    for rule in active:
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not module.suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    module_name: str = "repro.simcore._fixture",
    path: str = "<fixture>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a source string (the test-fixture entry point).

    ``module_name`` controls which package-scoped rules apply; the default
    places the fixture inside the model scope so every rule is active.
    """
    return lint_module(Module(path, source, module_name), rules)


def module_name_for(path: Path) -> str:
    """Derive the dotted module name from the package layout on disk.

    Walks up while ``__init__.py`` files are present, so ``src/repro/x/y.py``
    maps to ``repro.x.y`` regardless of where the walk started.  A namespace
    package directly under a ``src`` directory (this repo's ``repro``) has no
    ``__init__.py`` but still contributes its name.
    """
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if parent.name not in ("", "src") and parent.parent.name == "src":
        parts.insert(0, parent.name)
    return ".".join(parts) if parts else path.stem


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (sorted, skipping caches)."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for file in sorted(path.rglob("*.py")):
            if any(part.startswith(".") or part == "__pycache__" for part in file.parts):
                continue
            yield file


def apply_fixes(source: str, findings: Iterable[Finding]) -> Tuple[str, List[Finding]]:
    """Apply the :class:`LineFix` of every fixable finding to ``source``.

    Which fix wins a line is decided *in report order* — ``(path, line, col,
    rule)``, the order findings are printed — and only then are the survivors
    applied bottom-up so earlier line numbers stay valid.  That makes the
    returned list of applied findings (also in report order) match what a
    reader of the report expects, instead of depending on the application
    sweep's direction.  A line with two competing fixes applies the first
    reported one and drops the rest; the next lint run re-reports whatever
    remains.  Returns ``(new_source, applied_findings)``.
    """
    ordered = sorted(
        (f for f in findings if f.fix is not None),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    applied: List[Finding] = []
    seen_lines: Set[int] = set()
    line_count = len(source.splitlines())
    for finding in ordered:
        fix = finding.fix
        assert fix is not None
        if fix.line in seen_lines or not (1 <= fix.line <= line_count):
            continue
        seen_lines.add(fix.line)
        applied.append(finding)
    if not applied:
        return source, []
    trailing_newline = source.endswith("\n")
    lines = source.splitlines()
    for finding in sorted(applied, key=lambda f: f.fix.line, reverse=True):  # type: ignore[union-attr]
        fix = finding.fix
        assert fix is not None
        if fix.insert_after:
            lines[fix.line : fix.line] = list(fix.new_lines)
        else:
            lines[fix.line - 1 : fix.line] = list(fix.new_lines)
    new_source = "\n".join(lines) + ("\n" if trailing_newline else "")
    return new_source, applied


@dataclass
class LintReport:
    """Outcome of a :func:`lint_paths` run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    fixes_applied: int = 0
    #: The findings whose fixes were written back, in report order — what a
    #: ``--fix`` run shows so the printed list matches the edits made.
    applied: List[Finding] = field(default_factory=list)
    #: Files that failed to parse, as ``(path, error)`` pairs.
    errors: List[Tuple[str, str]] = field(default_factory=list)


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    fix: bool = False,
) -> LintReport:
    """Lint every Python file under ``paths``, one file at a time.

    With ``fix=True``, mechanical fixes are written back and the file is
    re-linted so the report only contains what remains for a human; the
    applied fixes are listed in report order (see :func:`apply_fixes`).
    """
    report = LintReport()
    active = list(rules) if rules is not None else all_rules()
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        try:
            module = Module(str(file), source, module_name_for(file))
        except SyntaxError as exc:
            report.errors.append((str(file), f"syntax error: {exc}"))
            continue
        findings = lint_module(module, active)
        if fix and any(f.fix is not None for f in findings):
            new_source, applied = apply_fixes(source, findings)
            if applied:
                file.write_text(new_source, encoding="utf-8")
                report.fixes_applied += len(applied)
                report.applied.extend(applied)
                module = Module(str(file), new_source, module.module_name)
                findings = lint_module(module, active)
        report.findings.extend(findings)
        report.files_checked += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
