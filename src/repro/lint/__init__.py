"""Static analysis for the simulator's determinism and event contracts.

``repro.lint`` is an AST-based linter with rules specific to this code base:
it proves, at review time, invariants the test suite can only spot-check
dynamically — no wall-clock or global-RNG reads in model code (``D`` rules),
the fast-path event-crediting and ``__slots__`` contracts of the engine
(``E`` rules), and hygiene hazards that corrupt simulations silently
(``H`` rules).

Run it with::

    PYTHONPATH=src python -m repro.lint src/          # lint the tree
    PYTHONPATH=src python -m repro.lint --list-rules  # rule catalogue
    PYTHONPATH=src python -m repro.lint --fix src/    # apply mechanical fixes

A finding is silenced only by a trailing ``# lint: allow=<rule>`` comment on
the offending line (``<rule>`` is the id or the kebab-case name), or a
file-level ``# lint: skip-file``.  See ``docs/static-analysis.md`` for the
rule catalogue, the determinism contract it enforces, and how to add a rule.
"""

from repro.lint.framework import (
    MODEL_PACKAGES,
    Finding,
    LineFix,
    LintReport,
    Module,
    Rule,
    all_rules,
    apply_fixes,
    lint_module,
    lint_paths,
    lint_source,
    register,
    select_rules,
)
from repro.lint.reporters import render_json, render_text

__all__ = [
    "MODEL_PACKAGES",
    "Finding",
    "LineFix",
    "LintReport",
    "Module",
    "Rule",
    "all_rules",
    "apply_fixes",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
    "select_rules",
]
