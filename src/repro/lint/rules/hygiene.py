"""Hygiene rules (``H``): failure modes that corrupt results silently.

General Python hazards that an off-the-shelf linter already catches are
left to ruff (``ruff.toml`` selects E722, bare ``except:``, and B006,
mutable argument defaults).  What stays here is scoped to this code base:
sleep-polling in the threaded runtime both burns CPU and makes measured
stall times scheduler-dependent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import Finding, Module, Rule, register
from repro.lint.rules._helpers import canonical_call, import_aliases, walk_shallow

__all__ = ["SleepPolling"]


@register
class SleepPolling(Rule):
    """H403: threads in the runtime must not poll with ``time.sleep``."""

    id = "H403"
    name = "sleep-poll"
    rationale = (
        "A `while ...: time.sleep(...)` poll burns CPU, adds up to one poll "
        "interval of latency per hand-off, and makes measured stall times "
        "scheduler-dependent.  The runtime's buffers expose "
        "`threading.Condition`/`Event` primitives — block on those instead "
        "(emulated transfer *durations* outside loops are fine)."
    )
    scope = ("repro.core",)

    def check(self, module: Module) -> Iterator[Finding]:
        """Flag ``time.sleep`` calls inside ``while`` loops."""
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.While):
                continue
            for inner in walk_shallow(node, include_root=False):
                if (
                    isinstance(inner, ast.Call)
                    and canonical_call(inner, aliases) == "time.sleep"
                ):
                    yield self.finding(
                        module,
                        inner,
                        "`time.sleep` inside a while loop is a poll; block on "
                        "the buffer's Condition/Event primitive instead",
                    )
