"""Rule F501: pooled event classes must not escape their dispatch.

The engine recycles ``PooledTimeout`` objects — the events
``Environment.sleep`` and ``sleep_until`` hand out — through a free list
(see ``repro.simcore.engine.POOLED_EVENT_CLASSES``).  Recycling is only
sound if no model code can observe a pooled event after its callbacks ran:
a reference stashed in an attribute, a container, a closure or a condition
event would alias a recycled — and re-armed — object, silently corrupting
an unrelated sleep.

F501 is the static half of that contract (the runtime half is
:mod:`repro.sanitize`'s use-after-recycle poisoning): every allocation site
of a pooled class in the model packages must classify as ``consumed``,
``discarded``, ``safe-hold`` or ``returned`` under the
:mod:`repro.lint.flow.summaries` escape analysis.  A site that ``escapes``
is a finding — either the code must stop holding the event, or the class
must come off the pooled list.

The rule deliberately reports *sites*, not classes: the finding points at
the exact allocation whose lifetime the analysis cannot bound.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lint.framework import MODEL_PACKAGES, Finding, ProjectRule, register
from repro.lint.flow.project import EXCLUDED_MODULES, Project

__all__ = ["EventEscape", "POOLED_CLASSES"]

#: The F501 certificate: classes the engine may recycle.  Must equal
#: ``repro.simcore.engine.POOLED_EVENT_CLASSES`` — pinned by a meta-test so
#: the certificate and the implementation cannot drift apart.
POOLED_CLASSES: Tuple[str, ...] = ("PooledTimeout",)


@register
class EventEscape(ProjectRule):
    """Allocation sites of pooled event classes must not escape."""

    id = "F501"
    name = "pooled-event-escape"
    rationale = (
        "Event classes on the engine's free-list certificate (PooledTimeout, "
        "the event env.sleep and env.sleep_until return) are recycled after "
        "dispatch; any model code that holds such an event past its consuming "
        "yield — in an attribute, container, closure or condition — would "
        "alias a re-armed object. Every allocation site of a pooled class "
        "must provably not escape; sites the interprocedural escape analysis "
        "cannot bound are findings."
    )
    scope = MODEL_PACKAGES

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield a finding per escaping allocation site of a pooled class."""
        project.analyze()
        for qualname in sorted(project.functions):
            func = project.functions[qualname]
            if func.module in EXCLUDED_MODULES or func.summary is None:
                continue
            for site in func.summary.sites:
                if site.verdict != "escapes":
                    continue
                pooled = sorted(set(site.classes) & set(POOLED_CLASSES))
                if not pooled:
                    continue
                yield Finding(
                    rule=self.id,
                    name=self.name,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"pooled event {'/'.join(pooled)} allocated in "
                        f"{func.name}() escapes its dispatch: {site.reason}; "
                        f"recycling would alias a live reference "
                        f"(docs/static-analysis.md)"
                    ),
                )
