"""Declarative parameter grids expanding into labelled workflow configurations.

The paper's evaluation is a grid of scenarios — transports × core counts ×
block sizes × preserve modes × machines — and every figure driver used to
hand-roll nested ``for`` loops over those axes.  :class:`ParamGrid` captures
one such grid declaratively: a base :class:`~repro.workflow.config.WorkflowConfig`,
an ordered set of axes, and a labelling rule.  :class:`SweepSpec` bundles one
or more grids (plus any hand-picked cases) under a name, and expands them into
the flat list of labelled :class:`SweepCase` objects the runner executes.

Axis values are applied through the base config's ``replace``; axis names
that are not config fields (e.g. a synthetic-workload complexity) are
consumed by the grid's ``derive`` hook, which maps the full parameter
assignment to extra config overrides (typically the workload object).  The
special axis name ``machine`` accepts a preset name from
:mod:`repro.cluster.presets`.

The base config may be a two-application
:class:`~repro.workflow.config.WorkflowConfig`, a multi-stage
:class:`~repro.workflow.pipeline.PipelineSpec` — pipeline grids can sweep
over graph shapes by making ``stages``/``couplings`` overrides in a
``derive`` hook — or a multi-tenant :class:`~repro.tenants.spec.TenantSpec`;
:func:`~repro.sweep.runner.run_config` runs any of them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, fields
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cluster.presets import bridges, laptop, stampede2
from repro.cluster.spec import ClusterSpec
from repro.tenants.spec import TenantSpec
from repro.workflow.config import WorkflowConfig
from repro.workflow.pipeline import PipelineSpec

__all__ = ["MACHINES", "ParamGrid", "SweepCase", "SweepSpec", "config_hash", "resolve_machine"]

#: Machine presets addressable by name from an axis or a CLI flag.
MACHINES: Dict[str, Callable[[], ClusterSpec]] = {
    "bridges": bridges,
    "stampede2": stampede2,
    "laptop": laptop,
}

#: Anything a sweep case may carry as its configuration.
AnyConfig = Union[WorkflowConfig, PipelineSpec, TenantSpec]

#: Axes consumed by the expansion machinery rather than ``replace`` directly.
_VIRTUAL_AXES = frozenset({"machine"})


def resolve_machine(machine: Union[str, ClusterSpec]) -> ClusterSpec:
    """Turn a preset name (or an already-built spec) into a :class:`ClusterSpec`."""
    if isinstance(machine, ClusterSpec):
        return machine
    try:
        return MACHINES[machine]()
    except KeyError:
        raise ValueError(
            f"unknown machine preset {machine!r}; known: {sorted(MACHINES)}"
        ) from None


def config_hash(config: AnyConfig) -> str:
    """Stable, process-invariant digest of a workflow or pipeline configuration.

    Used (together with the case label) as the resume key of the result store:
    a completed ``(label, hash)`` pair is skipped when a sweep is re-run, and a
    changed parameter changes the hash so the scenario is re-executed.
    """
    payload = asdict(config)
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


class SweepCase:
    """One labelled scenario of a sweep.

    ``label`` and ``config`` are never reassigned once the case is built:
    the case caches its :func:`config_hash` and the case a
    :class:`~repro.sweep.runner.SweepRunner` prepares from it, and both
    caches would go stale.  Build a new case to change either.
    """

    __slots__ = ("label", "config", "_hash", "_prepared")

    def __init__(self, label: str, config: AnyConfig):
        self.label = str(label)
        self.config = config
        self._hash: Optional[str] = None
        #: ``(reseed, trace, prepared)`` of the last runner that prepared
        #: this case; ``prepared`` is ``None`` when that is the case itself.
        self._prepared: Optional[Tuple[bool, Optional[bool], Optional[SweepCase]]] = None

    @property
    def config_digest(self) -> str:
        """Cached :func:`config_hash` of the case's configuration."""
        if self._hash is None:
            self._hash = config_hash(self.config)
        return self._hash

    @property
    def key(self) -> Tuple[str, str]:
        """The resume key: ``(label, config hash)``."""
        return (self.label, self.config_digest)

    def __repr__(self) -> str:
        return f"<SweepCase {self.label!r}>"


#: A labelling rule: either a ``str.format`` template over the axis values or
#: a callable receiving the parameter assignment.
LabelRule = Union[str, Callable[[Dict[str, Any]], str]]


class ParamGrid:
    """The Cartesian product of parameter axes applied to a base config.

    Parameters
    ----------
    base:
        Configuration every case starts from (a :class:`WorkflowConfig` or a
        :class:`~repro.workflow.pipeline.PipelineSpec`).
    axes:
        Ordered mapping (or sequence of pairs) ``name -> values``.  Expansion
        follows the given order with the *leftmost axis slowest*, matching the
        nesting order of the hand-written loops it replaces.
    label:
        Labelling rule for the cases (template string or callable).
    derive:
        Optional hook mapping the parameter assignment to additional config
        overrides, for axes whose effect is not a plain config field (e.g.
        building a workload from a complexity class and a block size).  Every
        key it returns must be a config field (or ``machine``/``label``);
        non-field axis values reach the config *only* through the hook's
        return value, so a hook that ignores one of its axes produces cases
        that differ in label but not in config.
    """

    def __init__(
        self,
        base: AnyConfig,
        axes: Union[Dict[str, Sequence[Any]], Sequence[Tuple[str, Sequence[Any]]]],
        label: LabelRule,
        derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ):
        pairs = axes.items() if isinstance(axes, dict) else axes
        self.base = base
        self._config_fields = frozenset(f.name for f in fields(type(base)))
        self.axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = tuple(
            (str(name), tuple(values)) for name, values in pairs
        )
        for name, values in self.axes:
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            if name not in self._config_fields and name not in _VIRTUAL_AXES and derive is None:
                raise ValueError(
                    f"axis {name!r} is not a {type(base).__name__} field; supply "
                    "a derive hook that consumes it"
                )
        self.label = label
        self.derive = derive

    def __len__(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def _label_for(self, params: Dict[str, Any]) -> str:
        if callable(self.label):
            return str(self.label(params))
        return self.label.format(**params)

    def cases(self) -> Iterator[SweepCase]:
        """Expand the grid into labelled cases (leftmost axis slowest)."""
        names = [name for name, _ in self.axes]
        for combo in itertools.product(*(values for _, values in self.axes)):
            params = dict(zip(names, combo))
            overrides: Dict[str, Any] = dict(params)
            if self.derive is not None:
                derived = self.derive(params)
                unknown = [
                    k
                    for k in derived
                    if k not in self._config_fields
                    and k not in _VIRTUAL_AXES
                    and k != "label"
                ]
                if unknown:
                    raise ValueError(
                        f"derive returned keys that are not {type(self.base).__name__} "
                        f"fields: {sorted(unknown)}"
                    )
                overrides.update(derived)
            machine = overrides.pop("machine", None)
            if machine is not None:
                overrides["cluster"] = resolve_machine(machine)
            label = overrides.pop("label", None) or self._label_for(params)
            overrides = {k: v for k, v in overrides.items() if k in self._config_fields}
            overrides["label"] = label
            yield SweepCase(label, self.base.replace(**overrides))

    def __iter__(self) -> Iterator[SweepCase]:
        return self.cases()


class SweepSpec:
    """A named collection of grids and hand-picked cases forming one sweep."""

    def __init__(
        self,
        name: str,
        grids: Iterable[ParamGrid] = (),
        cases: Iterable[Union[SweepCase, Tuple[str, AnyConfig]]] = (),
    ):
        self.name = str(name)
        self.grids: List[ParamGrid] = list(grids)
        self.extra_cases: List[SweepCase] = [
            case if isinstance(case, SweepCase) else SweepCase(*case) for case in cases
        ]

    def add_grid(self, grid: ParamGrid) -> "SweepSpec":
        """Append a grid to the sweep (returns ``self`` for chaining)."""
        self.grids.append(grid)
        return self

    def add_case(self, label: str, config: AnyConfig) -> "SweepSpec":
        """Append one hand-picked case (returns ``self`` for chaining)."""
        self.extra_cases.append(SweepCase(label, config))
        return self

    def cases(self) -> List[SweepCase]:
        """Every case of the sweep, grids first (in order), then extras.

        Duplicate labels are rejected: the label is half of the resume key, so
        two distinct configurations sharing a label would shadow each other in
        the result store.
        """
        out: List[SweepCase] = []
        seen: Dict[str, str] = {}
        for grid in self.grids:
            out.extend(grid.cases())
        out.extend(self.extra_cases)
        for case in out:
            if case.label in seen:
                raise ValueError(f"duplicate case label {case.label!r} in sweep {self.name!r}")
            seen[case.label] = case.label
        return out

    def __len__(self) -> int:
        return sum(len(g) for g in self.grids) + len(self.extra_cases)

    def __repr__(self) -> str:
        return f"<SweepSpec {self.name!r} with {len(self)} cases>"
