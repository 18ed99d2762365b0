"""Parallel scenario-sweep engine.

Declarative parameter grids (:class:`~repro.sweep.spec.ParamGrid`,
:class:`~repro.sweep.spec.SweepSpec`) expand into labelled workflow
configurations; :class:`~repro.sweep.runner.SweepRunner` fans them out over a
process pool with per-case failure isolation and deterministic seeding; and
:class:`~repro.sweep.store.ResultStore` persists one JSON line per scenario
with ``(label, config-hash)`` resume.  See the README's "Scenario sweeps"
section for usage.
"""

from repro.sweep.spec import (
    MACHINES,
    ParamGrid,
    SweepCase,
    SweepSpec,
    config_hash,
    resolve_machine,
)
from repro.sweep.runner import (
    SweepRecord,
    SweepRunner,
    classify_error,
    derive_case_seed,
    prepare_cases,
    run_cases,
    run_config,
    run_labelled,
)
from repro.sweep.store import VOLATILE_KEYS, ResultStore, result_payload

__all__ = [
    "MACHINES",
    "ParamGrid",
    "SweepCase",
    "SweepSpec",
    "config_hash",
    "resolve_machine",
    "SweepRecord",
    "SweepRunner",
    "classify_error",
    "derive_case_seed",
    "prepare_cases",
    "run_cases",
    "run_config",
    "run_labelled",
    "ResultStore",
    "VOLATILE_KEYS",
    "result_payload",
]
