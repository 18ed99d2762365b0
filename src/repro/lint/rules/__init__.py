"""Rule catalogue of ``repro.lint``.

Importing this package registers every rule with the framework registry
(each rule module applies the :func:`repro.lint.framework.register`
decorator at import time).  Rules come in three families:

* ``D`` — determinism (:mod:`repro.lint.rules.determinism`): model results
  must be a pure function of configuration and seeds.
* ``E`` — event contract (:mod:`repro.lint.rules.events`): the engine's
  fast-path crediting and allocation invariants.
* ``H`` — hygiene (:mod:`repro.lint.rules.hygiene`): general hazards scoped
  to where they corrupt simulations.

See ``docs/static-analysis.md`` for the full catalogue with rationale and
the suppression syntax.
"""

from repro.lint.rules import determinism, events, hygiene  # noqa: F401
