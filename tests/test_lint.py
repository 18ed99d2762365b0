"""Tests for the ``repro.lint`` static-analysis suite.

Each rule is exercised three ways — a fixture that fires it, a near-identical
fixture that must stay silent, and the firing fixture silenced by an
``allow`` comment — plus reporter golden tests and the meta-test that the
shipped tree itself lints clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    MODEL_PACKAGES,
    all_rules,
    apply_fixes,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    select_rules,
)
from repro.lint.framework import LintReport, module_name_for

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default fixture module name: inside the model scope, so every rule applies.
MODEL_MOD = "repro.cluster.fixture"

#: (rule id, firing source, silent source, fixture module name) per rule.
RULE_FIXTURES = [
    (
        "D201",
        "import random\nx = random.randint(0, 5)\n",
        "from repro.simcore import RandomStreams\nx = RandomStreams(3).jitter('a', 1.0, 0.1)\n",
        MODEL_MOD,
    ),
    (
        "D201",
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\nrng = np.random.default_rng(42)\nx = rng.random(4)\n",
        MODEL_MOD,
    ),
    (
        "D201",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nss = np.random.SeedSequence([1, 2])\nrng = np.random.default_rng(ss)\n",
        MODEL_MOD,
    ),
    (
        "D202",
        "import time\nstart = time.perf_counter()\n",
        "def f(env):\n    start = env.now\n    return start\n",
        MODEL_MOD,
    ),
    (
        "D202",
        "from datetime import datetime\nt = datetime.now()\n",
        "from datetime import datetime\nt = datetime.fromtimestamp(0)\n",
        MODEL_MOD,
    ),
    (
        "D203",
        "for rank in {0, 1, 2}:\n    pass\n",
        "for rank in sorted({0, 1, 2}):\n    pass\n",
        MODEL_MOD,
    ),
    (
        "D203",
        "pending = {}\nrank, evt = pending.popitem()\n",
        "pending = {}\nevt = pending.pop(0, None)\n",
        MODEL_MOD,
    ),
    (
        "D204",
        "import os\nworkers = os.environ.get('WORKERS')\n",
        "def f(spec):\n    return spec.workers\n",
        MODEL_MOD,
    ),
    (
        "E301",
        (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
        ),
        (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2)\n"
        ),
        MODEL_MOD,
    ),
    (
        "E301",
        (
            "def drain(self, cores):\n"
            "    while cores._waiters:\n"
            "        cores._grant(cores._pop_waiter())\n"
        ),
        (
            "class Resource:\n"
            "    def drain(self):\n"
            "        while self._waiters:\n"
            "            self._grant(self._pop_waiter())\n"
        ),
        MODEL_MOD,
    ),
    (
        "E301",
        (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(3)\n"
        ),
        (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2)\n"
        ),
        MODEL_MOD,
    ),
    (
        "E302",
        "class StepDone(Event):\n    pass\n",
        "class StepDone(Event):\n    __slots__ = ('step',)\n",
        MODEL_MOD,
    ),
    (
        "E303",
        (
            "def proc(env):\n"
            "    start = env.now\n"
            "    yield env.sleep(1.0)\n"
            "    return start\n"
        ),
        (
            "def proc(env, stats):\n"
            "    start = env.now\n"
            "    yield env.sleep(1.0)\n"
            "    stats['busy'] += env.now - start\n"
        ),
        MODEL_MOD,
    ),
    (
        "H403",
        (
            "import time\n"
            "def wait(buffer):\n"
            "    while not buffer:\n"
            "        time.sleep(0.01)\n"
        ),
        (
            "import time\n"
            "def send(nbytes, bandwidth):\n"
            "    time.sleep(nbytes / bandwidth)\n"
        ),
        "repro.core.fixture",
    ),
]


def _ids():
    seen = {}
    out = []
    for rule_id, *_ in RULE_FIXTURES:
        seen[rule_id] = seen.get(rule_id, 0) + 1
        out.append(f"{rule_id}-{seen[rule_id]}")
    return out


@pytest.mark.parametrize(
    "rule_id,firing,silent,module_name", RULE_FIXTURES, ids=_ids()
)
def test_rule_fires_and_negative_stays_silent(rule_id, firing, silent, module_name):
    findings = lint_source(firing, module_name=module_name)
    assert [f.rule for f in findings].count(rule_id) >= 1, f"{rule_id} did not fire"
    assert all(f.rule == rule_id for f in findings), (
        f"fixture for {rule_id} tripped other rules: {findings}"
    )
    assert lint_source(silent, module_name=module_name) == []


@pytest.mark.parametrize(
    "rule_id,firing,silent,module_name", RULE_FIXTURES, ids=_ids()
)
def test_allow_comment_suppresses_each_rule(rule_id, firing, silent, module_name):
    findings = lint_source(firing, module_name=module_name)
    lines = firing.splitlines()
    by_line = {}
    for finding in findings:
        by_line.setdefault(finding.line, []).append(finding.rule)
    for line, rules in by_line.items():
        lines[line - 1] += f"  # lint: allow={','.join(sorted(set(rules)))}"
    assert lint_source("\n".join(lines) + "\n", module_name=module_name) == []


def test_allow_comment_accepts_rule_name_and_star():
    firing = "import time\nt = time.perf_counter()  # lint: allow=wall-clock\n"
    assert lint_source(firing, module_name=MODEL_MOD) == []
    firing = "import time\nt = time.perf_counter()  # lint: allow=*\n"
    assert lint_source(firing, module_name=MODEL_MOD) == []


def test_allow_comment_for_other_rule_does_not_suppress():
    firing = "import time\nt = time.perf_counter()  # lint: allow=D201\n"
    assert [f.rule for f in lint_source(firing, module_name=MODEL_MOD)] == ["D202"]


def test_skip_file_silences_everything():
    firing = "# lint: skip-file\nimport time\nt = time.time()\n"
    assert lint_source(firing, module_name=MODEL_MOD) == []


def test_directive_inside_string_is_not_a_suppression():
    firing = 'import time\ns = "# lint: skip-file"\nt = time.time()\n'
    assert [f.rule for f in lint_source(firing, module_name=MODEL_MOD)] == ["D202"]


def test_model_scope_rules_skip_measurement_layers():
    firing = "import time\nstart = time.perf_counter()\n"
    assert lint_source(firing, module_name="repro.bench.fixture") == []
    assert lint_source(firing, module_name="repro.trace.fixture") == []
    for package in MODEL_PACKAGES:
        assert lint_source(firing, module_name=package + ".fixture") != []


def test_unscoped_rules_apply_everywhere():
    firing = "class StepDone(Event):\n    pass\n"
    assert [f.rule for f in lint_source(firing, module_name="repro.bench.fixture")] == [
        "E302"
    ]


def test_elapsed_time_idiom_is_allowed_everywhere_it_ships():
    # The sanctioned idiom from the transports: capture, yield, subtract with
    # a fresh read in the same statement.
    src = (
        "def producer_put(self, ctx, env, rank):\n"
        "    lock_start = env.now\n"
        "    yield from self.acquire(rank)\n"
        "    ctx.stats[rank]['lock_time'] += env.now - lock_start\n"
    )
    assert lint_source(src, module_name="repro.transports.fixture") == []


def test_stale_now_caught_on_second_loop_iteration():
    src = (
        "def proc(env):\n"
        "    while True:\n"
        "        if env.now > 10:\n"
        "            break\n"
        "        start = env.now\n"
        "        yield env.sleep(1.0)\n"
        "        emit(start)\n"
    )
    findings = lint_source(src, module_name=MODEL_MOD)
    assert [f.rule for f in findings] == ["E303"]


def test_stale_now_reset_by_reassignment():
    src = (
        "def proc(env):\n"
        "    start = env.now\n"
        "    yield env.sleep(1.0)\n"
        "    start = env.now\n"
        "    emit(start)\n"
    )
    assert lint_source(src, module_name=MODEL_MOD) == []


def test_stale_now_allows_recorder_interval_calls():
    # The decaf/mpiio idiom: recorders take the interval *start* by contract,
    # so handing a captured timestamp to ctx.record_* after a yield is fine.
    src = (
        "def run(self, ctx, env, rank, step):\n"
        "    credit_start = env.now\n"
        "    yield from self.buffer.get(rank)\n"
        "    ctx.record_sim(rank, 'stall', credit_start, step=step)\n"
    )
    assert lint_source(src, module_name="repro.transports.fixture") == []
    # A non-recorder use of the same captured name still fires.
    bad = src.replace("ctx.record_sim", "ctx.note")
    assert [f.rule for f in lint_source(bad, module_name="repro.transports.fixture")] == [
        "E303"
    ]


def test_stale_now_yield_in_terminating_branch_does_not_poison_main_path():
    # The network.py shape: an early-return branch yields, but the fallthrough
    # path never crossed that yield, so its captured clock is still fresh.
    src = (
        "def transfer(self, env, size):\n"
        "    start = env.now\n"
        "    if size == 0:\n"
        "        yield env.sleep(0.0)\n"
        "        return\n"
        "    now = start\n"
        "    emit(now)\n"
    )
    assert lint_source(src, module_name=MODEL_MOD) == []
    # A yield in a branch that falls through DOES poison the main path.
    live = src.replace("        return\n", "")
    assert [f.rule for f in lint_source(live, module_name=MODEL_MOD)] == ["E303"]


# -- E301: literal credits must match the elided trips --------------------

E301 = select_rules(["E301"])

#: Credits whose amount is not a literal.  Each exemption fixture below also
#: credits a literal 3 against 2 elided trips, so only the exemption keeps
#: E301 silent.
UNCOUNTED_CREDITS = {
    "dynamic": "self.env.credit_events(2 * n)",
    "trigger_inplace": "self.env.trigger_inplace(done)",
    "complete": "self.env.complete(done)",
}


@pytest.mark.parametrize("credit", list(UNCOUNTED_CREDITS.values()), ids=list(UNCOUNTED_CREDITS))
def test_e301_exempts_credits_it_cannot_count(credit):
    src = (
        "def compute_batch(self, cores, n, done):\n"
        "    cores.users.append(1)\n"
        "    yield None\n"
        "    cores.users.remove(1)\n"
        f"    {credit}\n"
        "    self.env.credit_events(3)\n"
    )
    assert lint_source(src, module_name=MODEL_MOD, rules=E301) == []


def test_e301_fires_on_a_fast_path_split_across_a_helper():
    # The credit lives in the caller: the helper that touches the internals
    # credits nothing itself, so it is a finding.
    src = (
        "def grab(cores):\n"
        "    cores.users.append(1)\n"
        "    cores.users.remove(1)\n"
        "\n"
        "def fast(self, cores):\n"
        "    grab(cores)\n"
        "    self.env.credit_events(2)\n"
        "    yield None\n"
    )
    findings = lint_source(src, module_name=MODEL_MOD, rules=E301)
    assert [(f.rule, f.line) for f in findings] == [("E301", 1)]
    assert "`grab`" in findings[0].message


def test_e301_checks_the_credit_count_of_the_shipped_compute_fast_path():
    path = REPO_ROOT / "src" / "repro" / "cluster" / "node.py"
    source = path.read_text(encoding="utf-8")
    assert lint_source(source, module_name="repro.cluster.node", rules=E301) == []
    assert source.count("credit_events(2)") == 1
    miscounted = source.replace("credit_events(2)", "credit_events(3)")
    findings = lint_source(miscounted, module_name="repro.cluster.node", rules=E301)
    assert len(findings) == 1
    assert findings[0].message.startswith("`compute` credits 3 event(s) but elides 2")


def test_select_and_ignore_filter_rules():
    firing = "import time\nt = time.perf_counter()\nclass StepDone(Event):\n    pass\n"
    only_d = lint_source(firing, module_name=MODEL_MOD, rules=select_rules(["D202"]))
    assert [f.rule for f in only_d] == ["D202"]
    no_d = lint_source(
        firing, module_name=MODEL_MOD, rules=select_rules(ignore=["D202"])
    )
    assert [f.rule for f in no_d] == ["E302"]
    with pytest.raises(ValueError):
        select_rules(["NOPE"])


def test_registry_holds_exactly_the_catalogued_rules():
    rules = all_rules()
    assert [r.id for r in rules] == [
        "D201", "D202", "D203", "D204", "E301", "E302", "E303", "H403",
    ]
    assert len({r.name for r in rules}) == len(rules)
    for rule in rules:
        assert rule.rationale, f"{rule.id} has no rationale"


# -- reporters ------------------------------------------------------------


def _report_for(source: str) -> LintReport:
    report = LintReport()
    report.findings = lint_source(source, module_name=MODEL_MOD, path="pkg/mod.py")
    report.files_checked = 1
    return report


def test_text_reporter_golden():
    report = _report_for("import time\nt = time.perf_counter()\n")
    assert render_text(report) == (
        "pkg/mod.py:2:4: D202 wall-clock: `time.perf_counter()` reads the "
        "wall clock inside model code; model time must come from `env.now`\n"
        "1 finding in 1 file(s)"
    )


def test_text_reporter_clean_summary():
    report = _report_for("x = 1\n")
    assert render_text(report) == "0 findings in 1 file(s)"


def test_json_reporter_golden():
    report = _report_for("import time\nt = time.perf_counter()\n")
    payload = json.loads(render_json(report))
    assert payload["files_checked"] == 1
    assert payload["fixes_applied"] == 0
    assert payload["errors"] == []
    (finding,) = payload["findings"]
    assert finding == {
        "rule": "D202",
        "name": "wall-clock",
        "path": "pkg/mod.py",
        "line": 2,
        "col": 4,
        "message": (
            "`time.perf_counter()` reads the wall clock inside model code; "
            "model time must come from `env.now`"
        ),
        "fixable": False,
    }


# -- fixes ----------------------------------------------------------------


def test_fix_event_slots_inserts_declaration():
    source = 'class StepDone(Event):\n    """Docs."""\n\n    def f(self):\n        pass\n'
    findings = lint_source(source, module_name=MODEL_MOD)
    fixed, applied = apply_fixes(source, findings)
    assert [f.rule for f in applied] == ["E302"]
    assert "__slots__ = ()" in fixed
    assert lint_source(fixed, module_name=MODEL_MOD) == []


def test_fix_event_slots_without_docstring():
    source = "class StepDone(Event):\n    def f(self):\n        pass\n"
    fixed, applied = apply_fixes(source, lint_source(source, module_name=MODEL_MOD))
    assert len(applied) == 1
    assert lint_source(fixed, module_name=MODEL_MOD) == []


def test_fix_applied_order_matches_report_and_roundtrips():
    # Edits are applied bottom-up so line numbers stay valid, but the
    # *reported* applied list must read top-down like the findings — even
    # when the findings are handed over in scrambled order.
    source = (
        "class StepStart(Event):\n    pass\n"
        "class StepDone(Event):\n    pass\n"
        "class StepFailed(Event):\n    pass\n"
    )
    findings = lint_source(source, module_name=MODEL_MOD)
    fixed, applied = apply_fixes(source, list(reversed(findings)))
    expected = sorted(
        (f.line, f.col, f.rule) for f in findings if f.fix is not None
    )
    assert [(f.line, f.col, f.rule) for f in applied] == expected
    assert len(applied) == 3
    assert lint_source(fixed, module_name=MODEL_MOD) == []


def test_fix_report_renders_applied_lines_in_order():
    source = "x = 1\nclass StepDone(Event):\n    pass\n"
    report = LintReport()
    fixed, applied = apply_fixes(
        source, lint_source(source, module_name=MODEL_MOD, path="pkg/mod.py")
    )
    report.files_checked = 1
    report.fixes_applied = len(applied)
    report.applied = applied
    text = render_text(report)
    assert "fixed: pkg/mod.py:2:0: E302" in text
    assert "1 fix(es) applied" in text
    payload = json.loads(render_json(report))
    assert [f["rule"] for f in payload["applied"]] == ["E302"]


def test_lint_paths_fix_writes_file_back(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text("class StepDone(Event):\n    pass\n", encoding="utf-8")
    report = lint_paths([tmp_path], fix=True)
    assert report.fixes_applied == 1
    assert report.findings == []
    assert "__slots__ = ()" in bad.read_text(encoding="utf-8")


# -- walking, module names, CLI -------------------------------------------


def test_module_name_for_package_layout():
    assert module_name_for(REPO_ROOT / "src/repro/cluster/node.py") == "repro.cluster.node"
    assert module_name_for(REPO_ROOT / "src/repro/simcore/__init__.py") == "repro.simcore"
    assert module_name_for(REPO_ROOT / "tools/check_links.py") == "check_links"


def test_lint_paths_reports_syntax_errors(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = lint_paths([tmp_path])
    assert report.findings == []
    assert len(report.errors) == 1


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_cli_shipped_tree_is_clean():
    """The acceptance gate: ``python -m repro.lint src/`` exits 0."""
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_findings_exit_one(tmp_path):
    bad = tmp_path / "pkg.py"
    bad.write_text("class StepDone(Event):\n    pass\n", encoding="utf-8")
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "E302" in proc.stdout


def test_cli_json_format(tmp_path):
    bad = tmp_path / "pkg.py"
    bad.write_text("class StepDone(Event):\n    pass\n", encoding="utf-8")
    proc = _run_cli("--format", "json", str(bad))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["findings"][0]["rule"] == "E302"


def test_cli_unknown_rule_and_missing_path_exit_two(tmp_path):
    assert _run_cli("--select", "NOPE", "src").returncode == 2
    assert _run_cli(str(tmp_path / "missing")).returncode == 2


def test_cli_list_rules_names_every_rule():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in all_rules():
        assert rule.id in proc.stdout and rule.name in proc.stdout


def test_module_suppression_survives_crlf_and_blank_files():
    assert lint_source("", module_name=MODEL_MOD) == []
    assert lint_source("\n\n", module_name=MODEL_MOD) == []
