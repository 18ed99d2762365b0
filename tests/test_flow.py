"""Tests for the interprocedural flow analyses (``repro.lint.flow``).

Fixture families exercise the escape lattice one hazard at a time —
pool-safe consumption, container escape, closure capture, recorder capture,
cross-call escape, use-after-yield — then the meta-tests pin the shipped
tree: the engine's pooled-class tuple equals the analysis certificate, every
pooled class is pool-safe, and the unresolved-call audit list is empty.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.lint import lint_source, select_rules
from repro.lint.flow.escape import POOLED_CLASSES
from repro.lint.flow.project import KNOWN_EVENT_CLASSES
from repro.lint.flow.report import flow_report
from repro.simcore import POOLED_EVENT_CLASSES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fixture module inside the model scope (and outside the excluded engine
#: layer), so F5xx rules classify its allocation sites.
MOD = "repro.cluster.fixture"

F501 = select_rules(["F501"])
F502 = select_rules(["F502"])


def _f501(source: str):
    return [f for f in lint_source(source, module_name=MOD, rules=F501)]


def _f502(source: str):
    return [f for f in lint_source(source, module_name=MOD, rules=F502)]


# -- F501 escape analysis -------------------------------------------------


class TestEscapeVerdicts:
    def test_consumed_by_yield_is_pool_safe(self):
        src = (
            "def proc(env):\n"
            "    yield env.sleep(1.0)\n"
            "    yield env.sleep_until(2.0)\n"
        )
        assert _f501(src) == []

    def test_fire_and_forget_discard_is_pool_safe(self):
        src = "def kick(env):\n    env.sleep(1.0)\n"
        assert _f501(src) == []

    def test_container_escape_fires(self):
        src = (
            "def proc(env):\n"
            "    pending = []\n"
            "    ev = env.sleep(1.0)\n"
            "    pending.append(ev)\n"
            "    yield ev\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]
        assert findings[0].line == 3  # the allocation site, not the append
        assert "container" in findings[0].message

    def test_attribute_store_escape_fires(self):
        src = (
            "def proc(self, env):\n"
            "    ev = env.sleep(1.0)\n"
            "    self.pending = ev\n"
            "    yield ev\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]

    def test_closure_capture_escape_fires(self):
        src = (
            "def proc(env):\n"
            "    ev = env.sleep(1.0)\n"
            "    def peek():\n"
            "        return ev\n"
            "    yield ev\n"
            "    return peek\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]
        assert "closure" in findings[0].message

    def test_trace_recorder_capture_escape_fires(self):
        src = (
            "def proc(env, ctx):\n"
            "    ev = env.sleep(1.0)\n"
            "    ctx.record_event(ev)\n"
            "    yield ev\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]
        assert "recorder" in findings[0].message

    def test_condition_capture_escape_fires(self):
        src = (
            "def proc(env):\n"
            "    ev = env.sleep(1.0)\n"
            "    yield AllOf(env, [ev, env.sleep(2.0)])\n"
        )
        findings = _f501(src)
        assert len(findings) >= 1
        assert all(f.rule == "F501" for f in findings)

    def test_cross_call_escape_fires(self):
        src = (
            "def stash(ev, log):\n"
            "    log.append(ev)\n"
            "\n"
            "def proc(env, log):\n"
            "    ev = env.sleep(1.0)\n"
            "    stash(ev, log)\n"
            "    yield ev\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]
        assert "callee" in findings[0].message

    def test_cross_call_engine_consumer_is_safe(self):
        src = (
            "def forward(env, ev):\n"
            "    env.schedule(ev)\n"
            "\n"
            "def proc(env):\n"
            "    ev = env.sleep(1.0)\n"
            "    forward(env, ev)\n"
        )
        assert _f501(src) == []

    def test_use_after_consuming_yield_fires(self):
        src = (
            "def proc(env):\n"
            "    ev = env.sleep(1.0)\n"
            "    yield ev\n"
            "    return ev.delay\n"
        )
        findings = _f501(src)
        assert [f.rule for f in findings] == ["F501"]
        assert "use-after-recycle" in findings[0].message

    def test_returned_factory_does_not_condemn_the_class(self):
        # A factory returning the event is classified at its call sites; the
        # returned site itself is not an escape.
        src = (
            "def make(env):\n"
            "    return env.sleep(1.0)\n"
            "\n"
            "def proc(env):\n"
            "    yield make(env)\n"
        )
        assert _f501(src) == []

    def test_unpooled_event_escape_is_not_a_finding(self):
        # Process objects escape all over the model layer — fine, they are
        # not on the free-list certificate.
        src = (
            "def spawn(env, procs):\n"
            "    p = env.process(worker(env))\n"
            "    procs.append(p)\n"
        )
        assert _f501(src) == []

    def test_stored_store_put_is_not_a_finding(self):
        # Store events are fresh allocations the holder may keep.
        src = (
            "def proc(self, env, store: Store):\n"
            "    ev = store.put(1)\n"
            "    self.pending = ev\n"
            "    yield ev\n"
            "    return ev.item\n"
        )
        assert _f501(src) == []


# -- F502 crediting conservation ------------------------------------------


class TestCreditingConservation:
    def test_uncredited_foreign_touch_fires(self):
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
        )
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]
        assert "crediting call" in findings[0].message

    def test_literal_mismatch_fires_where_e301_is_silent(self):
        # Credits 3, elides 2: E301 sees "a crediting call exists" and stays
        # silent; only the interprocedural conservation check catches it.
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(3)\n"
        )
        assert lint_source(src, module_name=MOD, rules=select_rules(["E301"])) == []
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]
        assert "credits 3" in findings[0].message
        assert "elides 2" in findings[0].message

    def test_exact_literal_credit_is_clean(self):
        src = (
            "def compute(self, cores):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2)\n"
        )
        assert _f502(src) == []

    def test_dynamic_credit_is_exempt_from_the_literal_check(self):
        src = (
            "def compute_batch(self, cores, n):\n"
            "    cores.users.append(1)\n"
            "    yield None\n"
            "    cores.users.remove(1)\n"
            "    self.env.credit_events(2 * n)\n"
        )
        assert _f502(src) == []

    def test_credit_in_caller_discharges_the_helper(self):
        # The fast path is split across a helper: E301 would flag the helper,
        # F502 walks the call graph and finds the caller's credit.
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
        assert _f502(src) == []

    def test_unreachable_credit_still_fires(self):
        src = (
            "def grab(cores):\n"
            "    cores.users.append(1)\n"
            "    cores.users.remove(1)\n"
            "\n"
            "def unrelated(self):\n"
            "    self.env.credit_events(2)\n"
        )
        findings = _f502(src)
        assert [f.rule for f in findings] == ["F502"]


# -- meta-tests: the shipped tree -----------------------------------------


def _shipped_report():
    return flow_report([REPO_ROOT / "src"])


class TestShippedTreeCertificate:
    def test_pooled_class_tuples_cannot_drift(self):
        """The engine's free-list tuple IS the analysis certificate."""
        assert POOLED_EVENT_CLASSES == POOLED_CLASSES
        assert set(POOLED_CLASSES) <= set(KNOWN_EVENT_CLASSES)

    def test_every_pooled_class_is_pool_safe_on_the_shipped_tree(self):
        report = _shipped_report()
        for cls in POOLED_CLASSES:
            entry = report["event_classes"][cls]
            assert entry["pooled"] is True
            assert entry["pool_safe"] is True, (
                f"{cls} has escaping sites: "
                f"{[s for s in entry['sites'] if s['verdict'] == 'escapes']}"
            )
            assert entry["sites"], f"{cls} has no classified allocation sites"

    def test_unresolved_event_like_audit_list_is_empty(self):
        """Every put/get/request/release in the model layer resolves."""
        report = _shipped_report()
        assert report["unresolved_event_like"] == []

    def test_crediting_entries_cover_the_known_fast_paths(self):
        report = _shipped_report()
        by_function = {entry["function"]: entry for entry in report["crediting"]}
        compute = by_function["repro.cluster.node:ComputeNode.compute"]
        assert compute["elided"] == 2
        assert compute["literal_credits"] == [2]
        batch = by_function["repro.cluster.node:ComputeNode.compute_batch"]
        assert batch["dynamic_credit"] is True

    def test_docs_table_matches_the_shipped_report(self):
        """docs/static-analysis.md's certificate table is the report, row by row."""
        text = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        header = "| Event class | Sites | Verdicts | Pool-safe | Pooled |"
        lines = text.split(header, 1)[1].splitlines()[2:]
        table = {}
        for line in lines:
            if not line.startswith("|"):
                break
            name, sites, verdicts, pool_safe, pooled = (
                cell.strip() for cell in line.strip("|").split("|")
            )
            counts = {}
            for part in verdicts.split(", "):
                count, verdict = part.split(" ")
                counts["escapes" if verdict == "escape" else verdict] = int(count)
            table[name.strip("`")] = (
                int(sites), counts, pool_safe == "yes", pooled.strip("*") == "yes"
            )
        report = {
            name: (
                len(entry["sites"]),
                dict(Counter(site["verdict"] for site in entry["sites"])),
                entry["pool_safe"],
                entry["pooled"],
            )
            for name, entry in _shipped_report()["event_classes"].items()
        }
        assert table == report

    def test_flow_report_cli_round_trips_as_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--flow-report", "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["pooled_classes"] == list(POOLED_CLASSES)
        assert payload["unresolved_event_like"] == []
