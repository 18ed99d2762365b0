"""Documentation consistency checks (links, required files, figure map)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_links import check_tree, page_anchors, slugify  # noqa: E402

REQUIRED_DOCS = (
    "docs/architecture.md",
    "docs/transports.md",
    "docs/pipelines.md",
    "docs/sweep-format.md",
    "docs/campaigns.md",
    "docs/figures.md",
    "docs/elastic.md",
    "docs/faults.md",
    "docs/perf-model.md",
    "docs/performance.md",
    "docs/static-analysis.md",
    "docs/tenants.md",
)

#: Packages whose public API must be fully docstringed (mirrors the ruff
#: ``D`` lint scope of the CI docs job).  ``lint`` covers its ``rules``
#: subpackage via the recursive glob.
DOCSTRINGED_PACKAGES = (
    "elastic",
    "faults",
    "workflow",
    "sweep",
    "campaign",
    "perfmodel",
    "lint",
    "tenants",
    "simmpi",
    "cluster",
    "simcore",
)

#: Top-level modules (not packages) held to the same docstring standard.
DOCSTRINGED_MODULES = ("sanitize",)


def test_required_docs_exist():
    for doc in REQUIRED_DOCS:
        assert (REPO_ROOT / doc).is_file(), f"missing {doc}"


def test_readme_links_every_doc():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for doc in REQUIRED_DOCS:
        assert doc in readme, f"README does not link {doc}"


def test_all_relative_links_resolve():
    broken = check_tree(REPO_ROOT)
    assert broken == [], f"broken documentation links: {broken}"


@pytest.mark.parametrize("package", DOCSTRINGED_PACKAGES)
def test_package_docstring_coverage(package):
    """Every module, class and public function in the package is documented.

    A stdlib approximation of the ruff ``D1xx`` rules the CI docs job
    enforces, so docstring coverage is also checked where ruff is absent.
    """
    import ast

    missing = []
    for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            missing.append(f"{path.name}: module")
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                missing.append(f"{path.name}: {node.name}")
    assert missing == [], f"undocumented definitions in repro.{package}: {missing}"


def _docstring_gaps(paths):
    import ast

    missing = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            missing.append(f"{path.name}: module")
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                missing.append(f"{path.name}: {node.name}")
    return missing


@pytest.mark.parametrize("module", DOCSTRINGED_MODULES)
def test_module_docstring_coverage(module):
    """Top-level modules (e.g. the sanitizer) meet the same docstring bar."""
    path = REPO_ROOT / "src" / "repro" / f"{module}.py"
    assert path.is_file(), f"missing src/repro/{module}.py"
    assert _docstring_gaps([path]) == []


def test_static_analysis_doc_catalogues_every_rule():
    """docs/static-analysis.md names every registered rule id and name."""
    from repro.lint import all_rules

    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text(encoding="utf-8")
    for rule in all_rules():
        assert rule.id in doc, f"{rule.id} missing from static-analysis.md"
        assert rule.name in doc, f"{rule.name} missing from static-analysis.md"


def test_anchor_slugs_match_github_convention():
    assert slugify("The flow certificate") == "the-flow-certificate"
    assert slugify("F — interprocedural flow") == "f--interprocedural-flow"
    assert slugify("Scope: model code vs measurement code") == (
        "scope-model-code-vs-measurement-code"
    )
    assert slugify("`repro.lint` suite") == "reprolint-suite"


def test_page_anchors_cover_known_headings():
    anchors = page_anchors(REPO_ROOT / "docs" / "static-analysis.md")
    assert "the-runtime-sanitizer" in anchors
    assert "e--event-kernel-contracts" in anchors
    assert "suppression-syntax" in anchors


def test_broken_anchor_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Real Heading\n", encoding="utf-8")
    doc = tmp_path / "README.md"
    doc.write_text(
        "[ok](page.md#real-heading)\n[bad](page.md#no-such-heading)\n",
        encoding="utf-8",
    )
    broken = check_tree(tmp_path)
    assert broken == [("README.md", "page.md#no-such-heading")]


def test_figures_doc_names_real_grids_and_benches():
    import repro.bench.experiments as experiments

    figures = (REPO_ROOT / "docs" / "figures.md").read_text(encoding="utf-8")
    for spec_name in (
        "figure2_spec",
        "figure12_spec",
        "figure13_spec",
        "figure14_spec",
        "figure16_spec",
        "figure18_spec",
        "pipeline_shapes_spec",
        "elastic_vs_static_spec",
        "model_vs_threshold_spec",
        "fault_recovery_spec",
        "tenant_contention_spec",
    ):
        assert spec_name in figures, f"figures.md does not mention {spec_name}"
        assert hasattr(experiments, spec_name), f"{spec_name} vanished from experiments"
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        assert bench.name in figures, f"figures.md does not mention {bench.name}"
