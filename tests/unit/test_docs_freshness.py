"""Docs-freshness guard: the engine registry and the docs must agree.

Adding an engine to ``ENGINE_NAMES`` without documenting it (or renaming
one and leaving stale prose behind) fails here, not in a reader's hands.
Runs as part of tier-1 and as a dedicated CI step.
"""

import re
from pathlib import Path

import pytest

from repro.mc.bitset import CTL_ENGINES, ENGINE_NAMES

_REPO_ROOT = Path(__file__).resolve().parents[2]
_DOC_FILES = [
    _REPO_ROOT / "README.md",
    _REPO_ROOT / "docs" / "ENGINES.md",
    _REPO_ROOT / "docs" / "ARCHITECTURE.md",
    _REPO_ROOT / "docs" / "OBSERVABILITY.md",
    _REPO_ROOT / "docs" / "CORRECTNESS.md",
    _REPO_ROOT / "docs" / "RESILIENCE.md",
]


@pytest.fixture(scope="module", params=_DOC_FILES, ids=lambda p: p.name)
def doc(request):
    path = request.param
    assert path.is_file(), "missing documentation file: %s" % path
    return path.read_text(encoding="utf-8")


def test_every_registered_engine_is_documented(doc):
    for engine in ENGINE_NAMES:
        assert re.search(r"\b%s\b" % re.escape(engine), doc), (
            "engine %r from ENGINE_NAMES is not mentioned" % engine
        )


def test_engine_count_prose_matches_registry():
    """The READMEs advertise the engine count in words; keep it honest."""
    words = {
        3: "three",
        4: "four",
        5: "five",
        6: "six",
        7: "seven",
    }
    expected = words[len(ENGINE_NAMES)]
    readme = (_REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert ("%s engines" % expected) in readme
    stale = [
        "%s engines" % words[count]
        for count in words
        if count != len(ENGINE_NAMES)
    ]
    for phrase in stale:
        # "all three engines" legitimately refers to the CTL_ENGINES
        # subset; only flat engine-count claims go stale.
        assert ("of **%s" % phrase.split()[0]) not in readme, (
            "README still advertises %r" % phrase
        )


def test_docs_name_the_ctl_subset(doc):
    """CTL_ENGINES is the satisfaction-set subset; docs must not promise
    satisfaction sets for the verdict-only SAT engines."""
    for engine in sorted(set(ENGINE_NAMES) - set(CTL_ENGINES)):
        assert re.search(r"\b%s\b" % re.escape(engine), doc)


def test_docs_cross_link_each_other():
    readme = (_REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ENGINES.md" in readme
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/OBSERVABILITY.md" in readme
    assert "docs/CORRECTNESS.md" in readme
    assert "docs/RESILIENCE.md" in readme
    engines = (_REPO_ROOT / "docs" / "ENGINES.md").read_text(encoding="utf-8")
    assert "ARCHITECTURE.md" in engines
    architecture = (_REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "ENGINES.md" in architecture
    assert "OBSERVABILITY.md" in architecture
    assert "CORRECTNESS.md" in architecture
    observability = (_REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
        encoding="utf-8"
    )
    assert "ARCHITECTURE.md" in observability
    assert "ENGINES.md" in observability
    correctness = (_REPO_ROOT / "docs" / "CORRECTNESS.md").read_text(
        encoding="utf-8"
    )
    for companion in ("ARCHITECTURE.md", "ENGINES.md", "OBSERVABILITY.md"):
        assert companion in correctness
    resilience = (_REPO_ROOT / "docs" / "RESILIENCE.md").read_text(
        encoding="utf-8"
    )
    for companion in (
        "ARCHITECTURE.md",
        "ENGINES.md",
        "OBSERVABILITY.md",
        "CORRECTNESS.md",
    ):
        assert companion in resilience


def test_correctness_doc_matches_the_lint_catalog():
    """docs/CORRECTNESS.md documents every repro-lint rule, by id."""
    from repro.devtools.lint import RULES

    correctness = (_REPO_ROOT / "docs" / "CORRECTNESS.md").read_text(
        encoding="utf-8"
    )
    for rule in RULES:
        assert re.search(r"\b%s\b" % rule.id, correctness), (
            "lint rule %s is not documented in docs/CORRECTNESS.md" % rule.id
        )


def test_observability_doc_names_the_cli_flags_and_span_vocabulary():
    """The observability guide must document the CLI surface and the span
    names the engines actually emit — the acceptance-trace vocabulary."""
    text = (_REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    for flag in ("--trace", "--metrics", "--progress", "--profile"):
        assert flag in text, "flag %s is undocumented" % flag
    for span_name in (
        "build.compile",
        "build.encode",
        "mc.check",
        "sat.solve",
        "bmc.depth",
        "ic3.frame",
        "ic3.generalize",
        "bdd.fixpoint.eu",
        "bdd.symmetry",
        "bitset.eu",
        "portfolio.race",
        "obs.collect",
        "worker.heartbeat",
    ):
        assert span_name in text, "span %r is undocumented" % span_name
    for metric_name in (
        "portfolio.races",
        "portfolio.wins",
        "worker.launched",
        "worker.restarts",
        "worker.crashes",
        "worker.hangs",
        "worker.garbled",
        "worker.oom",
        "obs.collect.batches",
        "obs.collect.spans",
        "obs.collect.series",
        "obs.collect.dropped",
        "mc.symmetry.reduced",
        "mc.symmetry.fallback",
    ):
        assert metric_name in text, "metric %r is undocumented" % metric_name
    # The cross-process vocabulary: the worker label, the histogram
    # percentile columns, and the offline analysis entry point.
    for term in ("worker=", "p50", "p90", "p99", "repro-obs", "coordinator"):
        assert term in text, "%r is undocumented" % term
    # The --profile document's schema, as the CLI stamps it.
    from repro.cli import PROFILE_SCHEMA

    assert PROFILE_SCHEMA in text, "profile schema %r is undocumented" % PROFILE_SCHEMA


def test_resilience_doc_names_the_cli_flags_and_chaos_knobs():
    """The resilience guide must document the runtime CLI surface, the
    chaos environment knobs, and the failure vocabulary."""
    text = (_REPO_ROOT / "docs" / "RESILIENCE.md").read_text(encoding="utf-8")
    for flag in ("--timeout", "--memory-limit", "--workers"):
        assert flag in text, "flag %s is undocumented" % flag
    for knob in ("REPRO_CHAOS", "REPRO_CHAOS_SEED"):
        assert knob in text, "chaos knob %s is undocumented" % knob
    for name in (
        "ResourceBudget",
        "BudgetExceededError",
        "CancelledError",
        "EngineDisagreementError",
        "EngineCrashError",
        "InconclusiveError",
    ):
        assert name in text, "%s is undocumented" % name
    readme = (_REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for flag in ("--timeout", "--memory-limit", "--workers", "--buggy"):
        assert flag in readme, "flag %s is missing from the README" % flag


def _documented_span_names():
    """The backticked names in the first column of OBSERVABILITY.md's span
    table, wildcard rows such as ``timed.<fn>`` left out."""
    text = (_REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("| Span |"):
            break
    next(lines)  # the | --- | separator row
    names = []
    for line in lines:
        if not line.startswith("|"):
            break
        first_column = line.split("|")[1]
        names.extend(
            name for name in re.findall(r"`([^`]+)`", first_column) if "<" not in name
        )
    return names


def test_every_documented_span_is_emitted_by_the_code():
    """The converse of the vocabulary check: a span the code no longer emits
    must not outlive it in the span table."""
    names = _documented_span_names()
    assert names, "span table not found in docs/OBSERVABILITY.md"
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (_REPO_ROOT / "src" / "repro").rglob("*.py")
    )
    missing = [
        name
        for name in names
        if '"%s"' % name not in sources and "'%s'" % name not in sources
    ]
    assert not missing, "documented spans never emitted: %s" % missing
