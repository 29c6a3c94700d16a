"""Tests for ``repro-lint``: every rule triggered, suppressed, and the tree clean.

Each rule gets a trigger fixture (a minimal source that must produce the
finding) and a suppress fixture (the same source with a pragma, producing
nothing), plus pragma-handling and CLI coverage.  The capstone test runs
the linter over the real ``src/`` tree and requires zero findings — the
CI gate in executable form.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.devtools.lint import (
    Finding,
    LintContext,
    RULES,
    RULES_BY_ID,
    lint_path,
    lint_source,
    lint_text,
    load_obs_vocabulary,
    main,
    run_lint,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _ctx(path: str = "src/repro/example.py", vocabulary=None) -> LintContext:
    return LintContext(path=path, obs_vocabulary=vocabulary)


def _rules(findings):
    return [finding.rule for finding in findings]


# -- R001: engine enumerations ------------------------------------------------


class TestR001EngineEnumerations:
    def test_stale_enumeration_in_docstring_triggers(self):
        source = '"""Engines: bitset, naive, bdd, bmc."""\n'
        findings = lint_source(source, _ctx(), only=["R001"])
        assert _rules(findings) == ["R001"]
        assert "ic3" in findings[0].message

    def test_full_registry_enumeration_is_clean(self):
        source = '"""Engines: bitset, naive, bdd, bmc, ic3, portfolio."""\n'
        assert lint_source(source, _ctx(), only=["R001"]) == []

    def test_pre_portfolio_enumeration_is_stale(self):
        source = '"""Engines: bitset, naive, bdd, bmc, ic3."""\n'
        findings = lint_source(source, _ctx(), only=["R001"])
        assert _rules(findings) == ["R001"]
        assert "portfolio" in findings[0].message

    def test_ctl_subset_is_clean(self):
        source = '"""Fixpoint engines: bitset, naive, bdd."""\n'
        assert lint_source(source, _ctx(), only=["R001"]) == []

    def test_pairs_are_not_enumerations(self):
        source = '"""Compared against the naive and bitset oracles."""\n'
        assert lint_source(source, _ctx(), only=["R001"]) == []

    def test_sentence_separator_ends_the_run(self):
        # Three names, but split across two sentences: not one enumeration.
        source = '"""Use bdd or bitset.  The naive engine is the oracle."""\n'
        assert lint_source(source, _ctx(), only=["R001"]) == []

    def test_pragma_suppresses_deliberate_subset(self):
        source = (
            '"""Engines: bitset, naive, bdd, bmc."""'
            "  # repro-lint: disable=R001\n"
        )
        assert lint_source(source, _ctx(), only=["R001"]) == []

    def test_markdown_trigger_and_html_comment_pragma(self):
        text = "The SAT engines are `naive`, `bitset`, and `bdd`, and `bmc`.\n"
        findings = lint_text(text, _ctx("docs/X.md"), only=["R001"])
        assert _rules(findings) == ["R001"]
        suppressed = text.rstrip() + " <!-- repro-lint: disable=R001 -->\n"
        assert lint_text(suppressed, _ctx("docs/X.md"), only=["R001"]) == []


# -- R002: wall-clock reads ---------------------------------------------------


class TestR002WallClock:
    def test_time_time_outside_obs_triggers(self):
        source = "import time\nstart = time.time()\n"
        findings = lint_source(source, _ctx("src/repro/mc/foo.py"), only=["R002"])
        assert _rules(findings) == ["R002"]
        assert findings[0].line == 2

    def test_perf_counter_triggers(self):
        source = "import time\nstart = time.perf_counter_ns()\n"
        assert _rules(
            lint_source(source, _ctx("src/repro/sat/foo.py"), only=["R002"])
        ) == ["R002"]

    def test_obs_package_is_exempt(self):
        source = "import time\nstart = time.time()\n"
        assert lint_source(source, _ctx("src/repro/obs/trace.py"), only=["R002"]) == []

    def test_analysis_timing_is_exempt(self):
        source = "import time\nstart = time.monotonic()\n"
        assert (
            lint_source(source, _ctx("src/repro/analysis/timing.py"), only=["R002"])
            == []
        )

    def test_pragma_suppresses(self):
        source = "import time\nstart = time.time()  # repro-lint: disable=R002\n"
        assert lint_source(source, _ctx("src/repro/mc/foo.py"), only=["R002"]) == []


# -- R003: mutable defaults ---------------------------------------------------


class TestR003MutableDefaults:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()", "list()"])
    def test_mutable_default_triggers(self, default):
        source = "def f(x=%s):\n    return x\n" % default
        assert _rules(lint_source(source, _ctx(), only=["R003"])) == ["R003"]

    def test_immutable_defaults_are_clean(self):
        source = "def f(a=(), b=None, c=0, d='x', e=frozenset()):\n    return a\n"
        assert lint_source(source, _ctx(), only=["R003"]) == []

    def test_lambda_and_method_defaults_covered(self):
        source = (
            "class C:\n"
            "    def m(self, x=[]):\n"
            "        return x\n"
            "g = lambda y={}: y\n"
        )
        findings = lint_source(source, _ctx(), only=["R003"])
        assert _rules(findings) == ["R003", "R003"]

    def test_pragma_suppresses(self):
        source = "def f(x=[]):  # repro-lint: disable=R003\n    return x\n"
        assert lint_source(source, _ctx(), only=["R003"]) == []


# -- R004: observability vocabulary ------------------------------------------


class TestR004ObsVocabulary:
    VOCAB = frozenset({"mc.check", "sat.solve", "mc.checks"})

    def test_undocumented_span_name_triggers(self):
        source = "with _span('mc.unknown.name'):\n    pass\n"
        findings = lint_source(
            source, _ctx(vocabulary=self.VOCAB), only=["R004"]
        )
        assert _rules(findings) == ["R004"]
        assert "mc.unknown.name" in findings[0].message

    def test_documented_names_are_clean(self):
        source = (
            "with _span('mc.check'):\n"
            "    counter('mc.checks').inc()\n"
        )
        assert lint_source(source, _ctx(vocabulary=self.VOCAB), only=["R004"]) == []

    def test_attribute_sinks_are_checked(self):
        source = "_metrics.counter('sat.bogus').inc()\n"
        assert _rules(
            lint_source(source, _ctx(vocabulary=self.VOCAB), only=["R004"])
        ) == ["R004"]

    def test_dynamic_names_are_out_of_scope(self):
        source = "counter('sat.' + field).inc()\n"
        assert lint_source(source, _ctx(vocabulary=self.VOCAB), only=["R004"]) == []

    def test_no_vocabulary_skips_the_rule(self):
        source = "with _span('whatever.name'):\n    pass\n"
        assert lint_source(source, _ctx(vocabulary=None), only=["R004"]) == []

    def test_pragma_suppresses(self):
        source = "with _span('mc.unknown'):  # repro-lint: disable=R004\n    pass\n"
        assert lint_source(source, _ctx(vocabulary=self.VOCAB), only=["R004"]) == []

    def test_vocabulary_extraction(self):
        doc = (
            "The `mc.check` span and the `mc.checks{engine=bdd}` counter.\n"
            "Not code: mc.naked.name.  `UPPER.CASE` is ignored.\n"
        )
        vocabulary = load_obs_vocabulary(doc)
        assert "mc.check" in vocabulary
        assert "mc.checks" in vocabulary  # labels stripped
        assert "mc.naked.name" not in vocabulary  # outside a code span


# -- R005: blanket except -----------------------------------------------------


class TestR005BlanketExcept:
    def test_bare_except_pass_triggers(self):
        source = "try:\n    f()\nexcept:\n    pass\n"
        assert _rules(lint_source(source, _ctx(), only=["R005"])) == ["R005"]

    def test_except_exception_swallow_triggers(self):
        source = "try:\n    f()\nexcept Exception:\n    x = 1\n"
        assert _rules(lint_source(source, _ctx(), only=["R005"])) == ["R005"]

    def test_reraise_is_clean(self):
        source = "try:\n    f()\nexcept Exception:\n    raise\n"
        assert lint_source(source, _ctx(), only=["R005"]) == []

    def test_narrow_except_is_clean(self):
        source = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert lint_source(source, _ctx(), only=["R005"]) == []

    def test_tuple_containing_exception_triggers(self):
        source = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        assert _rules(lint_source(source, _ctx(), only=["R005"])) == ["R005"]

    def test_pragma_suppresses(self):
        source = (
            "try:\n    f()\nexcept Exception:  # repro-lint: disable=R005\n    pass\n"
        )
        assert lint_source(source, _ctx(), only=["R005"]) == []


# -- R006: __all__ consistency ------------------------------------------------


class TestR006DunderAll:
    def test_phantom_export_triggers(self):
        source = "__all__ = ['exists', 'phantom']\n\ndef exists():\n    pass\n"
        findings = lint_source(source, _ctx(), only=["R006"])
        assert _rules(findings) == ["R006"]
        assert "phantom" in findings[0].message

    def test_consistent_all_is_clean(self):
        source = (
            "__all__ = ['CONST', 'C', 'f']\n"
            "CONST = 1\n"
            "class C:\n    pass\n"
            "def f():\n    pass\n"
        )
        assert lint_source(source, _ctx(), only=["R006"]) == []

    def test_imported_names_count_as_defined(self):
        source = "from os.path import join\n__all__ = ['join']\n"
        assert lint_source(source, _ctx(), only=["R006"]) == []

    def test_pragma_suppresses(self):
        source = "__all__ = ['ghost']  # repro-lint: disable=R006\n"
        assert lint_source(source, _ctx(), only=["R006"]) == []

    def _lazy_package(self, tmp_path, table):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "good.py").write_text("def real():\n    pass\n")
        init = package / "__init__.py"
        init.write_text(
            "from repro._lazy import lazy_exports\n\n"
            "__getattr__, __dir__ = lazy_exports(__name__, {%s})\n\n"
            "__all__ = [%s]\n"
            % (
                ", ".join("%r: %r" % entry for entry in table.items()),
                ", ".join(repr(name) for name in table),
            )
        )
        return str(init)

    def test_lazy_exports_count_as_bound(self, tmp_path):
        table = {"real": "good", "alias": "good:real", "good": None}
        assert lint_path(self._lazy_package(tmp_path, table), only=["R006"]) == []

    def test_planted_bad_lazy_entries_trigger(self, tmp_path):
        table = {"real": "good", "ghost": "good", "gone": "missing", "nosub": None}
        findings = lint_path(self._lazy_package(tmp_path, table), only=["R006"])
        assert _rules(findings) == ["R006"] * 3
        messages = "\n".join(finding.message for finding in findings)
        assert "'ghost'" in messages and "never binds" in messages
        assert "'gone'" in messages and "'missing'" in messages
        assert "'nosub'" in messages
        assert "'real'" not in messages


# -- pragmas, driver, CLI -----------------------------------------------------


class TestPragmasAndDriver:
    def test_file_wide_pragma(self):
        source = (
            "# repro-lint: disable-file=R003\n"
            "def f(x=[]):\n    return x\n"
            "def g(y={}):\n    return y\n"
        )
        assert lint_source(source, _ctx(), only=["R003"]) == []

    def test_disable_all_sentinel(self):
        source = "def f(x=[]):  # repro-lint: disable=all\n    return x\n"
        assert lint_source(source, _ctx()) == []

    def test_pragma_inside_string_literal_does_not_count(self):
        source = 'note = "# repro-lint: disable-file=R003"\ndef f(x=[]):\n    return x\n'
        assert _rules(lint_source(source, _ctx(), only=["R003"])) == ["R003"]

    def test_pragma_only_suppresses_named_rule(self):
        source = "def f(x=[]):  # repro-lint: disable=R005\n    return x\n"
        assert _rules(lint_source(source, _ctx(), only=["R003"])) == ["R003"]

    def test_syntax_error_reported_as_e000(self):
        findings = lint_source("def broken(:\n", _ctx())
        assert _rules(findings) == ["E000"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", _ctx(), only=["R999"])

    def test_finding_format_and_dict(self):
        finding = Finding(path="a.py", line=3, col=7, rule="R003", message="m")
        assert finding.format() == "a.py:3:7: R003 m"
        assert finding.to_dict()["rule"] == "R003"

    def test_rule_catalog_is_complete(self):
        assert sorted(RULES_BY_ID) == ["R001", "R002", "R003", "R004", "R005", "R006"]
        assert len(RULES) == 6
        for rule in RULES:
            assert rule.title and rule.rationale


class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_locations(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(x=[]):\n    return x\n")
        assert main([str(target), "--select", "R003"]) == 1
        out = capsys.readouterr().out
        assert "bad.py:1:" in out and "R003" in out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(x=[]):\n    return x\n")
        assert main([str(target), "--select", "R003", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "repro-lint"
        assert document["files_checked"] == 1
        assert document["findings"][0]["rule"] == "R003"

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R006"):
            assert rule_id in out


# -- the capstone: the real tree must be clean --------------------------------


class TestTreeIsClean:
    def test_src_docs_and_readme_have_zero_findings(self):
        paths = [
            os.path.join(REPO_ROOT, "src"),
            os.path.join(REPO_ROOT, "docs"),
            os.path.join(REPO_ROOT, "README.md"),
        ]
        findings = run_lint(paths)
        assert findings == [], "\n".join(finding.format() for finding in findings)
