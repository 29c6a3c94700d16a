"""``repro-lint`` — the project-specific static analyser.

Six AST/text rules (R001–R006) encode invariants this codebase has
broken by hand before: registry-stale engine enumerations, stray
wall-clock reads, mutable defaults, undocumented span/metric names,
exception swallowing, and drifted ``__all__`` exports.  See
``docs/CORRECTNESS.md`` for the catalog and pragma syntax.

Programmatic entry points::

    from repro.devtools.lint import run_lint
    findings = run_lint(["src"])     # [] when the tree is clean
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "build_parser": "engine",
        "find_observability_doc": "engine",
        "lint_path": "engine",
        "lint_source": "engine",
        "lint_text": "engine",
        "main": "engine",
        "run_lint": "engine",
        "RULES": "rules",
        "RULES_BY_ID": "rules",
        "Finding": "rules",
        "LintContext": "rules",
        "load_obs_vocabulary": "rules",
    },
)

__all__ = [
    "Finding",
    "LintContext",
    "RULES",
    "RULES_BY_ID",
    "build_parser",
    "find_observability_doc",
    "lint_path",
    "lint_source",
    "lint_text",
    "load_obs_vocabulary",
    "main",
    "run_lint",
]
