"""Cold start: a job imports only the engines it runs, and none during a check.

``import repro`` loads its packages' members by name on first use, so what
a job pays for at start-up is what it runs.  Each test starts a fresh
interpreter (this one has long since imported everything) and reads back
the ``repro`` modules it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: The expression a probe prints: every loaded ``repro`` module.
MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'repro')"

#: What a bitset check of the ring must never load.
NOT_FOR_BITSET = (
    "repro.sat",
    "repro.mc.bmc",
    "repro.mc.ic3",
    "repro.runtime.supervisor",
    "repro.runtime.portfolio",
    "repro.obs.collect",
    "repro.analysis",
    "repro.network",
)


def _probe(code: str):
    """Run ``code`` in a fresh interpreter and decode the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code).replace("MODULES", MODULES)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _under(modules, package):
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


def test_import_repro_loads_no_engine():
    loaded = _probe(
        """
        import json, sys
        import repro
        print(json.dumps(MODULES))
        """
    )
    for package in ("repro.mc", "repro.sat", "repro.bdd", "repro.runtime", "repro.analysis"):
        assert _under(loaded, package) == [], package


def test_package_members_still_resolve_by_name():
    names = _probe(
        """
        import json
        import repro
        from repro.mc import ENGINE_NAMES, make_checker
        from repro.logic import *  # noqa: F403
        print(json.dumps([
            list(repro.mc.ENGINE_NAMES) == list(ENGINE_NAMES),
            make_checker.__module__,
            repro.kripke.KripkeStructure.__name__,
            repro.systems.token_ring.__name__,
            "KripkeStructure" in dir(repro.kripke),
        ]))
        """
    )
    assert names == [True, "repro.mc.indexed", "KripkeStructure", "repro.systems.token_ring", True]


def test_unknown_package_member_is_an_attribute_error():
    import repro.kripke

    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.kripke.NoSuchName  # noqa: B018


def test_bitset_check_of_the_ring_loads_no_other_engine():
    loaded = _probe(
        """
        import json, sys
        from repro.mc import make_checker
        from repro.systems import token_ring
        properties, _ = token_ring.ring_family(4)
        checker = make_checker(token_ring.build_token_ring(4), engine="bitset")
        assert all(checker.check(formula) for formula in properties.values())
        print(json.dumps(MODULES))
        """
    )
    for package in NOT_FOR_BITSET:
        assert _under(loaded, package) == [], package


def test_cli_bitset_run_loads_no_other_engine():
    loaded = _probe(
        """
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(["--engine", "bitset", "--system", "ring", "--size", "3"])
        assert status == 0
        print(json.dumps(MODULES))
        """
    )
    for package in NOT_FOR_BITSET:
        assert _under(loaded, package) == [], package


#: engine -> (checker construction, teardown) of a small ring-3 job.
_JOBS = {
    "bitset": ('make_checker(token_ring.build_token_ring(3), engine="bitset")', ""),
    "bdd": ('make_checker(token_ring.symbolic_token_ring(3), engine="bdd")', ""),
    "bmc": (
        'make_checker(token_ring.symbolic_token_ring(3, domain="free"), engine="bmc", bound=2)',
        "",
    ),
    "ic3": ('make_checker(token_ring.symbolic_token_ring(3, domain="free"), engine="ic3")', ""),
    "portfolio": (
        "PortfolioModelChecker(sources={"
        '"bitset": builder_source(ring, "build_token_ring", 3), '
        '"bdd": builder_source(ring, "symbolic_token_ring", 3)})',
        "checker.close()",
    ),
}


@pytest.mark.parametrize("engine", sorted(_JOBS))
def test_checks_import_nothing_their_checker_did_not(engine):
    construct, teardown = _JOBS[engine]
    result = _probe(
        """
        import json, sys
        from repro.errors import FragmentError, InconclusiveError
        from repro.mc import make_checker
        from repro.runtime.portfolio import PortfolioModelChecker, builder_source
        from repro.systems import token_ring
        ring = token_ring.__name__
        properties, _ = token_ring.ring_family(3)
        checker = %s
        before = MODULES
        verdicts = []
        for formula in properties.values():
            try:
                verdicts.append(checker.check(formula))
            except (FragmentError, InconclusiveError):
                verdicts.append(None)
        grew = sorted(set(MODULES) - set(before))
        %s
        print(json.dumps({"grew": grew, "verdicts": verdicts}))
        """
        % (construct, teardown)
    )
    assert result["grew"] == []
    assert True in result["verdicts"]
    assert False not in result["verdicts"]


def test_portfolio_loads_what_its_workers_import_before_they_fork():
    loaded = _probe(
        """
        import json, sys
        from repro.runtime.portfolio import PortfolioModelChecker, builder_source
        ring = "repro.systems.token_ring"
        before = MODULES
        checker = PortfolioModelChecker(sources={
            "bitset": builder_source(ring, "build_token_ring", 3),
            "ic3": builder_source(ring, "symbolic_token_ring", 3, domain="free"),
        })
        print(json.dumps(sorted(set(MODULES) - set(before))))
        """
    )
    for module in ("repro.mc.indexed", "repro.mc.bitset", "repro.mc.ic3"):
        assert module in loaded, module
    assert "repro.systems.token_ring" in loaded
