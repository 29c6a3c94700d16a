"""The benchmark's job mixes and the hand-written reference verdicts.

A job is one verification request, "check this family at this size with
this engine", as ``repro-mc`` runs it.  Each workload is a fixed job list;
the benchmark seed only permutes its order.  Why each mix exists is in
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json


def job(engine, system, size, fairness=False, buggy=False, workers=None):
    return {
        "engine": engine,
        "system": system,
        "size": size,
        "fairness": fairness,
        "buggy": buggy,
        "workers": workers,
    }


def cli_args(spec):
    """The ``repro-mc`` flags that run the same check as ``spec``."""
    args = ["--engine", spec["engine"], "--system", spec["system"]]
    args += ["--size", str(spec["size"])]
    if spec["fairness"]:
        args.append("--fairness")
    if spec["buggy"]:
        args.append("--buggy")
    if spec["workers"] is not None:
        args += ["--workers", str(spec["workers"])]
    return args


def label(spec):
    """A short row name, e.g. ``bdd ring-12 fair``."""
    text = "%s %s%s-%d" % (
        spec["engine"],
        "buggy " if spec["buggy"] else "",
        spec["system"],
        spec["size"],
    )
    return text + (" fair" if spec["fairness"] else "")


# ``bmc`` on correct ring and mutex is left out of every mix: k-induction
# cannot close those invariants, so it runs until its budget (ring r=8
# spent a whole 20 s --timeout; mutex n=8 ran for more than 5 minutes), and
# a timing pinned to a budget measures nothing.
WORKLOADS = {
    "small-checks": [
        job("bitset", "ring", 3),
        job("bitset", "ring", 6),
        job("bitset", "ring", 8),
        job("bitset", "ring", 5, fairness=True),
        job("bitset", "ring", 7, fairness=True),
        job("bitset", "ring", 5, buggy=True),
        job("bitset", "ring", 6, buggy=True),
        job("bitset", "mutex", 4),
        job("bitset", "mutex", 6, fairness=True),
        job("bitset", "mutex", 6, buggy=True),
        job("bitset", "counter", 8),
        job("bitset", "counter", 10, buggy=True),
    ],
    "symbolic-large": [
        job("bdd", "ring", 12, fairness=True),
        job("bdd", "ring", 14),
        job("bdd", "ring", 10, buggy=True),
        job("bdd", "counter", 14),
        job("bdd", "mutex", 12, fairness=True),
    ],
    "sat-proofs": [
        job("ic3", "mutex", 10),
        job("ic3", "mutex", 12),
        job("ic3", "ring", 6),
        job("ic3", "ring", 8),
        job("ic3", "counter", 18),
        job("ic3", "ring", 8, buggy=True),
        job("bmc", "ring", 12, buggy=True),
        job("bmc", "ring", 16, buggy=True),
        job("bmc", "mutex", 8, buggy=True),
    ],
    "portfolio-race": [
        job("portfolio", "ring", 6, workers=2),
        job("portfolio", "ring", 8, workers=2),
        job("portfolio", "ring", 6, buggy=True, workers=2),
        job("portfolio", "mutex", 6, workers=2),
        job("portfolio", "counter", 8, workers=2),
    ],
}

#: The layer each mix is predicted to spend most self time in.
PREDICTED_LAYER = {
    "small-checks": ("import", "systems"),
    "symbolic-large": ("bdd",),
    "sat-proofs": ("sat",),
    "portfolio-race": ("runtime",),
}

_RING = (
    "property token_only_on_request",
    "property critical_implies_token",
    "property request_until_token",
    "property eventual_entry",
    "invariant request_persistence",
    "invariant one_token",
    "invariant mutual_exclusion",
    "fair liveness eventual_token",
)

#: Expected verdict per (system, buggy) and property, written by hand: every
#: property of a correct system holds; each seeded bug breaks exactly the
#: safety properties named here.
REFERENCE = {
    ("ring", False): {name: True for name in _RING},
    ("ring", True): {
        name: name not in ("invariant one_token", "invariant mutual_exclusion")
        for name in _RING
        if not name.startswith("fair")
    },
    ("mutex", False): {
        "invariant mutual_exclusion": True,
        "fair liveness eventual_entry": True,
    },
    ("mutex", True): {"invariant mutual_exclusion": False},
    ("counter", False): {"invariant nonzero": True},
    ("counter", True): {"invariant nonzero": False},
}


def expected(spec, name):
    """The reference verdict of property ``name`` on the job's system."""
    return REFERENCE[(spec["system"], spec["buggy"])][name]


def digest(workload):
    """SHA-256 prefix of the workload's canonical job list."""
    text = json.dumps(WORKLOADS[workload], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
