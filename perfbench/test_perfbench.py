"""Tests of the benchmark itself: reference verdicts, CLI parity, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import job  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ALL_JOBS = [spec for jobs in workloads.WORKLOADS.values() for spec in jobs]


def _smallest(system, buggy):
    return min(
        spec["size"]
        for spec in ALL_JOBS
        if spec["system"] == system and spec["buggy"] == buggy
    )


@pytest.mark.parametrize("system, buggy", sorted(workloads.REFERENCE))
def test_reference_table_matches_bitset_oracle(system, buggy):
    size = _smallest(system, buggy)
    fairness_modes = [False]
    if any(name.startswith("fair") for name in workloads.REFERENCE[(system, buggy)]):
        fairness_modes.append(True)
    for fairness in fairness_modes:
        spec = workloads.job("bitset", system, size, fairness=fairness, buggy=buggy)
        props, constraint = job.family(system, size, fairness)
        checker = job.make_checker(spec, job.build(spec), constraint)
        for name, formula in props.items():
            assert checker.check(formula) == workloads.expected(spec, name), name


def test_reference_table_covers_every_job():
    for spec in ALL_JOBS:
        props, _ = job.family(spec["system"], spec["size"], spec["fairness"])
        for name in props:
            workloads.expected(spec, name)  # raises KeyError when missing


def _cli_verdicts(spec):
    """The verdict column of ``repro-mc``'s table for the same check."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *workloads.cli_args(spec)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = done.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("  check "))
    verdicts = {}
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        word = line[37:].split()[0]
        verdicts[line[2:36].strip()] = {
            "skipped": "skipped",
            "INCONCLUSIVE": "inconclusive",
            "BUDGET": "budget",
            "CRASHED": "crashed",
        }.get(word, word)
    return verdicts


#: The cheapest job of each workload (sat-proofs: one with skipped rows).
PARITY_JOBS = [
    workloads.job("bitset", "ring", 3),
    workloads.job("bdd", "mutex", 12, fairness=True),
    workloads.job("bmc", "ring", 12, buggy=True),
    workloads.job("portfolio", "counter", 8, workers=2),
]


@pytest.mark.parametrize("spec", PARITY_JOBS, ids=workloads.label)
def test_job_runner_prints_the_cli_verdict_table(spec):
    assert any(spec == other for other in ALL_JOBS)
    assert run.run_job(spec)["verdicts"] == _cli_verdicts(spec)


def test_traced_job_reports_every_per_layer_metric(tmp_path):
    spec = workloads.job("bitset", "ring", 3)
    untraced = [[run.run_job(spec)]]
    traced = [[run.run_job(spec, str(tmp_path))]]
    metrics, layers = run.per_layer(untraced, traced)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["kripke.states"] > 0
    assert {"import", "systems", "mc", "process"} <= set(layers)
    json.dumps(metrics)
