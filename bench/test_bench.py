"""Smoke tests for the benchmark.  Run with ``python3 -m pytest bench -q``.

Each workload runs a few requests through the oracle, the oracle rejects
deliberately wrong replies, the tracer reports every per-layer metric and
leaves the package as it found it, and bench/run.py keeps the result
contract recorded in BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

cli = run.load_program()

from contraction_lab.cli import CommandResult  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def answered(name, tmp_path, count, seed=7):
    workload = WORKLOADS[name](seed)
    workload.setup(str(tmp_path))
    requests = workload.cycle(0)[:count]
    return [(r, [cli.run_command(argv) for argv in r.argvs]) for r in requests]


def edited(replies, index, edit):
    """A deep copy of `replies` with `edit` applied to one payload."""
    replies = copy.deepcopy(replies)
    edit(replies[index].payload)
    return replies


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_the_oracle(name, tmp_path):
    oracle = Oracle()
    for request, replies in answered(name, tmp_path, 6):
        assert oracle.check(request, replies) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cycles_depend_only_on_seed_and_index(name, tmp_path):
    first, again, other = WORKLOADS[name](3), WORKLOADS[name](3), WORKLOADS[name](4)
    for workload in (first, again, other):
        os.makedirs(tmp_path / str(id(workload)))
        workload.setup(str(tmp_path / str(id(workload))))

    def shape(workload):
        return [[a for a in argv if not a.endswith(".json")]
                for r in workload.cycle(2) for argv in r.argvs]

    assert shape(first) == shape(again)
    assert shape(first) != shape(other)


def test_oracle_rejects_wrong_search_replies(tmp_path):
    oracle = Oracle()
    request, replies = next((r, rep) for r, rep in answered("search-mix", tmp_path, 40)
                            if rep[0].payload["findings"])

    def extra_fixed_point(payload):
        finding = payload["findings"][0]
        finding["fixed_points"].append(finding["space"]["labels"][0] + "x")

    def wrong_limit(payload):
        outcome = payload["findings"][0]["picard"][0]
        outcome["steps"] += 1

    def wrong_bound(payload):
        finding = payload["findings"][0]
        finding["bound"] = "violated" if finding["bound"] != "violated" else "held"

    for edit in (extra_fixed_point, wrong_limit, wrong_bound):
        assert oracle.check(request, edited(replies, 0, edit)) is not None


def test_oracle_rejects_wrong_interval_replies(tmp_path):
    oracle = Oracle()
    request, replies = next((r, rep) for r, rep in answered("certify-interval", tmp_path, 9)
                            if rep[1].status == "ok")

    def moved_limit(payload):
        payload["rows"][-1]["x_n"] += 1e-3

    def wrong_constant(payload):
        payload["c_alpha"] *= 1.0 + 1e-6

    for edit in (moved_limit, wrong_constant):
        assert oracle.check(request, edited(replies, 1, edit)) is not None

    def chain_flipped(payload):
        for check in payload["applicability"]["checklist"]:
            if check["name"] == "chain_bound_finite":
                check["passed"] = not check["passed"]

    assert oracle.check(request, edited(replies, 0, chain_flipped)) is not None


def test_oracle_rejects_wrong_finite_replies(tmp_path):
    oracle = Oracle()
    pairs = answered("dense-finite", tmp_path, 9)
    request, replies = next((r, rep) for r, rep in pairs
                            if r.kind == "validate" and r.expect["euclidean"])

    def one_more(payload):
        payload["triangle"]["violation_count"] += 1

    def stretched(payload):
        payload["minimal_b"] = 1.01

    for edit in (one_more, stretched):
        assert oracle.check(request, edited(replies, 0, edit)) is not None

    request, replies = next((r, rep) for r, rep in pairs if r.kind == "classify")

    def lost_violation(payload):
        payload["certificate"]["violation_count"] -= 1

    assert oracle.check(request, edited(replies, 0, lost_violation)) is not None


def test_oracle_rejects_error_replies(tmp_path):
    request, _ = answered("search-mix", tmp_path, 1)[0]
    broken = [CommandResult("search", "error", {"error": "ValueError: boom"})]
    assert "error reply" in Oracle().check(request, broken)


@pytest.mark.parametrize("name, expression_calls", [
    ("search-mix", False), ("certify-interval", True), ("dense-finite", False)])
def test_tracer_reports_every_layer_metric(name, expression_calls, tmp_path):
    workload = WORKLOADS[name](5)
    workload.setup(str(tmp_path))
    original = cli.run_command
    tracer = Tracer(time.perf_counter)
    tracer.install()
    try:
        for request in workload.cycle(0)[:4]:
            tracer.requests += 1
            for argv in request.argvs:
                cli.run_command(argv)
    finally:
        tracer.uninstall()
    assert cli.run_command is original
    metrics = tracer.layer_metrics()
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.requests", "trace.overhead_ratio"}
    assert set(metrics) == names
    assert metrics["cli.calls"] == len(workload.cycle(0)[0].argvs)
    assert (metrics["expressions.calls"] > 0) == expression_calls
    assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in LAYERS)
    if name == "search-mix":
        assert metrics["search.instances"] > 0
    tracer.save(str(tmp_path / "spans.npz"))
    assert os.path.getsize(tmp_path / "spans.npz") > 0


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_contract_line(trace, section):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "certify-interval",
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "search-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
