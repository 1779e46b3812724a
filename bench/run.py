#!/usr/bin/env python3
"""Benchmark for contraction-lab: seeded request streams through
``contraction_lab.cli.run_command``, every reply checked by an oracle.

    python3 bench/run.py --workload search-mix --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy, and the run stops with exit code 2
when that source tree is missing.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run (see
bench/README.md).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

sys.path.insert(0, HERE)

from oracle import Oracle  # noqa: E402
from tracing import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}

def load_program():
    """Import the package from this checkout's src/, or return None."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import contraction_lab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        return None
    return cli


def time_import() -> float:
    """Seconds to import the package afresh in this process, where the
    interpreter and numpy are already loaded: the package's own module
    bodies and cached bytecode.  The modules loaded before stay in use."""
    def ours():
        return {name: module for name, module in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}

    loaded = ours()
    for name in loaded:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        importlib.import_module(f"{PACKAGE}.cli")
        return time.perf_counter() - start
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(loaded)


def set_up(name: str, seed: int, workdir: str):
    """One set-up: package import, input generation and the space files in
    `workdir`.  Returns the workload and the seconds it took."""
    import_s = time_import()
    start = time.perf_counter()
    workload = WORKLOADS[name](seed % 2**64)  # numpy seeds must be non-negative
    os.makedirs(workdir)
    workload.setup(workdir)
    return workload, import_s + time.perf_counter() - start


class SetUpTimer:
    """Times SETUP_REPEATS set-ups: the one the run uses, then further
    throw-away ones spread evenly over the timed phase, so that their median
    sees the same spells of a faster or slower machine as the request
    metrics do."""

    def __init__(self, name: str, seed: int, run_dir: str, seconds: float):
        self.name, self.seed, self.run_dir, self.seconds = name, seed, run_dir, seconds
        self.workload, first = set_up(name, seed, os.path.join(run_dir, "setup0"))
        self.times = [first]

    def again(self) -> None:
        workdir = os.path.join(self.run_dir, f"setup{len(self.times)}")
        _, seconds = set_up(self.name, self.seed, workdir)
        shutil.rmtree(workdir)
        self.times.append(seconds)
        gc.collect()

    def between_cycles(self, phase: Phase) -> None:
        due = len(self.times) * self.seconds / SETUP_REPEATS
        if len(self.times) < SETUP_REPEATS and phase.busy_s >= due:
            self.again()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.again()
        return statistics.median(self.times)


def digest(replies) -> bytes:
    """SHA-256 of the replies as sorted-key JSON, the form the CLI prints;
    equal digests stand for byte-identical replies."""
    sha = hashlib.sha256()
    for reply in replies:
        sha.update(json.dumps(reply.to_json(), sort_keys=True).encode())
        sha.update(b"\n")
    return sha.digest()


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # request time: the sum of the latencies
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s


def run_phase(cli, workload, oracle, seconds: float, reference: list, tracer=None,
              between_cycles=None) -> Phase:
    """Send whole cycles, at least one, until `seconds` of request time have
    passed.  Only the requests are timed; oracle checks and `between_cycles`
    run between them.  Replies to cycle 0 must match `reference` byte for
    byte; an empty `reference` is filled instead."""
    phase = Phase()
    fill = not reference
    gc.collect()
    index = 0
    while index == 0 or phase.busy_s < seconds:
        for position, request in enumerate(workload.cycle(index)):
            if tracer is not None:
                tracer.request_id = phase.attempted
                tracer.requests += 1
            replies = []
            problem = None
            start = time.perf_counter()
            try:
                for argv in request.argvs:
                    replies.append(cli.run_command(argv))
            except Exception as exc:  # a raising request is a failed request
                problem = f"{request.kind}: raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            phase.latencies.append(latency)
            phase.busy_s += latency
            phase.attempted += 1
            if problem is None:
                problem = oracle.check(request, replies)
            if problem is None and index == 0:
                if fill:
                    reference.append(digest(replies))
                elif digest(replies) != reference[position]:
                    problem = f"{request.kind}: reply differs from an earlier reply to the same request"
            if problem is not None:
                phase.failed += 1
                phase.problems.append(problem)
                if fill:
                    reference.append(b"")
        index += 1
        if between_cycles is not None:
            between_cycles(phase)
    return phase


def latency_metrics(latencies: list[float]):
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail, percentile = ordered[TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, percentile = ordered[0], 100.0 * (n - 1) / n if n > 1 else 0.0
    return statistics.median(latencies) * 1e3, tail * 1e3, percentile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time to measure (split in half with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    if cli is None:
        print(f"contraction_lab source not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setups = SetUpTimer(args.workload, args.seed, run_dir, args.seconds)
        workload = setups.workload
        oracle = Oracle()
        reference: list[bytes] = []
        warmup = run_phase(cli, workload, oracle, 0.0, reference)
        phases = [warmup]
        if args.trace:
            plain = run_phase(cli, workload, oracle, args.seconds / 2, reference)
            tracer = Tracer(time.perf_counter)
            tracer.install()
            try:
                traced = run_phase(cli, workload, oracle, args.seconds / 2, reference, tracer)
            finally:
                tracer.uninstall()
            phases += [plain, traced]
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_path = os.path.join(TRACE_DIR, f"{args.workload}.npz")
            tracer.save(trace_path)
            values = tracer.layer_metrics()
            values["trace.requests"] = float(tracer.requests)
            values["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
            print(f"spans: {len(tracer.span_name)} written to {trace_path}")
        else:
            timed = run_phase(cli, workload, oracle, args.seconds, reference,
                              between_cycles=setups.between_cycles)
            phases.append(timed)
            p50, tail, percentile = latency_metrics(timed.latencies)
            values = {
                "ops_per_s": timed.ops_per_s(),
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "setup_s": setups.median(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"{len(timed.latencies)} timed requests over {timed.busy_s:.3f} s of request "
                  f"time; latency_p50_ms from {len(timed.latencies)} samples, latency_tail_ms "
                  f"at p{percentile:.2f} ({TAIL_BEYOND} samples beyond it)")
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    for msg in problems[:5]:
        print(f"rejected: {msg}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, {failed} failed, "
          f"error_rate {failed / attempted:.6f}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
