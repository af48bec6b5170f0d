#!/usr/bin/env python3
"""Run one fanalg benchmark workload and print its metrics.

    python3 bench/run.py --workload rep_zoo --seed 1 --seconds 20 --trace 0

One caller in one process runs the workload's operations in a closed loop:
the next operation starts when the previous one has returned.  The program
under test is the `fanalg` package in `src/` of the checkout holding this
file; the run fails, printing no result, when it is missing.

A run:
1. sets up SETUP_REPEATS times (fresh import of fanalg, input generation,
   input files) and reports the median as `setup_s`;
2. runs the loop for `--seconds`, and at least one round and MIN_OPS ops,
   timing each operation and checking its verdict and output digest;
3. with `--trace 1`, replays the first round untraced and then with the
   per-layer tracer installed, and reports the per-layer metrics instead of
   the end-to-end ones;
4. runs the first round of the inputs for REFERENCE_SEED (traced when
   tracing) and compares its digest with reference.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least 10 samples lie beyond p90


def import_fanalg() -> SimpleNamespace:
    """Import every fanalg layer afresh, dropping modules a previous set-up loaded."""
    for name in [n for n in sys.modules if n == "fanalg" or n.startswith("fanalg.")]:
        del sys.modules[name]
    fa = SimpleNamespace(**{name: importlib.import_module(f"fanalg.{name}") for name in tracing.LAYERS})
    where = Path(sys.modules["fanalg"].__file__).resolve().parent
    if where != SRC / "fanalg":
        raise RuntimeError(f"imported fanalg from {where}, expected {SRC / 'fanalg'}")
    return fa


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


class Runner:
    """Runs ops, timing the call and checking the result outside the timing."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, op: workloads.Op, k: int) -> tuple[float, str]:
        if op.before is not None:
            op.before()
        if self.tracer is not None:
            self.tracer.on = True
        t0 = perf_counter()
        try:
            out, exc = op.call(k), None
        except Exception as e:  # an unexpected raise is a failed op, judged by check
            out, exc = None, e
        dt = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.on = False
        ok, record = op.check(out, exc)
        d = workloads.digest(record)
        if op.expect is None:
            op.expect = d
        elif d != op.expect:
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"op {k} failed: {op.label}: {json.dumps(record)[:300]}")
        return dt, d

    def loop(self, ops, seconds: float, min_ops: int) -> list[float]:
        times = []
        start = perf_counter()
        k = 0
        while k < min_ops or perf_counter() - start < seconds:
            dt, _ = self.run(ops[k % len(ops)], k)
            times.append(dt)
            k += 1
        return times

    def replay(self, ops) -> tuple[list[float], str]:
        times, digests = [], []
        for k, op in enumerate(ops):
            dt, d = self.run(op, k)
            times.append(dt)
            digests.append(d)
        return times, workloads.digest(digests)


def end_to_end(times: list[float], setup: list[float], rss: float) -> dict:
    cuts = statistics.quantiles(times, n=10)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (cuts[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def split_checks(workload: str, m: dict, op_time: float) -> list[tuple[str, bool]]:
    """The layer split each workload was designed for, from traced time shares.

    A layer that encloses the others on a workload (algebra, diagram, cli,
    descent) is left out of its comparison, since its time includes theirs.
    """

    def share(group: str) -> float:
        return m[f"layer.{group}.s"][0] / op_time

    def largest(top: str, others: tuple[str, ...]) -> tuple[str, bool]:
        return f"{top} share > {', '.join(others)}", all(share(top) > share(g) for g in others)

    if workload == "corner_roundtrip":
        linalg_calls = sum(v for k, (v, _) in m.items() if k.startswith("linalg.") and k.endswith(".calls"))
        return [("linalg calls == 0", linalg_calls == 0), largest("lattice_laurent", ("fan", "linalg"))]
    if workload == "rep_zoo":
        return [largest("linalg", ("lattice_laurent", "fan", "algebra"))]
    return [
        largest("linalg", ("lattice_laurent", "fan", "serialize", "equivariant")),
        ("lattice_laurent share < 0.10", share("lattice_laurent") < 0.10),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fanalg" / "__init__.py").is_file():
        print(f"error: no fanalg package at {SRC / 'fanalg'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = workloads.WORKLOADS[args.workload]
    expected = json.loads(REFERENCE.read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        setup = []
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            fa = import_fanalg()
            workdir = tmp / f"setup{i}"
            workdir.mkdir()
            ops, round_len = build(fa, args.seed, workdir)
            setup.append(perf_counter() - t0)

        runner = Runner()
        times = runner.loop(ops, args.seconds, max(MIN_OPS, round_len))
        rss = peak_rss_mb()
        metrics = end_to_end(times, setup, rss)
        ref_dir = tmp / "reference"
        ref_dir.mkdir()
        ref_ops, ref_len = build(fa, REFERENCE_SEED, ref_dir)

        split, shares = [], {}
        if args.trace:
            # the same round, warm, untraced and then traced, for the overhead ratio
            untraced, _ = runner.replay(ops[:round_len])
            tracer = tracing.Tracer(fa)
            tracer.install()
            try:
                runner.tracer = tracer
                traced, _ = runner.replay(ops[:round_len])
                layer = tracer.metrics()
                _, ref_digest = runner.replay(ref_ops[:ref_len])
            finally:
                tracer.uninstall()
            layer["trace.overhead_ratio"] = (sum(untraced) / sum(traced), "ratio")
            split = split_checks(args.workload, layer, sum(traced))
            groups = list(tracing.LAYERS) + list(tracing.GROUPS)
            shares = {g: layer[f"layer.{g}.s"][0] / sum(traced) for g in groups}
        else:
            _, ref_digest = runner.replay(ref_ops[:ref_len])
        ref_ok = ref_digest == expected[args.workload]
        if not ref_ok:
            runner.failed += 1
            runner.messages.append(f"reference digest {ref_digest} != {expected[args.workload]} (seed {REFERENCE_SEED})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()} commit {commit()}")
    print(f"samples {len(times)} (timed loop), attempted {runner.attempted}, failed {runner.failed}, "
          f"error_rate {runner.failed / runner.attempted:.6f}, reference digest {'match' if ref_ok else 'MISMATCH'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for msg in runner.messages:
        print("  " + msg)
    if args.trace:
        print("  layer shares of traced op time: " + ", ".join(f"{g} {x:.3f}" for g, x in shares.items()))
        for label, ok in split:
            print(f"  split {args.workload}: {label}: {'holds' if ok else 'FAILS'}")
        metrics = layer
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
