"""Recipe-level benchmark of percwalk.

    python3 perfbench/run.py --workload {sim,exact,scale} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One run measures set-up time in fresh interpreters, builds the
workload's operations from the seed, warms every layer up, then repeats
warm passes over the workload for about ``--seconds`` seconds, checking
every output.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
LAYER_NAMES = ("percolation", "walk", "wreath", "isoperimetry", "bounds", "harness")


def cap_blas_threads() -> int:
    """Set the BLAS thread count, for this process and its children.

    One thread unless the environment asks for more, and never more than
    nproc: operations run one at a time, and a BLAS thread waiting for a
    core taken by another process stalls a whole eigensolve for seconds.
    """
    asked = [int(os.environ[var]) for var in BLAS_VARS if os.environ.get(var)]
    threads = max(1, min(min(asked, default=1), NPROC))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


BLAS_THREADS = cap_blas_threads()   # before numpy is first imported
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def provenance(workload: str, seed: int, seeds: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "percwalk").glob("*.py")))
    return {"workload": workload, "seed": seed, "seeds_passed": seeds,
            "seedless_recipes": [r for r in workloads.SEEDLESS_RECIPES if r in seeds],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": NPROC,
            "blas_threads": BLAS_THREADS, "src_lines": src_lines}


def setup_seconds(layers) -> float:
    """Seconds from spawning a fresh interpreter that imports percwalk and
    probes the layers until its last call returns (it prints that time)."""
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("probe.py")),
                           *layers], check=True, timeout=120, cwd=ROOT,
                          capture_output=True, text=True)
    return (int(done.stdout.split()[-1]) - start) / 1e9


class Runner:
    """Runs passes over a workload's operations and tallies their outcomes."""

    def __init__(self, ops, tracer: Tracer | None = None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def run_op(self, op):
        if self.tracer is not None and op.name in workloads.harness.RECIPES:
            return self.tracer.span(f"harness.{op.name}", op.run)
        return op.run()

    def one_pass(self) -> tuple[float, dict]:
        """Seconds of the whole pass, and of each operation."""
        op_s = {}
        for op in self.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.run_op(op)
                op_s[op.name] = time.perf_counter() - start
                reason = op.check(out)
            except Exception as exc:  # a failing operation is counted, not fatal
                op_s.setdefault(op.name, time.perf_counter() - start)
                reason = f"raised {exc!r}"
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")
        return sum(op_s.values()), op_s

    def passes(self, budget: float, on_pass=None) -> list:
        """Warm passes until ``budget`` seconds are spent (at least MIN_PASSES).

        Another pass starts only while at least half of one fits in what is left.
        """
        out = []
        spent = 0.0
        while len(out) < MIN_PASSES or spent + statistics.median(
                w for w, _ in out) / 2 < budget:
            wall, op_s = self.one_pass()
            out.append((wall, op_s))
            spent += wall
            if on_pass is not None:
                on_pass()
        return out


def op_medians(passes) -> dict:
    return {name: statistics.median(p[1][name] for p in passes) for name in passes[0][1]}


def end_to_end(ops, layers, seconds) -> tuple[dict, Runner]:
    setup = []

    def sample_setup():
        # spread over the run, so that one slow spell of a shared machine
        # does not set every sample
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_seconds(layers))
    sample_setup()
    probe.probe(layers)
    runner = Runner(ops)
    passes = runner.passes(seconds, on_pass=sample_setup)
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    walls = [w for w, _ in passes]
    print(f"setup_s samples: {[round(t, 4) for t in setup]}")
    print(f"wall_s samples ({len(walls)} warm passes): {[round(w, 4) for w in walls]}")
    for name, value in op_medians(passes).items():
        kind = "recipe" if name in workloads.harness.RECIPES else "job"
        print(f"{kind}.{name}_s {value:.4f} s (median of {len(walls)})")
    print(f"fail_frac {len(runner.failures)}/{runner.attempted}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
    }, runner


def per_layer(ops, layers, seconds, names) -> tuple[dict, Runner]:
    probe.probe(layers)
    runner = Runner(ops)
    tracer = Tracer()
    samples = []

    def toggle():
        # Untraced and traced passes alternate, so that drift in the speed
        # of a shared machine reaches both alike.
        if runner.tracer is None:
            tracer.install()
            runner.tracer = tracer
        else:
            tracer.uninstall()
            runner.tracer = None
            samples.append(tracer.take())
    try:
        passes = runner.passes(seconds, on_pass=toggle)
    finally:
        if runner.tracer is not None:
            tracer.uninstall()
    plain, traced = passes[0::2], passes[1::2]

    per_pass = []
    for (wall, _), (self_s, counts) in zip(traced, samples):
        row = dict(counts)
        for name, value in self_s.items():
            row[f"{name}.self_s"] = value
        for layer in LAYER_NAMES:
            row[f"{layer}.self_s"] = sum((v for k, v in self_s.items()
                                          if k.startswith(layer + ".")), 0.0)
        row["trace.wall_s"] = wall
        row["trace.unattributed_s"] = wall - sum(self_s.values())
        per_pass.append(row)

    def median(name):
        return statistics.median(row.get(name, 0.0) for row in per_pass)

    def rate(work, busy):
        return median(work) / median(busy) if median(busy) > 0 else 0.0

    plain_medians = op_medians(plain)
    derived = {
        "percolation.component_of_origin.vertices_per_s": rate(
            "percolation.component_of_origin.vertices",
            "percolation.component_of_origin.self_s"),
        "walk.mc_visited_samples.chain_steps_per_s": rate(
            "walk.mc_visited_samples.chain_steps", "walk.mc_visited_samples.self_s"),
        "trace.overhead_s": median("trace.wall_s") - statistics.median(w for w, _ in plain),
    }
    for recipe in workloads.SIM_RECIPES + workloads.EXACT_RECIPES:
        derived[f"recipe.{recipe}_s"] = plain_medians.get(recipe, 0.0)
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
    print("layer self_s + harness.self_s = "
          f"{sum(median(f'{layer}.self_s') for layer in LAYER_NAMES):.4f} s "
          f"of traced wall_s {median('trace.wall_s'):.4f} s")
    return {**{name: median(name) for name in names}, **derived}, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.LAYERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]
    layers = workloads.LAYERS[args.workload]

    ops, seeds = workloads.build(args.workload, args.seed)
    print("provenance " + json.dumps(provenance(args.workload, args.seed, seeds)))
    if args.trace:
        values, runner = per_layer(ops, layers, args.seconds, [m["name"] for m in wanted])
    else:
        values, runner = end_to_end(ops, layers, args.seconds)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for op in ops:
        for name in sorted(workloads.FINDINGS.get(op.name, ())):
            print(f"finding {op.name}: [FAIL] {name} (documented, checked every pass)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:52s} {metrics[m['name']]['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
