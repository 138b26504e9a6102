"""One small call into each named layer, paying its first-call costs.

Run as a script in a fresh interpreter to measure set-up time: it imports
``percwalk`` (as every ``percwalk <recipe>`` invocation does) and makes the
calls.  The benchmark also calls ``probe`` in-process to warm up before it
times anything.

    python3 perfbench/probe.py percolation walk wreath
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import percwalk.harness  # noqa: F401  (the console entry point imports it)
from percwalk import bounds, isoperimetry, percolation, walk, wreath


def path_base(m: int) -> percolation.ClusterGraph:
    """The path on ``m`` vertices as a base graph, origin at one end."""
    adjacency = [[j for j in (i - 1, i + 1) if 0 <= j < m] for i in range(m)]
    coords = np.array([(x, 0) for x in range(m)])
    return percolation.ClusterGraph(coords, adjacency, 0,
                                    {"d": 2, "n": m, "p": 1.0, "seed": 0})


def probe(layers) -> None:
    if "percolation" in layers:
        config = percolation.sample_bond_config(percolation.LatticeSpec(2, 8), 0.7, 0)
        percolation.component_of_origin(config)
        percolation.largest_cluster(config)
        percolation.classify_boxes(config, 4)
    if "walk" in layers:
        # r = 20 on the full lattice: the first eigensolve of this size pays
        # most of the cold cost that spectral-bracket shows.
        full = percolation.component_of_origin(
            percolation.sample_bond_config(percolation.LatticeSpec(2, 21), 1.0, 0))
        walk.mc_laplace(full, 0.5, [4, 8], 1000, 0)
        walk.confinement_probability(full, 2, 8, 1000, 0)
        walk.killed_operator_report(full, 20, [10])
        walk.exact_visited_distribution(full, 4)
    if "wreath" in layers:
        kernel = wreath.LamplighterKernel(wreath.build_wreath(path_base(3)), 0.5)
        wreath.return_probability(kernel, 4)
    if "isoperimetry" in layers:
        isoperimetry.folner_lower_bound_check(path_base(2), [1])
        isoperimetry.isoperimetric_beta(path_base(4), None, 1.0, 0.125, 3, 1)
    if "bounds" in layers:
        bounds.nash_ode_solve(bounds.NashProfile(d=2, n=2**24, gamma=0.125), 1e3)


if __name__ == "__main__":
    probe(sys.argv[1:])
    # the caller reads the end time from this system-wide clock
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
