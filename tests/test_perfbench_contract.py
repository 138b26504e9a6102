"""What the benchmark scripts in ``perfbench/`` use of the library still works.

The scripts are loaded from the source checkout as they are: ``probe`` builds
its base graphs through the neighbour-list constructor, ``workloads`` reads
``ClusterGraph.adjacency`` in its eigenvalue oracle, and ``tracer`` patches
the entry points it names.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from percwalk import percolation as perc, walk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = ("probe", "tracer", "workloads")  # workloads imports probe by name


@pytest.fixture(scope="module")
def bench():
    saved = {name: sys.modules.get(name) for name in SCRIPTS}
    try:
        modules = {}
        for name in SCRIPTS:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
        yield SimpleNamespace(**modules)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_probe_runs_every_layer(bench):
    bench.probe.probe(("percolation", "walk", "wreath", "isoperimetry", "bounds"))


def test_probe_base_goes_through_the_list_constructor(bench):
    base = bench.probe.path_base(4)
    assert base.adjacency == [[1], [0, 2], [1, 3], [2]]
    assert base.csr[0].tolist() == [0, 1, 3, 5, 6]
    assert base.csr[1].tolist() == [1, 0, 2, 1, 3, 2]


@pytest.mark.parametrize("n,p,seed,r", [(5, 1.0, 0, 4), (6, 0.7, 3, 4)])
def test_killed_oracle_agrees_with_the_walk_layer(bench, n, p, seed, r):
    cluster = perc.component_of_origin(perc.sample_bond_config(perc.LatticeSpec(2, n), p, seed))
    want = walk.killed_operator_report(cluster, r, [0]).lambda1
    assert abs(bench.workloads._killed_lambda1(cluster, r) - want) <= 1e-9


def test_every_timed_entry_point_resolves(bench):
    missing = [bench.tracer._span_name(owner, attr) for owner, attr, _ in bench.tracer.TIMED
               if getattr(owner, attr, None) is None]
    assert not missing


def test_exact_workload_builds(bench):
    ops, seeds = bench.workloads.build("exact", 0)
    assert [op.name for op in ops] == list(bench.workloads.EXACT_RECIPES) == list(seeds)
    assert all(callable(op.run) and callable(op.check) for op in ops)
