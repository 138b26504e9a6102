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

from percwalk import percolation as perc, walk, wreath

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


def test_every_counter_reads_a_real_call(bench):
    # each counter runs on a real call of its entry point, which the tracer
    # binds by parameter name, so a renamed parameter or a changed result
    # type fails here instead of reading 0
    spec = perc.LatticeSpec(2, 6)
    config = perc.sample_bond_config(spec, 0.8, 1)
    cluster = perc.component_of_origin(config)
    blocks = perc.classify_boxes(config, 4).blocks
    ball = walk.killed_operator_report(cluster, 3, [2]).ball_size
    base = bench.probe.path_base(3)
    kernel = wreath.LamplighterKernel(wreath.build_wreath(base), 0.5)
    calls = {  # counter: (call, the amount it should add)
        "percolation.sample_bond_config.edges":
            (lambda: perc.sample_bond_config(spec, 0.8, 1), spec.n_edges),
        "percolation.component_of_origin.vertices":
            (lambda: perc.component_of_origin(config), cluster.n_vertices),
        "percolation.classify_boxes.blocks": (lambda: perc.classify_boxes(config, 4), len(blocks)),
        "walk.mc_visited_samples.chain_steps":
            (lambda: walk.mc_visited_samples(cluster, [3, 5], 100, 0), 100 * 5),
        "walk.confinement_probability.chain_steps":
            (lambda: walk.confinement_probability(cluster, 2, 6, 100, 0), 100 * 6),
        "walk.survival_probabilities.kernel_steps":
            (lambda: walk.survival_probabilities(cluster, 3, [2, 4]), 4),
        "walk.killed_operator_report.ball_vertices":
            (lambda: walk.killed_operator_report(cluster, 3, [2]), ball),
        "wreath.LamplighterKernel.states":
            (lambda: wreath.LamplighterKernel(wreath.build_wreath(base), 0.5), 3 * 2**3),
        "wreath.return_probability.steps": (lambda: wreath.return_probability(kernel, 7), 7),
    }
    assert {f"{bench.tracer._span_name(owner, attr)}.{key}"
            for owner, attr, counters in bench.tracer.TIMED for key in counters} == set(calls)
    assert len(blocks) and ball and cluster.n_vertices > 1
    tracer = bench.tracer.Tracer()
    tracer.install()
    try:
        for key, (call, want) in calls.items():
            tracer.take()
            call()
            assert tracer.take()[1][key] == want, key
    finally:
        tracer.uninstall()


def test_exact_workload_builds(bench):
    ops, seeds = bench.workloads.build("exact", 0)
    assert [op.name for op in ops] == list(bench.workloads.EXACT_RECIPES) == list(seeds)
    assert all(callable(op.run) and callable(op.check) for op in ops)
