"""Configuration parsing, seed derivation, recipe dispatch, CLI behavior."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from percwalk import bounds, cli, walk, wreath
from percwalk.harness import (ExperimentSpec, RECIPES, _hand_built_graphs, _random_graph, _Run,
                              parse_config, run, seed_manifest, small_cluster_collection)
from percwalk import percolation as perc
from conftest import random_graph_scalar


class TestSeedManifest:
    def test_single_chain_matches_derivation(self):
        (got,) = seed_manifest(123, 1)
        want = int(np.random.SeedSequence(entropy=123, spawn_key=(0,))
                   .generate_state(1, np.uint64)[0])
        assert got == want

    def test_disjoint_chains(self):
        seeds = seed_manifest(7, 64)
        assert len(set(seeds)) == 64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seed_manifest(7, 0)

    def test_bit_identical_mc_rerun(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.7, 2)
        cluster = perc.component_of_origin(config)
        (seed,) = seed_manifest(99, 1)
        a = walk.mc_laplace(cluster, 0.5, [5], 2000, seed)
        b = walk.mc_laplace(cluster, 0.5, [5], 2000, seed)
        assert a.entries == b.entries


class TestConfig:
    def test_typing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "alpha = 0.5\n"
            "n_list = 2, 4, 8\n"
            "label = quick  # trailing comment\n"
            "flag = true\n"
            "\n"
            "seeds = 3\n")
        params = parse_config(path)
        assert params == {"alpha": 0.5, "n_list": [2, 4, 8],
                          "label": "quick", "flag": True, "seeds": 3}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("does-not-exist")


class TestGraphCollections:
    def test_hand_built(self):
        names = [name for name, _ in _hand_built_graphs()]
        assert names == ["path-2", "path-3", "path-4", "star-3",
                         "cycle-4", "cycle-6"]
        for _, g in _hand_built_graphs():
            g.validate()

    def test_small_cluster_collection(self):
        collection = small_cluster_collection()
        assert len(collection) == 40
        for name, g in collection:
            assert 2 <= g.n_vertices <= 6
            g.validate()


class TestPruningGraphs:
    @pytest.mark.parametrize("nv", range(6, 20))
    def test_random_graph_draws_as_scalar_calls(self, nv):
        # the same lists and the same next draw: the recipe's stream is unchanged
        for seed in range(5):
            fast, slow = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
            p_edge = 0.2 + 0.15 * seed
            assert _random_graph(fast, nv, p_edge) == random_graph_scalar(slow, nv, p_edge)
            assert fast.random() == slow.random()


class TestRun:
    def test_identity_sweep_quick(self, tmp_path):
        spec = ExperimentSpec("identity-sweep",
                              {"n_max": 2, "alphas": [0.5]}, tmp_path)
        report = run(spec)
        assert report.passed
        assert (tmp_path / "identity.csv").exists()
        header = (tmp_path / "identity.csv").read_text().splitlines()[0]
        assert header == "base_id,base_size,alpha,n,lhs,rhs,gap"
        assert (tmp_path / "report.txt").exists()

    def test_nash_csv_reads_back_as_floats(self, tmp_path):
        run(ExperimentSpec("nash-curve", {"d_list": [2]}, tmp_path))
        lines = (tmp_path / "nash_d2.csv").read_text().splitlines()
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        prof = bounds.NashProfile(d=2, n=2**24, gamma=0.125)
        sol = bounds.nash_ode_solve(prof, 1e7)
        assert len(rows) == sol.t.size
        assert rows[0] == (sol.t[0], sol.L[0])
        assert rows[-1] == (sol.t[-1], sol.L[-1])

    def test_report_regenerates_bit_identically(self, tmp_path):
        spec = ExperimentSpec("identity-sweep", {"n_max": 1, "alphas": [0.3]})
        a = run(spec)
        b = run(ExperimentSpec("identity-sweep", {"n_max": 1, "alphas": [0.3]}))
        strip = lambda r: [l for l in r.summary_lines()
                           if not l.startswith("  wall_clock")]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("recipe, checks", [("identity-sweep", 0), ("lemma45", 5)])
    def test_one_exact_sweep_per_recipe(self, monkeypatch, recipe, checks):
        # one sweep to 2 * n_max over the whole collection, where one per
        # cluster made 40 and one per n made 200 (identity-sweep) and 206
        # (lemma45); lemma45 adds one per doubling check on the full lattice,
        # before it
        sweeps = []
        merged = walk._merged_state_laws
        monkeypatch.setattr(walk, "_merged_state_laws", lambda clusters, horizons:
                            sweeps.append(horizons) or merged(clusters, horizons))
        run(ExperimentSpec(recipe, {}))
        assert len(sweeps) == 1 + checks
        assert sweeps[-1] == [10] * len(small_cluster_collection())

    def test_unread_param_named(self, tmp_path):
        spec = ExperimentSpec("nash-curve", {"t_mx": 10.0, "d_list": [2]}, tmp_path)
        with pytest.raises(ValueError, match=r"\['t_mx'\]"):
            run(spec)
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("recipe, params, key, loose", [
        ("identity-sweep", {"n_max": 1, "alphas": [0.5]}, "tol", 1.0),
        ("exponent-fit", {"p_list": [1.0], "box_n": 5, "n_list": [2, 3, 4], "samples": 100},
         "slope_band", [0, 1]),
        ("isoperimetry-small", {"box_n": 1, "seeds": 1}, "oracle_limit", 0),
    ], ids=["identity-sweep-tol", "exponent-fit-slope_band", "isoperimetry-small-oracle_limit"])
    def test_no_config_key_loosens_an_assertion(self, tmp_path, recipe, params, key, loose):
        # the thresholds are constants: a config that sets one names it as unread
        with pytest.raises(ValueError, match=rf"does not read param \['{key}'\]"):
            run(ExperimentSpec(recipe, {**params, key: loose}, tmp_path))
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("recipe", ["identity-sweep", "folner-wreath",
                                        "lemma45", "nash-curve"])
    def test_seedless_recipe_accepts_seed(self, recipe):
        # the benchmark hands every recipe a seed
        report = run(ExperimentSpec(recipe, {"seed": 3}))
        assert report.spec.params == {"seed": 3}

    @pytest.mark.parametrize("recipe", ["confinement", "exponent-fit", "spectral-bracket",
                                        "isoperimetry-small", "pruning-property",
                                        "renorm-field"])
    def test_seeded_recipe_has_no_hidden_seed(self, recipe):
        # run fills the seed from DEFAULT_SEEDS, the one table of defaults
        with pytest.raises(KeyError, match="seed"):
            RECIPES[recipe](_Run({}, None))

    def test_all_recipes_registered(self):
        assert sorted(RECIPES) == sorted([
            "identity-sweep", "isoperimetry-small", "folner-wreath",
            "pruning-property", "spectral-bracket", "confinement",
            "nash-curve", "exponent-fit", "lemma45", "renorm-field"])


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text("n_max = 1\nalphas = 0.5,\n")
        code = cli.main(["identity-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out
        assert (tmp_path / "out" / "report.txt").exists()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n_mx = 1\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["identity-sweep", "--config", str(cfg)])
        assert exit_info.value.code != 0
        assert "n_mx" in capsys.readouterr().err

    def test_scalar_reads_as_a_one_element_list(self, tmp_path, capsys):
        checks = []
        for value in ("0.5", "0.5,"):  # with and without the trailing comma
            cfg = tmp_path / "alphas.cfg"
            cfg.write_text(f"n_max = 1\nalphas = {value}\n")
            assert cli.main(["identity-sweep", "--config", str(cfg)]) == 0
            checks.append([ln for ln in capsys.readouterr().out.splitlines() if "[PASS]" in ln])
        assert checks[0] == checks[1] and "over 40 cases" in checks[0][0]

    def test_unsupported_dimension_exits_with_the_supported_ones(self, tmp_path, capsys):
        cfg = tmp_path / "d4.cfg"
        cfg.write_text("d_list = 4\n")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["nash-curve", "--config", str(cfg)])
        assert exit_info.value.code == 2
        assert "nash-curve supports d_list within [2, 3], got [4]" in capsys.readouterr().err

    def test_unknown_recipe_exits_nonzero(self):
        with pytest.raises(SystemExit):
            cli.main(["no-such-recipe"])


@pytest.mark.parametrize("name", ["percolation", "walk", "wreath", "isoperimetry",
                                  "bounds", "harness"])
def test_public_surface(name):
    # __all__ lists every public function and class the module defines, and
    # may add constants; a star import brings all of it
    namespace = {}
    exec(f"from percwalk.{name} import *", namespace)
    module = importlib.import_module(f"percwalk.{name}")
    assert set(module.__all__) <= set(namespace)
    defined = {key for key, value in vars(module).items() if not key.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    exported = {key for key in module.__all__
                if inspect.isfunction(namespace[key]) or inspect.isclass(namespace[key])}
    assert sorted(exported) == sorted(defined)


def _bench_tracer():
    """``perfbench/tracer.py``, loaded from the source checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_traced_entry_points_exist(self):
        tracer = _bench_tracer()
        hooks = [entry[:2] for entry in
                 tracer.TIMED + tracer.COUNTED_CALLS + tracer.COUNTED_YIELDS]
        missing = [tracer._span_name(owner, attr) for owner, attr in hooks
                   if getattr(owner, attr, None) is None]
        # the one known gap: the yields hook still names the deleted
        # list-based subset engine (ROADMAP item 7 re-points it)
        assert missing == [tracer._span_name(owner, attr)
                           for owner, attr, _ in tracer.COUNTED_YIELDS]

    def test_traced_lamplighter_counters(self, k2):
        tracer = _bench_tracer()
        t = tracer.Tracer()
        t.install()
        try:
            kernel = wreath.LamplighterKernel(wreath.build_wreath(k2), 0.5)
            wreath.return_probability(kernel, 4)
        finally:
            t.uninstall()
        _, counts = t.take()
        assert counts["wreath.LamplighterKernel.states"] == 8
        assert counts["wreath.return_probability.steps"] == 4

    def test_traced_monte_carlo_over_threads(self, monkeypatch):
        # helper threads walk chunks but call no traced entry point
        monkeypatch.setattr(walk.os, "sched_getaffinity", lambda pid: {0, 1})
        cluster = perc.component_of_origin(
            perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.7, 2))
        samples = 2 * walk._CHUNK + 3
        tracer = _bench_tracer()
        t = tracer.Tracer()
        t.install()
        try:
            walk.mc_visited_samples(cluster, [3, 7], samples, 1)
        finally:
            t.uninstall()
        _, counts = t.take()
        assert counts["walk.mc_visited_samples.chain_steps"] == samples * 7
        assert counts["walk.mc_visited_samples.calls"] == 1
        assert t._open == []
