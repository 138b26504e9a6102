"""Walk sampling, visited counts, exact/MC Laplace estimators, killed walk."""

from __future__ import annotations

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from percwalk import percolation as perc, walk
from conftest import (bfs_oracle, killed_lambda1_oracle, laplace_oracle, make_graph,
                      mc_counts_oracle, uniform_paths_oracle, visited_dist_oracle)


def full_lattice(n: int, d: int = 2) -> perc.ClusterGraph:
    config = perc.sample_bond_config(perc.LatticeSpec(d, n), 1.0, 0)
    return perc.component_of_origin(config)


def sampled_cluster(n: int, p: float, seed: int) -> perc.ClusterGraph:
    config = perc.sample_bond_config(perc.LatticeSpec(2, n), p, seed)
    return perc.component_of_origin(config)


class TestSimulateWalk:
    def test_single_edge_alternates(self, k2):
        path = walk.simulate_walk(k2, 6, 1)
        assert list(path.steps) == [0, 1, 0, 1, 0, 1, 0]

    def test_single_vertex_rejects_steps(self):
        lone = perc.component_of_origin(perc.BondConfiguration(
            perc.LatticeSpec(2, 1), 0.01, 0, np.zeros(4 + 8, dtype=bool)))
        assert walk.simulate_walk(lone, 0, 3).steps == (0,)
        with pytest.raises(ValueError):
            walk.simulate_walk(lone, 1, 3)

    def test_steps_follow_edges(self):
        cluster = sampled_cluster(4, 0.7, 5)
        path = walk.simulate_walk(cluster, 50, 17)
        for a, b in zip(path.steps, path.steps[1:]):
            assert b in cluster.adjacency[a]

    def test_interior_directions_uniform(self):
        cluster = full_lattice(60)
        path = walk.simulate_walk(cluster, 40000, 12345)
        counts = {}
        for a, b in zip(path.steps, path.steps[1:]):
            if len(cluster.adjacency[a]) == 4:
                move = tuple(cluster.coords[b] - cluster.coords[a])
                counts[move] = counts.get(move, 0) + 1
        total = sum(counts.values())
        sigma = np.sqrt(total * 0.25 * 0.75)
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c - total / 4) <= 3 * sigma

    def test_reproducible(self):
        cluster = sampled_cluster(4, 0.7, 5)
        a = walk.simulate_walk(cluster, 30, 9)
        b = walk.simulate_walk(cluster, 30, 9)
        assert a.steps == b.steps


class TestVisitedCount:
    def test_trivial_paths(self):
        assert walk.visited_count(walk.WalkPath((0,), 0)) == 1
        assert walk.visited_count(walk.WalkPath((0, 1, 0, 1), 0)) == 2

    def test_matches_recount(self):
        cluster = sampled_cluster(4, 0.7, 5)
        path = walk.simulate_walk(cluster, 10, 3)
        seen = {}
        for v in path.steps:
            seen[v] = True
        assert walk.visited_count(path) == len(seen)


class TestExactLaplace:
    def test_zero_steps(self, path3):
        assert walk.exact_laplace(path3, 0.37, 0) == pytest.approx(0.37)

    def test_full_lattice_two_steps(self):
        cluster = full_lattice(2)
        value = walk.exact_laplace(cluster, 0.5, 2)
        assert value == pytest.approx(0.25 * 0.5**2 + 0.75 * 0.5**3)
        assert value == pytest.approx(0.15625)

    def test_alpha_one_normalizes(self, path3):
        for n in range(5):
            assert walk.exact_laplace(path3, 1.0, n) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_n_and_alpha(self, path3):
        values = [walk.exact_laplace(path3, 0.5, n) for n in range(5)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        in_alpha = [walk.exact_laplace(path3, a, 3) for a in (0.2, 0.5, 0.8)]
        assert in_alpha == sorted(in_alpha)

    def test_pinned_odd_steps_bipartite(self, path3):
        assert walk.exact_laplace(path3, 0.5, 3, pinned=True) == 0.0

    def test_against_dfs_oracle(self):
        graphs = [
            make_graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)]),
            make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0)]),
            make_graph([(0, 0), (1, 0), (-1, 0), (0, 1)],
                       [(0, 1), (0, 2), (0, 3)]),
        ]
        for g in graphs:
            for n in range(5):
                for alpha in (0.3, 0.7):
                    for pinned in (False, True):
                        assert walk.exact_laplace(g, alpha, n, pinned) == \
                            pytest.approx(laplace_oracle(g, alpha, n, pinned),
                                          abs=1e-12)

    def test_box_cluster_against_oracle(self):
        cluster = full_lattice(3)
        for n in range(4):
            got = walk.exact_visited_distribution(cluster, n)
            want = visited_dist_oracle(cluster, n)
            assert set(got) == set(want)
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-12)

    def test_uniform_paths_against_dict_tally(self):
        # g = 4: every value is a dyadic fraction, held exactly
        square = full_lattice(7)
        for n in range(8):
            got = walk._uniform_path_distribution(square, n, walk.DEFAULT_BUDGET)
            want = uniform_paths_oracle(square, n)
            assert list(got.items()) == [(k, float(v)) for k, v in want.items()]
        # g = 6: same keys in the same order, values within one rounding
        cube = full_lattice(5, d=3)
        for n in range(6):
            got = walk._uniform_path_distribution(cube, n, walk.DEFAULT_BUDGET)
            want = uniform_paths_oracle(cube, n)
            assert list(got) == list(want)
            for key, value in want.items():
                assert abs(Fraction(got[key]) - value) <= value * Fraction(1, 2**52)

    def test_budget_guard(self):
        cluster = full_lattice(30)
        with pytest.raises(walk.BudgetExceededError) as err:
            walk.exact_laplace(cluster, 0.5, 40, budget=10**6)
        assert err.value.needed > err.value.budget


class TestMonteCarlo:
    def test_alpha_one_exact(self, path3):
        series = walk.mc_laplace(path3, 1.0, [3], 500, 4)
        (_, value, stderr, method), = series.entries
        assert value == 1.0 and stderr == 0.0 and method == "monte_carlo"

    def test_zero_steps_exact(self, path3):
        series = walk.mc_laplace(path3, 0.6, [0], 500, 4)
        (_, value, stderr, _), = series.entries
        assert value == pytest.approx(0.6) and stderr == 0.0

    def test_single_vertex_counts_one(self):
        g = make_graph([(0, 0)], [])
        counts = walk.mc_visited_samples(g, [0, 3], 5, 1)
        assert {n: c.tolist() for n, c in counts.items()} == {0: [1] * 5, 3: [1] * 5}

    def test_agrees_with_exact(self):
        cluster = sampled_cluster(3, 0.7, 2)
        series = walk.mc_laplace(cluster, 0.5, [6], 40000, 77)
        (_, value, stderr, _), = series.entries
        exact = walk.exact_laplace(cluster, 0.5, 6)
        assert abs(value - exact) <= 4 * stderr

    def test_bit_identical_reruns(self):
        cluster = sampled_cluster(3, 0.7, 2)
        a = walk.mc_laplace(cluster, 0.5, [4, 8], 3000, 5)
        b = walk.mc_laplace(cluster, 0.5, [4, 8], 3000, 5)
        assert a.entries == b.entries

    def test_series_csv_schema(self, path3):
        series = walk.mc_laplace(path3, 0.5, [2, 4], 100, 1)
        buf = io.StringIO()
        series.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,value,stderr,method,alpha,p,d,seed"
        assert len(lines) == 3

    def test_series_validation(self):
        with pytest.raises(ValueError):
            walk.WalkSeries([(2, 0.5, 0.0, "exact"), (1, 0.5, 0.0, "exact")],
                            0.5, 1.0, 2, 0)
        with pytest.raises(ValueError):
            walk.WalkSeries([(1, 1.5, 0.0, "exact")], 0.5, 1.0, 2, 0)
        with pytest.raises(ValueError):
            walk.WalkSeries([(1, 0.5, 0.1, "exact")], 0.5, 1.0, 2, 0)


def oracle_counts(cluster, n_list, samples, seed, chains) -> dict:
    sets = mc_counts_oracle(cluster, n_list, samples, seed, chains)
    return {n: [len(s) for s in per_chain] for n, per_chain in sets.items()}


def reversed_path(m: int) -> perc.ClusterGraph:
    """Path on m vertices whose origin (its least coordinate) is vertex m - 1,
    so the origin owns the highest bit of the radius-(m - 1) ball."""
    return make_graph([(m - 1 - i, 0) for i in range(m)],
                      [(i, i + 1) for i in range(m - 1)])


class TestMonteCarloStream:
    """Counts equal, chain for chain, a plain-Python walk on the same stream."""

    def test_mask_path_matches_oracle(self):
        cluster = sampled_cluster(3, 0.7, 2)
        assert walk._reachable_ball(cluster, 8)[0].size <= 64
        counts = walk.mc_visited_samples(cluster, [2, 5, 8], 1500, 11)
        assert {n: c.tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, [2, 5, 8], 1500, 11, range(1500))

    def test_sort_path_matches_oracle(self):
        cluster = full_lattice(6)
        assert walk._reachable_ball(cluster, 8)[0].size > 64
        counts = walk.mc_visited_samples(cluster, [3, 8], 800, 12)
        assert {n: c.tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, [3, 8], 800, 12, range(800))

    @pytest.mark.parametrize("m", [64, 65])
    def test_ball_of_64_and_65_vertices(self, m):
        cluster = reversed_path(m)
        n_max = m - 1
        assert walk._reachable_ball(cluster, n_max)[0].size == m
        counts = walk.mc_visited_samples(cluster, [1, n_max], 400, 13)
        assert {n: c.tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, [1, n_max], 400, 13, range(400))

    def test_ball_of_64_vertices_is_not_sorted(self, monkeypatch):
        # the sort path counts distinct sites with count_nonzero, the mask path never
        small, large = reversed_path(64), reversed_path(65)

        def no_sort_count(*args, **kwargs):
            raise AssertionError("sort-path count")
        monkeypatch.setattr(walk.np, "count_nonzero", no_sort_count)
        walk.mc_visited_samples(small, [63], 10, 0)
        with pytest.raises(AssertionError, match="sort-path count"):
            walk.mc_visited_samples(large, [64], 10, 0)

    @pytest.mark.parametrize("n", [4, 12])
    def test_n_list_with_zero_duplicates_unsorted(self, n):
        cluster = sampled_cluster(3, 0.7, 2) if n == 4 else full_lattice(6)
        n_list = [n, 0, n, n // 2]
        counts = walk.mc_visited_samples(cluster, n_list, 300, 14)
        assert list(counts) == [n, 0, n // 2]
        assert all(c.shape == (300,) and c.dtype == np.int64 for c in counts.values())
        assert counts[0].tolist() == [1] * 300
        assert {k: c.tolist() for k, c in counts.items()} == \
            oracle_counts(cluster, n_list, 300, 14, range(300))

    def test_chains_of_the_second_chunk(self):
        cluster = sampled_cluster(3, 0.7, 2)
        samples = walk._CHUNK + 3
        chains = [0, walk._CHUNK - 1, walk._CHUNK, samples - 1]
        counts = walk.mc_visited_samples(cluster, [3, 7], samples, 15)
        assert all(c.size == samples for c in counts.values())
        assert {n: c[chains].tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, [3, 7], samples, 15, chains)

    def test_confinement_hits_match_oracle(self):
        cluster = sampled_cluster(5, 0.7, 7)
        r, n, samples = 2, 6, 2000
        dist = bfs_oracle(cluster.adjacency, cluster.origin)
        sets = mc_counts_oracle(cluster, [n], samples, 8, range(samples))[n]
        hits = sum(all(dist[v] <= r for v in visited) for visited in sets)
        value, _ = walk.confinement_probability(cluster, r, n, samples, 8)
        assert 0 < hits < samples
        assert value == hits / samples


class TestConfinement:
    def test_full_lattice_small_case(self):
        cluster = full_lattice(3)
        exact = dict(walk.survival_probabilities(cluster, 1, [2]))
        assert exact[2] == pytest.approx(0.25)
        value, stderr = walk.confinement_probability(cluster, 1, 2, 40000, 3)
        assert abs(value - 0.25) <= 4 * stderr

    def test_cannot_leave_in_few_steps(self, path3):
        assert walk.confinement_probability(path3, 3, 3, 10, 0) == (1.0, 0.0)

    def test_radius_zero(self, path3):
        assert walk.confinement_probability(path3, 0, 2, 10, 0) == (0.0, 0.0)


class TestKilledOperator:
    def test_ball_one_spectrum(self):
        report = walk.killed_operator_report(full_lattice(3), 1, [0, 2, 4])
        assert report.ball_size == 5
        assert report.lambda1 == pytest.approx(0.5, abs=1e-10)

    def test_ball_two_volume_bound(self):
        report = walk.killed_operator_report(full_lattice(4), 2, [0])
        assert report.ball_size == 13 and report.half_ball_size == 5
        assert report.paper_bound == pytest.approx(8 * 2 * 13 / (4 * 5))
        assert report.lambda1 <= report.paper_bound

    def test_survival_at_zero_and_monotone(self):
        report = walk.killed_operator_report(full_lattice(4), 2, [0, 1, 2, 5, 9])
        survival = dict(report.survival)
        assert survival[0] == 1.0
        probs = [p for _, p in sorted(report.survival)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_kernel_reversible(self):
        cluster = sampled_cluster(5, 0.7, 7)
        ball, local, deg, P = walk._ball_kernel(cluster, 3)
        D = np.diag(deg[ball])
        flow = D @ P.toarray()
        assert np.abs(flow - flow.T).max() <= 1e-12

    def test_survival_matches_mc(self):
        cluster = sampled_cluster(5, 0.7, 7)
        exact = dict(walk.survival_probabilities(cluster, 2, [6]))[6]
        value, stderr = walk.confinement_probability(cluster, 2, 6, 40000, 8)
        assert abs(value - exact) <= 4 * max(stderr, 1e-9)

    def test_kernel_built_once(self, monkeypatch):
        cluster = sampled_cluster(5, 0.7, 7)
        calls = []
        real = walk._ball_kernel
        monkeypatch.setattr(walk, "_ball_kernel",
                            lambda c, r: calls.append(r) or real(c, r))
        report = walk.killed_operator_report(cluster, 3, [0, 4, 9])
        assert calls == [3]
        assert report.survival == walk.survival_probabilities(cluster, 3, [9, 4, 0])

    def test_lanczos_only_above_the_dense_cutoff(self, monkeypatch):
        sizes = []
        real = walk.eigsh
        monkeypatch.setattr(walk, "eigsh",
                            lambda A, **kw: sizes.append(A.shape[0]) or real(A, **kw))
        below = walk.killed_operator_report(full_lattice(12), 11, [0])
        above = walk.killed_operator_report(full_lattice(13), 12, [0])
        assert (below.ball_size, above.ball_size) == (265, 313)
        assert sizes == [313]

    def test_eigensolve_cap_is_named(self):
        # the r = 100 diamond has 2 r^2 + 2 r + 1 = 20201 vertices
        with pytest.raises(ValueError, match=r"^ball has 20201 vertices, over the "
                                             r"eigensolve cap of 20000$"):
            walk.killed_operator_report(full_lattice(101), 100, [0])

    def test_json_schema(self):
        report = walk.killed_operator_report(full_lattice(3), 1, [0, 2])
        buf = io.StringIO()
        report.to_json(buf)
        data = json.loads(buf.getvalue())
        assert set(data) == {"r", "ball_size", "half_ball_size", "lambda1",
                             "paper_bound", "rayleigh_h", "survival"}
        assert data["survival"][0] == {"n": 0, "p": 1.0}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=4),
       alpha=st.floats(min_value=0.05, max_value=1.0))
def test_laplace_normalization_property(n, alpha):
    g = make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                   [(0, 1), (1, 2), (2, 3), (3, 0)])
    value = walk.exact_laplace(g, alpha, n)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert walk.exact_laplace(g, 1.0, n) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.floats(min_value=0.6, max_value=1.0), r=st.integers(min_value=1, max_value=22))
@example(seed=0, p=1.0, r=11)  # 265 vertices: dense
@example(seed=0, p=1.0, r=12)  # 313 vertices: Lanczos
def test_killed_lambda1_property(seed, p, r):
    cluster = sampled_cluster(14, p, seed)
    # a ball holding the whole cluster kills nothing: lambda1 = 0, which the report rejects
    assume(cluster.distances_from_origin().max() > r)
    first = walk.killed_operator_report(cluster, r, [0])
    assert abs(first.lambda1 - killed_lambda1_oracle(cluster, r)) <= 1e-12
    assert walk.killed_operator_report(cluster, r, [0]) == first
