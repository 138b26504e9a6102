"""Walk chains, exact/MC Laplace estimators, visited counts, killed walk."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from percwalk import percolation as perc, walk
from conftest import (bfs_oracle, killed_lambda1_oracle, laplace_oracle, make_graph,
                      mc_counts_oracle, traced_peak, uniform_path_laws_by_unique,
                      uniform_paths_oracle, visited_dist_oracle)


def full_lattice(n: int, d: int = 2) -> perc.ClusterGraph:
    config = perc.sample_bond_config(perc.LatticeSpec(d, n), 1.0, 0)
    return perc.component_of_origin(config)


def sampled_cluster(n: int, p: float, seed: int) -> perc.ClusterGraph:
    config = perc.sample_bond_config(perc.LatticeSpec(2, n), p, seed)
    return perc.component_of_origin(config)


def chains(cluster: perc.ClusterGraph, n: int, samples: int, seed: int) -> np.ndarray:
    """X_0..X_n of ``samples`` Monte Carlo chains, one per column, copied out of
    the one chunked loop and mapped from ball ids back to cluster ids."""
    out = np.empty((n + 1, samples), dtype=np.int64)
    ball = walk._reachable_ball(cluster, n)[0]

    def keep(first, traj):
        out[:, first: first + traj.shape[1]] = ball[traj]
    walk._map_chunks(cluster, n, samples, seed, keep)
    return out


class TestChains:
    """The walk rule, read off the trajectories of the chunked Monte Carlo loop."""

    def test_steps_follow_edges(self):
        cluster = sampled_cluster(4, 0.7, 5)
        traj = chains(cluster, 50, 20, 17)
        assert traj[0].tolist() == [cluster.origin] * 20
        adjacency = cluster.adjacency
        for a, b in zip(traj[:-1].ravel().tolist(), traj[1:].ravel().tolist()):
            assert b in adjacency[a]

    def test_interior_directions_uniform(self):
        cluster = full_lattice(60)
        traj = chains(cluster, 100, 400, 12345)
        inner = cluster.degrees[traj[:-1]] == 4
        moves = cluster.coords[traj[1:][inner]] - cluster.coords[traj[:-1][inner]]
        directions, counts = np.unique(moves, axis=0, return_counts=True)
        total = counts.sum()
        sigma = np.sqrt(total * 0.25 * 0.75)
        assert sorted(map(tuple, directions.tolist())) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert np.all(np.abs(counts - total / 4) <= 3 * sigma)

    def test_reproducible(self):
        cluster = sampled_cluster(4, 0.7, 5)
        assert np.array_equal(chains(cluster, 30, 50, 9), chains(cluster, 30, 50, 9))
        assert not np.array_equal(chains(cluster, 30, 50, 9), chains(cluster, 30, 50, 10))


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
        # every t from one sweep; g = 4: every value is a dyadic fraction, held exactly
        square = full_lattice(7)
        for n, got in enumerate(walk._uniform_path_laws(square, 7)):
            want = uniform_paths_oracle(square, n)
            assert list(got.items()) == [(k, float(v)) for k, v in want.items()]
        # g = 6: same keys in the same order, values within one rounding
        cube = full_lattice(5, d=3)
        for n, got in enumerate(walk._uniform_path_laws(cube, 5)):
            want = uniform_paths_oracle(cube, n)
            assert list(got) == list(want)
            for key, value in want.items():
                assert abs(Fraction(got[key]) - value) <= value * Fraction(1, 2**52)

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 10), (3, 5), (3, 6)])
    def test_key_order_of_the_path_enumerator(self, d, n):
        # key order fixes the float summation order of _laplace_of; the Z^3 ball
        # of radius 6 has 377 vertices, so its columns hold uint16 ids
        cluster = full_lattice(n, d)
        for got, want in zip(walk._uniform_path_laws(cluster, n),
                             uniform_path_laws_by_unique(cluster, n), strict=True):
            assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("d, n_max", [(2, 10), (3, 6)])
    def test_one_sweep_equals_per_step_laws(self, d, n_max):
        # both backends: balls of <= 64 vertices merge states, wider ones enumerate
        cluster = full_lattice(n_max, d)
        laws = walk.exact_visited_laws(cluster, n_max)
        assert len(laws) == n_max + 1
        for t, law in enumerate(laws):
            assert list(law.items()) == list(walk.exact_visited_distribution(cluster, t).items())

    def test_path_enumerator_memory(self):
        cluster = full_lattice(10)
        _, peak = traced_peak(lambda: walk.exact_visited_laws(cluster, 10))
        # one-byte columns and counts peak near 1.4 MiB (3 MiB with the last
        # column built whole); int32 columns, int16 keys and whole-column
        # bincount took 18.4 MiB, the path matrix ~80 MB
        assert peak < 8 * 2**20

    def test_last_path_step_is_walked_per_block(self):
        # Z^2, n = 12: the 4^12 last positions and their counts, 16 MiB each,
        # are gathered block by block from their parents; the peak is 15.8 MiB,
        # and 62.8 MiB when both were built whole
        cluster = full_lattice(12)
        cluster.distances_from_origin()  # the cluster's cache, not the enumerator's
        _, peak = traced_peak(lambda: walk.exact_visited_distribution(cluster, 12))
        assert peak <= 20 * 2**20

    def test_wide_unequal_ball_names_the_mask_width(self):
        cluster = full_lattice(4)  # the box's sides, of degree 3, lie at distance 4
        assert len(walk.exact_visited_laws(cluster, 5)) == 6  # 57 vertices: merged
        message = (f"the radius-6 chemical ball has 69 vertices, over the {walk.MASK_WIDTH}-vertex"
                   " mask width of the merged sweep, and degrees 3 to 4 within radius 5, so its"
                   " paths are not equally likely")
        with pytest.raises(walk.BallTooWideError, match=f"^{message}$"):
            walk.exact_visited_distribution(cluster, 6)

    @pytest.mark.parametrize("p, seed, n, size", [(0.9, 6, 5, 61), (0.9, 51, 6, 64)])
    def test_unequal_ball_of_61_to_64_vertices_is_merged(self, p, seed, n, size):
        cluster = perc.component_of_origin(perc.sample_bond_config(perc.LatticeSpec(2, 8), p, seed))
        dist = cluster.distances_from_origin()
        degs = cluster.degrees[dist <= n - 1]
        assert (int((dist <= n).sum()), degs.min() < degs.max()) == (size, True)
        got, want = walk.exact_visited_distribution(cluster, n), visited_dist_oracle(cluster, n)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)

    def test_byte_budget_names_the_bytes(self):
        # 4^16 paths of 2-byte ids (545-vertex ball): columns 0..15, 2 (4^16 - 1) / 3
        # bytes, and the counts of steps 14 and 15, 4^14 + 4^15 bytes; n = 15 needs
        # 1,051,372,202 bytes and fits
        cluster = full_lattice(16)
        message = "enumeration needs about 4.21e+09 bytes, budget is 1073741824 bytes"

        def raises():
            with pytest.raises(walk.BudgetExceededError, match=f"^{re.escape(message)}$") as err:
                walk.exact_visited_distribution(cluster, 16)
            return err
        err, peak = traced_peak(raises)
        assert (err.value.needed, err.value.budget) == (4205488810, walk.EXACT_BYTES)
        assert peak < 2**20  # raised before the columns are allocated

    def test_sweep_budget_names_the_bytes(self, monkeypatch):
        # the 5 x 5 box from its centre: 1, 4, 16 states extended by 4, 16, 60
        # moves (the four sites at distance 2 on the box's sides have degree 3)
        monkeypatch.setattr(walk, "EXACT_BYTES", 2000)
        needed = 60 * walk._SWEEP_BYTES + 16 * walk._STATE_BYTES
        message = f"enumeration needs about {needed:.3g} bytes, budget is 2000 bytes"
        with pytest.raises(walk.BudgetExceededError, match=f"^{re.escape(message)}$") as err:
            walk.exact_visited_laws(full_lattice(2), 6)  # 25 vertices: merged sweep
        assert err.value.needed == needed == 4704
        assert len(walk.exact_visited_laws(full_lattice(2), 2)) == 3  # 16 moves fit

    def test_sweep_step_stays_within_its_bytes(self, monkeypatch):
        # a step runs from its csr_rows call, which returns one row per path
        # extension, to the next step's; its tracemalloc peak above the memory
        # it starts with stays within _SWEEP_BYTES per extension
        cluster = sampled_cluster(30, 0.55, 4)
        real, moves, peaks, start = walk.csr_rows, [], [], [0]

        def step(*args):
            if moves:
                peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
            start[0] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            src, ids = real(*args)
            moves.append(src.size)
            return src, ids
        monkeypatch.setattr(walk, "csr_rows", step)
        traced_peak(lambda: walk._merged_state_laws(cluster, 14))
        # the last step, which also builds the last law, is left out
        assert moves[-5:-1] == [1229, 2481, 4776, 9672]
        assert all(peak <= walk._SWEEP_BYTES * m for m, peak in zip(moves[-5:-1], peaks[-4:]))

    def test_whole_sweep_stays_within_its_largest_check(self, monkeypatch):
        # the states a step holds are counted, and what it builds is freed before
        # the next, so no step's leftovers add to the next one's peak (a sweep
        # that kept them peaked at ~97 B per extension of its largest step)
        cluster = sampled_cluster(30, 0.55, 4)
        cluster.distances_from_origin()  # the cluster's cache, not the sweep's
        real, checked = walk.csr_rows, []

        def step(indptr, indices, verts):
            moves = int((indptr[verts + 1] - indptr[verts]).sum())
            checked.append(walk._SWEEP_BYTES * moves + walk._STATE_BYTES * verts.size)
            return real(indptr, indices, verts)
        monkeypatch.setattr(walk, "csr_rows", step)
        laws, peak = traced_peak(lambda: walk._merged_state_laws(cluster, 14))
        assert len(laws) == 15 and max(checked) == 72 * 18641 + 24 * 6915
        assert peak <= max(checked)  # ~0.91 of it

    def test_budget_guard(self):
        cluster = full_lattice(30)  # n = 40 needs at least 3^40 bytes, over 2^30
        with pytest.raises(walk.BudgetExceededError) as err:
            walk.exact_laplace(cluster, 0.5, 40)
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

    @pytest.mark.parametrize("n_list", [[-1, 3], []])
    def test_rejects_a_bad_n_list(self, path3, n_list):
        with pytest.raises(ValueError, match=rf"^n_list must hold at least one n, each >= 0, "
                                             rf"got \[{', '.join(map(str, n_list))}\]$"):
            walk.mc_visited_samples(path3, n_list, 10, 0)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_confinement_rejects_no_samples(self, monkeypatch, cores):
        pretend_cores(monkeypatch, cores)
        with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
            walk.confinement_probability(full_lattice(3), 1, 5, 0, 0)

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

    def test_sort_path_prefixes_sorted_in_place(self):
        # each n sorts rows 0..n of the chains the shorter n already sorted
        cluster = full_lattice(6)
        assert walk._reachable_ball(cluster, 8)[0].size > 64
        counts = walk.mc_visited_samples(cluster, [0, 3, 5, 8], 500, 17)
        assert {n: c.tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, [0, 3, 5, 8], 500, 17, range(500))

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
        assert all(c.shape == (300,) and c.dtype == np.min_scalar_type(n + 1)
                   for c in counts.values())
        assert counts[0].tolist() == [1] * 300
        assert {k: c.tolist() for k, c in counts.items()} == \
            oracle_counts(cluster, n_list, 300, 14, range(300))

    @pytest.mark.parametrize("path", ["mask", "sort"])
    def test_counts_of_two_bytes(self, path):
        # n_max = 400 stores N_n in uint16: the mask path widens its uint8 popcounts,
        # and on Z^3 the sort path counts past 255
        cluster = reversed_path(64) if path == "mask" else full_lattice(8, d=3)
        assert (walk._reachable_ball(cluster, 400)[0].size <= 64) == (path == "mask")
        n_list = [3, 254, 255, 400]
        counts = walk.mc_visited_samples(cluster, n_list, 40, 18)
        assert all(c.dtype == np.uint16 for c in counts.values())
        assert (counts[400].max() > 255) == (path == "sort")
        assert {n: c.tolist() for n, c in counts.items()} == \
            oracle_counts(cluster, n_list, 40, 18, range(40))

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


def pretend_cores(monkeypatch, cores: int):
    monkeypatch.setattr(walk.os, "sched_getaffinity", lambda pid: set(range(cores)))


class TestCoreCount:
    """Whole chunks, or column tiles of fewer chunks than cores, are shared
    over the cores; no count depends on how many."""

    SAMPLES = 3 * walk._CHUNK + 5  # shares of 2 and 1 chunks on 2 cores; short last chunk
    CHAINS = [0, walk._CHUNK - 1, walk._CHUNK, 2 * walk._CHUNK + 7, 3 * walk._CHUNK,
              3 * walk._CHUNK + 4]

    @pytest.mark.parametrize("path", ["mask", "sort"])
    def test_visited_counts(self, monkeypatch, path):
        cluster = sampled_cluster(3, 0.7, 2) if path == "mask" else full_lattice(6)
        assert (walk._reachable_ball(cluster, 8)[0].size <= 64) == (path == "mask")
        runs = []
        for cores in (1, 2, 3):
            pretend_cores(monkeypatch, cores)
            runs.append(walk.mc_visited_samples(cluster, [3, 8], self.SAMPLES, 16))
        for counts in runs[1:]:
            assert all(np.array_equal(counts[n], runs[0][n]) for n in (3, 8))
        assert {n: c[self.CHAINS].tolist() for n, c in runs[0].items()} == \
            oracle_counts(cluster, [3, 8], self.SAMPLES, 16, self.CHAINS)

    def test_confinement_hits(self, monkeypatch):
        # from an end of a path the walk has visited {0..M}, M its largest
        # distance so far, so it stayed within r exactly when N_n <= r + 1
        path = make_graph([(i, 0) for i in range(10)], [(i, i + 1) for i in range(9)])
        r, n = 3, 8
        assert oracle_counts(path, [n], self.SAMPLES, 8, self.CHAINS) == \
            {n: walk.mc_visited_samples(path, [n], self.SAMPLES, 8)[n][self.CHAINS].tolist()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost hit would show
        try:
            for cores in (1, 2, 3):
                pretend_cores(monkeypatch, cores)
                counts = walk.mc_visited_samples(path, [n], self.SAMPLES, 8)[n]
                value, _ = walk.confinement_probability(path, r, n, self.SAMPLES, 8)
                assert 0.0 < value < 1.0
                assert value == np.count_nonzero(counts <= r + 1) / self.SAMPLES
        finally:
            sys.setswitchinterval(interval)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        pretend_cores(monkeypatch, 2)
        real = walk.np.bitwise_count

        def fail_off_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper chunk failed")
            return real(*args, **kwargs)
        monkeypatch.setattr(walk.np, "bitwise_count", fail_off_main_thread)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            walk.mc_visited_samples(sampled_cluster(3, 0.7, 2), [4], walk._CHUNK + 1, 0)

    @pytest.mark.parametrize("path", ["mask", "sort"])
    @pytest.mark.parametrize("samples", [1001, 1003])
    def test_one_chunk_tiles(self, monkeypatch, path, samples):
        # a chunk whose width is not a multiple of 4, so rows start mid-block;
        # a minimum of 300 columns lets 3 cores cut it into 3 tiles
        monkeypatch.setattr(walk, "_MIN_TILE", 300)
        cluster = sampled_cluster(3, 0.7, 2) if path == "mask" else full_lattice(6)
        assert (walk._reachable_ball(cluster, 8)[0].size <= 64) == (path == "mask")
        runs, hits = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost hit would show
        try:
            for cores in (1, 2, 3):
                pretend_cores(monkeypatch, cores)
                tiles = []
                walk._map_chunks(cluster, 2, samples, 16,
                                 lambda first, traj: tiles.append((first, traj.shape[1])))
                tiles.sort()
                assert len(tiles) == cores and tiles[-1][0] + tiles[-1][1] == samples
                assert all(w % 4 == 0 for _, w in tiles[:-1])
                chains = sorted({c for a, w in tiles for c in (a, a + w - 1)})
                runs.append(walk.mc_visited_samples(cluster, [3, 8], samples, 16))
                assert {n: c[chains].tolist() for n, c in runs[-1].items()} == \
                    oracle_counts(cluster, [3, 8], samples, 16, chains)
                hits.append(walk.confinement_probability(cluster, 2, 8, samples, 16))
        finally:
            sys.setswitchinterval(interval)
        for counts in runs[1:]:
            assert all(np.array_equal(counts[n], runs[0][n]) for n in (3, 8))
        assert hits[1:] == hits[:1] * 2

    @pytest.mark.parametrize("cores, samples, widths", [
        (2, 8191, [8191]),
        (2, 8192, [4096, 4096]),
        (3, 12287, [6144, 6143]),
        (3, 12289, [4100, 4100, 4089]),
        (2, 30_000, [15_000] * 2),  # exponent-fit's chain count, at n_max = 1
        (2, 60_000, [30_000] * 2),  # mc-d3's chain count, at n_max = 1 (not 200)
        (4, 65_541, [16_384] * 4 + [5])])  # two chunks: the short one stays whole
    def test_tiles_no_narrower_than_the_minimum(self, monkeypatch, cores, samples, widths):
        assert walk._MIN_TILE == 4096
        pretend_cores(monkeypatch, cores)
        tiles = []
        walk._map_chunks(full_lattice(2), 1, samples, 0,
                         lambda first, traj: tiles.append((first, traj.shape[1])))
        assert [w for _, w in sorted(tiles)] == widths

    # (samples, n_max) -> the full lattice (box, d) walked, and its ball's id type
    BYTE_CAP_BALLS = {(60_000, 200): ((20, 3), np.uint32), (131_072, 200): ((30, 2), np.uint16),
                      (30_000, 120): ((70, 2), np.uint16), (8200, 600): ((20, 3), np.uint32),
                      (65_536, 12): ((2, 2), np.uint8), (65_536, 300): ((2, 2), np.uint8)}

    @pytest.mark.parametrize("cores, samples, n_max, widths", [
        (2, 60_000, 200, [5000] * 12),  # the benchmark's mc-d3 call, on 68,921 vertices
        (2, 131_072, 200, ([9364] * 6 + [9352]) * 2),  # two chunks, each over the cap
        (2, 30_000, 120, [15_000] * 2),  # exponent-fit's calls, on a cut ball: the core rule
        (2, 8200, 600, [2736] * 2 + [2728]),  # the cap is floored at _MIN_TILE columns
        (3, 65_536, 12, [21_848] * 2 + [21_840]),  # n = 12: whole chunks, cut per core
        (2, 65_536, 300, [13_108] * 4 + [13_104]),  # a 25-vertex ball over the cap
        (4, 60_000, 200, [4000] * 15)])  # mc-d3 on 4 cores: the cap is floored, 2 shares fit
    def test_tiles_no_wider_than_the_byte_cap(self, monkeypatch, cores, samples, n_max,
                                              widths):
        # cap = MC_BYTES // (cores * itemsize * (n_max + 1)) columns, floored at
        # _MIN_TILE; no more shares than MC_BYTES holds _MIN_TILE-wide buffers
        # (one 4,096 x 601 x 4-byte buffer is 9.4 MiB, so n_max = 600 walks one share)
        shares = 1 if n_max == 600 else 2 if samples == 60_000 else min(cores, len(widths))
        assert walk.MC_BYTES == 2**23
        pretend_cores(monkeypatch, cores)
        lattice, ids = self.BYTE_CAP_BALLS[samples, n_max]
        cluster = full_lattice(*lattice)
        ball = walk._reachable_ball(cluster, n_max)[0].size
        assert (ball == cluster.n_vertices) == (lattice != (70, 2))
        tiles, buffers = [], {}

        def record(first, traj):
            tiles.append((first, traj.shape[1]))
            buffers[id(traj.base)] = (traj.dtype, traj.base.nbytes)  # all live until the end
        walk._map_chunks(cluster, n_max, samples, 0, record)
        assert [w for _, w in sorted(tiles)] == widths
        assert len(buffers) == shares
        assert {dtype for dtype, _ in buffers.values()} == {np.dtype(ids)} == \
            {np.min_scalar_type(ball - 1)}
        itemsize = np.dtype(ids).itemsize
        assert sum(b for _, b in buffers.values()) <= max(walk.MC_BYTES,
                                                          itemsize * (n_max + 1) * walk._MIN_TILE)

    @pytest.mark.parametrize("path", ["mask", "sort", "uint16"])
    def test_counts_under_a_small_byte_cap(self, monkeypatch, path):
        # a 1,000-column cap at n_max = 8 cuts both chunks on any core count (into
        # 66 and 2 tiles; 3 on 3 cores); the second's 1,003 columns are not a multiple of 4.
        # The cap is MC_BYTES shared over the cores, so MC_BYTES grows with them
        cluster = (sampled_cluster(3, 0.7, 2) if path == "mask" else
                   full_lattice(6) if path == "sort" else full_lattice(4, d=3))
        ball = walk._reachable_ball(cluster, 8)[0].size
        assert (ball <= 64) == (path == "mask")
        itemsize = np.min_scalar_type(ball - 1).itemsize
        assert itemsize == (2 if path == "uint16" else 1)
        monkeypatch.setattr(walk, "_MIN_TILE", 100)
        samples = walk._CHUNK + 1003
        runs, hits = [], []
        for cores in (1, 2, 3):
            pretend_cores(monkeypatch, cores)
            monkeypatch.setattr(walk, "MC_BYTES", cores * itemsize * 9 * 1000)
            tiles = []
            walk._map_chunks(cluster, 8, samples, 16,
                             lambda first, traj: tiles.append((first, traj.shape[1])))
            assert len(tiles) == 66 + max(2, cores) and max(w for _, w in tiles) <= 1000
            runs.append(walk.mc_visited_samples(cluster, [3, 8], samples, 16))
            hits.append(walk.confinement_probability(cluster, 2, 8, samples, 16))
        for counts in runs[1:]:
            assert all(np.array_equal(counts[n], runs[0][n]) for n in (3, 8))
        assert hits[1:] == hits[:1] * 2
        chains = sorted({c for a, w in tiles for c in (a, a + w - 1)})
        assert {n: c[chains].tolist() for n, c in runs[0].items()} == \
            oracle_counts(cluster, [3, 8], samples, 16, chains)

    def test_one_chunk_builds_no_pool(self, monkeypatch):
        """One tile builds no pool: one core, or a call too narrow to split."""
        def no_pool(*args, **kwargs):
            raise AssertionError("pool built")
        monkeypatch.setattr(walk, "ThreadPoolExecutor", no_pool)
        cluster = sampled_cluster(5, 0.7, 7)
        pretend_cores(monkeypatch, 2)
        walk.mc_visited_samples(cluster, [4], 2 * walk._MIN_TILE - 1, 0)
        walk.confinement_probability(cluster, 2, 6, 2 * walk._MIN_TILE - 1, 0)
        for samples in (2 * walk._MIN_TILE, walk._CHUNK, walk._CHUNK + 1):
            with pytest.raises(AssertionError, match="pool built"):
                walk.mc_visited_samples(cluster, [4], samples, 0)
        pretend_cores(monkeypatch, 1)
        walk.mc_visited_samples(cluster, [4], walk._CHUNK + 1, 0)
        walk.confinement_probability(cluster, 2, 6, walk._CHUNK, 0)


class TestMonteCarloMemory:
    """What the Monte Carlo layer holds at once, traced by tracemalloc."""

    def test_confinement_sized_call(self, monkeypatch):
        # one cluster of the confinement recipe: 10^6 chains on a ball of <= 25 vertices
        pretend_cores(monkeypatch, 2)
        cluster = sampled_cluster(2, 0.7, 0)
        assert walk._reachable_ball(cluster, 12)[0].size <= 25
        counts, peak = traced_peak(lambda: walk.mc_visited_samples(cluster, [6, 10, 12], 10**6, 5))
        assert all(c.dtype == np.uint8 for c in counts.values())
        # 3 MB of counts and two shares of tiles (~11 MB in all); int64 counts and
        # int32 trajectories of cluster ids took 37 MB
        assert peak < 16 * 2**20

    def test_confinement_copies_no_tile(self, monkeypatch):
        # two shares of 61 x 65,536 one-byte tiles (4 MB each) and their bool reads;
        # int32 tiles read through take(), which copies its indices to intp, took 51 MB
        pretend_cores(monkeypatch, 2)
        cluster = sampled_cluster(2, 0.7, 0)
        _, peak = traced_peak(lambda: walk.confinement_probability(cluster, 2, 60, 10**5, 3))
        assert peak < 20 * 2**20  # ~12.6 MB

    def test_exponent_fit_sized_sort_path(self, monkeypatch):
        # 30,000 chains to n = 120 on the 29,041-vertex ball of the full box-120
        # lattice: two 121 x 15,000 two-byte tiles (3.6 MB each).  Comparing
        # whole sorted prefixes, one (n, tile width) bool array per n and share,
        # and a second ball cut took 11.5-13.4 MiB; row blocks take 8.7-9.1 MiB
        pretend_cores(monkeypatch, 2)
        cluster = full_lattice(120)
        n_list = [20, 30, 45, 65, 90, 120]
        assert walk._reachable_ball(cluster, 120)[0].size > 64  # the sort path
        counts, peak = traced_peak(lambda: walk.mc_visited_samples(cluster, n_list, 30000, 5))
        assert all(c.dtype == np.uint8 and c.shape == (30000,) for c in counts.values())
        assert peak < 11.5 * 2**20

    def test_mc_d3_sized_sort_path(self, monkeypatch):
        # the benchmark's mc-d3 call: 60,000 chains to n = 200 on a 68,921-vertex
        # ball of uint32 ids.  Two 201 x 5,000 tiles (4.0 MB each) on 2 cores; on 4
        # the cap is floored at _MIN_TILE and two 4,000-column shares fit MC_BYTES.
        # An 8 MiB cap per tile held two 201 x 10,000 tiles (18.6 MiB peak)
        cluster = full_lattice(20, d=3)
        runs, peaks = [], []
        for cores in (2, 4):
            pretend_cores(monkeypatch, cores)
            counts, peak = traced_peak(
                lambda: walk.mc_visited_samples(cluster, [50, 100, 200], 60_000, 4000))
            runs.append(counts)
            peaks.append(peak)
        assert all(np.array_equal(runs[0][n], runs[1][n]) for n in (50, 100, 200))
        assert peaks[1] <= peaks[0] < 12 * 2**20

    def test_moments_hold_one_chunk_of_indices(self):
        counts = np.random.default_rng(0).integers(1, 14, 10**6).astype(np.uint8)
        moments, peak = traced_peak(lambda: walk._mc_moments(counts, 0.5))
        # one float64 per count and one chunk of intp indices, a few bytes more
        assert peak <= 8 * counts.size + 8 * walk._CHUNK + 4096
        x = (0.5 ** np.arange(14.0))[counts]
        assert moments == (float(np.mean(x)), float(np.sqrt((np.mean(x * x) - np.mean(x) ** 2)
                                                            / counts.size)))


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
        ball, local, s, P = walk._ball_kernel(cluster, 3)
        deg = cluster.degrees[ball].astype(np.float64)
        assert ball[local] == cluster.origin and np.array_equal(s, np.sqrt(deg))
        P = P.toarray()
        flow = np.diag(deg) @ P
        assert np.abs(flow - flow.T).max() <= 1e-12
        top = np.linalg.eigvalsh(np.diag(s) @ P @ np.diag(1 / s))[-1]
        report = walk.killed_operator_report(cluster, 3, [0])
        assert report.ball_size < cluster.n_vertices  # the eigsh branch
        assert abs(report.lambda1 - (1 - top)) <= 1e-12

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

    def test_every_killed_ball_uses_lanczos(self, monkeypatch):
        sizes = []
        real = walk.eigsh
        monkeypatch.setattr(walk, "eigsh",
                            lambda A, **kw: sizes.append(A.shape[0]) or real(A, **kw))
        small = walk.killed_operator_report(full_lattice(12), 11, [0])
        large = walk.killed_operator_report(full_lattice(13), 12, [0])
        assert (small.ball_size, large.ball_size) == (265, 313)
        assert sizes == [265, 313]

    def test_lambda1_does_not_depend_on_the_thread_count(self):
        """The r = 10 full-lattice ball (221 vertices) in a child interpreter held
        to one BLAS thread gives the same lambda1, to the last bit, as this
        process.  On a one-thread runner both sides use one thread, so this
        passes trivially."""
        here = walk.killed_operator_report(full_lattice(11), 10, [0])
        assert here.ball_size == 221
        code = ("from percwalk import percolation as perc, walk\n"
                "spec = perc.LatticeSpec(2, 11)\n"
                "cluster = perc.component_of_origin(perc.sample_bond_config(spec, 1.0, 0))\n"
                "print(repr(walk.killed_operator_report(cluster, 10, [0]).lambda1))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(walk.__file__)))
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True)
        assert float(child.stdout) == here.lambda1

    def test_eigensolve_cap_is_named(self):
        # the r = 100 diamond has 2 r^2 + 2 r + 1 = 20201 vertices
        with pytest.raises(ValueError, match=r"^ball has 20201 vertices, over the "
                                             r"eigensolve cap of 20000$"):
            walk.killed_operator_report(full_lattice(101), 100, [0])

    def test_cap_skips_a_ball_holding_the_whole_cluster(self):
        # 161^2 = 25921 vertices, over the cap, but no eigensolve runs
        cluster = full_lattice(80)
        report = walk.killed_operator_report(cluster, 160, [0])
        assert (report.ball_size, report.lambda1) == (cluster.n_vertices, 0.0) == (25921, 0.0)

    def test_ball_holding_the_whole_cluster(self):
        # no edge leaves the ball, so nothing is killed: lambda1 is 0 with no round-off
        cluster = sampled_cluster(14, 0.6, 0)
        assert cluster.n_vertices == 758 and cluster.distances_from_origin().max() == 40
        report = walk.killed_operator_report(cluster, 40, [0, 5])
        assert (report.ball_size, report.lambda1) == (758, 0.0)
        assert abs(killed_lambda1_oracle(cluster, 40)) <= 1e-12
        assert walk.killed_operator_report(cluster, 39, [0]).lambda1 > 0.0
        with pytest.raises(ValueError, match=r"lambda1 out of \[0, 2\]"):
            walk.KilledOperatorReport(1, 1, 1, -1e-16, 0.0, 0.0, [])

    def test_isolated_origin_holds_the_walk(self):
        # as in confinement_probability and the exact laws, the walk stays put
        cluster = sampled_cluster(14, 0.75, 889)
        assert cluster.n_vertices == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = walk.killed_operator_report(cluster, 1, [0, 1, 3])
        assert (report.lambda1, report.survival) == (0.0, [(0, 1.0), (1, 1.0), (3, 1.0)])
        assert walk.survival_probabilities(cluster, 1, [3]) == [(3, 1.0)]
        assert walk.confinement_probability(cluster, 1, 3, 10, 0) == (1.0, 0.0)
        assert walk.exact_visited_laws(cluster, 3) == [{(1, True): 1.0}] * 4
        assert killed_lambda1_oracle(cluster, 1) == 0.0

    @pytest.mark.parametrize("entry", ["exact", "mc", "survival", "report", "confinement"])
    def test_isolated_origin_stays_put(self, entry):
        # a hand-built one-vertex graph: the ball cut's self-loop holds every walk
        g = make_graph([(0, 0)], [])
        if entry == "exact":
            assert walk.exact_visited_laws(g, 3) == [{(1, True): 1.0}] * 4
            assert walk.exact_laplace(g, 0.5, 3, pinned=True) == 0.5
        elif entry == "mc":
            counts = walk.mc_visited_samples(g, [0, 2, 5], 300, 9)
            assert {n: c.tolist() for n, c in counts.items()} == {n: [1] * 300 for n in (0, 2, 5)}
            assert chains(g, 5, 7, 3).tolist() == [[0] * 7] * 6
        elif entry == "survival":
            assert walk.survival_probabilities(g, 1, [5, 0]) == [(0, 1.0), (5, 1.0)]
        elif entry == "report":
            report = walk.killed_operator_report(g, 2, [0, 4])
            assert (report.ball_size, report.half_ball_size, report.lambda1) == (1, 1, 0.0)
            assert (report.rayleigh_h, report.survival) == (float("inf"), [(0, 1.0), (4, 1.0)])
        else:
            assert walk.confinement_probability(g, 0, 4, 50, 1) == (1.0, 0.0)

    def test_json_schema(self):
        report = walk.killed_operator_report(full_lattice(3), 1, [0, 2])
        buf = io.StringIO()
        report.to_json(buf)
        data = json.loads(buf.getvalue())
        assert set(data) == {"r", "ball_size", "half_ball_size", "lambda1",
                             "paper_bound", "rayleigh_h", "survival"}
        assert data["survival"][0] == {"n": 0, "p": 1.0}

    def test_json_of_isolated_origin_is_strict(self):
        # h has zero norm there, so the Rayleigh quotient is infinite: null in JSON
        report = walk.killed_operator_report(sampled_cluster(14, 0.75, 889), 1, [0, 3])
        assert report.rayleigh_h == float("inf")
        buf = io.StringIO()
        report.to_json(buf)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")
        data = json.loads(buf.getvalue(), parse_constant=reject)
        assert (data["rayleigh_h"], data["lambda1"]) == (None, 0.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=4),
       alpha=st.floats(min_value=0.05, max_value=1.0))
def test_laplace_normalization_property(n, alpha):
    g = make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                   [(0, 1), (1, 2), (2, 3), (3, 0)])
    value = walk.exact_laplace(g, alpha, n)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert walk.exact_laplace(g, 1.0, n) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.floats(min_value=0.5, max_value=1.0), box=st.integers(min_value=1, max_value=4),
       n_max=st.integers(min_value=0, max_value=12))
def test_one_sweep_equals_per_step_laws_property(seed, p, box, n_max):
    cluster = perc.component_of_origin(perc.sample_bond_config(perc.LatticeSpec(2, box), p, seed))
    want = []
    for t in range(n_max + 1):
        try:
            want.append(walk.exact_visited_distribution(cluster, t))
        except walk.BallTooWideError:
            with pytest.raises(walk.BallTooWideError):
                walk.exact_visited_laws(cluster, n_max)
            break
    laws = walk.exact_visited_laws(cluster, len(want) - 1)
    assert [list(law.items()) for law in laws] == [list(law.items()) for law in want]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.floats(min_value=0.6, max_value=1.0), r=st.integers(min_value=1, max_value=22))
@example(seed=0, p=1.0, r=11)  # 265 vertices: Lanczos
@example(seed=0, p=1.0, r=12)  # 313 vertices: Lanczos
@example(seed=889, p=0.75, r=1)  # isolated origin
def test_killed_lambda1_property(seed, p, r):
    cluster = sampled_cluster(14, p, seed)
    first = walk.killed_operator_report(cluster, r, [0])
    assert abs(first.lambda1 - killed_lambda1_oracle(cluster, r)) <= 1e-12
    assert walk.killed_operator_report(cluster, r, [0]) == first
