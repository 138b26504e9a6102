"""Lattice geometry, sampling, clusters, distances, and box classification."""

from __future__ import annotations

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import issparse
from scipy.sparse.csgraph import connected_components

from percwalk import percolation as perc, walk
from conftest import (all_coords, bfs_oracle, classify_boxes_oracle, components_oracle,
                      extraction_oracle, lists_of, open_graph_oracle, traced_peak)


def _all_closed(spec: perc.LatticeSpec) -> perc.BondConfiguration:
    return perc.BondConfiguration(spec, 0.01, 0,
                                  np.zeros(spec.n_edges, dtype=bool))


def _components_oracle(config: perc.BondConfiguration):
    """Independent component labelling by plain-Python flood fill."""
    comps = components_oracle(open_graph_oracle(config))
    labels = np.empty(config.spec.n_vertices, dtype=np.int64)
    for label, comp in enumerate(comps):
        labels[comp] = label
    return len(comps), labels


def _with_edge_opened(config, edge_id: int) -> perc.BondConfiguration:
    """The coupled configuration with one more open edge."""
    flags = config.open.copy()
    flags[edge_id] = True
    return perc.BondConfiguration(config.spec, config.p, config.seed, flags)


def _config_with_open(spec: perc.LatticeSpec, steps) -> perc.BondConfiguration:
    """Configuration whose only open edges are the unit ``steps``, each given
    as (coordinates of its lower end, axis)."""
    tails, _, axes = spec.edges()
    edge_id = {(int(t), int(a)): e for e, (t, a) in enumerate(zip(tails, axes))}
    flags = np.zeros(spec.n_edges, dtype=bool)
    for start, axis in steps:
        flags[edge_id[spec.vertex_index(np.array(start)), axis]] = True
    return perc.BondConfiguration(spec, 0.5, 0, flags)


def _assert_matches(cluster: perc.ClusterGraph, want):
    if want is None:
        assert cluster.is_empty
        return
    coords, adjacency, origin, meta = want
    assert np.array_equal(cluster.coords, np.array(coords).reshape(len(coords), -1))
    assert cluster.adjacency == adjacency
    assert cluster.origin == origin
    assert cluster.meta == meta


class TestSampling:
    def test_p_one_opens_everything(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 1.0, 5)
        assert config.open.all()
        assert config.open.size == perc.LatticeSpec(2, 3).n_edges

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            perc.sample_bond_config(perc.LatticeSpec(2, 3), p, 0)

    def test_open_fraction_concentrates(self):
        spec = perc.LatticeSpec(2, 20)
        config = perc.sample_bond_config(spec, 0.7, 42)
        sigma = np.sqrt(0.7 * 0.3 / spec.n_edges)
        assert abs(np.mean(config.open) - 0.7) <= 3 * sigma

    def test_bit_identical_resampling(self):
        spec = perc.LatticeSpec(3, 4)
        a = perc.sample_bond_config(spec, 0.6, 99)
        b = perc.sample_bond_config(spec, 0.6, 99)
        assert np.array_equal(a.open, b.open)

    def test_edge_canonical_order(self):
        tails, heads, axes = perc.LatticeSpec(2, 1).edges()
        order = np.lexsort((axes, tails))
        assert np.array_equal(order, np.arange(tails.size))
        assert np.all(heads > tails)

    @pytest.mark.parametrize("d, n", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_edges_from_coordinates(self, d, n):
        spec = perc.LatticeSpec(d, n)
        unit = np.eye(d, dtype=int)
        want = [(v, spec.vertex_index(c + unit[a]), a)
                for v, c in enumerate(all_coords(spec)) for a in range(d) if c[a] < n]
        assert list(zip(*(x.tolist() for x in spec.edges()))) == want
        assert len(want) == spec.n_edges

    @pytest.mark.parametrize("d, n", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_open_adjacency_matches_the_edge_list(self, d, n):
        config = perc.sample_bond_config(perc.LatticeSpec(d, n), 0.6, 5)
        adj = open_graph_oracle(config)
        indptr, indices = perc.open_adjacency(config)
        assert indptr.dtype == indices.dtype == np.int64
        assert lists_of(indptr, indices) == [sorted(adj[v]) for v in range(len(adj))]


class TestComponentOfOrigin:
    def test_full_lattice_is_whole_box(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 2), 1.0, 0)
        cluster = perc.component_of_origin(config)
        assert cluster.n_vertices == 5**2
        cluster.validate()

    def test_isolated_origin(self):
        cluster = perc.component_of_origin(_all_closed(perc.LatticeSpec(2, 2)))
        assert cluster.n_vertices == 1
        assert cluster.n_edges() == 0
        assert cluster.origin == 0

    def test_matches_flood_fill_oracle(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 2), 0.7, 7)
        cluster = perc.component_of_origin(config)
        _, labels = _components_oracle(config)
        origin_id = config.spec.vertex_index(np.zeros(2, dtype=int))
        assert cluster.n_vertices == int(np.sum(labels == labels[origin_id]))

    def test_induced_subgraph(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.6, 11)
        cluster = perc.component_of_origin(config)
        have = {tuple(c) for c in cluster.coords}
        adjacency = cluster.adjacency
        spec = config.spec
        tails, heads, _ = spec.edges()
        for t, h, is_open in zip(tails, heads, config.open):
            ct, ch = (tuple(np.array(np.unravel_index(v, (spec.side,) * 2)) - spec.n)
                      for v in (t, h))
            if is_open and ct in have and ch in have:
                i, j = cluster.index_of(ct), cluster.index_of(ch)
                assert j in adjacency[i]


class TestExtractionReference:
    """Extraction against the plain-Python reference in ``conftest``."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=2, max_value=3),
           n=st.integers(min_value=0, max_value=4),
           p=st.floats(min_value=0.05, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**63 - 1),
           r=st.integers(min_value=0, max_value=4))
    def test_matches_reference(self, d, n, p, seed, r):
        n = min(n, 2) if d == 3 else n
        config = perc.sample_bond_config(perc.LatticeSpec(d, n), p, seed)
        for cluster, want in ((perc.component_of_origin(config),
                               extraction_oracle(config, "origin")),
                              (perc.largest_cluster(config),
                               extraction_oracle(config, "largest")),
                              (perc.chemical_ball(config, min(r, n)),
                               extraction_oracle(config, "ball", min(r, n)))):
            cluster.validate()  # extraction does not check its own output
            _assert_matches(cluster, want)

    def test_valid_at_benchmark_size(self):
        # d = 3, box 20, p = 0.5: the size of the benchmark's origin-d3 job
        config = perc.sample_bond_config(perc.LatticeSpec(3, 20), 0.5, 0)
        for cluster in (perc.component_of_origin(config), perc.largest_cluster(config),
                        perc.chemical_ball(config, 20)):
            cluster.validate()

    def test_isolated_origin(self):
        config = _config_with_open(perc.LatticeSpec(2, 3), [((1, 1), 0), ((2, 1), 1)])
        for cluster, want in ((perc.component_of_origin(config),
                               extraction_oracle(config, "origin")),
                              (perc.chemical_ball(config, 2),
                               extraction_oracle(config, "ball", 2))):
            _assert_matches(cluster, want)
            assert cluster.n_vertices == 1 and cluster.origin == 0

    def test_largest_away_from_origin(self):
        # the origin sits on a 2-vertex component, the largest has 3 vertices
        config = _config_with_open(perc.LatticeSpec(2, 3),
                                   [((0, 0), 0), ((-3, 3), 0), ((-2, 3), 0)])
        cluster = perc.largest_cluster(config)
        _assert_matches(cluster, extraction_oracle(config, "largest"))
        assert cluster.origin is None
        assert {tuple(c) for c in cluster.coords} == {(-3, 3), (-2, 3), (-1, 3)}
        _assert_matches(perc.component_of_origin(config),
                        extraction_oracle(config, "origin"))

    def test_tie_goes_to_least_vertex(self):
        # two 3-vertex components; (-3, -3) is the least vertex of either
        config = _config_with_open(perc.LatticeSpec(2, 3),
                                   [((1, 3), 0), ((2, 3), 0),
                                    ((-3, -3), 1), ((-3, -2), 1)])
        cluster = perc.largest_cluster(config)
        _assert_matches(cluster, extraction_oracle(config, "largest"))
        assert {tuple(c) for c in cluster.coords} == {(-3, -3), (-3, -2), (-3, -1)}
        assert cluster.origin is None


class TestValidate:
    @pytest.mark.parametrize("adjacency,pair", [
        ([[1], [0, 2], []], "(1, 2)"),
        ([[1, 2], [0], []], "(0, 2)"),
        ([[1], [0, 2], [1, 0]], "(2, 0)"),
    ])
    def test_rejects_asymmetric_adjacency(self, adjacency, pair):
        with pytest.raises(ValueError, match=f"not symmetric at {re.escape(pair)}"):
            perc.ClusterGraph(np.array([[0, 0], [1, 0], [2, 0]]), adjacency, 0)

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="not connected"):
            perc.ClusterGraph(np.array([[0, 0], [1, 0], [3, 0], [4, 0]]),
                              [[1], [0], [3], [2]], 0)

    @pytest.mark.parametrize("adjacency,message", [
        # caught before scipy's component search, which never returns on a repeated entry
        ([[1, 1], [0, 0]], "repeated edge (0, 1)"),
        ([[1], [0, 0]], "repeated edge (1, 0)"),
        ([[0, 1], [0]], "self-loop at 0"),
        ([[5], [0]], "neighbour 5 of vertex 0 is not a vertex id: the graph has 2 vertices"),
        ([[1], [-1]], "neighbour -1 of vertex 1 is not a vertex id"),
    ])
    def test_rejects_bad_neighbours_by_name(self, adjacency, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            perc.ClusterGraph(np.array([[0, 0], [1, 0]]), adjacency, 0)

    def test_rejects_one_coordinate_row_short(self):
        with pytest.raises(ValueError, match="1 coordinate rows for 2 vertices"):
            perc.ClusterGraph(np.array([[0, 0]]), [[1], [0]], 0)

    def test_from_csr_checks_the_same(self):
        with pytest.raises(ValueError, match=re.escape("repeated edge (0, 1)")):
            perc.ClusterGraph.from_csr(np.array([[0, 0], [1, 0]]), np.array([0, 2, 4]),
                                       np.array([1, 1, 0, 0]), 0)


class TestLargestCluster:
    def test_full_lattice(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 2), 1.0, 0)
        assert perc.largest_cluster(config).n_vertices == 25

    def test_strict_maximum(self):
        # two components built by hand: a 5-path and a 3-path
        spec = perc.LatticeSpec(2, 3)
        tails, heads, axes = spec.edges()
        flags = np.zeros(spec.n_edges, dtype=bool)

        def open_edge(x, y, axis):
            vid = spec.vertex_index(np.array([x, y]))
            hit = np.nonzero((tails == vid) & (axes == axis))[0]
            flags[hit[0]] = True

        for x in range(-3, 1):
            open_edge(x, -3, 0)   # 5 vertices in a row at y=-3
        for x in range(1, 3):
            open_edge(x, 3, 0)    # 3 vertices in a row at y=3
        config = perc.BondConfiguration(spec, 0.5, 0, flags)
        assert perc.largest_cluster(config).n_vertices == 5

    def test_empty_sentinel(self):
        cluster = perc.largest_cluster(_all_closed(perc.LatticeSpec(2, 2)))
        assert cluster.is_empty
        assert cluster.n_vertices == 0 and perc.ClusterGraph.empty().n_vertices == 0

    def test_density_band_against_oracle(self):
        spec = perc.LatticeSpec(2, 30)
        fractions = []
        for seed in range(100):
            config = perc.sample_bond_config(spec, 0.7, 1000 + seed)
            _, labels = _components_oracle(config)
            tails, heads, _ = spec.edges()
            touched = np.zeros(spec.n_vertices, dtype=bool)
            touched[tails[config.open]] = True
            touched[heads[config.open]] = True
            sizes = np.bincount(labels[touched])
            fractions.append(sizes.max() / spec.n_vertices)
        theta = float(np.mean(fractions))
        config = perc.sample_bond_config(spec, 0.7, 1)
        ratio = perc.largest_cluster(config).n_vertices / spec.n_vertices
        assert theta - 0.1 <= ratio <= theta + 0.1


class TestChemicalDistance:
    @pytest.mark.parametrize("d,n", [(2, 5), (3, 3)])
    def test_full_lattice_is_l1(self, d, n):
        config = perc.sample_bond_config(perc.LatticeSpec(d, n), 1.0, 0)
        cluster = perc.component_of_origin(config)
        dist = cluster.distances_from_origin()
        for i, c in enumerate(cluster.coords):
            assert dist[i] == np.abs(c).sum()

    def test_matches_second_bfs(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 10), 0.7, 3)
        cluster = perc.component_of_origin(config)
        oracle = bfs_oracle(cluster.adjacency, cluster.origin)
        for i in range(cluster.n_vertices):
            assert perc.chemical_distance(cluster, i) == oracle[i]

    def test_unreachable_vertex(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 5), 0.4, 12)
        cluster = perc.component_of_origin(config)
        outside = (5, 5)
        if tuple(outside) not in {tuple(c) for c in cluster.coords}:
            with pytest.raises(perc.UnreachableVertexError):
                perc.chemical_distance(cluster, outside)

    def test_ball_radius_zero(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.8, 4)
        ball = perc.chemical_ball(config, 0)
        assert ball.n_vertices == 1
        assert tuple(ball.coords[0]) == (0, 0)

    def test_ball_rejects_radius_past_box(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.8, 4)
        with pytest.raises(ValueError):
            perc.chemical_ball(config, 4)

    def test_ball_members_by_distance(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 6), 0.7, 9)
        r = 4
        ball = perc.chemical_ball(config, r)
        cluster = perc.component_of_origin(config)
        oracle = bfs_oracle(cluster.adjacency, cluster.origin)
        want = {tuple(cluster.coords[v]) for v, dd in oracle.items() if dd <= r}
        assert {tuple(c) for c in ball.coords} == want


class TestVolumeGrowth:
    def test_ball_growth(self):
        # the radius-r chemical ball of the full lattice is the 2r^2 + 2r + 1 diamond
        config = perc.sample_bond_config(perc.LatticeSpec(2, 5), 1.0, 0)
        assert [perc.chemical_ball(config, r).n_vertices for r in range(4)] == [1, 5, 13, 25]


class TestCoupledMonotonicity:
    def test_opening_an_edge(self):
        spec = perc.LatticeSpec(2, 4)
        config = perc.sample_bond_config(spec, 0.5, 21)
        closed = np.nonzero(~config.open)[0]
        dist_before = bfs_oracle(perc.component_of_origin(config).adjacency,
                                 perc.component_of_origin(config).origin)
        base = perc.component_of_origin(config)
        for edge_id in closed[:20]:
            richer = _with_edge_opened(config, int(edge_id))
            c2 = perc.component_of_origin(richer)
            assert c2.n_vertices >= base.n_vertices
            assert (perc.largest_cluster(richer).n_vertices
                    >= perc.largest_cluster(config).n_vertices)
            oracle2 = bfs_oracle(c2.adjacency, c2.origin)
            for v, dd in dist_before.items():
                coord = tuple(base.coords[v])
                assert oracle2[c2.index_of(coord)] <= dd


class TestClassifyBoxes:
    def test_full_lattice_all_good(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 14), 1.0, 0)
        field = perc.classify_boxes(config, 4)
        ids = field.classifiable_blocks()
        assert ids
        assert all(field.blocks[i].good for i in ids)
        # block ids are plain ints, so they print as (-2, -2) in renorm_p1.txt
        assert all(type(x) is int for i in field.blocks for x in i)

    def test_all_closed_all_bad(self):
        field = perc.classify_boxes(_all_closed(perc.LatticeSpec(2, 14)), 4)
        ids = field.classifiable_blocks()
        assert ids
        assert not any(field.blocks[i].good for i in ids)

    def test_rejects_small_scale(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 14), 0.9, 0)
        with pytest.raises(ValueError):
            perc.classify_boxes(config, 3)

    def test_monotone_under_opening(self):
        spec = perc.LatticeSpec(2, 14)
        for seed in range(5):
            config = perc.sample_bond_config(spec, 0.8, 500 + seed)
            before = perc.classify_boxes(config, 4)
            closed = np.nonzero(~config.open)[0]
            richer = _with_edge_opened(config, int(closed[0]))
            after = perc.classify_boxes(richer, 4)
            for i in before.classifiable_blocks():
                if before.blocks[i].good:
                    assert after.blocks[i].good

    @pytest.mark.parametrize("box", [9, 14, 21, 33])
    def test_matches_oracle(self, box):
        spec = perc.LatticeSpec(2, box)
        for N in (4, 5, 10):
            for p in (0.3, 0.5, 0.7, 0.9, 0.95):
                for seed in range(2):
                    config = perc.sample_bond_config(spec, p, 7000 + seed)
                    field = perc.classify_boxes(config, N)
                    assert field.blocks == classify_boxes_oracle(config, N)

    def test_matches_oracle_d3(self):
        spec = perc.LatticeSpec(3, 6)
        for p in (0.3, 0.6, 0.9):
            config = perc.sample_bond_config(spec, p, 71)
            field = perc.classify_boxes(config, 4)
            assert field.blocks == classify_boxes_oracle(config, 4)

    @pytest.mark.parametrize("p,good", [(0.6, 8), (0.9, 27)])
    def test_matches_oracle_d3_overlapping(self, p, good):
        # 27 classifiable blocks, each enlarged box overlapping its neighbours'
        config = perc.sample_bond_config(perc.LatticeSpec(3, 14), p, 71)
        field = perc.classify_boxes(config, 4)
        ids = field.classifiable_blocks()
        assert (len(ids), sum(field.blocks[i].good for i in ids)) == (27, good)
        assert field.blocks == classify_boxes_oracle(config, 4)

    @pytest.mark.parametrize("box", [9, 33])
    def test_two_labellings_whatever_the_block_count(self, box, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return connected_components(*args, **kwargs)
        monkeypatch.setattr(perc, "connected_components", counted)
        perc.classify_boxes(perc.sample_bond_config(perc.LatticeSpec(2, box), 0.9, 0), 4)
        assert len(calls) == 2

    @pytest.mark.parametrize("N", [4, 10, 20])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_other_component_at_path_cap(self, N, extra):
        # block 0 has a fully open inner box and, in the margin of its
        # enlarged box, one straight open path of N // 10 + extra edges
        big = (5 * N) // 4
        spec = perc.LatticeSpec(2, big)
        inner = [((x, y), axis) for x in range(-N, N + 1) for y in range(-N, N + 1)
                 for axis, stop in ((0, x), (1, y)) if stop < N]
        length = N // 10 + extra
        margin = [((x, big), 0) for x in range(length)]
        config = _config_with_open(spec, inner + margin)
        blocks = perc.classify_boxes(config, N).blocks
        assert blocks[(0, 0)].good == (extra == 0)
        assert blocks == classify_boxes_oracle(config, N)


class TestCsrOnly:
    """A cluster holds its graph once, as CSR arrays; ``adjacency`` is a view."""

    def test_walk_layer_leaves_only_csr(self):
        cluster = perc.component_of_origin(
            perc.sample_bond_config(perc.LatticeSpec(2, 6), 0.7, 3))
        walk.exact_visited_distribution(cluster, 4)
        walk.killed_operator_report(cluster, 3, [0, 5])
        walk.mc_laplace(cluster, 0.5, [5, 10], 200, 0)
        walk.confinement_probability(cluster, 2, 6, 200, 0)
        self._assert_csr_only(cluster)

    @pytest.mark.parametrize("extract", [perc.component_of_origin, perc.largest_cluster,
                                         lambda config: perc.chemical_ball(config, 4)])
    def test_extracted_cluster_holds_only_csr(self, extract):
        cluster = extract(perc.sample_bond_config(perc.LatticeSpec(2, 6), 0.7, 3))
        self._assert_csr_only(cluster)

    def test_hand_built_cluster_holds_only_csr(self):
        cluster = perc.ClusterGraph(np.array([[0, 0], [1, 0], [1, 1]]),
                                    [[2, 1], [0, 2], [1, 0]], 0)
        self._assert_csr_only(cluster)
        assert cluster.adjacency == [[2, 1], [0, 2], [1, 0]]  # rows keep list order

    def test_extraction_memory(self):
        # the full box-120 lattice: 58,081 vertices.  Validating the extracted
        # cluster (int64 keys over every arc) and caching a float64 csr_matrix
        # copy took a 15.0 MiB peak and left 6.5 MiB held
        config = perc.sample_bond_config(perc.LatticeSpec(2, 120), 1.0, 0)

        def extract():
            cluster = perc.component_of_origin(config)
            cluster.distances_from_origin()
            return cluster, tracemalloc.get_traced_memory()[0]
        (cluster, held), peak = traced_peak(extract)
        assert cluster.n_vertices == 241**2
        assert peak < 11 * 2**20
        assert held < 4 * 2**20  # coords, CSR and distances

    @staticmethod
    def _assert_csr_only(cluster):
        assert not [name for name, value in vars(cluster).items() if isinstance(value, list)]
        assert not hasattr(cluster, "graph")  # no csgraph matrix is cached
        assert not [name for name, value in vars(cluster).items() if issparse(value)]
        indptr, indices = cluster.csr
        assert indptr.dtype == indices.dtype == np.int64
        rows = lists_of(indptr, indices)
        assert cluster.adjacency == rows
        assert all(type(w) is int for nbrs in cluster.adjacency for w in nbrs)
        view = cluster.adjacency
        view[0].append(-1)  # a fresh copy on each read: the cluster is unchanged
        assert cluster.adjacency == rows
        with pytest.raises(AttributeError):
            cluster.adjacency = rows


class TestTextFormat:
    def test_round_trip(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.7, 8)
        cluster = perc.component_of_origin(config)
        buf = io.StringIO()
        perc.cluster_to_text(cluster, buf)
        back = perc.cluster_from_text(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.coords, cluster.coords)
        assert back.adjacency == [sorted(a) for a in cluster.adjacency]
        assert all(np.array_equal(a, b) for a, b in zip(back.csr, cluster.csr))
        assert back.origin == cluster.origin

    @pytest.mark.parametrize("lines,message", [
        (["0 1"] * 2, "repeated edge (0, 1)"),
        (["0 0", "0 1"], "self-loop at 0"),
        (["0 1", "1 2"], "edge line '1 2' names an unknown vertex (2 listed)"),
        (["0 1", "-1 0"], "edge line '-1 0' names an unknown vertex"),
    ])
    def test_rejects_bad_edge_lines_by_name(self, lines, message):
        text = "\n".join(["2 1 1.0 0", "0 0 0", "1 1 0", *lines]) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            perc.cluster_from_text(io.StringIO(text))

    def test_header_fields(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 3), 0.7, 8)
        cluster = perc.component_of_origin(config)
        buf = io.StringIO()
        perc.cluster_to_text(cluster, buf)
        header = buf.getvalue().splitlines()[0].split()
        assert header == ["2", "3", "0.7", "8"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       p=st.floats(min_value=0.05, max_value=1.0))
def test_determinism_property(seed, p):
    spec = perc.LatticeSpec(2, 3)
    a = perc.sample_bond_config(spec, p, seed)
    b = perc.sample_bond_config(spec, p, seed)
    assert np.array_equal(a.open, b.open)
    ca, cb = perc.component_of_origin(a), perc.component_of_origin(b)
    assert np.array_equal(ca.coords, cb.coords)
    assert ca.adjacency == cb.adjacency
