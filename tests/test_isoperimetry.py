"""Boundaries, profiles, Folner functions, configuration graphs, pruning."""

from __future__ import annotations

import collections
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from percwalk import harness, isoperimetry as iso, percolation as perc, wreath as wr
from conftest import (SubsetSelection, beta_oracle, boundary_oracle, boundary_size,
                      connected_subsets_dfs, connected_subsets_oracle, csr_of,
                      flip_closure_oracle, folner_oracle, level_pairs, level_rows, lists_of,
                      make_graph, traced_peak)


def grid_graph(nx: int, ny: int):
    coords = [(x, y) for x in range(nx) for y in range(ny)]
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for (x, y), i in index.items():
        for dx, dy in ((1, 0), (0, 1)):
            j = index.get((x + dx, y + dy))
            if j is not None:
                edges.append((i, j))
    return make_graph(coords, edges)


def full_box(n: int):
    config = perc.sample_bond_config(perc.LatticeSpec(2, n), 1.0, 0)
    return perc.component_of_origin(config)


class TestBoundary:
    def test_singleton_in_lattice(self):
        host = full_box(2)
        sel = SubsetSelection(host.adjacency, frozenset({host.origin}))
        assert boundary_size(sel) == 4

    def test_domino_in_lattice(self):
        host = full_box(2)
        pair = {host.origin, host.index_of((1, 0))}
        sel = SubsetSelection(host.adjacency, frozenset(pair))
        assert boundary_size(sel) == 6

    def test_matches_edge_scan(self):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 4), 0.7, 13)
        cluster = perc.component_of_origin(config)
        adjacency = cluster.adjacency
        rng = np.random.Generator(np.random.Philox(key=1))
        for _ in range(20):
            size = int(rng.integers(1, cluster.n_vertices))
            members = frozenset(
                int(v) for v in rng.choice(cluster.n_vertices, size, replace=False))
            sel = SubsetSelection(adjacency, members)
            assert boundary_size(sel) == boundary_oracle(adjacency, members)

    def test_complement_symmetry(self):
        host = grid_graph(3, 3)
        members = frozenset({0, 1, 4})
        comp = frozenset(range(9)) - members
        a = boundary_size(SubsetSelection(host.adjacency, members))
        b = boundary_size(SubsetSelection(host.adjacency, comp))
        assert a == b

    def test_relative_boundary_not_smaller(self):
        sub = make_graph([(0, 0), (1, 0)], [(0, 1)])
        host = full_box(2)
        embed = [host.index_of(tuple(c)) for c in sub.coords]
        internal = SubsetSelection(sub.adjacency, frozenset({0}))
        relative = SubsetSelection(sub.adjacency, frozenset({0}),
                                       host.adjacency, embed)
        assert boundary_size(relative) >= boundary_size(internal)


class TestProfileF:
    def test_upper_branch(self):
        assert iso.profile_f(16, 1.0, 4, 0.5, 2) == pytest.approx(4.0)

    def test_lower_branch(self):
        assert iso.profile_f(1, 1.0, 16, 0.5, 2) == 1.0

    def test_threshold_attaches_upward(self):
        # threshold c n^gamma = 4 exactly
        assert iso.profile_f(4, 1.0, 16, 0.5, 2) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            iso.profile_f(4, 0.0, 16, 0.5, 2)


class TestConnectedEnumeration:
    @pytest.mark.parametrize("graph", [grid_graph(2, 2), grid_graph(3, 2),
                                       make_graph([(0, 0), (1, 0), (-1, 0), (0, 1)],
                                                  [(0, 1), (0, 2), (0, 3)])])
    def test_matches_brute_force(self, graph):
        n = graph.n_vertices
        pairs = level_pairs(iso._connected_levels(*graph.csr, n))
        assert pairs == list(connected_subsets_dfs(graph.adjacency, n))
        got = sorted(mask for mask, _ in pairs)
        assert len(got) == len(set(got))
        assert got == sorted(connected_subsets_oracle(graph.adjacency, n))

    def test_size_cap(self):
        graph = grid_graph(3, 2)
        levels = list(iso._connected_levels(*graph.csr, 3))
        assert [orders(np.arange(b.size)).shape[1] for b, orders in levels] == [1, 2, 3]
        pairs = level_pairs(levels)
        assert pairs == list(connected_subsets_dfs(graph.adjacency, 3))
        for mask, _ in pairs:
            assert mask.bit_count() <= 3

    def test_visiting_order(self):
        # rooted at the smallest vertex, include before exclude: the first
        # minimiser kept by isoperimetric_beta depends on this order
        square = grid_graph(2, 2)
        got = level_pairs(iso._connected_levels(*square.csr, 4))
        assert got == list(connected_subsets_dfs(square.adjacency, 4))
        assert got == [(0b0001, 2), (0b0011, 2), (0b0111, 2), (0b1111, 0),
                       (0b1011, 2), (0b0101, 2), (0b1101, 2), (0b0010, 2),
                       (0b1010, 2), (0b1110, 2), (0b0100, 2), (0b1100, 2),
                       (0b1000, 2)]

    def test_long_path_names_every_vertex(self):
        # 40,000 vertices: ids past 2^15, and roots in many frames
        n = 40_000
        path = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
        levels = list(iso._connected_levels(*csr_of(path), 2))
        assert [len(b) for b, _ in levels] == [n, n - 1]
        # rows of several frames, out of order, rebuild as in the whole level
        _, orders = levels[1]
        picked = np.array([n - 2, 0, 128, 127, 300, 129, 20_000, 255, 256])
        assert (orders(picked) == orders(np.arange(n - 1))[picked]).all()
        rows = level_rows(levels)
        assert [order for order, _ in rows if len(order) == 1] == [[v] for v in range(n)]
        assert [order for order, _ in rows if len(order) == 2] == \
            [[v, v + 1] for v in range(n - 1)]
        assert rows[-4:] == [([n - 3, n - 2], 2), ([n - 2], 2),
                             ([n - 2, n - 1], 1), ([n - 1], 1)]


class TestIsoperimetricBeta:
    def test_degenerate_single_vertex(self):
        lone = perc.ClusterGraph(np.array([[0, 0]]), [[]], 0,
                                 {"d": 2, "n": 1, "p": 1.0, "seed": 0})
        report = iso.isoperimetric_beta(lone)
        assert report.degenerate and report.beta == 0.0

    def test_grid_matches_all_subsets_oracle(self):
        g = grid_graph(3, 3)
        report = iso.isoperimetric_beta(g, None, 1.0, 0.125, 9, 4)
        adjacency = g.adjacency
        best = None
        for mask in range(1, (1 << 9) - 1):
            verts = [v for v in range(9) if mask >> v & 1]
            seen = {verts[0]}
            frontier = [verts[0]]
            while frontier:
                v = frontier.pop()
                for w in adjacency[v]:
                    if mask >> w & 1 and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) != len(verts):
                continue
            ratio = boundary_oracle(adjacency, verts) / iso.profile_f(
                len(verts), 1.0, 4, 0.125, 2)
            best = ratio if best is None else min(best, ratio)
        assert report.beta == pytest.approx(best, abs=1e-12)

    def test_isomorphism_invariance(self):
        g = make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0)])
        perm = [2, 0, 3, 1]
        coords2 = [tuple(g.coords[perm[i]]) for i in range(4)]
        edges2 = []
        inv = {perm[i]: i for i in range(4)}
        for i, j in g.edges():
            edges2.append((inv[i], inv[j]))
        g2 = make_graph(coords2, edges2)
        a = iso.isoperimetric_beta(g, None, 1.0, 0.125, 4, 2)
        b = iso.isoperimetric_beta(g2, None, 1.0, 0.125, 4, 2)
        assert a.beta == pytest.approx(b.beta, abs=1e-12)

    @staticmethod
    def _box_subclusters(count: int) -> list:
        """The first origin clusters of 3..12 vertices in p = 0.5 boxes of radius 2."""
        out = []
        seed = 0
        while len(out) < count:
            config = perc.sample_bond_config(perc.LatticeSpec(2, 2), 0.5, seed)
            cluster = perc.component_of_origin(config)
            if 3 <= cluster.n_vertices <= 12:
                out.append(cluster)
            seed += 1
        return out

    @pytest.mark.parametrize("box", [None, 2, 3])
    def test_matches_oracle_on_box_subclusters(self, box):
        # box None: internal boundary; else counted in the full box of that radius
        supergraph = None if box is None else full_box(box)
        for cluster in self._box_subclusters(6):
            for cap in (3, cluster.n_vertices):
                report = iso.isoperimetric_beta(cluster, supergraph, 1.0, 0.125, cap, 4)
                beta, argmins = beta_oracle(cluster, supergraph, 1.0, 0.125, cap, 4)
                assert report.beta == beta
                assert report.argmin_vertices in argmins
                assert report.argmin_size == len(report.argmin_vertices)

    def test_first_dfs_minimiser_on_the_recipe_clusters(self):
        # isoperimetry-small's 20 box-4 clusters (51-81 vertices) at cap 8
        seed = harness.DEFAULT_SEEDS["isoperimetry-small"]
        profile = [1.0] + [iso.profile_f(k, 1.0, 4, 0.125, 2) for k in range(1, 9)]
        for cluster in harness._sampled_origin_clusters(2, 4, 0.7, 20, seed, 2):
            report = iso.isoperimetric_beta(cluster, None, 1.0, 0.125, 8, 4)
            best = None
            for mask, b in connected_subsets_dfs(cluster.adjacency, 8):
                if b and (best is None or b / profile[mask.bit_count()] < best[0]):
                    best = (b / profile[mask.bit_count()], mask)
            assert report.beta == best[0]
            assert report.argmin_vertices == [
                v for v in range(cluster.n_vertices) if best[1] >> v & 1]

    def test_supergraph_boundary_counts_edges_outside_the_cluster(self):
        # a 3-path along the x axis in the full radius-2 box: the image keeps
        # its lattice edges to the rest of the box
        path = make_graph([(-1, 0), (0, 0), (1, 0)], [(0, 1), (1, 2)])
        box = full_box(2)
        internal = iso.isoperimetric_beta(path, None, 1.0, 0.125, 3, 4)
        relative = iso.isoperimetric_beta(path, box, 1.0, 0.125, 3, 4)
        # f is 1 on one vertex and |A|^(1/2) above: internally an end pair
        # leaves by one edge; in the box a vertex leaves by 4, a pair by 6
        assert (internal.beta, internal.argmin_vertices) == (1 / 2 ** 0.5, [0, 1])
        assert (relative.beta, relative.argmin_vertices) == (4.0, [0])

    def test_supergraph_lacking_a_coordinate_is_named(self):
        message = r"^the 9-vertex supergraph lacks the cluster's coordinate \(-3, -3\)$"
        with pytest.raises(ValueError, match=message):
            iso.isoperimetric_beta(full_box(3), full_box(1))

    def test_widest_level_is_not_held_whole(self):
        # isoperimetry-small's first box-4 cluster (72 vertices) at cap 8: rows
        # linked to their parents, with orders rebuilt only for the rows tied at
        # the least ratio, peak at 1.9 MiB; copying every level's (m, k) order
        # matrix peaked at 3.9 MiB
        seed = harness.DEFAULT_SEEDS["isoperimetry-small"]
        cluster = harness._sampled_origin_clusters(2, 4, 0.7, 1, seed, 2)[0]
        _, peak = traced_peak(lambda: iso.isoperimetric_beta(cluster, None, 1.0, 0.125, 8, 4))
        assert peak <= 2.5 * 2**20

    def test_json_schema(self):
        report = iso.isoperimetric_beta(grid_graph(2, 2), None, 1.0, 0.125, 4, 2)
        buf = io.StringIO()
        report.to_json(buf)
        data = json.loads(buf.getvalue())
        assert set(data) >= {"beta", "argmin_size", "argmin_vertices",
                             "c", "gamma", "n"}

    def test_json_rejects_non_finite(self):
        report = iso.IsoperimetryReport(float("inf"), 1, [0], 1.0, 0.125, 1)
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json(io.StringIO())


class TestFolner:
    def test_grid_k1(self):
        value, exact = iso.folner_function(*grid_graph(3, 3).csr, 1.0, 9)
        assert (value, exact) == (3, True)

    def test_small_k_singleton(self):
        g = grid_graph(3, 3)
        value, exact = iso.folner_function(*g.csr, 0.25, 9)
        assert (value, exact) == (1, True)

    def test_wreath_connected_equals_unrestricted(self):
        wreath = wr.build_wreath(make_graph([(x, 0) for x in range(3)],
                                            [(0, 1), (1, 2)]))
        adj = lists_of(*wreath.csr)
        ks = (0.5, 1.0, 2.0)
        brute = folner_oracle(adj, ks, 24)
        for k in ks:
            conn, _ = iso.folner_function(*wreath.csr, k, 24)
            assert conn == brute[k]

    def test_monotone_in_k(self):
        csr = grid_graph(3, 3).csr
        values = [iso.folner_function(*csr, k, 9)[0] for k in (0.5, 1.0, 1.5, 2.0)]
        clean = [v for v in values if v is not None]
        assert clean == sorted(clean)

    def test_connected_restriction_sound_on_small_graphs(self):
        hosts = [grid_graph(2, 2), grid_graph(3, 2), grid_graph(3, 3),
                 make_graph([(0, 0), (1, 0), (-1, 0), (0, 1)],
                            [(0, 1), (0, 2), (0, 3)])]
        for host in hosts:
            n = host.n_vertices
            brute = folner_oracle(host.adjacency, (0.5, 1.0, 2.0, 3.0), n)
            for k, want in brute.items():
                conn, _ = iso.folner_function(*host.csr, k, n)
                assert conn == want

    @staticmethod
    def _count_levels(monkeypatch) -> list:
        """Count the levels each pass draws from the enumerator."""
        counts = []
        inner = iso._connected_levels

        def counted(*args):
            counts.append(0)
            for level in inner(*args):
                counts[-1] += 1
                yield level
        monkeypatch.setattr(iso, "_connected_levels", counted)
        return counts

    def test_cut_off_at_a_root(self, monkeypatch):
        counts = self._count_levels(monkeypatch)
        path = grid_graph(5, 1)
        # the end vertex alone qualifies for both k: the pass stops at size 1
        assert iso._folner_minima(*path.csr, [0.5, 1.0], 5) == {0.5: 1, 1.0: 1} \
            == folner_oracle(path.adjacency, [0.5, 1.0], 5)
        assert counts == [1]

    def test_cut_off_at_cap_one(self, monkeypatch):
        counts = self._count_levels(monkeypatch)
        cycle = make_graph([(x, 0) for x in range(6)],
                           [(i, (i + 1) % 6) for i in range(6)])
        # {0} qualifies for k = 0.5 and {0, 1} for k = 1: sizes 3..6 are never grown
        assert iso._folner_minima(*cycle.csr, [0.5, 1.0], 6) == {0.5: 1, 1.0: 2} \
            == folner_oracle(cycle.adjacency, [0.5, 1.0], 6)
        assert counts == [2]


class TestFolnerLowerBound:
    @staticmethod
    def _assert_pinned(base, wreath_values):
        report = iso.folner_lower_bound_check(base, list(wreath_values))
        assert {e["k"]: e["wreath_folner"] for e in report} == wreath_values
        for entry in report:
            assert entry["base_folner"] == 1
            assert entry["holds"] and entry["exact"]

    def test_three_vertex_bases(self):
        # exact minima of the folner-wreath recipe's 24-vertex wreaths
        p3 = make_graph([(x, 0) for x in range(3)], [(0, 1), (1, 2)])
        triangle = make_graph([(0, 0), (1, 0), (0, 1)],
                              [(0, 1), (0, 2), (1, 2)])
        self._assert_pinned(p3, {1: 2, 2: 8, 3: 12})
        self._assert_pinned(triangle, {1: 3, 2: 11, 3: 12})

    def test_wreath_side_dominates(self, k2):
        self._assert_pinned(k2, {1: 2, 2: 4, 3: 6})

    def test_wreath_size_cap_named(self):
        square = make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match="64 vertices.*capped at 24"):
            iso.folner_lower_bound_check(square, [1])


class TestConfigurationGraph:
    def test_full_wreath_over_k2_is_square(self, k2):
        g = wr.build_wreath(k2)
        K = iso.ConfigurationGraph(g, frozenset(range(g.n_vertices)))
        assert K.configs == [0, 1, 2, 3]
        assert sorted(map(len, K.adjacency)) == [2, 2, 2, 2]  # a 4-cycle: 4 edges

    def test_single_element(self, k2):
        g = wr.build_wreath(k2)
        K = iso.ConfigurationGraph(g, frozenset({g.state_index(0, 0b10)}))
        assert K.configs == [0b10] and K.adjacency == [[]]
        cls = K.classify(1)
        assert cls["bad_points"] == {(0, 0b10)}

    def test_remark_edge_count(self, k2):
        g = wr.build_wreath(k2)
        def n_edges(K):
            return sum(map(len, K.adjacency)) // 2

        K = iso.ConfigurationGraph(g, frozenset(range(g.n_vertices)))
        assert g.n_vertices == 2 * n_edges(K)  # equality: no isolated config
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(20):
            size = int(rng.integers(1, g.n_vertices + 1))
            subset = [int(v) for v in rng.choice(g.n_vertices, size, replace=False)]
            K = iso.ConfigurationGraph(g, frozenset(subset))
            assert len(subset) >= 2 * n_edges(K)


class TestPruning:
    def test_k4_unchanged(self):
        adj = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        assert iso.prune_to_satisfiable(adj, 3) == {0, 1, 2, 3}

    def test_star_hypothesis_fails(self):
        adj = [[1, 2, 3, 4, 5]] + [[0]] * 5
        assert iso.ns_edge_fraction(adj, 3) >= 0.5

    def test_output_min_degree_unconditional(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        checked = 0
        for _ in range(60):
            n = int(rng.integers(5, 14))
            adj = [[] for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < 0.4:
                    adj[i].append(j)
                    adj[j].append(i)
            b = float(rng.integers(2, 7))
            alive = iso.prune_to_satisfiable(adj, b)
            for v in alive:
                assert 3 * sum(1 for w in adj[v] if w in alive) >= b
            if sum(len(a) for a in adj) and iso.ns_edge_fraction(adj, b) < 0.5:
                assert alive
                checked += 1
        assert checked > 5


class TestFlipClosure:
    def test_full_cube_equality(self):
        result = iso.flip_closure_bound_check(range(16), 4, 4)
        assert result["premise_holds"] and result["bound_holds"]
        assert result["family_size"] == result["required"] == 16

    def test_single_config_vacuous(self):
        result = iso.flip_closure_bound_check({0b101}, 3, 0)
        assert result["premise_holds"] and result["bound_holds"]

    def test_premise_violation_witness(self):
        result = iso.flip_closure_bound_check({0b00, 0b11}, 2, 1)
        assert not result["premise_holds"]
        assert result["witness"] in {0b00, 0b11}

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(404)
        for _ in range(400):
            m = int(rng.integers(0, 10))
            if rng.random() < 0.5:  # a subcube, with a few members toggled
                free = rng.permutation(m)[:rng.integers(0, m + 1)].tolist()
                fixed = int(rng.integers(0, 2**m)) & ~sum(1 << x for x in free)
                family = {fixed | sum(bits) for bits in itertools.product(
                    *[(0, 1 << x) for x in free])}
                family ^= set(rng.integers(0, 2**m, size=rng.integers(0, 3)).tolist())
                family = family or {0}
            else:
                family = rng.choice(2**m, size=rng.integers(1, 2**m + 1), replace=False).tolist()
            Y = int(rng.integers(0, m + 2))
            assert iso.flip_closure_bound_check(family, m, Y) == flip_closure_oracle(family, m, Y)

    @pytest.mark.parametrize("family", [[0, 8], [-1, 0]])
    def test_rejects_members_off_the_sites(self, family):
        with pytest.raises(ValueError, match="lamp pattern on 3 sites"):
            iso.flip_closure_bound_check(family, 3, 1)


class TestSmallBoundaryLemma:
    def test_whole_wreath_no_boundary(self, k2):
        g = wr.build_wreath(k2)
        report = iso.lemma_neud_check(g, range(g.n_vertices), 2.0)
        assert report["boundary_ratio"] == 0.0
        assert report["bad_fraction"] == 0.0
        assert report["holds"]

    def test_precondition_gate(self, k2):
        g = wr.build_wreath(k2)
        with pytest.raises(ValueError):
            iso.lemma_neud_check(g, {g.origin_state}, 2.0)


@settings(max_examples=30, deadline=None)
@given(mask=st.integers(min_value=1, max_value=(1 << 9) - 1))
def test_boundary_oracle_property(mask):
    g = grid_graph(3, 3)
    members = frozenset(v for v in range(9) if mask >> v & 1)
    sel = SubsetSelection(g.adjacency, members)
    assert boundary_size(sel) == boundary_oracle(g.adjacency, members)


PAIRS_12 = list(itertools.combinations(range(12), 2))


def _random_graph(n: int, edges) -> list:
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        if j < n:
            adjacency[i].append(j)
            adjacency[j].append(i)
    return adjacency


# sparse edge lists leave isolated vertices and several components
RANDOM_EDGES = st.one_of(
    st.lists(st.sampled_from(PAIRS_12), max_size=20, unique=True),
    st.lists(st.booleans(), min_size=len(PAIRS_12), max_size=len(PAIRS_12))
    .map(lambda bits: [e for e, bit in zip(PAIRS_12, bits) if bit]))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), edges=RANDOM_EDGES,
       cap_cut=st.integers(min_value=0, max_value=11))
def test_enumerator_carries_the_boundary(n, edges, cap_cut):
    adjacency = _random_graph(n, edges)
    cap = max(1, n - cap_cut)
    pairs = level_pairs(iso._connected_levels(*csr_of(adjacency), cap))
    assert pairs == list(connected_subsets_dfs(adjacency, cap))
    assert [b for _, b in pairs] == [
        boundary_oracle(adjacency, [v for v in range(n) if mask >> v & 1]) for mask, _ in pairs]
    masks = [mask for mask, _ in pairs]
    assert len(masks) == len(set(masks))
    assert set(masks) == connected_subsets_oracle(adjacency, cap)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), edges=RANDOM_EDGES,
       ks=st.lists(st.sampled_from([0.25, 0.5, 1.0, 4 / 3, 2.0, 3.0, 7.5]),
                   min_size=2, max_size=5, unique=True),
       cap_cut=st.integers(min_value=0, max_value=11))
# a 4-cycle and two 4-paths: every whole component qualifies, yet k=3 needs a 3-path end
@example(n=12, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                      (8, 9), (9, 10), (10, 11)], ks=[0.5, 1.0, 3.0], cap_cut=8)
# two triangles, a 3-path and three isolated vertices
@example(n=12, edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7), (7, 8)],
         ks=[0.5, 1.0, 3.0], cap_cut=0)
def test_folner_one_pass_matches_oracle(n, edges, ks, cap_cut):
    adjacency = _random_graph(n, edges)
    cap = max(1, n - cap_cut)
    want = folner_oracle(adjacency, ks, cap)
    csr = csr_of(adjacency)
    assert iso._folner_minima(*csr, ks, cap) == want
    assert iso.folner_function(*csr, ks[0], cap) == (want[ks[0]], want[ks[0]] is not None)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=65, max_value=200), seed=st.integers(0, 2**32 - 1),
       mean_degree=st.floats(min_value=1.0, max_value=4.0),
       cap=st.integers(min_value=2, max_value=4), supergraph=st.booleans())
def test_levels_match_the_dfs_past_one_word(n, seed, mean_degree, cap, supergraph):
    # 2-4 mask words, and past 128 vertices more than one frame of roots
    rng = np.random.Generator(np.random.Philox(key=seed))

    def edges(count):
        return {(min(i, j), max(i, j)) for i, j in rng.integers(0, n, (count, 2)).tolist()
                if i != j}
    inner = edges(int(n * mean_degree / 2))
    adjacency = _random_graph(n, inner)
    boundary = csr_boundary = None
    if supergraph:  # more edges among the images, and edges to vertices outside
        lists = _random_graph(n, inner | edges(n // 2))
        boundary = (lists, [len(a) + extra for a, extra in
                            zip(lists, rng.integers(0, 3, n).tolist())])
        csr_boundary = (*csr_of(lists), np.array(boundary[1]))
    assert level_pairs(iso._connected_levels(*csr_of(adjacency), cap, csr_boundary)) == \
        list(connected_subsets_dfs(adjacency, cap, boundary))
