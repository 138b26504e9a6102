"""Lamplighter graphs, kernels, reversibility, and the pinned-return identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percwalk import wreath as wr
from percwalk.walk import exact_laplace
from conftest import lamplighter_matrix_oracle, lists_of, make_graph


def base_path(k: int):
    return make_graph([(x, 0) for x in range(k)],
                      [(i, i + 1) for i in range(k - 1)])


def grid_block(side: int):
    coords = [(x, y) for x in range(side) for y in range(side)]
    index = {c: i for i, c in enumerate(coords)}
    edges = [(index[(x, y)], index[(x + dx, y + dy)]) for x, y in coords
             for dx, dy in ((1, 0), (0, 1)) if (x + dx, y + dy) in index]
    return make_graph(coords, edges)


@st.composite
def connected_bases(draw, max_m: int = 8):
    """A random spanning tree on 2..max_m vertices plus random extra edges."""
    m = draw(st.integers(2, max_m))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=m)))
    return make_graph([(x, 0) for x in range(m)], sorted(edges))


def single_vertex():
    import numpy as np
    from percwalk.percolation import ClusterGraph
    return ClusterGraph(np.array([[0, 0]]), [[]], 0,
                        {"d": 2, "n": 1, "p": 1.0, "seed": 0})


def step_from(kernel, state) -> np.ndarray:
    """One step of the kernel from the point mass at ``state``, an index or (a, f)."""
    g = kernel.wreath
    point = np.zeros(g.n_vertices)
    point[g.state_index(*state) if isinstance(state, tuple) else state] = 1.0
    return kernel.step(point)


def detailed_balance_gap(kernel) -> float:
    """Max over state pairs of |m(u) p(u,v) - m(v) p(v,u)|, each row p(u, .)
    taken as one step from the point mass at u."""
    meas = wr.reversible_measure(kernel)
    P = np.array([step_from(kernel, u) for u in range(kernel.wreath.n_vertices)])
    flow = meas[:, None] * P
    return float(np.abs(flow - flow.T).max())


class TestWreathGraph:
    def test_single_vertex_base(self):
        g = wr.build_wreath(single_vertex())
        assert g.n_vertices == 2
        assert lists_of(*g.csr) == [[1], [0]]

    def test_k2_size(self, k2):
        assert wr.build_wreath(k2).n_vertices == 8

    def test_p3_size_and_degrees(self):
        g = wr.build_wreath(base_path(3))
        assert g.n_vertices == 24
        base = g.base.adjacency
        for i, nbrs in enumerate(lists_of(*g.csr)):
            a, _ = g.state_of(i)
            assert len(nbrs) == len(base[a]) + 1

    def test_edge_families_disjoint_and_symmetric(self):
        g = wr.build_wreath(base_path(3))
        adj = lists_of(*g.csr)
        base = g.base.adjacency
        for i, nbrs in enumerate(adj):
            ai, fi = g.state_of(i)
            for j in nbrs:
                assert i in adj[j]
                aj, fj = g.state_of(j)
                flip = ai == aj and fj == fi ^ (1 << ai)
                move = fi == fj and aj in base[ai]
                assert flip != move

    @settings(max_examples=25, deadline=None)
    @given(base=connected_bases())
    def test_csr_rows_are_the_sorted_neighbours(self, base):
        g = wr.build_wreath(base)
        indptr, indices = g.csr
        assert indptr.dtype == indices.dtype == np.int64
        assert lists_of(*g.csr) == [sorted(g.neighbors(i)) for i in range(g.n_vertices)]

    def test_rejects_oversized_base(self):
        big = base_path(17)
        with pytest.raises(ValueError):
            wr.build_wreath(big)


class TestKernel:
    def test_half_alpha_k2_uniform(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.5)
        row = step_from(kernel, (0, 0))
        assert np.count_nonzero(row) == 4
        for mass in row[row > 0]:
            assert mass == pytest.approx(0.25)

    def test_alpha_03_masses(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.3)
        row = step_from(kernel, (0, 0))
        at = kernel.wreath.state_index
        assert np.count_nonzero(row) == 4
        assert row[at(1, 0b00)] == pytest.approx(0.09)
        assert row[at(1, 0b01)] == pytest.approx(0.21)
        assert row[at(1, 0b10)] == pytest.approx(0.21)
        assert row[at(1, 0b11)] == pytest.approx(0.49)

    def test_rows_stochastic(self):
        kernel = wr.LamplighterKernel(wr.build_wreath(base_path(3)), 0.37)
        n = kernel.wreath.n_vertices
        for u in range(n):
            point = np.zeros(n)
            point[u] = 1.0
            assert abs(kernel.step(point).sum() - 1.0) <= 1e-12
        v = np.random.default_rng(3).random(n)
        assert abs(kernel.step(v).sum() - v.sum()) <= 1e-12
        sums = np.asarray(lamplighter_matrix_oracle(kernel.wreath, 0.37).sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_rejects_bad_alpha_and_edgeless_base(self, k2):
        with pytest.raises(ValueError):
            wr.LamplighterKernel(wr.build_wreath(k2), 1.0)
        with pytest.raises(ValueError):
            wr.LamplighterKernel(wr.build_wreath(single_vertex()), 0.5)


class TestOperatorAgainstMatrix:
    @settings(max_examples=40, deadline=None)
    @given(base=connected_bases(), alpha=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_step_is_transpose_product(self, base, alpha, seed):
        kernel = wr.LamplighterKernel(wr.build_wreath(base), alpha)
        matrix = lamplighter_matrix_oracle(kernel.wreath, alpha)
        v = np.random.default_rng(seed).random(kernel.wreath.n_vertices)
        v /= v.sum()
        assert np.abs(kernel.step(v) - matrix.T @ v).max() <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(base=connected_bases(), alpha=st.floats(0.05, 0.95), steps=st.integers(0, 6))
    def test_return_probability_follows_matrix(self, base, alpha, steps):
        g = wr.build_wreath(base)
        kernel = wr.LamplighterKernel(g, alpha)
        matrix = lamplighter_matrix_oracle(g, alpha)
        v = np.zeros(g.n_vertices)
        v[g.origin_state] = 1.0
        for _ in range(steps):
            v = matrix.T @ v
        assert abs(wr.return_probability(kernel, steps) - v[g.origin_state]) <= 1e-15


class TestReturnProbability:
    def test_k2_two_steps(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.5)
        assert wr.return_probability(kernel, 2) == pytest.approx(0.25)

    def test_zero_steps(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.5)
        assert wr.return_probability(kernel, 0) == 1.0

    def test_odd_steps_bipartite(self):
        kernel = wr.LamplighterKernel(wr.build_wreath(base_path(3)), 0.5)
        assert wr.return_probability(kernel, 3) == 0.0

    def test_rejects_negative_steps(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.5)
        with pytest.raises(ValueError):
            wr.return_probability(kernel, -1)


def identity_sides(base, alpha: float, n: int) -> tuple:
    """The lamplighter return probability at 2n and E[alpha^{N_2n} 1{X_2n = origin}]."""
    kernel = wr.LamplighterKernel(wr.build_wreath(base), alpha)
    return (wr.return_probability(kernel, 2 * n),
            exact_laplace(base, alpha, 2 * n, pinned=True))


class TestIdentity:
    def test_k2_closed_form(self, k2):
        lhs, rhs = identity_sides(k2, 0.5, 1)
        assert lhs == pytest.approx(0.25)
        assert rhs == pytest.approx(0.25)
        assert abs(lhs - rhs) <= 1e-15

    def test_requires_positive_n(self, k2):
        # at time 0 no lamp has been set yet, so the two sides are 1 and alpha
        assert identity_sides(k2, 0.3, 0) == (1.0, pytest.approx(0.3))
    def test_alpha_near_one_recovers_base_return(self):
        base = base_path(3)
        P = np.zeros((3, 3))
        for a, nbrs in enumerate(base.adjacency):
            for b in nbrs:
                P[a, b] = 1.0 / len(nbrs)
        base_return = np.linalg.matrix_power(P, 4)[0, 0]
        lhs, _ = identity_sides(base, 1.0 - 1e-9, 2)
        assert lhs == pytest.approx(base_return, abs=1e-6)

    def test_small_sweep(self):
        bases = [base_path(2), base_path(3),
                 make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1), (1, 2), (2, 3), (3, 0)])]
        for base in bases:
            for alpha in (0.3, 0.7):
                for n in (1, 2, 3):
                    lhs, rhs = identity_sides(base, alpha, n)
                    assert abs(lhs - rhs) <= 1e-12

    def test_full_4x4_block(self):
        base = grid_block(4)
        assert base.n_vertices == wr.MAX_BASE
        for alpha in (0.3, 0.7):
            kernel = wr.LamplighterKernel(wr.build_wreath(base), alpha)
            for n in (1, 2):
                lhs, rhs = identity_sides(base, alpha, n)
                assert abs(lhs - rhs) <= 1e-12


class TestReversibility:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_detailed_balance(self, alpha):
        for base in (base_path(2), base_path(3)):
            kernel = wr.LamplighterKernel(wr.build_wreath(base), alpha)
            assert detailed_balance_gap(kernel) <= 1e-12

    def test_detects_a_wrong_measure(self, monkeypatch):
        kernel = wr.LamplighterKernel(wr.build_wreath(base_path(3)), 0.3)
        monkeypatch.setattr(wr, "reversible_measure",
                            lambda k: np.ones(k.wreath.n_vertices))
        assert detailed_balance_gap(kernel) > 0.1

    def test_measure_reduces_at_half(self):
        kernel = wr.LamplighterKernel(wr.build_wreath(base_path(3)), 0.5)
        m = wr.reversible_measure(kernel)
        g = kernel.wreath
        base = g.base.adjacency
        for i in range(g.n_vertices):
            a, _ = g.state_of(i)
            assert m[i] == pytest.approx(len(base[a]))

    def test_measure_formula(self, k2):
        kernel = wr.LamplighterKernel(wr.build_wreath(k2), 0.3)
        m = wr.reversible_measure(kernel)
        g = kernel.wreath
        ratio = 0.7 / 0.3
        for i in range(g.n_vertices):
            a, f = g.state_of(i)
            assert m[i] == pytest.approx(1.0 * ratio ** bin(f).count("1"))


class TestMarginals:
    def test_position_marginal_is_base_walk(self):
        for base in (base_path(3),
                     make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                                [(0, 1), (1, 2), (2, 3), (3, 0)])):
            m = base.n_vertices
            P = np.zeros((m, m))
            for a, nbrs in enumerate(base.adjacency):
                for b in nbrs:
                    P[a, b] = 1.0 / len(nbrs)
            kernel = wr.LamplighterKernel(wr.build_wreath(base), 0.35)
            v = np.zeros(kernel.wreath.n_vertices)
            v[kernel.wreath.origin_state] = 1.0
            for steps in range(6):
                got = v.reshape(m, 2**m).sum(axis=1)
                want = np.linalg.matrix_power(P.T, steps)[:, base.origin]
                assert np.abs(got - want).max() <= 1e-12
                v = kernel.step(v)
