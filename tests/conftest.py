"""Shared fixtures and independent oracles used across the test modules.

The oracles here are deliberately naive (plain-Python DFS/BFS, dict
counting, scans of every vertex subset) so they share no code path with
the implementations they check.
"""

from __future__ import annotations

import numpy as np
import pytest

from percwalk.percolation import ClusterGraph


def make_graph(coords, edges, meta=None) -> ClusterGraph:
    """Small hand-built cluster; origin is the lexicographically least vertex."""
    adjacency = [[] for _ in coords]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    adjacency = [sorted(a) for a in adjacency]
    origin = min(range(len(coords)), key=lambda i: tuple(coords[i]))
    base_meta = {"d": len(coords[0]), "n": 1, "p": 1.0, "seed": 0}
    if meta:
        base_meta.update(meta)
    return ClusterGraph(np.array(coords), adjacency, origin, base_meta)


def visited_dist_oracle(cluster: ClusterGraph, n: int) -> dict:
    """Joint law of (number of distinct visited vertices, endpoint == origin)
    by plain recursive path enumeration."""
    out = {}

    def recurse(pos, visited, prob, steps_left):
        if steps_left == 0:
            key = (len(visited), pos == cluster.origin)
            out[key] = out.get(key, 0.0) + prob
            return
        nbrs = cluster.adjacency[pos]
        for w in nbrs:
            recurse(w, visited | {w}, prob / len(nbrs), steps_left - 1)

    recurse(cluster.origin, {cluster.origin}, 1.0, n)
    return out


def laplace_oracle(cluster: ClusterGraph, alpha: float, n: int,
                   pinned: bool = False) -> float:
    dist = visited_dist_oracle(cluster, n)
    return sum(alpha**m * pr for (m, pin), pr in dist.items()
               if pin or not pinned)


def bfs_oracle(adjacency, start: int) -> dict:
    """Plain dict-and-list breadth-first distances."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def boundary_oracle(adjacency, members) -> int:
    """Directed edge scan: host edges leaving the member set."""
    members = set(members)
    return sum(1 for v in members for w in adjacency[v] if w not in members)


FOLNER_ORACLE_LIMIT = 24


def folner_oracle(adjacency, k_list, size_cap: int) -> dict:
    """All-subsets oracle for Folner minima: for each k the smallest |U| <=
    size_cap with k |boundary(U)| <= |U| (None when none), found by scoring
    every nonempty vertex subset, connected or not, up to 24 vertices."""
    n = len(adjacency)
    if n > FOLNER_ORACLE_LIMIT:
        raise ValueError(f"{n} vertices is past the oracle's limit of {FOLNER_ORACLE_LIMIT}")
    nbr = [np.uint32(sum(1 << w for w in set(nbrs))) for nbrs in adjacency]
    best = {k: None for k in k_list}
    chunk = 1 << 21
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        sizes = np.bitwise_count(masks).astype(np.int64)
        boundary = np.zeros(masks.size, dtype=np.int64)
        for v in range(n):
            inside = (masks >> np.uint32(v)) & np.uint32(1)
            boundary += inside.astype(np.int64) * \
                np.bitwise_count(nbr[v] & ~masks).astype(np.int64)
        for k in k_list:
            ok = (k * boundary <= sizes) & (sizes <= size_cap)
            if np.any(ok):
                m = int(sizes[ok].min())
                best[k] = m if best[k] is None else min(best[k], m)
    return best


@pytest.fixture
def path3() -> ClusterGraph:
    return make_graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])


@pytest.fixture
def k2() -> ClusterGraph:
    return make_graph([(0, 0), (1, 0)], [(0, 1)])
