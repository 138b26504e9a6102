"""Shared fixtures and independent oracles used across the test modules.

The oracles here are deliberately naive (plain-Python DFS/BFS, dict
counting, scans of every vertex subset) so they share no code path with
the implementations they check.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from percwalk.bounds import LOG4, NashProfile, OdeSolution
from percwalk.isoperimetry import SubsetSelection, boundary_size, profile_f
from percwalk.percolation import BlockStatus, ClusterGraph


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


def uniform_paths_oracle(cluster: ClusterGraph, n: int) -> dict:
    """Joint law of (number of distinct visited vertices, endpoint == origin)
    on a base of uniform degree g, as exact fractions: every n-step path,
    taken in lexicographic order of its neighbour choices, adds g^-n to its
    key in a dict."""
    w = Fraction(1, len(cluster.adjacency[cluster.origin]) ** n)
    out = {}

    def recurse(pos, visited, steps_left):
        if steps_left == 0:
            key = (len(visited), pos == cluster.origin)
            out[key] = out.get(key, 0) + w
            return
        for v in cluster.adjacency[pos]:
            recurse(v, visited | {v}, steps_left - 1)

    recurse(cluster.origin, {cluster.origin}, n)
    return out


def nash_ode_oracle(profile: NashProfile, t_max: float, n_samples: int = 2000,
                    rtol: float = 1e-10, max_step: float = np.inf) -> OdeSolution:
    """Integrate a' = -a / (8 F_inv(4/a)^2) from a(0) = 1 up to t_max by RK45,
    in L = -log a and s = log(1 + t), on the grid of ``nash_ode_solve``."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")

    def rhs(s, y):
        L = y[0]
        t = np.expm1(s)
        f = profile.F_inv_log(LOG4 + L)
        return [(1.0 + t) / (8.0 * f * f)]

    s_max = float(np.log1p(t_max))
    s_eval = np.linspace(0.0, s_max, n_samples)
    sol = solve_ivp(rhs, (0.0, s_max), [0.0], t_eval=s_eval, rtol=rtol,
                    atol=1e-12, max_step=max_step, method="RK45")
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    t = np.expm1(sol.t)
    return OdeSolution(profile, t, sol.y[0])


def alpha_transfer(c0: float, alpha0: float, alpha: float) -> float:
    """Rescale a decay constant from rate alpha0 to rate alpha.

    If E[alpha0^N] <= e^{-c0} then E[alpha^N] <= e^{-c} with c the value
    returned: for alpha <= alpha0 by domination, c = c0; otherwise by
    Jensen, since alpha^N = (alpha0^N)^q with q = log(alpha)/log(alpha0) < 1.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < alpha0 < 1.0):
        raise ValueError("alpha and alpha0 must lie in (0, 1)")
    if alpha <= alpha0:
        return c0
    return c0 * float(np.log(alpha) / np.log(alpha0))


def lamplighter_matrix_oracle(wreath, alpha: float) -> sp.csr_matrix:
    """One-step transition matrix of the lamplighter walk at ``alpha``, built
    entry by entry: from (a, f) to each base neighbour b, with the lamps at a
    and b set to off (weight alpha) or on (1 - alpha), over deg(a)."""
    base = wreath.base
    m = wreath.m
    a_w = alpha          # lamp ends up off
    b_w = 1.0 - alpha    # lamp ends up on
    deg = base.degrees.astype(np.float64)
    rows, cols, vals = [], [], []
    for a in range(m):
        p_move = 1.0 / deg[a]
        for b in base.adjacency[a]:
            for f in range(2**m):
                src = wreath.state_index(a, f)
                cleared = f & ~(1 << a) & ~(1 << b)
                for x, wx in ((0, a_w), (1, b_w)):
                    for y, wy in ((0, a_w), (1, b_w)):
                        tgt = wreath.state_index(b, cleared | (x << a) | (y << b))
                        rows.append(src)
                        cols.append(tgt)
                        vals.append(wx * wy * p_move)
    n = wreath.n_vertices
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


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


def killed_lambda1_oracle(cluster: ClusterGraph, r: int) -> float:
    """lambda_1 of the walk killed outside the chemical ball D <= r, by a
    dense eigensolve: one minus the top eigenvalue of the symmetric matrix
    1 / sqrt(deg x * deg y) over the ball's edges, with the ball from a plain
    BFS over the adjacency lists and the degrees of the whole cluster."""
    dist = bfs_oracle(cluster.adjacency, cluster.origin)
    ball = sorted(v for v, k in dist.items() if k <= r)
    row = {v: i for i, v in enumerate(ball)}
    sym = np.zeros((len(ball), len(ball)))
    for v in ball:
        for w in cluster.adjacency[v]:
            if w in row:
                deg_v, deg_w = len(cluster.adjacency[v]), len(cluster.adjacency[w])
                sym[row[v], row[w]] = 1.0 / np.sqrt(deg_v * deg_w)
    return 1.0 - float(np.linalg.eigvalsh(sym)[-1])


def open_graph_oracle(config) -> dict:
    """Open neighbours of every box vertex, read off the edge list one edge
    at a time."""
    tails, heads, _ = config.spec.edges()
    adj = {v: [] for v in range(config.spec.n_vertices)}
    for t, h, is_open in zip(tails.tolist(), heads.tolist(), config.open.tolist()):
        if is_open:
            adj[t].append(h)
            adj[h].append(t)
    return adj


def components_oracle(adj: dict) -> list:
    """Components of a dict-of-lists graph by stack flood fill, each sorted,
    listed in order of their smallest vertex."""
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def extraction_oracle(config, kind: str, r: int = 0):
    """``(coords, adjacency, origin, meta)`` of ``component_of_origin``
    (kind "origin"), ``largest_cluster`` ("largest"; ``None`` for the empty
    sentinel) or ``chemical_ball(config, r)`` ("ball"), from the open graph,
    flood fill and breadth-first distances in plain Python."""
    spec = config.spec
    side = spec.side
    origin_id = sum(spec.n * side**a for a in range(spec.d))
    adj = open_graph_oracle(config)
    if kind == "origin":
        ids = next(c for c in components_oracle(adj) if origin_id in c)
    elif kind == "largest":
        comps = [c for c in components_oracle(adj) if len(c) > 1]
        if not comps:
            return None
        ids = max(comps, key=len)  # first of the largest = smallest least vertex
    else:
        ids = sorted(v for v, dist in bfs_oracle(adj, origin_id).items() if dist <= r)
    local = {v: i for i, v in enumerate(ids)}
    adjacency = [sorted(local[w] for w in adj[v] if w in local) for v in ids]
    coords = []
    for v in ids:
        digits = []
        for _ in range(spec.d):
            v, rem = divmod(v, side)
            digits.append(rem - spec.n)
        coords.append(digits[::-1])
    meta = {"d": spec.d, "n": spec.n, "p": config.p, "seed": config.seed}
    return coords, adjacency, local.get(origin_id), meta


def _subgraph_components(t_all: np.ndarray, h_all: np.ndarray,
                         coords_t: np.ndarray, coords_h: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray) -> tuple[dict, list[list[int]]]:
    """Open components of the subgraph induced on the sub-box [lo, hi]."""
    inside = np.all((coords_t >= lo) & (coords_t <= hi), axis=1) & \
        np.all((coords_h >= lo) & (coords_h <= hi), axis=1)
    t, h = t_all[inside], h_all[inside]
    adj: dict[int, list[int]] = {}
    for a, b in zip(t.tolist(), h.tolist()):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    comps = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(comp)
    return adj, comps


def _crosses_inner_box(spec, comp: set[int], adj: dict,
                       coords_all: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray) -> bool:
    """Does the component contain, inside [lo, hi], a face-to-face open path
    for every axis?"""
    members = [v for v in comp
               if np.all((coords_all[v] >= lo) & (coords_all[v] <= hi))]
    if not members:
        return False
    member_set = set(members)
    coords = {v: coords_all[v] for v in members}
    for axis in range(spec.d):
        sources = [v for v in members if coords[v][axis] == lo[axis]]
        targets = {v for v in members if coords[v][axis] == hi[axis]}
        if not sources or not targets:
            return False
        seen = set(sources)
        queue = deque(sources)
        hit = bool(seen & targets)
        while queue and not hit:
            v = queue.popleft()
            for w in adj.get(v, ()):
                if w in member_set and w not in seen:
                    seen.add(w)
                    if w in targets:
                        hit = True
                        break
                    queue.append(w)
        if not hit:
            return False
    return True


def _component_diameter(comp: list[int], adj: dict, cap: int) -> int:
    """Graph diameter of a component; early exit once it exceeds ``cap``."""
    comp_set = set(comp)
    diameter = 0
    for start in comp:
        dist = {start: 0}
        queue = deque([start])
        ecc = 0
        while queue:
            v = queue.popleft()
            for w in adj.get(v, ()):
                if w in comp_set and w not in dist:
                    dist[w] = dist[v] + 1
                    ecc = max(ecc, dist[w])
                    queue.append(w)
        diameter = max(diameter, ecc)
        if diameter > cap:
            return diameter
    return diameter


def classify_boxes_oracle(config, N: int) -> dict:
    """Per-block ``BlockStatus`` of ``classify_boxes``, by a set of every open
    edge and plain breadth-first searches per block: one per component, one
    per axis for crossings, one per vertex for diameters."""
    if N < 4:
        raise ValueError(f"block scale must be >= 4, got {N}")
    spec = config.spec
    step = 2 * N + 1
    big = (5 * N) // 4
    imax = int(np.ceil((spec.n + N) / step))
    path_cap = N // 10
    blocks = {}
    tails, heads, _ = spec.edges()
    t_open, h_open = tails[config.open], heads[config.open]
    open_set = {(int(t), int(h)) for t, h in zip(t_open, h_open)}
    coords_all = spec.all_coords()
    coords_t = coords_all[t_open]
    coords_h = coords_all[h_open]

    for flat in np.ndindex(*(2 * imax + 1,) * spec.d):
        i = np.array(flat) - imax
        center = step * i
        lo_in, hi_in = center - N, center + N
        if np.any(hi_in < -spec.n) or np.any(lo_in > spec.n):
            continue  # block does not intersect the sampled box
        lo_big, hi_big = center - big, center + big
        if np.any(lo_big < -spec.n) or np.any(hi_big > spec.n):
            blocks[tuple(i)] = BlockStatus(False, False, False)
            continue

        adj, comps = _subgraph_components(t_open, h_open, coords_t, coords_h,
                                          lo_big, hi_big)
        crossing_comps = [c for c in comps
                          if _crosses_inner_box(spec, set(c), adj, coords_all,
                                                lo_in, hi_in)]
        crossing = False
        if len(crossing_comps) == 1:
            k = crossing_comps[0]
            others_short = all(
                _component_diameter(c, adj, path_cap) <= path_cap
                for c in comps if c is not k)
            crossing = others_short

        row = int(np.floor(np.sqrt(N))) + 1
        edge_event = False
        for kk in range(row):
            a = center.copy()
            a[0] += kk
            b = a.copy()
            b[0] += 1
            if np.any(np.abs(a) > spec.n) or np.any(np.abs(b) > spec.n):
                continue
            e = (spec.vertex_index(a), spec.vertex_index(b))
            if (min(e), max(e)) in open_set:
                edge_event = True
                break

        blocks[tuple(i)] = BlockStatus(True, crossing, edge_event)
    return blocks


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


def connected_subsets_oracle(adjacency, size_cap: int) -> set:
    """Bitmasks of every connected vertex subset of 1..size_cap vertices,
    found by a DFS inside each of the 2^n masks."""
    out = set()
    for mask in range(1, 1 << len(adjacency)):
        members = [v for v in range(len(adjacency)) if mask >> v & 1]
        if len(members) > size_cap:
            continue
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if mask >> w & 1 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(members):
            out.add(mask)
    return out


def beta_oracle(cluster: ClusterGraph, supergraph, c: float, gamma: float,
                size_cap: int, n: int) -> tuple:
    """min |boundary(A)| / f(|A|) over connected A of at most size_cap
    vertices, each boundary counted by ``boundary_size`` (in the supergraph
    when one is given, else internally with empty boundaries skipped).
    Returns the minimum and every minimising A as a sorted vertex list."""
    super_adj = embed = None
    if supergraph is not None:
        super_adj = supergraph.adjacency
        embed = [supergraph.index_of(x) for x in cluster.coords]
    scored = []
    for mask in connected_subsets_oracle(cluster.adjacency, size_cap):
        members = frozenset(v for v in range(cluster.n_vertices) if mask >> v & 1)
        b = boundary_size(SubsetSelection(cluster.adjacency, members, super_adj, embed))
        if b or supergraph is not None:
            f = profile_f(len(members), c, n, gamma, cluster.coords.shape[1])
            scored.append((b / f, sorted(members)))
    beta = min(ratio for ratio, _ in scored)
    return beta, [members for ratio, members in scored if ratio == beta]


MC_CHUNK = 65536


def mc_counts_oracle(cluster: ClusterGraph, n_list, samples: int, seed: int,
                     chains) -> dict:
    """Sites visited by X_0..X_n, {n: [set per chosen chain]}, by a plain walk
    over ``cluster.adjacency`` that draws the documented Monte Carlo stream:
    chain c is column c % 65536 of chunk c // 65536, whose uniforms are
    ``Philox(key=(seed << 64) + chunk).random((max(n_list), chunk width))``,
    and the uniform u moves the walk from v to adjacency[v][int(u * deg v)].
    The counts N_n are the sizes of the sets."""
    n_max = max(n_list)
    uniforms = {}
    out = {n: [] for n in n_list}
    for c in chains:
        k, col = divmod(c, MC_CHUNK)
        if k not in uniforms:
            width = min(MC_CHUNK, samples - k * MC_CHUNK)
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) + k))
            uniforms[k] = rng.random((n_max, width))
        pos = cluster.origin
        history = [{pos}]
        for u in uniforms[k][:, col]:
            nbrs = cluster.adjacency[pos]
            pos = nbrs[int(u * len(nbrs))]
            history.append(history[-1] | {pos})
        for n in out:
            out[n].append(history[n])
    return out


@pytest.fixture
def path3() -> ClusterGraph:
    return make_graph([(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)])


@pytest.fixture
def k2() -> ClusterGraph:
    return make_graph([(0, 0), (1, 0)], [(0, 1)])
