"""Shared fixtures and independent oracles used across the test modules.

The oracles here are deliberately naive (plain-Python DFS/BFS, dict
counting, scans of every vertex subset) so they share no code path with
the implementations they check.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from percwalk.bounds import LOG4, NashProfile, OdeSolution
from percwalk.harness import ExperimentSpec, run
from percwalk.isoperimetry import profile_f
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
    adjacency = cluster.adjacency

    def recurse(pos, visited, prob, steps_left):
        if steps_left == 0:
            key = (len(visited), pos == cluster.origin)
            out[key] = out.get(key, 0.0) + prob
            return
        nbrs = adjacency[pos]
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
    adjacency = cluster.adjacency
    w = Fraction(1, len(adjacency[cluster.origin]) ** n)
    out = {}

    def recurse(pos, visited, steps_left):
        if steps_left == 0:
            key = (len(visited), pos == cluster.origin)
            out[key] = out.get(key, 0) + w
            return
        for v in adjacency[pos]:
            recurse(v, visited | {v}, steps_left - 1)

    recurse(cluster.origin, {cluster.origin}, n)
    return out


def uniform_path_laws_by_unique(cluster: ClusterGraph, n: int) -> list:
    """Joint laws of (N_t, X_t == origin), t = 0..n, on a base of uniform
    degree g, from columns of X_t over all g^t paths (path i extends path
    i // g), each column's keys 2 N_t + (X_t == origin) counted by one
    np.unique over the whole column and ordered by argsort of their first
    paths: the reference for the key order of walk._uniform_path_laws."""
    adjacency = cluster.adjacency
    g = len(adjacency[cluster.origin])
    nbr = np.array([(list(nbrs) + [0] * g)[:g] for nbrs in adjacency])
    cols = [np.array([cluster.origin])]
    distinct = np.ones(1, dtype=np.int64)
    laws = []
    for t in range(n + 1):
        if t:
            x = nbr[cols[-1]].ravel()
            seen = np.zeros(x.size, dtype=bool)
            for col in cols:  # X_j of path i is row i // g^(t-j) of column j
                seen |= x == np.repeat(col, x.size // col.size)
            distinct = np.repeat(distinct, g) + ~seen
            cols.append(x)
        keys, first, counts = np.unique(2 * distinct + (cols[-1] == cluster.origin),
                                        return_index=True, return_counts=True)
        order = np.argsort(first)
        laws.append({(int(k) >> 1, bool(k & 1)): int(c) * float(g) ** (-t)
                     for k, c in zip(keys[order], counts[order])})
    return laws


def nash_ode_oracle(profile: NashProfile, t_max: float, n_samples: int = 2000,
                    rtol: float = 1e-10, max_step: float = np.inf) -> OdeSolution:
    """Integrate a' = -a / (8 F_inv(4/a)^2) from a(0) = 1 up to t_max by RK45,
    in L = -log a and s = log(1 + t), on the grid of ``nash_ode_solve``.

    F_inv(e^u) has kinks where u = log(4/a) reaches C k0 and C k0^d.  An RK45
    step that crosses one, even a step the kink event then cuts short, loses
    its order on the clipped F_inv, so each branch is integrated with its own
    smooth F_inv (u/C, k0, (u/C)^(1/d)) up to its kink, found as an event, and
    the next branch restarts from there."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    C, d, k0 = profile.C, profile.d, profile.knee
    branches = ((C * k0, lambda u: u / C), (C * k0**d, lambda u: k0),
                (np.inf, lambda u: (u / C) ** (1.0 / d)))

    s_max = float(np.log1p(t_max))
    s_eval = np.linspace(0.0, s_max, n_samples)
    s0, y0, L = 0.0, [0.0], []
    for kink, F_inv in branches:
        if LOG4 + y0[0] >= kink:  # the start lies past this kink
            continue

        def rhs(s, y, F_inv=F_inv):
            f = F_inv(LOG4 + y[0])
            return [(1.0 + np.expm1(s)) / (8.0 * f * f)]

        def reach(s, y, kink=kink):
            return LOG4 + y[0] - kink
        reach.terminal = True
        sol = solve_ivp(rhs, (s0, s_max), y0, t_eval=s_eval[len(L):], events=reach,
                        rtol=rtol, atol=1e-12, max_step=max_step, method="RK45")
        if not sol.success:
            raise RuntimeError(f"ODE integration failed: {sol.message}")
        L.extend(np.ravel(sol.y))
        if sol.status == 0:  # s_max reached before the kink
            break
        s0, y0 = sol.t_events[0][0], sol.y_events[0][0]
    return OdeSolution(profile, np.expm1(s_eval), np.array(L))


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
    adjacency = base.adjacency
    for a in range(m):
        p_move = 1.0 / deg[a]
        for b in adjacency[a]:
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


def wreath_neighbours_oracle(base: ClusterGraph) -> list:
    """Sorted neighbour lists of the wreath over ``base``, state (a, f) at
    a * 2^m + f, from its definition: flip the lamp at a, or move along a base
    edge a -> b with the lamps as they are."""
    m, adjacency = base.n_vertices, base.adjacency
    return [sorted([a * 2**m + (f ^ 1 << a)] + [b * 2**m + f for b in adjacency[a]])
            for a in range(m) for f in range(2**m)]


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
    BFS over the adjacency lists and the degrees of the whole cluster.  A
    vertex without neighbours holds the walk, as if by a self-loop, so an
    isolated origin kills nothing and has lambda_1 = 0."""
    adjacency = cluster.adjacency
    dist = bfs_oracle(adjacency, cluster.origin)
    ball = sorted(v for v, k in dist.items() if k <= r)
    row = {v: i for i, v in enumerate(ball)}
    sym = np.zeros((len(ball), len(ball)))
    for v in ball:
        if not adjacency[v]:
            sym[row[v], row[v]] = 1.0
        for w in adjacency[v]:
            if w in row:
                deg_v, deg_w = len(adjacency[v]), len(adjacency[w])
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


def _subgraph_components(t: np.ndarray, h: np.ndarray) -> tuple[dict, list[list[int]]]:
    """Adjacency and components of the graph on the edges (t, h), each
    component listed in breadth-first order from its smallest vertex."""
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
    ids = np.fromiter(comp, dtype=np.int64, count=len(comp))
    coords = coords_all[ids]
    inside = np.all((coords >= lo) & (coords <= hi), axis=1)
    members, coords = ids[inside], coords[inside]
    if not members.size:
        return False
    member_set = set(members.tolist())
    for axis in range(spec.d):
        sources = members[coords[:, axis] == lo[axis]].tolist()
        targets = set(members[coords[:, axis] == hi[axis]].tolist())
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


def all_coords(spec) -> np.ndarray:
    """All vertex coordinates of the box, shape (n_vertices, d), in index order."""
    grids = np.meshgrid(*[np.arange(-spec.n, spec.n + 1)] * spec.d, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
    coords_all = all_coords(spec)
    coords_t = coords_all[t_open]
    coords_h = coords_all[h_open]
    # (axis, block coordinate) -> open edges with both ends in the enlarged box's slab
    slabs = {}
    for axis in range(spec.d):
        for k in range(-imax, imax + 1):
            lo, hi = step * k - big, step * k + big
            slabs[axis, k] = (coords_t[:, axis] >= lo) & (coords_t[:, axis] <= hi) & \
                (coords_h[:, axis] >= lo) & (coords_h[:, axis] <= hi)

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

        inside = np.logical_and.reduce([slabs[axis, k] for axis, k in enumerate(i.tolist())])
        adj, comps = _subgraph_components(t_open[inside], h_open[inside])
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


def flip_closure_oracle(family, n_sites: int, Y: int) -> dict:
    """``flip_closure_bound_check`` by set lookups, one per member and site;
    the witness is the first member, in the order of ``set(family)``, with
    fewer than Y flips inside."""
    fam = set(family)
    witness = next((f for f in fam if sum(f ^ (1 << x) in fam for x in range(n_sites)) < Y),
                   None)
    return {"premise_holds": witness is None, "witness": witness,
            "bound_holds": witness is None and len(fam) >= 2**Y,
            "family_size": len(fam), "required": 2**Y}


def random_graph_scalar(rng, nv: int, p_edge: float) -> list:
    """Neighbour lists of the pruning recipe's random graph drawn as it is
    defined: one ``rng.random()`` call per pair i < j, in row-major order."""
    adjacency = [[] for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p_edge:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


@dataclass
class SubsetSelection:
    """A vertex subset of a host graph with a declared boundary mode.

    With no supergraph the boundary is internal to the host.  With a
    supergraph and an embedding (host index -> supergraph index) the
    boundary counts supergraph edges leaving the embedded image, which can
    only be larger.
    """

    host: Sequence[Sequence[int]]
    members: frozenset
    super_adjacency: Sequence[Sequence[int]] | None = None
    embed: Sequence[int] | None = None

    def __post_init__(self):
        for v in self.members:
            if not 0 <= v < len(self.host):
                raise ValueError(f"member {v} is not a host vertex")
        if (self.super_adjacency is None) != (self.embed is None):
            raise ValueError("supergraph and embedding must come together")
        if self.embed is not None:
            for v, img in enumerate(self.embed):
                host_nbrs = {self.embed[w] for w in self.host[v]}
                if not host_nbrs <= set(self.super_adjacency[img]):
                    raise ValueError("host is not an induced subgraph under the embedding")


def boundary_size(selection: SubsetSelection) -> int:
    """Edges leaving the members: host edges, or supergraph edges leaving the image."""
    if selection.super_adjacency is None:
        return sum(1 for v in selection.members for w in selection.host[v]
                   if w not in selection.members)
    image = {selection.embed[v] for v in selection.members}
    return sum(1 for v in selection.members
               for w in selection.super_adjacency[selection.embed[v]]
               if w not in image)


def boundary_oracle(adjacency, members) -> int:
    """Directed edge scan: host edges leaving the member set."""
    members = set(members)
    return sum(1 for v in members for w in adjacency[v] if w not in members)


FOLNER_ORACLE_LIMIT = 24


def folner_oracle(adjacency, k_list, size_cap: int) -> dict:
    """All-subsets oracle for Folner minima: for each k the smallest |U| <=
    size_cap with k |boundary(U)| <= |U| (None when none), found by scoring
    every nonempty vertex subset, connected or not, up to 24 vertices.

    The boundary of every mask comes from a doubling table: a mask with top
    vertex v is v added to a mask below 2^v, which adds deg v minus twice
    the edges from v into it."""
    n = len(adjacency)
    if n > FOLNER_ORACLE_LIMIT:
        raise ValueError(f"{n} vertices is past the oracle's limit of {FOLNER_ORACLE_LIMIT}")
    boundary = np.zeros(1 << n, dtype=np.int16)
    for v, nbrs in enumerate(adjacency):
        nbr = set(nbrs) - {v}
        below = np.uint32(sum(1 << w for w in nbr if w < v))
        low = np.arange(1 << v, dtype=np.uint32)
        boundary[1 << v:2 << v] = boundary[:1 << v] + len(nbr) \
            - 2 * np.bitwise_count(low & below).astype(np.int16)
    best = {k: None for k in k_list}
    chunk = 1 << 21
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        sizes = np.bitwise_count(masks).astype(np.int64)
        b = boundary[start:start + masks.size]
        for k in k_list:
            ok = (k * b <= sizes) & (sizes <= size_cap)
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


def connected_subsets_dfs(adjacency, size_cap: int, boundary=None):
    """(bitmask, boundary) of every connected vertex subset of 1..size_cap
    vertices, by the include/exclude frontier recursion on Python-int masks:
    rooted at the smallest vertex, include before exclude, the boundary
    carried along as deg(c) - 2 |N(c) & S| per added vertex c (in the
    supergraph of ``boundary`` = (lists, degrees) when given)."""
    def masks(lists):
        return [sum(1 << w for w in set(a)) for a in lists]
    if size_cap < 1:
        return
    nbr = masks(adjacency)
    bnbr, bdeg = (masks(boundary[0]), boundary[1]) if boundary else \
        (nbr, [m.bit_count() for m in nbr])
    for v in range(len(adjacency)):
        root = 1 << v
        yield root, bdeg[v]
        banned0 = root | (root - 1)
        stack = [(root, nbr[v] & ~banned0, banned0, bdeg[v], 1)]
        while stack:
            subset, cand, banned, b, size = stack.pop()
            if not cand or size >= size_cap:
                continue
            c = cand & -cand
            rest = cand & ~c
            stack.append((subset, rest, banned | c, b, size))
            cv = c.bit_length() - 1
            new_subset = subset | c
            new_b = b + bdeg[cv] - 2 * (bnbr[cv] & subset).bit_count()
            yield new_subset, new_b
            if size + 1 < size_cap:
                new_banned = banned | c
                stack.append((new_subset, rest | (nbr[cv] & ~new_banned),
                              new_banned, new_b, size + 1))


def csr_of(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of neighbour lists, rows in list order."""
    indptr = np.cumsum([0] + [len(a) for a in adjacency], dtype=np.int64)
    return indptr, np.array([w for a in adjacency for w in a], dtype=np.int64)


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes of the call)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lists_of(indptr, indices) -> list:
    """The rows of a CSR graph as neighbour lists."""
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def level_rows(levels) -> list:
    """(joining order, boundary) of every subset in the levels of
    ``isoperimetry._connected_levels``, each level's orders rebuilt for all its
    rows, sorted by the order as Python compares lists: a prefix before its
    extensions, the order of ``connected_subsets_dfs``."""
    return sorted((order, b) for boundaries, orders in levels
                  for order, b in zip(orders(np.arange(boundaries.size)).tolist(),
                                      boundaries.tolist()))


def level_pairs(levels) -> list:
    """(bitmask, boundary) of every subset of ``level_rows``, in its order."""
    return [(sum(1 << v for v in order), b) for order, b in level_rows(levels)]


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
    adjacency = cluster.adjacency
    scored = []
    for mask in connected_subsets_oracle(adjacency, size_cap):
        members = frozenset(v for v in range(cluster.n_vertices) if mask >> v & 1)
        b = boundary_size(SubsetSelection(adjacency, members, super_adj, embed))
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
    adjacency = cluster.adjacency
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
            nbrs = adjacency[pos]
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


@pytest.fixture(scope="session")
def recipe_run(tmp_path_factory):
    """recipe_run(recipe) -> (report, out_dir) of one default run of the recipe
    per session, shared by the acceptance and golden-hash tests."""
    runs = {}

    def get(recipe: str):
        if recipe not in runs:
            out_dir = tmp_path_factory.mktemp(recipe)
            runs[recipe] = run(ExperimentSpec(recipe, {}, out_dir)), out_dir
        return runs[recipe]
    return get
