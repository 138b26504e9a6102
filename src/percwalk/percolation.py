"""Lattice geometry, Bernoulli bond percolation, clusters and renormalized boxes.

Conventions fixed here and relied on everywhere else:

* The box of radius ``n`` in dimension ``d`` is ``[-n, n]^d``; vertices are
  indexed in lexicographic (C) order of their coordinates.
* Edges of the box graph are keyed canonically by ``(tail, axis)`` where
  ``tail`` is the lexicographically lower endpoint; the edge list is sorted
  by tail index first, axis second.  Sampling draws one uniform per edge in
  this canonical order from a counter-based Philox generator keyed by the
  seed, so a configuration is a pure function of ``(d, n, p, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterable, Sequence, TextIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

__all__ = [
    "LatticeSpec",
    "BondConfiguration",
    "ClusterGraph",
    "BlockStatus",
    "RenormalizedField",
    "UnreachableVertexError",
    "sample_bond_config",
    "arcs_csr",
    "open_adjacency",
    "csr_rows",
    "induced_csr",
    "component_of_origin",
    "largest_cluster",
    "chemical_distance",
    "chemical_ball",
    "classify_boxes",
    "cluster_to_text",
    "cluster_from_text",
]


class UnreachableVertexError(ValueError):
    """Raised when a chemical-distance query targets a disconnected vertex."""


@dataclass(frozen=True)
class LatticeSpec:
    """The finite box ``[-n, n]^d`` of the hypercubic lattice, ``d >= 2``."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if self.n < 0:
            raise ValueError(f"box radius must be >= 0, got {self.n}")

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def n_vertices(self) -> int:
        return self.side**self.d

    def vertex_index(self, coords) -> int:
        """Index of a lattice point in the lexicographic vertex order."""
        coords = np.asarray(coords)
        if np.any(np.abs(coords) > self.n):
            raise ValueError(f"{tuple(coords)} outside the box of radius {self.n}")
        shifted = coords + self.n
        return int(np.ravel_multi_index(shifted, (self.side,) * self.d))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edge arrays ``(tails, heads, axes)`` of the box graph, sorted
        by tail and then axis: one edge per vertex and axis whose coordinate
        on that axis is below n."""
        tails, axes = np.nonzero(_has_up(self))
        return tails, tails + self.side ** (self.d - 1 - axes), axes

    @property
    def n_edges(self) -> int:
        return self.d * self.side ** (self.d - 1) * (self.side - 1)


@cache
def _has_up(spec: LatticeSpec) -> np.ndarray:
    """Read-only (vertex, axis) table: is v -- v + e_axis an edge of the box?
    Its set cells in row-major order are the canonical edges."""
    strides = spec.side ** np.arange(spec.d - 1, -1, -1)
    table = np.arange(spec.n_vertices)[:, None] // strides % spec.side < spec.side - 1
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class BondConfiguration:
    """A sampled realization: one open/closed flag per edge of the box graph."""

    spec: LatticeSpec
    p: float
    seed: int
    open: np.ndarray

    def __post_init__(self):
        if self.open.shape != (self.spec.n_edges,):
            raise ValueError("open-flag array does not match the edge count")


def sample_bond_config(spec: LatticeSpec, p: float, seed: int) -> BondConfiguration:
    """Keep each edge independently with probability ``p``, seeded and reproducible."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"open probability must lie in (0, 1], got {p}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(spec.n_edges)
    return BondConfiguration(spec, p, seed, u < p)


def arcs_csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the arcs ``src[k] -> dst[k]`` on ``n``
    vertices, each row's neighbours in ascending order."""
    order = np.argsort(src * n + dst)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def _open_up(config: BondConfiguration) -> np.ndarray:
    """(vertex, axis) table: is the edge v -- v + e_axis open?"""
    up = np.zeros((config.spec.n_vertices, config.spec.d), dtype=bool)
    up[_has_up(config.spec)] = config.open
    return up


def open_adjacency(config: BondConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of the open subgraph on all box
    vertices, each row's neighbours in ascending order: v - e_0, ..., v -
    e_{d-1}, v + e_{d-1}, ..., v + e_0."""
    up = _open_up(config)
    strides = config.spec.side ** np.arange(config.spec.d - 1, -1, -1)
    down = np.zeros_like(up)  # up at v - e_a; at coordinate 0 that cell holds no edge
    for a, s in enumerate(strides):
        down[s:, a] = up[:-s, a]
    return _slots_csr(np.hstack([down, up[:, ::-1]]), np.concatenate([-strides, strides[::-1]]))


def _slots_csr(flags: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the arcs u -> u + steps[j] for every set ``flags[u, j]``, each
    row in slot order."""
    indptr = np.zeros(flags.shape[0] + 1, dtype=np.int64)
    np.cumsum(flags.sum(axis=1), out=indptr[1:])
    rows, slots = np.divmod(np.flatnonzero(flags), flags.shape[1])  # set cells only
    return indptr, rows + steps[slots]


def csr_rows(indptr: np.ndarray, indices: np.ndarray,
             rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` of a CSR graph laid end to end: for each neighbour,
    the position in ``rows`` of the vertex it neighbours, and its id."""
    lengths = indptr[rows + 1] - indptr[rows]
    starts = np.repeat(indptr[rows] - np.cumsum(lengths) + lengths, lengths)
    return np.repeat(np.arange(rows.size), lengths), indices[starts + np.arange(starts.size)]


def induced_csr(indptr: np.ndarray, indices: np.ndarray,
                keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph induced on the array of distinct vertices ``keep``.

    Vertex ``keep[i]`` becomes ``i``; each row keeps the order of its
    surviving neighbours.
    """
    local = np.full(indptr.size - 1, -1, dtype=np.int64)
    local[keep] = np.arange(keep.size)
    rows, cols = csr_rows(indptr, indices, keep)
    cols = local[cols]
    inside = cols >= 0
    sub_indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[inside], minlength=keep.size), out=sub_indptr[1:])
    return sub_indptr, cols[inside]


def _as_graph(indptr: np.ndarray, indices: np.ndarray) -> csr_matrix:
    """Unit-weight sparse matrix over a CSR adjacency, for ``scipy.sparse.csgraph``."""
    n = indptr.size - 1
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def _components(graph: csr_matrix) -> np.ndarray:
    """Component label of every vertex.  The graph is symmetric, so its strong
    components are its components and no transpose is needed."""
    return connected_components(graph, directed=True, connection="strong")[1]


class ClusterGraph:
    """A connected open subgraph with vertex coordinates and a distinguished origin.

    The graph is held once, as CSR arrays ``csr = (indptr, indices)``: the
    constructor converts per-vertex neighbour lists, ``from_csr`` takes the
    arrays as they are, and both ``validate`` what they are given.  Clusters
    extracted from a bond configuration are induced subgraphs of its simple,
    symmetric open graph, valid by construction, and are not re-checked.  No
    ``scipy.sparse`` matrix is cached: the csgraph calls wrap ``csr`` for the
    call.  ``adjacency`` is a read-only list view of the rows, rebuilt on each
    read.  The empty sentinel (``is_empty``) stands for "no cluster at all";
    the single-vertex cluster (isolated origin) is a valid non-empty instance.
    """

    def __init__(self, coords: np.ndarray, adjacency: Sequence[Sequence[int]],
                 origin: int | None, meta: dict | None = None):
        indptr = np.cumsum([0] + [len(nbrs) for nbrs in adjacency], dtype=np.int64)
        indices = np.fromiter(chain.from_iterable(adjacency), np.int64, int(indptr[-1]))
        self._hold(coords, indptr, indices, origin, meta)
        self.validate()

    @classmethod
    def from_csr(cls, coords: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                 origin: int | None, meta: dict | None = None) -> "ClusterGraph":
        """The cluster over CSR arrays, taken as they are and validated."""
        cluster = cls.__new__(cls)
        cluster._hold(coords, indptr, indices, origin, meta)
        cluster.validate()
        return cluster

    def _hold(self, coords, indptr, indices, origin, meta):
        self.coords = coords
        self.csr = (indptr, indices)
        self.origin = origin
        self.meta = {} if meta is None else meta
        self._dist = self._index = None

    @classmethod
    def empty(cls, meta: dict | None = None) -> "ClusterGraph":
        return cls(np.zeros((0, 0), dtype=int), [], None, meta)

    @property
    def adjacency(self) -> list:
        """Per-vertex neighbour lists in CSR row order, rebuilt on each read."""
        bounds, flat = (a.tolist() for a in self.csr)
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @property
    def is_empty(self) -> bool:
        return self.n_vertices == 0

    @property
    def n_vertices(self) -> int:
        return self.csr[0].size - 1

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.csr[0])

    def edges(self) -> Iterable[tuple[int, int]]:
        rows = np.repeat(np.arange(self.n_vertices), self.degrees)
        keep = rows < self.csr[1]
        return zip(rows[keep].tolist(), self.csr[1][keep].tolist())

    def n_edges(self) -> int:
        return self.csr[1].size // 2

    def index_of(self, coords) -> int:
        if self._index is None:
            self._index = {tuple(c): i for i, c in enumerate(self.coords)}
        return self._index[tuple(coords)]

    def validate(self):
        """Check one coordinate row per vertex, neighbour ids, no self-loop or
        repeated edge (on which ``scipy.sparse.csgraph`` never returns),
        symmetry, connectivity and the origin; raise ValueError naming the first."""
        indptr, indices = self.csr
        n = self.n_vertices
        if len(self.coords) != n:
            raise ValueError(f"{len(self.coords)} coordinate rows for {n} vertices")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        bad = np.flatnonzero((indices < 0) | (indices >= n))
        if bad.size:
            raise ValueError(f"neighbour {indices[bad[0]]} of vertex {rows[bad[0]]} is "
                             f"not a vertex id: the graph has {n} vertices")
        bad = np.flatnonzero(rows == indices)
        if bad.size:
            raise ValueError(f"self-loop at {rows[bad[0]]}")
        # edge (i, j) as key i * n + j, against the keys of the transpose
        keys = np.sort(rows * n + indices)
        bad = np.flatnonzero(keys[1:] == keys[:-1])
        if bad.size:
            raise ValueError("repeated edge ({}, {})".format(*divmod(int(keys[bad[0]]), n)))
        transposed = np.sort(indices * n + rows)
        bad = np.flatnonzero(keys != transposed)
        if bad.size:
            # the smaller key at the first mismatch is an edge without its mirror
            a, b = int(keys[bad[0]]), int(transposed[bad[0]])
            i, j = divmod(a, n) if a < b else divmod(b, n)[::-1]
            raise ValueError(f"adjacency not symmetric at ({i}, {j})")
        if n and _components(_as_graph(*self.csr)).max() > 0:
            raise ValueError("cluster graph is not connected")
        if self.origin is not None and not 0 <= self.origin < n:
            raise ValueError("origin index out of range")

    def distances_from_origin(self) -> np.ndarray:
        """Chemical distances D(origin, .) to every cluster vertex."""
        if self.origin is None:
            raise ValueError("cluster has no distinguished origin")
        if self._dist is None:
            # the cluster is connected, so every distance is finite
            dist = dijkstra(_as_graph(*self.csr), indices=self.origin, unweighted=True)
            self._dist = dist.astype(np.int64)
        return self._dist


def _origin_id(spec: LatticeSpec) -> int:
    return spec.vertex_index(np.zeros(spec.d, dtype=int))


def _induced_cluster(config: BondConfiguration, graph: csr_matrix, ids: np.ndarray,
                     origin_id: int | None) -> ClusterGraph:
    """The cluster induced on the sorted box vertex ids; local index = rank.
    An induced subgraph of the simple, symmetric open graph is valid as built,
    so it is not validated."""
    spec = config.spec
    indptr, indices = induced_csr(graph.indptr, graph.indices, ids)
    coords = np.stack(np.unravel_index(ids, (spec.side,) * spec.d), axis=1) - spec.n
    origin = int(np.searchsorted(ids, origin_id)) if origin_id is not None else None
    cluster = ClusterGraph.__new__(ClusterGraph)
    cluster._hold(coords, indptr, indices, origin,
                  {"d": spec.d, "n": spec.n, "p": config.p, "seed": config.seed})
    return cluster


def component_of_origin(config: BondConfiguration) -> ClusterGraph:
    """The connected component C_n of the origin in the open subgraph of the box."""
    origin_id = _origin_id(config.spec)
    graph = _as_graph(*open_adjacency(config))
    ids = np.sort(breadth_first_order(graph, origin_id, return_predecessors=False))
    return _induced_cluster(config, graph, ids, origin_id)


def largest_cluster(config: BondConfiguration) -> ClusterGraph:
    """The largest open component L_n; ties broken by smallest minimal vertex.

    Only vertices touching at least one open edge are considered; with no open
    edge at all the empty sentinel is returned.
    """
    spec = config.spec
    graph = _as_graph(*open_adjacency(config))
    labels = _components(graph)
    size_of = np.bincount(labels)[labels]
    if size_of.max() < 2:
        return ClusterGraph.empty({"d": spec.d, "n": spec.n,
                                   "p": config.p, "seed": config.seed})
    # the first vertex of a largest component has the smallest id of any of
    # them; index order is lexicographic order
    best = labels[np.argmax(size_of)]
    origin_id = _origin_id(spec)
    return _induced_cluster(config, graph, np.flatnonzero(labels == best),
                            origin_id if labels[origin_id] == best else None)


def chemical_distance(cluster: ClusterGraph, x) -> int:
    """D(0, x): open-path graph distance from the cluster origin to vertex ``x``.

    ``x`` may be a vertex index or a coordinate tuple.  A vertex outside the
    cluster is unreachable by definition.
    """
    if np.isscalar(x):
        idx = int(x)
    else:
        try:
            idx = cluster.index_of(x)
        except KeyError:
            raise UnreachableVertexError(f"{tuple(x)} is not connected to the origin")
    dist = cluster.distances_from_origin()
    if not 0 <= idx < cluster.n_vertices:
        raise UnreachableVertexError(f"vertex {idx} is not in the cluster")
    return int(dist[idx])


def chemical_ball(config: BondConfiguration, r: int) -> ClusterGraph:
    """B_r(C): vertices at chemical distance <= r from the origin.

    Requires ``r <= n`` so that no open path can shortcut through the
    unsampled region outside the box.
    """
    spec = config.spec
    if r < 0:
        raise ValueError("ball radius must be >= 0")
    if r > spec.n:
        raise ValueError(f"ball radius {r} exceeds the sampled box radius {spec.n}")
    origin_id = _origin_id(spec)
    graph = _as_graph(*open_adjacency(config))
    dist = dijkstra(graph, indices=origin_id, unweighted=True, limit=r)
    return _induced_cluster(config, graph, np.flatnonzero(np.isfinite(dist)), origin_id)


# ---------------------------------------------------------------------------
# Renormalized good/bad box field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockStatus:
    classifiable: bool
    crossing: bool
    edge_event: bool

    @property
    def good(self) -> bool:
        return self.classifiable and self.crossing and self.edge_event


@dataclass
class RenormalizedField:
    """Per-block good/bad flags of the coarse-grained configuration."""

    N: int
    blocks: dict

    def classifiable_blocks(self) -> list:
        return [i for i, s in self.blocks.items() if s.classifiable]


def classify_boxes(config: BondConfiguration, N: int) -> RenormalizedField:
    """Good/bad flags for the blocks B_i of side 2N+1 tiling the sampled box.

    A block is good when (a) exactly one open component K of the enlarged
    box B'_i of radius floor(5N/4) joins the opposite faces of B_i inside
    B_i along every axis; (b) every other component of B'_i has graph
    diameter <= N // 10; and (c) the edge row E_i, floor(sqrt(N)) + 1 edges
    along axis 0 from the centre, holds an open edge.  Blocks whose enlarged
    box leaves the sampled region are reported unclassifiable rather than
    guessed.

    All classifiable blocks are labelled at once: their enlarged boxes form
    one disjoint-union graph, labelled once whole and once cut to the inner
    boxes.  A Dijkstra runs only on a long component other than K, on its
    own subgraph, until its block's first failure.
    """
    if N < 4:
        raise ValueError(f"block scale must be >= 4, got {N}")
    spec = config.spec
    d, n = spec.d, spec.n
    step = 2 * N + 1
    big = (5 * N) // 4
    width = 2 * big + 1
    imax = int(np.ceil((n + N) / step))
    path_cap = N // 10
    row = int(np.floor(np.sqrt(N))) + 1
    strides = spec.side ** np.arange(d - 1, -1, -1)

    ids = np.indices((2 * imax + 1,) * d).reshape(d, -1).T - imax  # np.ndindex order
    ids = ids[np.all(np.abs(step * ids) <= n + N, axis=1)]  # blocks meeting the sampled box
    classifiable = np.all(np.abs(step * ids) + big <= n, axis=1)
    centers = step * ids[classifiable] + n  # shifted to 0..side-1
    up = _open_up(config)

    # vertex pos of block b's enlarged box is vertex b * size + pos of the union,
    # joined to vertex steps[a] further on when its edge along axis a is open
    local = np.indices((width,) * d).reshape(d, -1).T
    size = local.shape[0]
    steps = width ** np.arange(d - 1, -1, -1)
    rise = up[((centers - big) @ strides)[:, None] + local @ strides] & (local < width - 1)
    inner = np.all(np.abs(local - big) <= N, axis=1)
    stay = inner[:, None] & inner[np.minimum(np.arange(size)[:, None] + steps, size - 1)]
    graph, inner_graph = (_as_graph(*_slots_csr(arcs.reshape(-1, d), steps))
                          for arcs in (rise, rise & stay))
    # each edge is held once, as a one-way arc, so the labelling is undirected
    labels = connected_components(graph, directed=False)[1]
    inner_labels = connected_components(inner_graph, directed=False)[1]

    # K crosses an axis when one of its inner-box components touches both faces
    offsets = np.arange(centers.shape[0])[:, None] * size
    crosses = np.ones(labels.size, dtype=bool)  # by label; labels lie below the vertex count
    for a in range(d):
        faces = [(offsets + np.flatnonzero(inner & (local[:, a] == big + s))).ravel()
                 for s in (-N, N)]
        low, high = (np.bincount(inner_labels[f], minlength=labels.size) > 0 for f in faces)
        hit = np.zeros_like(crosses)
        hit[labels[faces[0][(low & high)[inner_labels[faces[0]]]]]] = True
        crosses &= hit
    block_of = np.zeros(labels.size, dtype=np.int64)
    block_of[labels] = np.arange(labels.size) // size
    crossing = np.bincount(block_of[crosses], minlength=centers.shape[0]) == 1
    sizes = np.bincount(labels, minlength=labels.size)
    # a component of at most path_cap + 1 vertices cannot be wider than path_cap
    long = np.flatnonzero((sizes > path_cap + 1) & ~crosses & crossing[block_of])
    for c in long:
        b = block_of[c]
        if crossing[b]:
            members = b * size + np.flatnonzero(labels[b * size:(b + 1) * size] == c)
            dist = dijkstra(graph[members][:, members], directed=False, unweighted=True,
                            limit=path_cap)
            crossing[b] = not np.isinf(dist).any()

    # the edge row E_i runs along axis 0 from the centre, inside B_i
    edge_event = up[(centers @ strides)[:, None] + strides[0] * np.arange(row), 0].any(axis=1)
    status = iter(zip(crossing.tolist(), edge_event.tolist()))
    blocks = {tuple(i): BlockStatus(ok, *(next(status) if ok else (False, False)))
              for i, ok in zip(ids.tolist(), classifiable.tolist())}
    return RenormalizedField(N, blocks)


# ---------------------------------------------------------------------------
# Plain-text cluster exchange format
# ---------------------------------------------------------------------------

def cluster_to_text(cluster: ClusterGraph, out: TextIO):
    """Write the plain adjacency format: ``d n p seed``, vertex and edge lines."""
    meta = cluster.meta
    d = meta.get("d", cluster.coords.shape[1] if not cluster.is_empty else 0)
    out.write(f"{d} {meta.get('n', 0)} {meta.get('p', 0)} {meta.get('seed', 0)}\n")
    for i, c in enumerate(cluster.coords):
        out.write(f"{i} " + " ".join(str(int(x)) for x in c) + "\n")
    for i, j in cluster.edges():
        out.write(f"{i} {j}\n")


def cluster_from_text(inp: TextIO) -> ClusterGraph:
    """Read the plain adjacency format written by :func:`cluster_to_text`.

    The origin is the vertex at the coordinate origin when present.
    """
    header = inp.readline().split()
    d, n = int(header[0]), int(header[1])
    p, seed = float(header[2]), int(header[3])
    coords = []
    edges = []
    for line in inp:
        parts = line.split()
        if not parts:
            continue
        if len(parts) == d + 1:
            coords.append([int(x) for x in parts[1:]])
        elif len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"malformed line: {line!r}")
    for i, j in edges:
        if not (0 <= i < len(coords) and 0 <= j < len(coords)):
            raise ValueError(f"edge line '{i} {j}' names an unknown vertex ({len(coords)} listed)")
    t, h = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    indptr, indices = arcs_csr(len(coords), np.concatenate([t, h]), np.concatenate([h, t]))
    origin = next((i for i, c in enumerate(coords) if not any(c)), None)
    return ClusterGraph.from_csr(np.array(coords), indptr, indices, origin,
                                 {"d": d, "n": n, "p": p, "seed": seed})
