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

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, TextIO

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
    "open_adjacency",
    "induced_csr",
    "component_of_origin",
    "largest_cluster",
    "chemical_distance",
    "chemical_ball",
    "volume_growth_ratio",
    "ball_growth_ratio",
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

    def vertex_coords(self, index: int) -> np.ndarray:
        shifted = np.unravel_index(index, (self.side,) * self.d)
        return np.array(shifted) - self.n

    def all_coords(self) -> np.ndarray:
        """All vertex coordinates, shape (n_vertices, d), in index order."""
        grids = np.meshgrid(*[np.arange(-self.n, self.n + 1)] * self.d, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edge arrays ``(tails, heads, axes)`` of the box graph."""
        coords = self.all_coords()
        strides = np.array([self.side ** (self.d - 1 - a) for a in range(self.d)])
        tails, heads, axes = [], [], []
        for a in range(self.d):
            valid = np.nonzero(coords[:, a] < self.n)[0]
            tails.append(valid)
            heads.append(valid + strides[a])
            axes.append(np.full(valid.shape, a))
        tails = np.concatenate(tails)
        heads = np.concatenate(heads)
        axes = np.concatenate(axes)
        order = np.lexsort((axes, tails))
        return tails[order], heads[order], axes[order]

    @property
    def n_edges(self) -> int:
        return self.d * self.side ** (self.d - 1) * (self.side - 1)


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

    def open_fraction(self) -> float:
        return float(np.mean(self.open)) if self.open.size else 0.0

    def with_edge_opened(self, edge_id: int) -> "BondConfiguration":
        """Coupled configuration with one extra open edge (for monotonicity tests)."""
        flags = self.open.copy()
        flags[edge_id] = True
        return BondConfiguration(self.spec, self.p, self.seed, flags)


def sample_bond_config(spec: LatticeSpec, p: float, seed: int) -> BondConfiguration:
    """Keep each edge independently with probability ``p``, seeded and reproducible."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"open probability must lie in (0, 1], got {p}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(spec.n_edges)
    return BondConfiguration(spec, p, seed, u < p)


def open_adjacency(config: BondConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of the open subgraph on all box
    vertices, each row's neighbours in ascending order."""
    n = config.spec.n_vertices
    tails, heads, _ = config.spec.edges()
    t = tails[config.open]
    h = heads[config.open]
    src = np.concatenate([t, h])
    dst = np.concatenate([h, t])
    order = np.argsort(src * n + dst)
    counts = np.bincount(src, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, dst[order]


def induced_csr(indptr: np.ndarray, indices: np.ndarray,
                keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph induced on the sorted vertex array ``keep``.

    Vertex ``keep[i]`` becomes ``i``; each row keeps the order of its
    surviving neighbours.
    """
    local = np.full(indptr.size - 1, -1, dtype=np.int64)
    local[keep] = np.arange(keep.size)
    lengths = indptr[keep + 1] - indptr[keep]
    starts = np.repeat(indptr[keep] - np.cumsum(lengths) + lengths, lengths)
    cols = local[indices[starts + np.arange(starts.size)]]
    inside = cols >= 0
    rows = np.repeat(np.arange(keep.size), lengths)[inside]
    sub_indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=keep.size), out=sub_indptr[1:])
    return sub_indptr, cols[inside]


def _as_graph(indptr: np.ndarray, indices: np.ndarray) -> csr_matrix:
    """Unit-weight sparse matrix over a CSR adjacency, for ``scipy.sparse.csgraph``."""
    n = indptr.size - 1
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def _components(graph: csr_matrix) -> np.ndarray:
    """Component label of every vertex.  The graph is symmetric, so its strong
    components are its components and no transpose is needed."""
    return connected_components(graph, directed=True, connection="strong")[1]


@dataclass
class ClusterGraph:
    """A connected open subgraph with vertex coordinates and a distinguished origin.

    The graph lives in CSR arrays (``csr``); unless the caller passed them, the
    neighbour lists are made from ``csr`` on the first read of ``adjacency``.
    The empty sentinel (``is_empty``) stands for "no cluster at all" so the
    connectivity invariant never needs a special case.  The degenerate
    single-vertex cluster (isolated origin) is a valid non-empty instance.
    """

    coords: np.ndarray
    _adjacency: list | None  # neighbour lists, or None when _csr is given
    origin: int | None
    meta: dict = field(default_factory=dict)
    _csr: tuple | None = field(default=None, repr=False)
    _graph: csr_matrix | None = field(default=None, repr=False)
    _dist: np.ndarray | None = field(default=None, repr=False)
    _index: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.is_empty:
            self.validate()

    @classmethod
    def empty(cls, meta: dict | None = None) -> "ClusterGraph":
        return cls(np.zeros((0, 0), dtype=int), [], None, meta or {})

    @property
    def adjacency(self) -> list:
        """Per-vertex neighbour lists in CSR row order, built on first read."""
        if self._adjacency is None:
            bounds, flat = (a.tolist() for a in self.csr)
            self._adjacency = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._adjacency

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the graph, rows in adjacency-list order."""
        if self._csr is None:
            indptr = np.zeros(len(self._adjacency) + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in self._adjacency], out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(self._adjacency),
                                  dtype=np.int64, count=int(indptr[-1]))
            self._csr = (indptr, indices)
        return self._csr

    @property
    def graph(self) -> csr_matrix:
        """Unit-weight ``csr_matrix`` over ``csr``, built once, for ``scipy.sparse.csgraph``."""
        if self._graph is None:
            self._graph = _as_graph(*self.csr)
        return self._graph

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
        """Check adjacency symmetry and connectivity; raises on violation."""
        indptr, indices = self.csr
        n = self.n_vertices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        # edge (i, j) as key i * n + j, against the keys of the transpose
        keys = np.sort(rows * n + indices)
        transposed = np.sort(indices * n + rows)
        bad = np.flatnonzero(keys != transposed)
        if bad.size:
            # the smaller key at the first mismatch is an edge without its mirror
            a, b = int(keys[bad[0]]), int(transposed[bad[0]])
            i, j = divmod(a, n) if a < b else divmod(b, n)[::-1]
            raise ValueError(f"adjacency not symmetric at ({i}, {j})")
        if _components(self.graph).max() > 0:
            raise ValueError("cluster graph is not connected")
        if self.origin is not None and not 0 <= self.origin < self.n_vertices:
            raise ValueError("origin index out of range")

    def distances_from_origin(self) -> np.ndarray:
        """Chemical distances D(origin, .) to every cluster vertex."""
        if self.origin is None:
            raise ValueError("cluster has no distinguished origin")
        if self._dist is None:
            # the cluster is connected, so every distance is finite
            dist = dijkstra(self.graph, indices=self.origin, unweighted=True)
            self._dist = dist.astype(np.int64)
        return self._dist


def _origin_id(spec: LatticeSpec) -> int:
    return spec.vertex_index(np.zeros(spec.d, dtype=int))


def _induced_cluster(config: BondConfiguration, graph: csr_matrix, ids: np.ndarray,
                     origin_id: int | None) -> ClusterGraph:
    """The cluster induced on the sorted box vertex ids; local index = rank."""
    spec = config.spec
    indptr, indices = induced_csr(graph.indptr, graph.indices, ids)
    coords = np.stack(np.unravel_index(ids, (spec.side,) * spec.d), axis=1) - spec.n
    origin = int(np.searchsorted(ids, origin_id)) if origin_id is not None else None
    meta = {"d": spec.d, "n": spec.n, "p": config.p, "seed": config.seed}
    return ClusterGraph(coords, None, origin, meta, _csr=(indptr, indices))


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


def volume_growth_ratio(config: BondConfiguration) -> float:
    """|C_n| / n^d, the empirical volume-growth density of the origin cluster."""
    spec = config.spec
    if spec.n < 1:
        raise ValueError("volume growth needs box radius >= 1")
    return component_of_origin(config).n_vertices / spec.n**spec.d


def ball_growth_ratio(config: BondConfiguration, r: int) -> float:
    """|B_r(C)| / r^d for the chemical ball of radius ``r >= 1``."""
    if r < 1:
        raise ValueError("ball growth needs radius >= 1")
    return chemical_ball(config, r).n_vertices / r**config.spec.d


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


def _box_ids(spec: LatticeSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sorted vertex ids of the sub-box [lo, hi]."""
    axes = [np.arange(a, b + 1) + spec.n for a, b in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    return np.ravel_multi_index(grid, (spec.side,) * spec.d).ravel()


def _others_short(graph: csr_matrix, labels: np.ndarray, k: int, cap: int) -> bool:
    """Has every component other than ``k`` graph diameter at most ``cap``?"""
    sizes = np.bincount(labels)
    # a component of at most cap + 1 vertices cannot be wider than cap
    for c in np.flatnonzero(sizes > cap + 1):
        if c == k:
            continue
        members = np.flatnonzero(labels == c)
        dist = dijkstra(graph, indices=members, unweighted=True, limit=cap)
        if np.isinf(dist[:, members]).any():
            return False
    return True


def classify_boxes(config: BondConfiguration, N: int) -> RenormalizedField:
    """Good/bad flags for the blocks B_i of side 2N+1 tiling the sampled box.

    A block is good when (a) the enlarged box B'_i of radius floor(5N/4)
    contains an open component K joining the opposite faces of B_i inside
    B_i along every axis, with every open path of B'_i longer than N/10
    attached to K, and (b) the designated edge row E_i contains an open
    edge.  Blocks whose enlarged box leaves the sampled region are reported
    unclassifiable rather than guessed.
    """
    if N < 4:
        raise ValueError(f"block scale must be >= 4, got {N}")
    spec = config.spec
    step = 2 * N + 1
    big = (5 * N) // 4
    imax = int(np.ceil((spec.n + N) / step))
    path_cap = N // 10
    row = int(np.floor(np.sqrt(N))) + 1
    stride = spec.side ** (spec.d - 1)  # id step along axis 0
    blocks: dict[tuple, BlockStatus] = {}
    indptr, indices = open_adjacency(config)

    for flat in np.ndindex(*(2 * imax + 1,) * spec.d):
        i = np.array(flat) - imax
        center = step * i
        lo_in, hi_in = center - N, center + N
        if np.any(hi_in < -spec.n) or np.any(lo_in > spec.n):
            continue  # block does not intersect the sampled box
        lo_big, hi_big = center - big, center + big
        if np.any(lo_big < -spec.n) or np.any(hi_big > spec.n):
            blocks[tuple(i.tolist())] = BlockStatus(False, False, False)
            continue

        big_ids = _box_ids(spec, lo_big, hi_big)
        sub_indptr, sub_indices = induced_csr(indptr, indices, big_ids)
        graph = _as_graph(sub_indptr, sub_indices)
        labels = _components(graph)
        inner = np.searchsorted(big_ids, _box_ids(spec, lo_in, hi_in))
        inner_labels = _components(_as_graph(*induced_csr(sub_indptr, sub_indices, inner)))
        # each component of the inner box lies in one component of the enlarged box
        owner = np.empty(inner_labels.max() + 1, dtype=np.int64)
        owner[inner_labels] = labels[inner]
        # K crosses an axis when one of its inner-box components touches both faces
        faces = inner_labels.reshape((step,) * spec.d)
        crosses = np.ones(labels.max() + 1, dtype=bool)
        for axis in range(spec.d):
            hit = np.zeros_like(crosses)
            hit[owner[np.intersect1d(np.take(faces, 0, axis=axis),
                                     np.take(faces, -1, axis=axis))]] = True
            crosses &= hit
        k = np.flatnonzero(crosses)
        crossing = k.size == 1 and _others_short(graph, labels, k[0], path_cap)

        # the edge row E_i runs along axis 0 from the centre, inside B_i
        tails = spec.vertex_index(center) + stride * np.arange(row)
        edge_event = any(v + stride in indices[indptr[v]:indptr[v + 1]] for v in tails)

        blocks[tuple(i.tolist())] = BlockStatus(True, crossing, edge_event)
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
    adjacency = [[] for _ in coords]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    adjacency = [sorted(nbrs) for nbrs in adjacency]
    origin = next((i for i, c in enumerate(coords) if not any(c)), None)
    return ClusterGraph(np.array(coords), adjacency, origin,
                        {"d": d, "n": n, "p": p, "seed": seed})
