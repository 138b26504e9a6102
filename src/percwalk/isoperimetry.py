"""Exhaustive isoperimetry: boundaries, profiles, Folner search and the
configuration-graph machinery behind the wreath Folner lower bound.

Graphs are CSR arrays ``(indptr, indices)`` here, as ``ClusterGraph.csr``
and ``WreathGraph.csr`` hold them, so the same code serves percolation
clusters, lamplighter graphs and ad-hoc test graphs.  Connected subsets are
enumerated one size at a time in numpy: each level holds every connected
subset of one size as rows of uint64 words (members, frontier, banned
vertices), with its boundary, one parent row and one joined vertex, and
grows into the next level by one candidate per row and frontier vertex.
The configuration graphs and the pruning step work on plain neighbour
lists: they never reach the subset engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from percwalk.percolation import ClusterGraph, csr_rows, induced_csr
from percwalk.wreath import WreathGraph

__all__ = [
    "IsoperimetryReport",
    "ConfigurationGraph",
    "profile_f",
    "isoperimetric_beta",
    "folner_function",
    "folner_lower_bound_check",
    "prune_to_satisfiable",
    "ns_edge_fraction",
    "flip_closure_bound_check",
    "lemma_neud_check",
]

WREATH_FOLNER_C1 = np.log(2) / 9
WREATH_FOLNER_C2 = 1.0 / 1000.0
WREATH_FOLNER_MAX_VERTICES = 24
# Roots per frame: a frame's masks span its roots and the vertices they reach,
# so their width does not grow with the graph.
_FRAME_ROOTS = 128


def profile_f(x: float, c: float, n: int, gamma: float, d: int) -> float:
    """Two-regime profile: 1 below the volume threshold c n^gamma, else x^(1-1/d)."""
    if c <= 0 or gamma <= 0 or n < 1:
        raise ValueError("need c > 0, gamma > 0, n >= 1")
    if x < c * n**gamma:
        return 1.0
    return float(x) ** (1.0 - 1.0 / d)


# ---------------------------------------------------------------------------
# Connected-subset enumeration
# ---------------------------------------------------------------------------

def _frame(indptr, indices, boundary, r0: int, r1: int, reach: int) -> tuple:
    """Tables of the frame of roots r0..r1-1: its vertices, in id order,
    are the roots and every vertex >= r0 that a path through such vertices
    reaches from them in ``reach`` steps.  Each frame vertex gets rows of
    uint64 words over the frame: its own bit, the bits up to its own, its
    neighbours and its boundary neighbours.  Ids keep their order, so a
    frame visits candidates as the whole graph would."""
    ids = ring = np.arange(r0, r1)
    for _ in range(reach):
        _, ring = csr_rows(indptr, indices, ring)
        ring = np.setdiff1d(ring[ring >= r0], ids)
        if not ring.size:
            break
        ids = np.union1d(ids, ring)
    here = np.arange(ids.size)
    bit = np.zeros((ids.size, -(-ids.size // 64)), np.uint64)
    bit[here, here >> 6] = np.left_shift(1, (here & 63).astype(np.uint64))
    tables = []
    for graph in ((indptr, indices), boundary[:2]):
        src, dst = csr_rows(*graph, ids)
        at = np.searchsorted(ids, dst)  # the frame position of dst, if it is there
        inside = ids.take(at, mode="clip") == dst
        rows = np.zeros_like(bit)
        np.bitwise_or.at(rows, src[inside], bit.take(at[inside], axis=0))
        tables.append(rows)
    return ids, bit, np.bitwise_or.accumulate(bit, axis=0), *tables, boundary[2].take(ids)


def _grow(frame: tuple, level: tuple, final: bool) -> tuple | None:
    """The next level of a frame, None when it is empty.  A row with
    members S, frontier C and banned set B gets one child per c in C: B
    gains the candidates up to c, C loses them and gains the neighbours of
    c not banned, and the boundary changes by bdeg(c) - 2 |bnbr(c) & S|.
    Links gain (parent row, c) per child; the last level has no C or B."""
    _, bit, low, nbr, bnbr, bdeg = frame
    S, C, B, b, links = level
    parents, joins = [], []
    for j in range(C.shape[1]):  # peel each frontier word by its lowest set bit
        rows = np.flatnonzero(C[:, j])
        word = C[:, j].take(rows)
        lowest = []
        while rows.size:
            lowest.append(word & -word)
            parents.append(rows)
            word ^= lowest[-1]
            left = word != 0
            rows, word = rows[left], word[left]
        if lowest:
            joins.append(np.bitwise_count(np.concatenate(lowest) - 1).astype(np.intp) + 64 * j)
    if not parents:
        return None
    p, c = np.concatenate(parents), np.concatenate(joins)
    S = S.take(p, axis=0)
    hits = np.bitwise_count(bnbr.take(c, axis=0) & S)
    count = hits[:, 0].astype(np.int64)
    for j in range(1, hits.shape[1]):
        count += hits[:, j]
    b = b.take(p) + bdeg.take(c) - 2 * count
    if final:
        return None, None, None, b, links + ((p, c),)
    lows, C = low.take(c, axis=0), C.take(p, axis=0)
    B = B.take(p, axis=0) | (C & lows)
    C = (C & ~lows) | (nbr.take(c, axis=0) & ~B)
    return S | bit.take(c, axis=0), C, B, b, links + ((p, c),)


def _connected_levels(indptr: np.ndarray, indices: np.ndarray, size_cap: int,
                      boundary: tuple | None = None) -> Iterator[tuple]:
    """Every connected induced vertex subset of 1..size_cap vertices, once,
    one size at a time: yields (boundaries, orders) per size k until a size
    has no subset, int64 boundaries and orders(rows) -> the (len(rows), k)
    vertex ids of those rows in joining order: one parent row and one joined
    vertex per row, orders rebuilt on demand.

    A subset is rooted at its smallest vertex and grown through the
    include/exclude frontier split, with each chain of excludes collapsed
    into one child per candidate; the include-first depth-first order of
    that split is the lexicographic order of the orders, a prefix first.
    The boundary is the internal one unless ``boundary`` = (indptr,
    indices, degrees) counts it in a supergraph: CSR row c holds the
    vertices whose images neighbour the image of c there, of degree
    degrees[c].  Roots are taken in frames of _FRAME_ROOTS, each with masks
    only as wide as the vertices its subsets can reach.
    """
    if size_cap < 1:
        return
    boundary = boundary or (indptr, indices, np.diff(indptr))
    n = indptr.size - 1
    live = []  # (frame, level) of each frame whose last level was not empty
    for r0 in range(0, n, _FRAME_ROOTS):
        r1 = min(n, r0 + _FRAME_ROOTS)
        frame = _frame(indptr, indices, boundary, r0, r1, size_cap - 1)
        ids, bit, low, nbr, _, deg = frame
        k = r1 - r0  # the roots come first in the frame
        live.append((frame, (bit[:k], nbr[:k] & ~low[:k], low[:k], deg[:k], ())))
    for size in range(1, size_cap + 1):
        if size > 1:
            live = [(frame, _grow(frame, level, size == size_cap)) for frame, level in live]
            live = [(frame, level) for frame, level in live if level is not None]
        if not live:
            return
        boundaries = [level[3] for _, level in live]
        yield (boundaries[0] if len(live) == 1 else np.concatenate(boundaries),
               partial(_orders, [(frame[0], level[3].size, level[4]) for frame, level in live]))


def _orders(frames: list, rows: np.ndarray) -> np.ndarray:
    """The joining orders of the given rows of a level, numbered across its
    frames in turn, each frame given as (its ids, its row count, its links)."""
    out, lo = np.empty((rows.size, len(frames[0][2]) + 1), np.int64), 0
    for ids, m, links in frames:
        at = (lo <= rows) & (rows < lo + m)
        r, lo = rows[at] - lo, lo + m
        for j in range(len(links), 0, -1):  # each row's parents, back to its root
            out[at, j] = ids.take(links[j - 1][1].take(r))
            r = links[j - 1][0].take(r)
        out[at, 0] = ids.take(r)  # a root's row is its frame position
    return out


# ---------------------------------------------------------------------------
# Isoperimetric constant
# ---------------------------------------------------------------------------

@dataclass
class IsoperimetryReport:
    beta: float
    argmin_size: int
    argmin_vertices: list
    c: float
    gamma: float
    n: int
    degenerate: bool = False

    def to_json(self, out: TextIO):
        json.dump({
            "beta": self.beta,
            "argmin_size": self.argmin_size,
            "argmin_vertices": self.argmin_vertices,
            "c": self.c,
            "gamma": self.gamma,
            "n": self.n,
        }, out, indent=2, allow_nan=False)
        out.write("\n")


def isoperimetric_beta(cluster: ClusterGraph, supergraph: ClusterGraph | None = None,
                       c: float = 1.0, gamma: float = 0.125,
                       size_cap: int = 20, n: int | None = None) -> IsoperimetryReport:
    """min over connected subsets A of |boundary(A)| / f_c(|A|), exhaustively.

    The boundary lives in ``supergraph`` when given (matched by vertex
    coordinates), else inside the cluster itself; in the latter case subsets
    with empty boundary (the whole component) are excluded as degenerate.
    """
    if cluster.is_empty:
        raise ValueError("empty cluster")
    if n is None:
        n = int(cluster.meta.get("n", 1))
    boundary = None
    if supergraph is not None:
        try:
            embed = np.array([supergraph.index_of(coord) for coord in cluster.coords])
        except KeyError as err:
            raise ValueError(f"the {supergraph.n_vertices}-vertex supergraph lacks the cluster's"
                             f" coordinate {tuple(map(int, err.args[0]))}") from None
        boundary = (*induced_csr(*supergraph.csr, embed), supergraph.degrees[embed])
    if cluster.n_vertices == 1:
        return IsoperimetryReport(0.0, 1, [0], c, gamma, n, degenerate=True)
    d = cluster.coords.shape[1]
    profile = [0.0] + [profile_f(k, c, n, gamma, d)  # f by subset size
                       for k in range(1, min(size_cap, cluster.n_vertices) + 1)]
    # (ratio, order) of the first minimiser in visiting order: among exact
    # ties, the least order, compared across sizes as lists
    best = None
    levels = _connected_levels(*cluster.csr, size_cap, boundary)
    for size, (boundaries, orders) in enumerate(levels, 1):
        ratios = boundaries / profile[size]
        if supergraph is None:
            ratios[boundaries == 0] = np.inf  # whole component: excluded as degenerate
        least = float(ratios.min())
        if least == np.inf:
            continue
        first = min(orders(np.flatnonzero(ratios == least)).tolist())
        if best is None or (least, first) < best:
            best = (least, first)
    if best is None:
        return IsoperimetryReport(0.0, cluster.n_vertices,
                                  list(range(cluster.n_vertices)), c, gamma, n,
                                  degenerate=True)
    verts = sorted(best[1])
    return IsoperimetryReport(best[0], len(verts), verts, c, gamma, n)


# ---------------------------------------------------------------------------
# Folner functions
# ---------------------------------------------------------------------------

def _folner_minima(indptr: np.ndarray, indices: np.ndarray, k_list: Sequence[float],
                   size_cap: int) -> dict:
    """Smallest |U| <= size_cap with k |boundary(U)| <= |U|, for every k at once.

    Maps each k to its minimum, None when no set under the cap qualifies.
    One connected-subset pass serves all k: sizes come in increasing order,
    so the first size at which some set qualifies for k is k's minimum (the
    set of least boundary qualifies whenever any set of its size does), and
    the pass stops at the first size at which every k has one.  The search
    is exact: the components of a qualifying set split its boundary between
    them, so one component qualifies too and is no larger.
    """
    if any(k <= 0 for k in k_list):
        raise ValueError("k must be positive")
    best: dict[float, int | None] = dict.fromkeys(k_list)
    for size, (boundaries, _) in enumerate(_connected_levels(indptr, indices, size_cap), 1):
        least = int(boundaries.min())
        for k, value in best.items():
            if value is None and k * least <= size:
                best[k] = size
        if None not in best.values():
            break
    return best


def folner_function(indptr: np.ndarray, indices: np.ndarray, k: float,
                    size_cap: int = 20) -> tuple:
    """Smallest |U| with |boundary(U)| / |U| <= 1/k in the CSR graph
    ``(indptr, indices)``, internal boundary.

    Returns (value, exact).  ``value`` is None with ``exact`` False when no
    qualifying set exists within the size cap; a found value is the true
    minimum because any qualifying set contains a qualifying subset of a
    component no larger (so the connected restriction loses nothing) and
    the enumeration under the cap is exhaustive.
    """
    value = _folner_minima(indptr, indices, [k], size_cap)[k]
    return value, value is not None


def folner_lower_bound_check(base: ClusterGraph, k_list: Sequence[float]) -> list:
    """Exact check of Fol_wreath(k) >= exp(C1 Fol_base(C2 k)) per k.

    Both sides are exact Folner minima from one connected-subset pass each,
    the wreath side for all k and the base side for all C2 k.  Searching
    connected subsets only loses nothing: the components of a qualifying
    set split its boundary, so some component qualifies and is no larger.
    The wreath over an m-vertex base has m 2^m vertices; the search is
    capped at WREATH_FOLNER_MAX_VERTICES = 24, i.e. bases of at most 3
    vertices.
    """
    wreath = WreathGraph(base)
    if wreath.n_vertices > WREATH_FOLNER_MAX_VERTICES:
        raise ValueError(
            f"wreath has {wreath.n_vertices} vertices, exact Folner search "
            f"capped at {WREATH_FOLNER_MAX_VERTICES}")
    k_list = list(k_list)
    wreath_vals = _folner_minima(*wreath.csr, k_list, wreath.n_vertices)
    base_vals = _folner_minima(
        *base.csr, [WREATH_FOLNER_C2 * k for k in k_list], base.n_vertices)
    out = []
    for k in k_list:
        lhs = wreath_vals[k]
        base_val = base_vals[WREATH_FOLNER_C2 * k]
        rhs = float(np.exp(WREATH_FOLNER_C1 * base_val)) if base_val is not None else None
        holds = (lhs is not None and rhs is not None and lhs >= rhs)
        out.append({"k": k, "wreath_folner": lhs, "base_folner": base_val,
                    "rhs": rhs, "holds": holds,
                    "exact": lhs is not None and base_val is not None})
    return out


# ---------------------------------------------------------------------------
# Configuration graphs (the lamp-pattern graph of a wreath subset)
# ---------------------------------------------------------------------------

@dataclass
class ConfigurationGraph:
    """K_U: lamp patterns of a wreath subset, joined by realized single flips.

    ``configs`` lists the distinct bitmasks appearing in U; an edge joins f
    and g when they differ at exactly one site a and both (a, f) and (a, g)
    lie in U.
    """

    wreath: WreathGraph
    subset: frozenset  # of wreath state indices
    configs: list = field(init=False)
    adjacency: list = field(init=False)

    def __post_init__(self):
        if not self.subset:
            raise ValueError("empty wreath subset")
        g = self.wreath
        pairs = [g.state_of(u) for u in sorted(self.subset)]
        self.configs = sorted({f for _, f in pairs})
        pos = {f: i for i, f in enumerate(self.configs)}
        present = set(pairs)
        self.adjacency = [[] for _ in self.configs]
        for i, f in enumerate(self.configs):
            for a in range(g.m):
                fg = f ^ (1 << a)
                if fg > f and (a, f) in present and (a, fg) in present:
                    j = pos[fg]
                    self.adjacency[i].append(j)
                    self.adjacency[j].append(i)
        self._present = present

    def classify(self, b: float) -> dict:
        """The bad points (x, f) of U, whose lamp flip at x leaves U, and the
        points NS_p of U whose configuration has K_U degree below b."""
        NS = {f for i, f in enumerate(self.configs) if len(self.adjacency[i]) < b}
        return {"bad_points": {(x, f) for x, f in self._present
                               if (x, f ^ (1 << x)) not in self._present},
                "NS_p": {u for u in self._present if u[1] in NS}}


def prune_to_satisfiable(adjacency: Sequence[Sequence[int]], b: float) -> set:
    """Iteratively erase vertices of degree < b/3; return the surviving set.

    The comparison 3*deg < b is exact (integer times three against the given
    threshold), no rounding.  The result, when nonempty, has min degree
    >= b/3 by construction; under the hypothesis |NS_edges(b)|/|E| < 1/2 it
    is nonempty.
    """
    alive = set(range(len(adjacency)))
    deg = {v: len(adjacency[v]) for v in alive}
    queue = [v for v in alive if 3 * deg[v] < b]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in adjacency[v]:
            if w in alive:
                deg[w] -= 1
                if 3 * deg[w] < b:
                    queue.append(w)
    return alive


def ns_edge_fraction(adjacency: Sequence[Sequence[int]], b: float) -> float:
    """Fraction of edges touching a vertex of degree < b (the pruning gate)."""
    deg = [len(a) for a in adjacency]
    total = 0
    bad = 0
    for v, nbrs in enumerate(adjacency):
        for w in nbrs:
            if v < w:
                total += 1
                if deg[v] < b or deg[w] < b:
                    bad += 1
    if total == 0:
        raise ValueError("graph has no edges")
    return bad / total


def flip_closure_bound_check(family: Iterable[int], n_sites: int, Y: int) -> dict:
    """Premise: every member admits >= Y single-site flips staying inside.

    When the premise holds the family must have at least 2^Y members.
    Members are lamp patterns on ``n_sites`` sites, ints in [0, 2^n_sites);
    flips are counted on a table of 2^n_sites presence flags.
    """
    fam = set(family)
    if not fam:
        raise ValueError("empty family")
    # in set order, so the first member with fewer than Y flips is the witness
    members = np.fromiter(fam, np.int64, len(fam))
    if members.min() < 0 or members.max() >> n_sites:
        raise ValueError(f"a member is not a lamp pattern on {n_sites} sites")
    present = np.zeros(1 << n_sites, dtype=bool)
    present[members] = True
    flips = present[members[:, None] ^ (1 << np.arange(n_sites))].sum(axis=1)
    short = np.flatnonzero(flips < Y)
    witness = int(members[short[0]]) if short.size else None
    premise = witness is None
    return {"premise_holds": premise, "witness": witness,
            "bound_holds": premise and len(fam) >= 2**Y,
            "family_size": len(fam), "required": 2**Y}


def lemma_neud_check(wreath: WreathGraph, subset: Iterable[int], k: float) -> dict:
    """Bad-point and unsatisfiable-point fractions of a small-boundary subset.

    Precondition: |boundary(U)| / |U| <= 1/(1000 k) in the wreath graph.
    Checks the two displayed fractions: bad points <= 1/(1000 k) of U, and
    points whose configuration has K_U degree < phi(k)/3 at most 1/500 of U,
    where phi is the base Folner function.
    """
    U = frozenset(subset)
    if not U:
        raise ValueError("empty subset")
    _, nbrs = csr_rows(*wreath.csr, np.fromiter(U, np.int64, len(U)))
    boundary = sum(1 for w in nbrs.tolist() if w not in U)
    ratio = boundary / len(U)
    if ratio > 1.0 / (1000.0 * k):
        raise ValueError(
            f"subset boundary ratio {ratio:.4g} exceeds 1/(1000k); lemma not applicable")
    phi_k, _ = folner_function(*wreath.base.csr, k, wreath.base.n_vertices)
    if phi_k is None:
        raise ValueError("base Folner value not attained")
    K = ConfigurationGraph(wreath, U)
    cls = K.classify(phi_k / 3.0)
    bad_fraction = len(cls["bad_points"]) / len(U)
    ns_fraction = len(cls["NS_p"]) / len(U)
    return {
        "boundary_ratio": ratio,
        "bad_fraction": bad_fraction,
        "bad_bound": 1.0 / (1000.0 * k),
        "ns_fraction": ns_fraction,
        "ns_bound": 1.0 / 500.0,
        "holds": bad_fraction <= 1.0 / (1000.0 * k) and ns_fraction <= 1.0 / 500.0,
    }
