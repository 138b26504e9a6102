"""Exhaustive isoperimetry: boundaries, profiles, Folner search and the
configuration-graph machinery behind the wreath Folner lower bound.

Graphs are plain adjacency lists here so the same code serves percolation
clusters, lamplighter graphs and ad-hoc test graphs.  Subsets are Python int
bitmasks; connected subsets are enumerated by the usual include/exclude
frontier recursion, each subset visited exactly once and yielded with its
boundary, which is carried along the recursion at one bit count per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generator, Iterable, Sequence, TextIO

import numpy as np

from percwalk.percolation import ClusterGraph
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
    "iter_connected_subsets",
]

WREATH_FOLNER_C1 = np.log(2) / 9
WREATH_FOLNER_C2 = 1.0 / 1000.0
WREATH_FOLNER_MAX_VERTICES = 24


def _neighbor_masks(adjacency: Sequence[Sequence[int]]) -> list:
    """Per-vertex neighbor bitmasks (Python ints, arbitrary width)."""
    out = [0] * len(adjacency)
    for v, nbrs in enumerate(adjacency):
        for w in nbrs:
            out[v] |= 1 << w
    return out


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

def iter_connected_subsets(adjacency: Sequence[Sequence[int]], size_cap: int,
                           boundary: tuple | None = None) -> Generator[tuple, int, None]:
    """All connected induced vertex subsets of size <= size_cap, as
    (bitmask, boundary) pairs.

    Each subset is produced exactly once: subsets are rooted at their
    smallest vertex and grown through an include/exclude split of the
    frontier.  The boundary is carried along: adding c to S changes it by
    deg(c) - 2 |N(c) & S|.  It is the internal one unless ``boundary`` =
    (masks, degrees) counts it in a supergraph, masks[c] holding the
    vertices whose images neighbour the image of c there and degrees[c]
    that image's degree.  An int sent into the generator lowers the size
    cap from then on.
    """
    nbr = _neighbor_masks(adjacency)
    bnbr, bdeg = boundary or (nbr, [m.bit_count() for m in nbr])
    for v in range(len(adjacency)):
        if size_cap < 1:
            return
        root = 1 << v
        cap = yield root, bdeg[v]
        size_cap = size_cap if cap is None else min(size_cap, cap)
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
            cap = yield new_subset, new_b
            size_cap = size_cap if cap is None else min(size_cap, cap)
            if size + 1 < size_cap:
                new_banned = banned | c
                stack.append((new_subset, rest | (nbr[cv] & ~new_banned),
                              new_banned, new_b, size + 1))


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
        embed = [supergraph.index_of(coord) for coord in cluster.coords]
        host_of = {img: v for v, img in enumerate(embed)}
        boundary = (_neighbor_masks([[host_of[w] for w in supergraph.adjacency[img]
                                     if w in host_of] for img in embed]),
                    [len(set(supergraph.adjacency[img])) for img in embed])
    if cluster.n_vertices == 1:
        return IsoperimetryReport(0.0, 1, [0], c, gamma, n, degenerate=True)
    d = cluster.coords.shape[1]
    profile = [0.0] + [profile_f(k, c, n, gamma, d)  # f by subset size
                       for k in range(1, min(size_cap, cluster.n_vertices) + 1)]
    best = None
    best_mask = 0
    for mask, b in iter_connected_subsets(cluster.adjacency, size_cap, boundary):
        if b == 0 and supergraph is None:
            continue  # whole component: excluded as degenerate
        ratio = b / profile[mask.bit_count()]
        if best is None or ratio < best:
            best = ratio
            best_mask = mask
    if best is None:
        return IsoperimetryReport(0.0, cluster.n_vertices,
                                  list(range(cluster.n_vertices)), c, gamma, n,
                                  degenerate=True)
    verts = [i for i in range(cluster.n_vertices) if best_mask >> i & 1]
    return IsoperimetryReport(float(best), len(verts), verts, c, gamma, n)


# ---------------------------------------------------------------------------
# Folner functions
# ---------------------------------------------------------------------------

def _folner_minima(adjacency, k_list: Sequence[float], size_cap: int) -> dict:
    """Smallest |U| <= size_cap with k |boundary(U)| <= |U|, for every k at once.

    Maps each k to its minimum, None when no set under the cap qualifies.
    One connected-subset pass serves all k, and once every k has a value no
    set as large as the largest of them is grown.  The search is exact: the
    components of a qualifying set split its boundary between them, so one
    component qualifies too and is no larger.
    """
    if any(k <= 0 for k in k_list):
        raise ValueError("k must be positive")
    best: dict[float, int | None] = dict.fromkeys(k_list)
    ceiling = None  # max of best once every k has a value
    subsets = iter_connected_subsets(adjacency, size_cap)
    try:
        while True:
            # sets of ceiling or more vertices cannot improve any k
            mask, b = subsets.send(None if ceiling is None else ceiling - 1)
            size = mask.bit_count()
            if ceiling is not None and size >= ceiling:
                continue
            improved = False
            for k, value in best.items():
                if (value is None or size < value) and k * b <= size:
                    best[k] = size
                    improved = True
            if improved and None not in best.values():
                ceiling = max(best.values())
    except StopIteration:
        pass
    return best


def folner_function(adjacency: Sequence[Sequence[int]], k: float,
                    size_cap: int = 20) -> tuple:
    """Smallest |U| with |boundary(U)| / |U| <= 1/k, internal boundary.

    Returns (value, exact).  ``value`` is None with ``exact`` False when no
    qualifying set exists within the size cap; a found value is the true
    minimum because any qualifying set contains a qualifying subset of a
    component no larger (so the connected restriction loses nothing) and
    the enumeration under the cap is exhaustive.
    """
    value = _folner_minima(adjacency, [k], size_cap)[k]
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
    wreath_adj = wreath.adjacency_lists()
    k_list = list(k_list)
    wreath_vals = _folner_minima(wreath_adj, k_list, wreath.n_vertices)
    base_vals = _folner_minima(
        base.adjacency, [WREATH_FOLNER_C2 * k for k in k_list], base.n_vertices)
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
    """
    fam = set(family)
    if not fam:
        raise ValueError("empty family")
    witness = None
    for f in fam:
        flips = sum(1 for x in range(n_sites) if f ^ (1 << x) in fam)
        if flips < Y:
            witness = f
            break
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
    adj = wreath.adjacency_lists()
    boundary = sum(1 for u in U for w in adj[u] if w not in U)
    ratio = boundary / len(U)
    if ratio > 1.0 / (1000.0 * k):
        raise ValueError(
            f"subset boundary ratio {ratio:.4g} exceeds 1/(1000k); lemma not applicable")
    phi_k, _ = folner_function(wreath.base.adjacency, k, wreath.base.n_vertices)
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
