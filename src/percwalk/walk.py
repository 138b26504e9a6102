"""Simple random walk on a cluster and its visited-site statistics.

Two exact backends feed everything downstream:

* a merged-state sweep over (current vertex, visited bitmask) pairs, deduped
  with numpy sorting at every step; works on any cluster whose radius-n
  chemical ball has at most 60 vertices;
* a direct path enumeration for uniform-degree neighborhoods (the full
  lattice seen from the origin), where every length-n path has the same
  weight and only the visited count varies.

The Monte Carlo estimator runs chunks of 65,536 chains as column-vectorized
trajectories, chunk k keyed (master seed, k).  N_n is counted by a uint64
visited mask per chain when the radius-n_max chemical ball has at most 64
vertices, and by sorting each trajectory prefix otherwise.  The killed walk's
top eigenvalue comes from dense ``eigvalsh`` on chemical balls of at most 300
vertices and from Lanczos (``eigsh``) on larger ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from percwalk.percolation import ClusterGraph, induced_csr

__all__ = [
    "WalkPath",
    "WalkSeries",
    "KilledOperatorReport",
    "BudgetExceededError",
    "simulate_walk",
    "visited_count",
    "exact_visited_distribution",
    "exact_laplace",
    "mc_laplace",
    "mc_visited_samples",
    "confinement_probability",
    "survival_probabilities",
    "killed_operator_report",
]

DEFAULT_BUDGET = 2**28


class BudgetExceededError(RuntimeError):
    """Exact enumeration would need more path extensions than allowed."""

    def __init__(self, needed: float, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"enumeration needs about {needed:.3g} path extensions, budget is {budget}")


@dataclass(frozen=True)
class WalkPath:
    steps: tuple
    seed: int

    def __post_init__(self):
        if len(self.steps) == 0:
            raise ValueError("a walk path has at least its starting point")

    @property
    def length(self) -> int:
        return len(self.steps) - 1


@dataclass
class WalkSeries:
    """Per-n values of a walk functional with provenance and errors."""

    entries: list  # of (n, value, stderr, method)
    alpha: float
    p: float
    d: int
    seed: int

    def __post_init__(self):
        ns = [e[0] for e in self.entries]
        if ns != sorted(set(ns)):
            raise ValueError("entries must have strictly increasing n")
        for n, value, stderr, method in self.entries:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"value out of [0,1] at n={n}: {value}")
            if method == "exact" and stderr != 0.0:
                raise ValueError("exact entries must have zero standard error")

    def to_csv(self, out: TextIO):
        out.write("n,value,stderr,method,alpha,p,d,seed\n")
        for n, value, stderr, method in self.entries:
            out.write(f"{n},{value!r},{stderr!r},{method},"
                      f"{self.alpha!r},{self.p!r},{self.d},{self.seed}\n")


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------

def simulate_walk(cluster: ClusterGraph, n: int, seed: int) -> WalkPath:
    """One seeded trajectory X_0..X_n starting at the cluster origin."""
    if cluster.is_empty:
        raise ValueError("cannot walk on the empty cluster")
    if cluster.origin is None:
        raise ValueError("cluster has no distinguished origin")
    if cluster.n_vertices == 1:
        if n > 0:
            raise ValueError("the single-vertex cluster admits only n=0")
        return WalkPath((cluster.origin,), seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    indptr, indices = cluster.csr
    steps = [cluster.origin]
    pos = cluster.origin
    for _ in range(n):
        pos = int(indices[indptr[pos] + rng.integers(indptr[pos + 1] - indptr[pos])])
        steps.append(pos)
    return WalkPath(tuple(steps), seed)


def visited_count(path: WalkPath) -> int:
    """N_n: the number of distinct vertices among X_0..X_n."""
    return len(set(path.steps))


# ---------------------------------------------------------------------------
# Exact enumeration backends
# ---------------------------------------------------------------------------

def _neighbor_table(cluster: ClusterGraph) -> np.ndarray:
    """Row v lists the neighbours of v in adjacency order, zero-padded to the
    largest degree."""
    indptr, indices = cluster.csr
    deg = np.diff(indptr)
    table = np.zeros((deg.size, max(int(deg.max()), 1)), dtype=np.int32)
    table[np.arange(table.shape[1]) < deg[:, None]] = indices
    return table


def _reachable_ball(cluster: ClusterGraph, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within chemical distance n of the origin, and their distances."""
    dist = cluster.distances_from_origin()
    keep = np.nonzero((dist >= 0) & (dist <= n))[0]
    return keep, dist[keep]


def _merged_state_distribution(cluster: ClusterGraph, n: int, budget: int) -> dict:
    """Joint law of (N_n, X_n) as {(count, pinned): prob} via bitmask states.

    Only vertices reachable in n steps matter, so the cluster is first cut to
    the chemical ball of radius n; degrees of every vertex the walk can leave
    from are unchanged by the cut.
    """
    keep, dist = _reachable_ball(cluster, n)
    if keep.size > 60:
        raise BudgetExceededError(float("inf"), budget)
    # the walk only leaves from distance <= n - 1, where no neighbour is cut
    indptr, indices = induced_csr(*cluster.csr, keep)
    deg = cluster.degrees[keep].astype(np.float64)  # ambient degrees drive the kernel
    origin = int(np.searchsorted(keep, cluster.origin))

    verts = np.array([origin], dtype=np.int64)
    masks = np.array([np.uint64(1) << np.uint64(origin)], dtype=np.uint64)
    probs = np.array([1.0])
    expansions = 0
    for _ in range(n):
        lengths = (indptr[verts + 1] - indptr[verts]).astype(np.int64)
        total = int(lengths.sum())
        expansions += total
        if expansions > budget:
            raise BudgetExceededError(expansions * (n / max(1, _ + 1)), budget)
        starts = np.repeat(indptr[verts], lengths)
        cum = np.cumsum(lengths) - lengths
        offs = np.arange(total, dtype=np.int64) - np.repeat(cum, lengths)
        new_verts = indices[starts + offs]
        new_probs = np.repeat(probs / deg[verts], lengths)
        new_masks = np.repeat(masks, lengths) | (np.uint64(1) << new_verts.astype(np.uint64))
        order = np.lexsort((new_verts, new_masks))
        new_verts, new_masks, new_probs = new_verts[order], new_masks[order], new_probs[order]
        cut = np.nonzero((np.diff(new_masks) != 0) | (np.diff(new_verts) != 0))[0] + 1
        heads = np.concatenate([[0], cut])
        verts = new_verts[heads]
        masks = new_masks[heads]
        probs = np.add.reduceat(new_probs, heads)

    counts = np.bitwise_count(masks).astype(np.int64)
    pinned = verts == origin
    out: dict[tuple[int, bool], float] = {}
    for c, pin, pr in zip(counts.tolist(), pinned.tolist(), probs.tolist()):
        key = (c, pin)
        out[key] = out.get(key, 0.0) + pr
    return out


def _uniform_path_distribution(cluster: ClusterGraph, n: int, budget: int) -> dict:
    """Joint law of (N_n, X_n) by enumerating all equal-weight paths.

    Valid only when every vertex the walk can leave from (distance <= n-1
    from the origin) has the same degree g; then each path has weight g^-n.
    Keys appear in the order of their first path.  Each value is (number of
    paths) * g^-n: for g a power of two (Z^2) that equals the path-by-path
    sum bit for bit, for other g (Z^3, g = 6) the last bits may differ.
    """
    keep, dist = _reachable_ball(cluster, n)
    interior = keep[dist <= n - 1] if n > 0 else keep[:0]
    degs = cluster.degrees
    if n > 0:
        g = int(degs[interior[0]])
        if not np.all(degs[interior] == g):
            raise BudgetExceededError(float("inf"), budget)
    else:
        g = 1
    if g**n > budget:
        raise BudgetExceededError(float(g) ** n, budget)

    nbr = _neighbor_table(cluster)
    paths = np.full((1, n + 1), cluster.origin, dtype=np.int32)
    for step in range(1, n + 1):
        cur = paths[:, step - 1]
        paths = np.repeat(paths, g, axis=0)
        paths[:, step] = nbr[cur][:, :g].ravel()
    pinned = paths[:, -1] == cluster.origin
    paths.sort(axis=1)  # in place: each row becomes its sorted vertex list
    distinct = 1 + np.count_nonzero(paths[:, 1:] != paths[:, :-1], axis=1)
    # (count, pinned) packed into int16, which numpy sorts by radix
    keys, first, counts = np.unique((2 * distinct + pinned).astype(np.int16),
                                    return_index=True, return_counts=True)
    order = np.argsort(first)
    w = float(g) ** (-n)
    return {(k >> 1, bool(k & 1)): c * w
            for k, c in zip(keys[order].tolist(), counts[order].tolist())}


def exact_visited_distribution(cluster: ClusterGraph, n: int,
                               budget: int = DEFAULT_BUDGET) -> dict:
    """Exact joint law {(N_n value, X_n == origin): probability}."""
    if cluster.is_empty or cluster.origin is None:
        raise ValueError("need a nonempty cluster with an origin")
    if n < 0:
        raise ValueError("n must be >= 0")
    if cluster.n_vertices == 1:
        return {(1, True): 1.0}
    keep, _ = _reachable_ball(cluster, n)
    if keep.size <= 60:
        return _merged_state_distribution(cluster, n, budget)
    return _uniform_path_distribution(cluster, n, budget)


def exact_laplace(cluster: ClusterGraph, alpha: float, n: int,
                  pinned: bool = False, budget: int = DEFAULT_BUDGET) -> float:
    """E[alpha^{N_n}], optionally restricted to walks returning at time n."""
    return _laplace_of(exact_visited_distribution(cluster, n, budget), alpha, pinned)


def _laplace_of(dist: dict, alpha: float, pinned: bool = False) -> float:
    """E[alpha^{N_n}] from the joint law {(N_n, X_n == origin): probability}."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    total = 0.0
    for (count, pin), pr in dist.items():
        if pin or not pinned:
            total += alpha**count * pr
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

_CHUNK = 65536


def _trajectory_chunks(cluster: ClusterGraph, n_max: int, samples: int, seed: int):
    """Trajectory blocks (n_max + 1, chunk), one column per chain.  Chunk k draws
    u = Philox(key=(seed << 64) + k).random((n_max, chunk)) one row per step,
    and u moves a chain at v to neighbour floor(u * deg(v)) of v in CSR order."""
    nbr = _neighbor_table(cluster)  # take() reads it flattened
    width = nbr.shape[1]
    deg = cluster.degrees.astype(np.float64)
    for k, start in enumerate(range(0, samples, _CHUNK)):
        chunk = min(_CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + k))
        traj = np.empty((n_max + 1, chunk), dtype=np.int32)
        traj[0] = cluster.origin
        for step in range(n_max):
            cur = traj[step]
            pick = (rng.random(chunk) * deg.take(cur)).astype(np.int32)
            pick += cur * width
            nbr.take(pick, out=traj[step + 1])
        yield traj


def mc_visited_samples(cluster: ClusterGraph, n_list: Sequence[int],
                       samples: int, seed: int) -> dict:
    """Sampled N_n arrays per n, one entry per chain; chunk k keyed (seed, k).
    N_n is the popcount of a uint64 visited mask, one bit per ball vertex, when
    the chemical ball of radius max(n_list) has at most 64 vertices."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_max = max(n_list)
    out = {n: [] for n in n_list}
    keep, _ = _reachable_ball(cluster, n_max)
    bit = None
    if keep.size <= 64:
        bit = np.zeros(cluster.n_vertices, dtype=np.uint64)
        bit[keep] = np.uint64(1) << np.arange(keep.size, dtype=np.uint64)
    for traj in _trajectory_chunks(cluster, n_max, samples, seed):
        if bit is None:
            for n in sorted(out):
                # n_max comes last, so its block may sort the chunk in place
                block = traj[: n + 1] if n == n_max else traj[: n + 1].copy()
                block.sort(axis=0)
                out[n].append(1 + np.count_nonzero(block[1:] != block[:-1], axis=0))
            continue
        mask = np.zeros(traj.shape[1], dtype=np.uint64)
        for step, sites in enumerate(traj):
            mask |= bit.take(sites)
            if step in out:
                out[step].append(np.bitwise_count(mask))
    return {n: np.concatenate(parts).astype(np.int64) for n, parts in out.items()}


def _mc_moments(counts: np.ndarray, alpha: float) -> tuple[float, float]:
    """Sample mean of alpha^N over the counts, and its standard error."""
    if counts.min() == counts.max():
        # constant sample (n = 0, alpha = 1, forced paths): exact value
        return float(alpha) ** int(counts[0]), 0.0
    x = (alpha ** np.arange(counts.max() + 1.0)).take(counts)
    mean = float(np.mean(x))
    var = float(np.mean(x * x) - mean * mean)
    return mean, float(np.sqrt(max(var, 0.0) / counts.size))


def mc_laplace(cluster: ClusterGraph, alpha: float, n_list: Sequence[int],
               samples: int, seed: int) -> WalkSeries:
    """Monte Carlo estimate of E[alpha^{N_n}] for each n, with standard errors."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    counts = mc_visited_samples(cluster, sorted(set(n_list)), samples, seed)
    entries = [(n, *_mc_moments(counts[n], alpha), "monte_carlo")
               for n in sorted(counts)]
    meta = cluster.meta
    return WalkSeries(entries, alpha, meta.get("p", float("nan")),
                      meta.get("d", 0), seed)


def confinement_probability(cluster: ClusterGraph, r: int, n: int,
                            samples: int, seed: int) -> tuple[float, float]:
    """Estimate of P(sup_{i<=n} D(0, X_i) <= r) with its standard error.

    When no n-step walk can leave the ball (n <= r, since the chemical
    distance grows by at most one per step) the value is exactly 1.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if cluster.n_vertices == 1 or n <= r:
        return 1.0, 0.0
    if r == 0:
        return 0.0, 0.0  # the first of the n >= 1 steps leaves {0}
    inside = cluster.distances_from_origin() <= r
    hits = sum(int(np.count_nonzero(inside.take(traj).all(axis=0)))
               for traj in _trajectory_chunks(cluster, n, samples, seed))
    phat = hits / samples
    return phat, float(np.sqrt(phat * (1 - phat) / samples))


# ---------------------------------------------------------------------------
# Killed walk in a chemical ball
# ---------------------------------------------------------------------------

@dataclass
class KilledOperatorReport:
    r: int
    ball_size: int
    half_ball_size: int
    lambda1: float
    paper_bound: float
    rayleigh_h: float
    survival: list  # of (n, probability)

    def __post_init__(self):
        if not 0.0 < self.lambda1 <= 2.0:
            raise ValueError(f"lambda1 out of (0, 2]: {self.lambda1}")
        probs = [p for _, p in self.survival]
        if any(b > a + 1e-12 for a, b in zip(probs, probs[1:])):
            raise ValueError("survival probabilities must be nonincreasing")

    def to_json(self, out: TextIO):
        json.dump({
            "r": self.r,
            "ball_size": self.ball_size,
            "half_ball_size": self.half_ball_size,
            "lambda1": self.lambda1,
            "paper_bound": self.paper_bound,
            "rayleigh_h": self.rayleigh_h,
            "survival": [{"n": n, "p": p} for n, p in self.survival],
        }, out, indent=2)
        out.write("\n")


_DENSE_EIGEN_MAX = 300  # ball size; measured crossover ~150 on Z^2, ~290 at p = 0.7
_EIGEN_CAP = 20000


def _ball_kernel(cluster: ClusterGraph, r: int):
    """Kernel P of the walk killed on leaving the ball D <= r (ambient degrees),
    returned as (ball vertices, the origin's row, degrees, P)."""
    ball = np.nonzero(cluster.distances_from_origin() <= r)[0]
    if ball.size == 0:
        raise ValueError("empty ball")
    deg = cluster.degrees.astype(np.float64)
    indptr, indices = induced_csr(*cluster.csr, ball)
    vals = 1.0 / np.repeat(deg[ball], np.diff(indptr))
    P = sp.csr_matrix((vals, indices, indptr), shape=(ball.size, ball.size))
    return ball, int(np.searchsorted(ball, cluster.origin)), deg, P


def _survival(P, start: int, n_list: Sequence[int]) -> list:
    """[(n, mass left after n steps of P from row ``start``)] for n ascending."""
    v = np.zeros(P.shape[0])
    v[start] = 1.0
    out = []
    step = 0
    PT = P.T
    for n in sorted(set(int(n) for n in n_list)):
        while step < n:
            v = PT @ v
            step += 1
        out.append((n, float(v.sum())))
    return out


def survival_probabilities(cluster: ClusterGraph, r: int,
                           n_list: Sequence[int]) -> list:
    """Exact P(sigma_r > n) for each n via repeated kernel application."""
    _, start, _, P = _ball_kernel(cluster, r)
    return _survival(P, start, n_list)


def killed_operator_report(cluster: ClusterGraph, r: int,
                           n_list: Sequence[int]) -> KilledOperatorReport:
    """Spectral and survival summary of the walk killed outside D(0,.) <= r."""
    if r < 1:
        raise ValueError("ball radius must be >= 1")
    dist = cluster.distances_from_origin()
    ball, start, deg, P = _ball_kernel(cluster, r)
    if ball.size > _EIGEN_CAP:
        raise ValueError(f"ball has {ball.size} vertices, over the eigensolve "
                         f"cap of {_EIGEN_CAP}")
    half = int(np.count_nonzero(dist <= r // 2))

    # similarity transform by sqrt(nu) makes the kernel symmetric
    s = np.sqrt(deg[ball])
    A = sp.diags(s) @ P @ sp.diags(1.0 / s)
    A = (A + A.T) / 2
    if ball.size <= _DENSE_EIGEN_MAX:
        top = float(np.linalg.eigvalsh(A.toarray())[-1])
    else:
        # sqrt(deg), the unkilled Perron vector, as a fixed start makes ARPACK repeatable
        top = float(eigsh(A, k=1, which="LA", v0=s, return_eigenvectors=False)[0])
    lambda1 = 1.0 - top

    d = cluster.meta.get("d", cluster.coords.shape[1])
    paper_bound = 8.0 * d * ball.size / (r**2 * half)

    h = np.maximum(r - dist, 0)
    rows = np.repeat(np.arange(cluster.n_vertices), cluster.degrees)
    # h is integer-valued, so the sum over both directions is exact in any order
    energy = float(np.sum((h[rows] - h[cluster.csr[1]]) ** 2)) / 2
    norm = float(np.sum(deg * h * h))
    rayleigh = energy / norm if norm > 0 else float("inf")

    survival = _survival(P, start, n_list)
    return KilledOperatorReport(r, int(ball.size), half, lambda1,
                                paper_bound, rayleigh, survival)
