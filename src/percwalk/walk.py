"""Simple random walk on a cluster and its visited-site statistics.

Two exact backends give the law of (N_t, X_t == origin) for every t <= n, each
in one pass: a merged-state sweep over (current vertex, visited bitmask) pairs,
deduped by sorting at every step, while the radius-t chemical ball has at most
MASK_WIDTH = 64 vertices; past that, on equal-degree balls (the full lattice
seen from the origin), an enumerator of the equally likely paths that keeps one
column of positions per step instead of the paths, in the ball's own ids of the
smallest unsigned type, with one-byte visit counts and keys, counted by bincount
over blocks of at most 65,536 paths, the last step's gathered per block.  Both
are capped at EXACT_BYTES (1 GiB): each sweep step's arrays and held states, or
the enumerator's columns through step n - 1 and counts of steps n - 2 and n - 1.

The Monte Carlo estimator runs chunks of 65,536 chains as column-vectorized
trajectories, chunk k keyed (master seed, k), and spreads them over the cores
this process may use: whole chunks, or column tiles cut from each chunk, one
per core when there are fewer chunks than cores.  Their trajectory buffers
share MC_BYTES (8 MiB) over all cores, or fewer cores walk: only a lone tile
of at most 4,096 columns may pass it.  A tile seeks each row's draws in the
chunk's Philox stream by advancing the counter.  No output depends on the
core count.
Chains walk the radius-n_max chemical ball in its own ids, on its neighbour
table and degrees alone, and N_n is counted by a uint64 visited mask per chain
when it has at most MASK_WIDTH vertices, otherwise by sorting the trajectory
prefixes in place, shortest first, and counting the changes between sorted rows
in row blocks of 16.  Ids and counts are stored in the smallest unsigned type
that holds them (often one byte).
One builder, ``_ball_kernel``, makes the killed walk's kernel P on the same
ball cut (``_reachable_ball``); lambda1 comes from one Lanczos (``eigsh``) solve
of its symmetrised form, built only there, from a fixed start, so it does not
depend on the core count.  Only that solve is capped (at _EIGEN_CAP vertices):
a ball holding the whole cluster kills nothing and has lambda1 = 0 with no
solve.  The ball cut gives an isolated origin a self-loop of degree 1, so a
walk from it visits one site, returns at every t and is never killed.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from percwalk.percolation import ClusterGraph, csr_rows, induced_csr

__all__ = [
    "WalkSeries",
    "KilledOperatorReport",
    "BudgetExceededError",
    "BallTooWideError",
    "exact_visited_laws",
    "exact_visited_distribution",
    "exact_laplace",
    "mc_laplace",
    "mc_visited_samples",
    "confinement_probability",
    "survival_probabilities",
    "killed_operator_report",
]

EXACT_BYTES = 2**30  # a merged-sweep step's arrays, or what the path enumerator holds
MC_BYTES = 2**23  # the trajectory buffers of every Monte Carlo tile walked at once
MASK_WIDTH = 64  # vertices a uint64 visited mask holds
# a merged-sweep step's bytes per path extension: 8-byte source, vertex, probability, mask and
# order, their 3 sorted copies and 1 gathered mask (tracemalloc: 68-70 B on d = 2 clusters)
_SWEEP_BYTES = 9 * 8
_STATE_BYTES = 3 * 8  # per state the step holds meanwhile: its vertex, mask and probability
_EIGEN_CAP = 20000  # vertices of a killed ball the eigensolve takes


class BudgetExceededError(RuntimeError):
    """An exact backend would need more than EXACT_BYTES."""

    def __init__(self, needed: float, budget: int):
        self.needed, self.budget = needed, budget
        super().__init__(f"enumeration needs about {needed:.3g} bytes, budget is {budget} bytes")


class BallTooWideError(RuntimeError):
    """A ball over the merged sweep's mask width, with unequal degrees."""


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
# Exact enumeration backends
# ---------------------------------------------------------------------------

def _neighbor_table(indptr: np.ndarray, indices: np.ndarray, dtype) -> np.ndarray:
    """Row v lists the neighbours of v in CSR order, zero-padded to the
    largest degree."""
    deg = np.diff(indptr)
    table = np.zeros((deg.size, max(int(deg.max()), 1)), dtype=dtype)
    table[np.arange(table.shape[1]) < deg[:, None]] = indices
    return table


def _reachable_ball(cluster: ClusterGraph, n: int):
    """The chemical ball of radius n in its own ids, the ranks of its cluster
    ids: (its cluster ids, its CSR, its ambient degrees as float64, which drive
    every walk on it, the smallest unsigned type that holds its ids, the
    origin's id).  Local ids rise with the cluster's, so rows keep their CSR
    order; a cut ball loses only neighbours of its sphere D = n, from which no
    walk of n steps leaves.  An isolated origin, the only vertex of degree 0,
    gets a self-loop of degree 1 that holds every walk.  No other code here
    cuts a ball."""
    keep = np.nonzero(cluster.distances_from_origin() <= n)[0]
    csr = cluster.csr if keep.size == cluster.n_vertices else induced_csr(*cluster.csr, keep)
    if cluster.n_vertices == 1:
        csr = (np.array([0, 1]), keep)
    return (keep, csr, np.maximum(cluster.degrees[keep], 1).astype(np.float64),
            np.min_scalar_type(keep.size - 1), int(np.searchsorted(keep, cluster.origin)))


def _merged_state_laws(cluster: ClusterGraph, n: int) -> list:
    """Joint laws of (N_t, X_t) for t = 0..n as {(count, pinned): prob} via
    bitmask states, one sweep to n cut to the chemical ball of radius n (the
    cut keeps the degree of every vertex the walk can leave from).  Local ids
    rise with the cluster's ids, so states sort as in the ball of any t <= n."""
    _, (indptr, indices), deg, _, origin = _reachable_ball(cluster, n)

    verts = np.array([origin], dtype=np.int64)
    masks = np.array([np.uint64(1) << np.uint64(origin)], dtype=np.uint64)
    probs = np.array([1.0])
    laws = []
    for step in range(n + 1):
        law = {}
        for key, pr in zip(zip(np.bitwise_count(masks).tolist(), (verts == origin).tolist()),
                           probs.tolist()):
            law[key] = law.get(key, 0.0) + pr
        laws.append(law)
        if step == n:
            return laws
        needed = (_SWEEP_BYTES * int((indptr[verts + 1] - indptr[verts]).sum())
                  + _STATE_BYTES * verts.size)
        if needed > EXACT_BYTES:
            raise BudgetExceededError(needed, EXACT_BYTES)
        verts, masks, probs = _sweep_step(indptr, indices, deg, verts, masks, probs)


def _sweep_step(indptr, indices, deg, verts, masks, probs):
    """The merged sweep's states one move on, sorted by (mask, vertex); its temporaries die here."""
    src, new_verts = csr_rows(indptr, indices, verts)
    new_probs = (probs / deg[verts])[src]
    new_masks = masks[src] | (np.uint64(1) << new_verts.astype(np.uint64))
    order = np.lexsort((new_verts, new_masks))
    new_verts, new_masks, new_probs = new_verts[order], new_masks[order], new_probs[order]
    heads = np.flatnonzero(np.r_[True, (np.diff(new_masks) != 0) | (np.diff(new_verts) != 0)])
    return new_verts[heads], new_masks[heads], np.add.reduceat(new_probs, heads)


def _uniform_path_laws(cluster: ClusterGraph, n: int) -> list:
    """Joint laws of (N_t, X_t) for t = 0..n by enumerating equal-weight paths.

    Valid only when every vertex at distance <= n-1 from the origin has the
    same degree g, so each t-step path has weight g^-t.  No path is stored:
    column t holds X_t of all g^t paths, path i extending path i // g, so its
    step j is row i // g^(t-j) of column j.  Columns hold ball-local ids of
    the smallest unsigned type (one byte up to 256 vertices), and the counts
    N_t and keys 2 N_t + pinned one byte each up to n = 126.  Each column is
    gathered, compared, counted by bincount and scanned for its keys' first
    paths in blocks of g^k <= 65,536 paths, since take() and bincount() copy
    their indices to intp; column n is only gathered block by block from its
    parents.  The columns before it and the counts of steps n - 2 and n - 1
    may take at most EXACT_BYTES.  Values are (number of paths) * g^-t, which
    for g = 6 (Z^3) may differ from the path-by-path sum in the last bits."""
    keep, csr, _, ids, origin = _reachable_ball(cluster, n)
    degs = cluster.degrees[cluster.distances_from_origin() <= n - 1]
    g = int(degs.min())
    # every step offers at least g moves; the counts of steps n - 2 and n - 1 live together
    needed = ids.itemsize * sum(g**t for t in range(n)) + sum(g**t for t in range(max(n - 2, 0), n))
    if needed > EXACT_BYTES:
        raise BudgetExceededError(needed, EXACT_BYTES)
    if degs.max() != g:
        raise BallTooWideError(
            f"the radius-{n} chemical ball has {keep.size} vertices, over the {MASK_WIDTH}-vertex"
            f" mask width of the merged sweep, and degrees {g} to {degs.max()} within radius"
            f" {n - 1}, so its paths are not equally likely")

    nbr = np.ascontiguousarray(_neighbor_table(*csr, ids)[:, :g])
    span = max(g, 1)  # paths per block, a power of g: whole rows of each column, or part of one
    while 1 < span * g <= 2**16:
        span *= g
    x = np.array([origin], dtype=ids)
    distinct = np.zeros(1, dtype=np.min_scalar_type(2 * n + 3))  # N_t per path; holds keys too
    cols, laws = [], []
    for t in range(n + 1):
        if 0 < t < n:
            parents, x = x, np.empty((x.size, g), dtype=ids)
            for lo in range(0, parents.size, span):
                nbr.take(parents[lo: lo + span], axis=0, out=x[lo: lo + span], mode="clip")
            x = x.ravel()
            distinct = np.repeat(distinct, g)
        counts = np.zeros(2 * n + 4, dtype=np.int64)
        order = []  # keys by first path
        for lo in range(0, g**t, span):
            if 0 < t == n:  # the last step: this block's paths alone, from their parents in x
                up = slice(lo // g, (lo + span) // g)
                block = nbr.take(x[up], axis=0, mode="clip").ravel()
                visits = np.repeat(distinct[up], g)
            else:
                block, visits = x[lo: lo + span], distinct[lo: lo + span]
            fresh = np.ones(block.size, dtype=bool)
            for j, col in enumerate(cols):
                s = g ** (t - j)
                r = min(s, block.size)
                rows = fresh.reshape(-1, r)
                rows &= block.reshape(-1, r) != col[lo // s: lo // s + block.size // r, None]
            visits += fresh
            keys = visits << 1
            keys += block == origin
            part = np.bincount(keys, minlength=counts.size)
            new = np.flatnonzero(part * (counts == 0)).tolist()
            order += sorted(new, key=lambda k: int(np.argmax(keys == k)))
            counts += part
        cols.append(x)
        w = float(g) ** (-t)
        laws.append({(k >> 1, bool(k & 1)): c * w for k, c in zip(order, counts[order].tolist())})
    return laws


def exact_visited_laws(cluster: ClusterGraph, n_max: int) -> list:
    """Exact joint laws [{(N_t value, X_t == origin): probability}, t = 0..n_max].

    The law at t comes from the merged sweep while the radius-t chemical ball
    has at most MASK_WIDTH vertices, and from the path enumerator past that;
    each backend makes one pass, to the last t it serves."""
    if cluster.is_empty or cluster.origin is None or n_max < 0:
        raise ValueError("need a nonempty cluster with an origin, and n >= 0")
    dist = cluster.distances_from_origin()
    sizes = np.cumsum(np.bincount(dist, minlength=n_max + 1))[: n_max + 1]
    merged = int(np.count_nonzero(sizes <= MASK_WIDTH))  # balls only grow with t
    laws = _merged_state_laws(cluster, merged - 1)
    if merged <= n_max:
        laws += _uniform_path_laws(cluster, n_max)[merged:]
    return laws


def exact_visited_distribution(cluster: ClusterGraph, n: int) -> dict:
    """Exact joint law {(N_n value, X_n == origin): probability}."""
    return exact_visited_laws(cluster, n)[-1]


def exact_laplace(cluster: ClusterGraph, alpha: float, n: int,
                  pinned: bool = False) -> float:
    """E[alpha^{N_n}], optionally restricted to walks returning at time n."""
    return _laplace_of(exact_visited_distribution(cluster, n), alpha, pinned)


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
# Columns.  On 2 cores, mc_laplace calls of 1,000-8,190 chains ran 1.4-5x
# faster as one tile than cut in two: a thread and per-row seeks cost more there.
_MIN_TILE = 4096


def _map_chunks(cluster: ClusterGraph, n_max: int, samples: int, seed: int, reduce):
    """Call reduce(first_chain, traj) once per column tile of the ``samples``
    chains, traj (n_max + 1, tile width) holding one chain per column in the
    radius-n_max chemical ball's ids (ranks of its cluster ids) of type ids =
    the smallest unsigned type that holds them.  Chunk k of 65,536 chains
    draws u = Philox(key=(seed << 64) + k).random((n_max, chunk)) one row per
    step, and u moves a chain at v to neighbour floor(u * deg(v)) of v in CSR order.

    Each chunk is cut into tiles of one width, rounded up to a multiple of 4
    (the last may be narrower): one per core when the call has fewer chunks than this process may
    use cores, but no more than the chunk holds _MIN_TILE columns; and at least enough that no tile
    is wider than cap = max(_MIN_TILE, MC_BYTES // (cores * column)) columns, rounded down to a
    multiple of 4, where a column takes ids.itemsize * (n_max + 1) bytes.  Row ``step`` of a tile
    narrower than its chunk, starting at column a, reads the chunk's stream from position
    at = step * chunk + a: the tile's one Philox advances its counter to at // 4, spending the
    buffer as Philox(key, counter=at // 4) starts (the row before, at least 4 columns back, left
    it at no more), and drops at % 4 draws; a whole-chunk tile reads straight through.

    Tiles are dealt round-robin to shares: one per core, but no more than there are tiles or
    than MC_BYTES holds _MIN_TILE-wide buffers, and at least one.  So all buffers together hold
    at most max(MC_BYTES, column * _MIN_TILE) bytes, whatever n_max and the core count.  The
    calling thread walks share 0, helper threads the rest, each in buffers as wide as its widest
    tile, allocated here (what a helper frees stays in its own malloc arena).  One share (one
    core; one tile, at most _MIN_TILE chains or fewer than 2 * _MIN_TILE under a wider cap; or
    columns too long for two _MIN_TILE-wide buffers in MC_BYTES) builds no pool."""
    keep, csr, deg, ids, origin = _reachable_ball(cluster, n_max)
    nbr = _neighbor_table(*csr, ids)  # take() reads it flattened
    width = nbr.shape[1]
    del keep, csr  # the chains read only nbr and deg
    if nbr.max() >= deg.size:  # take() skips this check in mode="clip"; floor(u*deg) < deg
        raise ValueError("neighbour table names a vertex outside the ball")
    firsts = range(0, samples, _CHUNK)
    cores, column = len(os.sched_getaffinity(0)), ids.itemsize * (n_max + 1)
    cap = max(_MIN_TILE, MC_BYTES // (cores * column)) // 4 * 4
    tiles = []  # (chunk k, its width, first column a, tile width)
    for k, first in enumerate(firsts):
        chunk = min(_CHUNK, samples - first)
        parts = max(1, min(cores, chunk // _MIN_TILE)) if len(firsts) < cores else 1
        parts = max(parts, -(-chunk // cap))
        w = -(-chunk // (4 * parts)) * 4
        tiles += [(k, chunk, a, min(w, chunk - a)) for a in range(0, chunk, w)]
    shares = min(cores, len(tiles), max(1, MC_BYTES // (column * _MIN_TILE)))

    def walk_share(j, traj, u, dg, off, pick):
        for k, chunk, a, w in tiles[j::shares]:
            block, u_k, dg_k, off_k, pick_k = (x[..., :w] for x in (traj, u, dg, off, pick))
            block[0] = origin
            bits = np.random.Philox(key=(seed << 64) + k)
            rng, counter = np.random.Generator(bits), 0
            for step in range(n_max):
                if w < chunk:  # seek to row step, column a of the stream
                    at = step * chunk + a
                    bits.advance(at // 4 - counter)
                    bits.random_raw(at % 4)
                    counter = -(-(at + w) // 4)  # once this row is drawn
                cur = block[step]
                rng.random(out=u_k)
                u_k *= deg.take(cur, out=dg_k, mode="clip")
                pick_k[:] = u_k  # truncates, as astype(np.int32) did
                pick_k += np.multiply(cur, width, out=off_k, dtype=np.int32)  # ids would wrap
                nbr.take(pick_k, out=block[step + 1], mode="clip")
            reduce(firsts[k] + a, block)

    widest = [max(w for *_, w in tiles[j::shares]) for j in range(shares)]
    buffers = [(np.empty((n_max + 1, cols), ids), np.empty(cols), np.empty(cols),
                np.empty(cols, np.int32), np.empty(cols, np.int32)) for cols in widest]
    if shares == 1:
        return walk_share(0, *buffers[0])
    with ThreadPoolExecutor(shares - 1) as pool:
        helpers = [pool.submit(walk_share, j, *buffers[j]) for j in range(1, shares)]
        walk_share(0, *buffers[0])
        for helper in helpers:
            helper.result()


def mc_visited_samples(cluster: ClusterGraph, n_list: Sequence[int],
                       samples: int, seed: int) -> dict:
    """Sampled N_n arrays per n, one entry per chain, of the smallest unsigned
    type that holds max(n_list) + 1 (uint8 to max(n_list) = 254); chunk k keyed (seed, k).
    N_n is the popcount of a uint64 visited mask, one bit per ball vertex, when
    the chemical ball of radius max(n_list) has at most MASK_WIDTH vertices.
    Otherwise each tile sorts its rows 0..n in place for n ascending and counts
    the distinct sites per column: a sort permutes rows within the prefix only,
    so every longer prefix keeps its sites, and no copy is made.  The changes
    between adjacent sorted rows are counted over blocks of 16 rows, straight
    into the tile's slice of the counts."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if len(n_list) == 0 or min(n_list) < 0:
        raise ValueError(f"n_list must hold at least one n, each >= 0, got {list(n_list)}")
    n_max = max(n_list)
    out = {n: np.empty(samples, dtype=np.min_scalar_type(n_max + 1)) for n in n_list}
    size = int((cluster.distances_from_origin() <= n_max).sum())  # the ball _map_chunks builds
    if size > MASK_WIDTH:
        def count(first, traj):
            for n in sorted(out):
                # sorting a prefix in place keeps each longer prefix's sites
                block = traj[: n + 1]
                block.sort(axis=0)
                distinct = out[n][first: first + traj.shape[1]]
                distinct[:] = 1
                for lo in range(0, n, 16):  # a (16, width) bool block per compare
                    hi = min(lo + 16, n)
                    np.add(distinct, np.count_nonzero(block[lo + 1: hi + 1] != block[lo: hi],
                                                      axis=0), out=distinct, casting="unsafe")
    else:
        bit = np.uint64(1) << np.arange(size, dtype=np.uint64)  # by ball id

        def count(first, traj):
            mask = np.zeros(traj.shape[1], dtype=np.uint64)
            bits = np.empty_like(mask)
            for step, sites in enumerate(traj):
                mask |= bit.take(sites, out=bits, mode="clip")
                if step in out:
                    np.bitwise_count(mask, out=out[step][first: first + mask.size])
    _map_chunks(cluster, n_max, samples, seed, count)
    return out


def _mc_moments(counts: np.ndarray, alpha: float) -> tuple[float, float]:
    """Sample mean of alpha^N over the counts, and its standard error."""
    if counts.min() == counts.max():
        # constant sample (n = 0, alpha = 1, forced paths): exact value
        return float(alpha) ** int(counts[0]), 0.0
    powers = alpha ** np.arange(counts.max() + 1.0)
    x = np.empty(counts.size)
    for lo in range(0, counts.size, _CHUNK):  # take() copies its indices to intp
        powers.take(counts[lo: lo + _CHUNK], out=x[lo: lo + _CHUNK], mode="clip")
    mean = float(np.mean(x))
    var = float(np.mean(np.multiply(x, x, out=x)) - mean * mean)
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
        raise ValueError(f"r and n must be >= 0, got r={r}, n={n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if cluster.n_vertices == 1 or n <= r:
        return 1.0, 0.0
    if r == 0:
        return 0.0, 0.0  # the first of the n >= 1 steps leaves {0}
    dist = cluster.distances_from_origin()
    inside = dist[dist <= n] <= r  # by ball id
    hits = []  # list.append is atomic, so helper threads may share it
    _map_chunks(cluster, n, samples, seed, lambda first, traj: hits.append(
        np.count_nonzero(inside[traj].all(axis=0))))  # take() would copy traj to intp
    phat = int(sum(hits)) / samples
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
        if not 0.0 <= self.lambda1 <= 2.0:
            raise ValueError(f"lambda1 out of [0, 2]: {self.lambda1}")
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
            # infinite when h has zero norm (an isolated origin): JSON null
            "rayleigh_h": self.rayleigh_h if np.isfinite(self.rayleigh_h) else None,
            "survival": [{"n": n, "p": p} for n, p in self.survival],
        }, out, indent=2, allow_nan=False)
        out.write("\n")


def _ball_kernel(cluster: ClusterGraph, r: int):
    """The walk killed on leaving the ball D <= r, on ambient degrees: (ball
    vertices, the origin's row, s = sqrt(deg), P with entries 1 / deg_u)."""
    ball, (indptr, indices), deg, _, start = _reachable_ball(cluster, r)
    P = sp.csr_matrix((1.0 / np.repeat(deg, np.diff(indptr)), indices, indptr),
                      shape=(ball.size,) * 2)
    return ball, start, np.sqrt(deg), P


def _survival(P, start: int, n_list: Sequence[int]) -> list:
    """[(n, mass left after n steps of P from row ``start``)] for n ascending."""
    v = np.zeros(P.shape[0])
    v[start] = 1.0
    out, step, PT = [], 0, P.T
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
    ball, start, s, P = _ball_kernel(cluster, r)
    half = int(np.count_nonzero(dist <= r // 2))

    if ball.size == cluster.n_vertices:
        top = 1.0  # no edge leaves the ball, so P is stochastic and nothing is killed
    elif ball.size > _EIGEN_CAP:
        raise ValueError(f"ball has {ball.size} vertices, over the eigensolve cap of {_EIGEN_CAP}")
    else:
        # A = diag(s) P diag(1/s), entries 1 / (s_u s_v), symmetric as built; sqrt(deg),
        # the unkilled Perron vector, as a fixed start makes ARPACK repeatable
        A = sp.csr_matrix((1.0 / (np.repeat(s, np.diff(P.indptr)) * s[P.indices]), P.indices,
                           P.indptr), shape=P.shape)
        top = float(eigsh(A, k=1, which="LA", v0=s, return_eigenvectors=False)[0])
    lambda1 = 1.0 - top

    d = cluster.meta.get("d", cluster.coords.shape[1])
    paper_bound = 8.0 * d * ball.size / (r**2 * half)

    h = np.maximum(r - dist, 0)
    rows = np.repeat(np.arange(cluster.n_vertices), cluster.degrees)
    # h is integer-valued, so the sum over both directions is exact in any order
    energy = float(np.sum((h[rows] - h[cluster.csr[1]]) ** 2)) / 2
    norm = float(np.sum(cluster.degrees * h * h))  # integers: exact
    rayleigh = energy / norm if norm > 0 else float("inf")

    return KilledOperatorReport(r, int(ball.size), half, lambda1, paper_bound, rayleigh,
                                _survival(P, start, n_list))
