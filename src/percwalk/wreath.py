"""Finite lamplighter graphs: a base cluster wreathed with on/off lamps.

States are pairs (base vertex, lamp bitmask over the base vertices), stored
densely at index ``a * 2^m + f``.  The walk moves along a base edge and sets
each of the two lamps at the ends of the move afresh, off with probability
``alpha`` and on with ``1 - alpha``, whatever its state was: the
switch-walk-switch lamplighter walk.  No transition matrix is stored;
``LamplighterKernel.step`` applies the kernel to a mass vector edge by edge,
each move being a sum over the two lamps it touches followed by their
reweighting.  ``return_probability`` is the left side of the identity
P(back at (origin, all off) after 2n) = E[alpha^{N_2n} 1{X_2n = origin}] for
n >= 1, which the ``identity-sweep`` recipe checks against the walk layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from percwalk.percolation import ClusterGraph, arcs_csr

__all__ = [
    "WreathGraph",
    "LamplighterKernel",
    "build_wreath",
    "reversible_measure",
    "return_probability",
]

MAX_BASE = 16


@dataclass
class WreathGraph:
    """The wreath product of a base graph with the two-element lamp group."""

    base: ClusterGraph

    def __post_init__(self):
        if self.base.is_empty:
            raise ValueError("base graph must be nonempty")
        if self.base.n_vertices > MAX_BASE:
            raise ValueError(
                f"base has {self.base.n_vertices} vertices, limit is {MAX_BASE}")

    @property
    def m(self) -> int:
        return self.base.n_vertices

    @property
    def n_vertices(self) -> int:
        return self.m * 2**self.m

    def state_index(self, a: int, f: int) -> int:
        return a * 2**self.m + f

    def state_of(self, index: int) -> tuple[int, int]:
        return divmod(index, 2**self.m)

    @property
    def origin_state(self) -> int:
        if self.base.origin is None:
            raise ValueError("base has no distinguished origin")
        return self.state_index(self.base.origin, 0)

    def neighbors(self, index: int) -> list:
        """Wreath edges: flip the lamp at the current position, or move."""
        a, f = self.state_of(index)
        indptr, indices = self.base.csr
        out = [self.state_index(a, f ^ (1 << a))]
        out.extend(self.state_index(b, f) for b in indices[indptr[a]:indptr[a + 1]].tolist())
        return out

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the wreath graph, each row ascending: the
        lamp flip at every state, and every base move at every lamp pattern."""
        indptr, indices = self.base.csr
        m, states, lamps = self.m, np.arange(self.n_vertices), np.arange(2**self.m)
        tails = np.repeat(np.arange(m), np.diff(indptr))
        src = np.concatenate([states, np.ravel(tails[:, None] << m | lamps)])
        dst = np.concatenate([states ^ 1 << (states >> m), np.ravel(indices[:, None] << m | lamps)])
        return arcs_csr(self.n_vertices, src, dst)


def build_wreath(base: ClusterGraph) -> WreathGraph:
    return WreathGraph(base)


def _lamp_weights(m: int, a: int, b: int, alpha: float, scale: float) -> np.ndarray:
    """``scale`` times (alpha, 1 - alpha) on the axes of lamps a and b.

    A lamp law over m sites is an array of shape ``(2,) * m`` whose flat
    index is the bitmask, so lamp bit a is axis ``m - 1 - a``.
    """
    w = np.array([alpha, 1.0 - alpha])
    wa = w.reshape([2 if axis == m - 1 - a else 1 for axis in range(m)])
    wb = w.reshape([2 if axis == m - 1 - b else 1 for axis in range(m)])
    return wa * wb * scale


@dataclass
class LamplighterKernel:
    """The lamplighter walk at parameter alpha, applied by ``step``."""

    wreath: WreathGraph
    alpha: float
    # (a, b, lamp axes of a and b, weights / deg(a)) per directed base edge
    _moves: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.wreath.base.n_edges() == 0:
            raise ValueError("lamplighter kernel needs a base with at least one edge")
        m = self.wreath.m
        indptr, indices = self.wreath.base.csr
        self._moves = [
            (a, b, (m - 1 - a, m - 1 - b),
             _lamp_weights(m, a, b, self.alpha, 1.0 / (indptr[a + 1] - indptr[a])))
            for a in range(m) for b in indices[indptr[a]:indptr[a + 1]].tolist()]

    def step(self, v: np.ndarray) -> np.ndarray:
        """P^T v: the mass vector ``v`` (indexed ``a * 2^m + f``) one step on.

        The mass at position a is viewed as a lamp law of shape ``(2,) * m``.
        A move a -> b sums it over the lamps at a and b and spreads the sum
        over their four settings with the move's weights.
        """
        m = self.wreath.m
        mass = np.reshape(v, (m,) + (2,) * m)
        out = np.zeros(mass.shape)
        for a, b, axes, weights in self._moves:
            out[b] += mass[a].sum(axis=axes, keepdims=True) * weights
        return out.reshape(-1)


def reversible_measure(kernel: LamplighterKernel) -> np.ndarray:
    """m(a, f) = nu(a) ((1-alpha)/alpha)^{number of lamps on}."""
    g = kernel.wreath
    deg = np.maximum(g.base.degrees, 1).astype(np.float64)
    ratio = (1.0 - kernel.alpha) / kernel.alpha
    f = np.arange(g.n_vertices) % 2**g.m
    lamps = np.bitwise_count(f.astype(np.uint64)).astype(np.float64)
    nu = deg[np.arange(g.n_vertices) // 2**g.m]
    return nu * ratio**lamps


def return_probability(kernel: LamplighterKernel, steps: int) -> float:
    """Exact probability of being back at (origin, all lamps off) after ``steps``."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    g = kernel.wreath
    v = np.zeros(g.n_vertices)
    v[g.origin_state] = 1.0
    for _ in range(steps):
        v = kernel.step(v)
    return float(v[g.origin_state])
