"""Self time and work counts at the public entry points of each layer.

The tracer patches module attributes, so calls made inside a module and
names re-bound by ``from percwalk.x import y`` elsewhere are covered too.
Only entry points are wrapped: per-subset helpers such as ``mask_boundary``
run hundreds of thousands of times per pass and are left alone, and
``iter_connected_subsets`` is counted without being timed.

A span's self time is its duration minus the time of the wrapped calls it
made.  Span names are ``<layer>.<entry point>``.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

from percwalk import bounds, isoperimetry, percolation, walk, wreath


def _chain_steps(a, _):
    return a["samples"] * max(a["n_list"]) if a["cluster"].n_vertices > 1 else 0


def _confined_steps(a, _):
    moves = a["cluster"].n_vertices > 1 and a["n"] > a["r"] > 0
    return a["samples"] * a["n"] if moves else 0


# Every public function the workloads reach is wrapped, so that its time
# lands in its own layer.  (owner, attribute, counters): each counter maps
# the bound arguments and the result to an amount of work, summed under
# "<span>.<counter>".
TIMED = [
    (percolation, "sample_bond_config", {"edges": lambda a, r: r.open.size}),
    (percolation, "open_adjacency", {}),
    (percolation, "component_of_origin", {"vertices": lambda a, r: r.n_vertices}),
    (percolation, "largest_cluster", {}),
    (percolation, "classify_boxes", {"blocks": lambda a, r: len(r.blocks)}),
    (walk, "exact_visited_distribution", {}),
    (walk, "exact_laplace", {}),
    (walk, "mc_visited_samples", {"chain_steps": _chain_steps}),
    (walk, "mc_laplace", {}),
    (walk, "confinement_probability", {"chain_steps": _confined_steps}),
    (walk, "survival_probabilities",
     {"kernel_steps": lambda a, r: max(a["n_list"], default=0)}),
    (walk, "killed_operator_report", {"ball_vertices": lambda a, r: r.ball_size}),
    (wreath, "build_wreath", {}),
    (wreath.LamplighterKernel, "__post_init__",
     {"states": lambda a, r: a["self"].wreath.n_vertices}),
    (wreath, "return_probability", {"steps": lambda a, r: a["steps"]}),
    (isoperimetry, "isoperimetric_beta", {}),
    (isoperimetry, "folner_lower_bound_check", {}),
    (isoperimetry, "folner_function", {}),
    (isoperimetry, "lemma_neud_check", {}),
    (isoperimetry, "prune_to_satisfiable", {}),
    (isoperimetry, "ns_edge_fraction", {}),
    (isoperimetry, "flip_closure_bound_check", {}),
    (bounds, "nash_ode_solve", {}),
    (bounds, "lemma_4_5_check", {}),
    (bounds, "fit_exponent", {}),
    (bounds, "tail_exponent", {}),
    (bounds, "piecewise_constants_fit", {}),
    (bounds, "surrogate_optimal_r", {}),
    (bounds, "lower_bound_assemble", {}),
    (bounds, "lower_bound_assemble_exact", {}),
]
# Counted, not timed: (owner, attribute, count name).
COUNTED_CALLS = [(bounds.NashProfile, "F_inv_log", "bounds.NashProfile.F_inv_log.calls")]
COUNTED_YIELDS = [(isoperimetry, "iter_connected_subsets",
                   "isoperimetry.iter_connected_subsets.subsets")]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        layer = owner.__module__.rsplit(".", 1)[-1]
        return f"{layer}.{owner.__name__}" + ("" if attr.startswith("__") else f".{attr}")
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects self seconds per span and work counts until ``take``."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []     # child seconds accumulated by each open span
        self._undo = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        start = perf_counter()
        self._open.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            child = self._open.pop()
            elapsed = perf_counter() - start
            if self._open:
                self._open[-1] += elapsed
            self.self_s[name] += elapsed - child
            self.counts[f"{name}.calls"] += 1

    def take(self) -> tuple[dict, dict]:
        """Self seconds and counts since the last call, then reset."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def _timed(self, fn, name, counters):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, count in counters.items():
                    self.counts[f"{name}.{key}"] += count(bound.arguments, result)
            return result
        return wrapper

    def _counted_calls(self, fn, key):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_yields(self, fn, key):
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[key] += n
        return wrapper

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            print(f"not traced: {_span_name(owner, attr)} is gone", file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        # a module function may also be bound elsewhere by `from percwalk.x import y`
        targets = [owner] if isinstance(owner, type) else [
            m for name, m in list(sys.modules.items()) if name.startswith("percwalk")]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, name, original))
                    setattr(target, name, wrapper)

    def install(self):
        for owner, attr, counters in TIMED:
            self._patch(owner, attr, lambda fn: self._timed(
                fn, _span_name(owner, attr), counters))
        for owner, attr, key in COUNTED_CALLS:
            self._patch(owner, attr, lambda fn: self._counted_calls(fn, key))
        for owner, attr, key in COUNTED_YIELDS:
            self._patch(owner, attr, lambda fn: self._counted_yields(fn, key))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()
