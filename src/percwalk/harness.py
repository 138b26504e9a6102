"""Experiment recipes, configuration, seeding and report emission.

Each recipe bundles one quantitative claim of the toolkit into a batch run
with explicit assertions; the command-line tool dispatches here.  A seeded
recipe draws everything from its master ``seed``: some streams through
`seed_manifest`, while `_sampled_origin_clusters` scans bond seeds upward
from the master and ``pruning-property`` keys Philox with it directly.  So
any report can be regenerated bit-identically from its echoed spec, on any
number of cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, compress
from pathlib import Path
from typing import Callable

import numpy as np

from percwalk import bounds, isoperimetry as iso, walk, wreath as wr
from percwalk import percolation as perc

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "seed_manifest",
    "parse_config",
    "run",
    "small_cluster_collection",
]

# Assertion thresholds: fixed here, never config keys, so no config can loosen a check
IDENTITY_TOL = 1e-12  # identity-sweep: largest |lhs - rhs| of the pinned-return identity
SLOPE_BAND = (0.35, 0.65)  # exponent-fit: the fitted slope's band
ORACLE_LIMIT = 14  # isoperimetry-small: largest cluster checked against the all-subsets oracle


# ---------------------------------------------------------------------------
# Spec, report, seeds, config
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    recipe: str
    params: dict = field(default_factory=dict)
    out_dir: Path | None = None

    def __post_init__(self):
        if self.recipe not in RECIPES:
            raise ValueError(
                f"unknown recipe {self.recipe!r}; available: {sorted(RECIPES)}")
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)


@dataclass
class RunReport:
    spec: ExperimentSpec
    seeds: list
    assertions: list          # dicts: name, passed, detail
    artifacts: list           # paths written
    wall_clock: float

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def summary_lines(self) -> list:
        lines = [f"recipe: {self.spec.recipe}"]
        for key, val in sorted(self.spec.params.items()):
            lines.append(f"  param {key} = {val}")
        lines.append(f"  seeds: {self.seeds}")
        lines.append(f"  wall_clock_s: {self.wall_clock:.2f}")
        for a in self.assertions:
            mark = "PASS" if a["passed"] else "FAIL"
            lines.append(f"  [{mark}] {a['name']}: {a['detail']}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def write(self, out):
        out.write("\n".join(self.summary_lines()) + "\n")


def seed_manifest(master_seed: int, chain_count: int) -> list:
    """Disjoint 64-bit seeds derived from the master via spawn keys 0..count-1."""
    if chain_count < 1:
        raise ValueError("chain_count must be >= 1")
    return [int(np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
               .generate_state(1, np.uint64)[0]) for i in range(chain_count)]


def _coerce(text: str):
    text = text.strip()
    if "," in text:
        return [_coerce(part) for part in text.split(",") if part.strip()]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config(path) -> dict:
    """Flat `key = value` lines; values typed as int/float/bool/list/str."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = _coerce(value)
    return out


@dataclass
class _Run:
    """One recipe call: its params, where it writes, and what it found.
    ``get`` records each key it reads, so ``run`` can reject the others, and
    reads a scalar as a one-element list where the default is a list."""

    params: dict
    out_dir: Path | None
    assertions: list = field(default_factory=list)   # dicts: name, passed, detail
    artifacts: list = field(default_factory=list)    # paths written
    read: set = field(default_factory=set)

    def get(self, key: str, default):
        self.read.add(key)
        value = self.params.get(key, default)
        return [value] if isinstance(default, list) and not isinstance(value, list) else value

    def check(self, name: str, passed: bool, detail: str = ""):
        self.assertions.append({"name": name, "passed": bool(passed), "detail": detail})

    def write(self, name: str, writer: Callable):
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        with open(path, "w") as fh:
            writer(fh)
        self.artifacts.append(str(path))

    def write_rows(self, name: str, header: str, rows):
        """CSV of the rows, floats in repr so that they read back bit for bit."""
        def writer(fh):
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                                  for x in row) + "\n")
        self.write(name, writer)


# ---------------------------------------------------------------------------
# Shared small-graph collection
# ---------------------------------------------------------------------------

def _graph_from(coords: list, edges: list, meta_n: int = 1) -> perc.ClusterGraph:
    t, h = np.array(edges).T
    origin = min(range(len(coords)), key=lambda i: tuple(coords[i]))
    return perc.ClusterGraph.from_csr(
        np.array(coords), *perc.arcs_csr(len(coords), np.r_[t, h], np.r_[h, t]), origin,
        {"d": 2, "n": meta_n, "p": 1.0, "seed": 0})


def _hand_built_graphs() -> list:
    """Named small graphs: paths, a star, two cycles."""
    out = []

    def path(k):
        coords = [(x, 0) for x in range(k)]
        return _graph_from(coords, [(i, i + 1) for i in range(k - 1)], k)

    out.append(("path-2", path(2)))
    out.append(("path-3", path(3)))
    out.append(("path-4", path(4)))
    star = _graph_from([(0, 0), (1, 0), (-1, 0), (0, 1)],
                       [(0, 1), (0, 2), (0, 3)], 1)
    out.append(("star-3", star))
    c4 = _graph_from([(0, 0), (1, 0), (1, 1), (0, 1)],
                     [(0, 1), (1, 2), (2, 3), (3, 0)], 1)
    out.append(("cycle-4", c4))
    c6 = _graph_from([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)],
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 2)
    out.append(("cycle-6", c6))
    return out


def small_cluster_collection() -> list:
    """Every connected induced subgraph of a 3x2 grid block with >= 2
    vertices, in depth-first order (that of their vertex lists in joining
    order, a prefix first), plus the hand-built graphs."""
    coords = [(x, y) for x in range(3) for y in range(2)]
    block = _graph_from(coords, [(i, j) for i, (x, y) in enumerate(coords)
                                 for j, c in enumerate(coords) if c in ((x + 1, y), (x, y + 1))])
    levels = iso._connected_levels(*block.csr, len(coords))
    next(levels)  # the single vertices
    out = []
    for order in sorted(order for boundaries, orders in levels
                        for order in orders(np.arange(boundaries.size)).tolist()):
        verts = np.sort(order)
        sub = perc.ClusterGraph.from_csr(np.array(coords)[verts],
                                         *perc.induced_csr(*block.csr, verts), 0,
                                         {"d": 2, "n": 2, "p": 1.0, "seed": 0})
        out.append((f"grid-{int(np.sum(1 << verts)):02x}", sub))
    out.extend(_hand_built_graphs())
    return out


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def _recipe_identity_sweep(ctx):
    alphas = ctx.get("alphas", [0.3, 0.5, 0.7])
    n_max = ctx.get("n_max", 5)
    rows = []
    worst = 0.0
    for base_id, cluster in small_cluster_collection():
        laws = walk.exact_visited_laws(cluster, 2 * n_max)
        graph = wr.build_wreath(cluster)
        for alpha in alphas:
            kernel = wr.LamplighterKernel(graph, alpha)
            v = np.zeros(graph.n_vertices)
            v[graph.origin_state] = 1.0
            for n in range(1, n_max + 1):
                v = kernel.step(kernel.step(v))
                lhs = float(v[graph.origin_state])
                rhs = walk._laplace_of(laws[2 * n], alpha, pinned=True)
                gap = abs(lhs - rhs)
                worst = max(worst, gap)
                rows.append((base_id, cluster.n_vertices, alpha, n, lhs, rhs, gap))
    ctx.check("identity gap", worst <= IDENTITY_TOL,
              f"max |lhs-rhs| = {worst:.3e} over {len(rows)} cases, tol {IDENTITY_TOL:g}")
    ctx.write_rows("identity.csv", "base_id,base_size,alpha,n,lhs,rhs,gap", rows)


def _sampled_origin_clusters(d, box_n, p, count, start_seed, min_size):
    """Origin clusters of the first `count` bond seeds, scanning upward from
    `start_seed`, whose origin cluster has at least `min_size` vertices."""
    out = []
    seed = start_seed
    while len(out) < count:
        config = perc.sample_bond_config(perc.LatticeSpec(d, box_n), p, seed)
        cluster = perc.component_of_origin(config)
        if cluster.n_vertices >= min_size:
            out.append(cluster)
        seed += 1
    return out


def _full_lattice(box_n: int) -> perc.ClusterGraph:
    """The origin's cluster of the fully open box [-box_n, box_n]^2."""
    return perc.component_of_origin(
        perc.sample_bond_config(perc.LatticeSpec(2, box_n), 1.0, 0))


def _recipe_confinement(ctx):
    """Monte Carlo estimators against their exact oracles."""
    p = ctx.get("p", 0.7)
    box_n = ctx.get("box_n", 2)
    samples = ctx.get("samples", 10**6)
    alphas = ctx.get("alphas", [0.5, 0.9])
    n_list = ctx.get("n_list", [6, 10, 12])
    n_clusters = ctx.get("clusters", 5)
    master = ctx.params["seed"]
    seeds = seed_manifest(master, n_clusters + 1)
    picked = _sampled_origin_clusters(2, box_n, p, n_clusters, master, 4)
    all_ok = True
    worst = 0.0
    for i, cluster in enumerate(picked):
        counts = walk.mc_visited_samples(cluster, n_list, samples, seeds[i])
        exact_laws = walk.exact_visited_laws(cluster, max(n_list))
        for alpha in alphas:
            entries = []
            for n in n_list:
                mean, se = walk._mc_moments(counts[n], alpha)
                entries.append((n, mean, se, "monte_carlo"))
                exact = walk._laplace_of(exact_laws[n], alpha)
                if se == 0.0:
                    ok = abs(mean - exact) <= 1e-12
                    sigmas = 0.0
                else:
                    sigmas = abs(mean - exact) / se
                    ok = sigmas <= 4.0
                worst = max(worst, sigmas)
                all_ok = all_ok and ok
            series = walk.WalkSeries(entries, alpha, p, 2, seeds[i])
            ctx.write(f"mc_cluster{i}_alpha{alpha}.csv", series.to_csv)
        del counts  # free this cluster's samples before drawing the next one's
    ctx.check("mc vs exact Laplace", all_ok,
              f"worst deviation {worst:.2f} sigma over "
              f"{len(picked) * len(alphas) * len(n_list)} cases (limit 4)")

    # confinement estimator against exact survival on the first cluster
    cluster = picked[0]
    r, n_conf = ctx.get("conf_r", 2), ctx.get("conf_n", 8)
    mc_samples = ctx.get("conf_samples", 10**5)
    est, se = walk.confinement_probability(cluster, r, n_conf, mc_samples, seeds[-1])
    exact_surv = walk.survival_probabilities(cluster, r, [n_conf])[0][1]
    dev = abs(est - exact_surv) / se if se > 0 else abs(est - exact_surv)
    ok = dev <= 4.0 if se > 0 else dev <= 1e-12
    ctx.check("confinement vs exact survival", ok,
              f"mc {est:.5f} vs exact {exact_surv:.5f} ({dev:.2f} sigma)")


def _recipe_exponent_fit(ctx):
    p_list = ctx.get("p_list", [1.0, 0.7])
    alpha = ctx.get("alpha", 0.9)
    box_n = ctx.get("box_n", 120)
    n_list = ctx.get("n_list", [20, 30, 45, 65, 90, 120])
    samples = ctx.get("samples", 30000)
    master = ctx.params["seed"]
    lo, hi = SLOPE_BAND
    seeds = seed_manifest(master, 2 * len(p_list))
    for j, p in enumerate(p_list):
        config = perc.sample_bond_config(perc.LatticeSpec(2, box_n), p, seeds[2 * j])
        cluster = perc.component_of_origin(config)
        series = walk.mc_laplace(cluster, alpha, n_list, samples, seeds[2 * j + 1])
        fit = bounds.fit_exponent(series)
        ctx.write(f"series_p{p}.csv", series.to_csv)
        ctx.write(
            f"fit_p{p}.txt",
            lambda fh, fit=fit: fh.write(
                f"slope,intercept,residual,points_used\n"
                f"{fit['slope']!r},{fit['intercept']!r},"
                f"{fit['residual']!r},{fit['points_used']}\n"))
        ctx.check(f"noise floor p={p}",
                  fit["points_used"] == len(n_list),
                  f"{fit['points_used']}/{len(n_list)} points usable")
        ctx.check(f"slope band p={p}", lo <= fit["slope"] <= hi,
                  f"slope {fit['slope']:.4f}, band [{lo}, {hi}]")


def _recipe_spectral_bracket(ctx):
    r_list = ctx.get("r_list", [5, 10, 20])
    p_list = ctx.get("p_list", [0.7, 1.0])
    n_seeds = ctx.get("seeds", 5)
    master = ctx.params["seed"]

    # exact sanity value on the smallest full-lattice ball
    report = walk.killed_operator_report(_full_lattice(2), 1, [0, 1])
    ctx.check("lambda1(B_1) = 1/2 on the full lattice",
              abs(report.lambda1 - 0.5) <= 1e-10,
              f"lambda1 = {report.lambda1!r}")
    ctx.check("survival at n=0", report.survival[0][1] == 1.0,
              f"value {report.survival[0][1]}")

    bound_ok = True
    rayleigh_ok = True
    detail = []
    for p in p_list:
        for r in r_list:
            picked = [_full_lattice(r + 1)] if p == 1.0 else \
                _sampled_origin_clusters(2, r, p, n_seeds, master, 5)
            for i, cluster in enumerate(picked):
                rep = walk.killed_operator_report(cluster, r, [0])
                if rep.lambda1 > rep.paper_bound:
                    bound_ok = False
                    detail.append(f"violation p={p} r={r} seed#{i}")
                if rep.lambda1 > rep.rayleigh_h + 1e-10:
                    rayleigh_ok = False
                if p == 1.0 and i == 0:
                    ctx.write(f"killed_r{r}_p{p}.json", rep.to_json)
    ctx.check("lambda1 within the volume bound", bound_ok,
              "; ".join(detail) if detail else
              f"all r in {r_list}, p in {p_list}, {n_seeds} seeds")
    ctx.check("lambda1 below the Rayleigh quotient of h", rayleigh_ok, "")

    decay_ok = True
    decay_detail = []
    for r in (3, 5):
        n = 50 * r * r
        rep = walk.killed_operator_report(_full_lattice(r + 1), r, [n])
        rate = -np.log(rep.survival[0][1]) / n
        target = -np.log(1.0 - rep.lambda1)
        rel = abs(rate - target) / abs(target)
        decay_detail.append(f"r={r}: rel err {rel:.3f}")
        if rel > 0.1:
            decay_ok = False
    ctx.check("survival decay rate matches lambda1", decay_ok,
              "; ".join(decay_detail))


def _neighbour_masks(indptr, indices) -> list:
    """The neighbours of each vertex as a Python-int bitmask."""
    return [sum(1 << w for w in row.tolist()) for row in np.split(indices, indptr[1:-1])]


def _connected_mask(nbr, mask: int) -> bool:
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        v = stack.pop()
        new = nbr[v] & mask & ~seen
        while new:
            w = (new & -new).bit_length() - 1
            seen |= 1 << w
            stack.append(w)
            new &= new - 1
    return seen == mask


def _beta_oracle(cluster, c, gamma, n):
    """Min ratio over ALL connected subsets, by scanning every bitmask."""
    nbr = _neighbour_masks(*cluster.csr)
    nv = cluster.n_vertices
    best = None
    for mask in range(1, 1 << nv):
        if not _connected_mask(nbr, mask):
            continue
        b = sum((nbr[v] & ~mask).bit_count() for v in range(nv) if mask >> v & 1)
        if b == 0:
            continue
        ratio = b / iso.profile_f(mask.bit_count(), c, n, gamma, 2)
        if best is None or ratio < best:
            best = ratio
    return best


def _recipe_isoperimetry_small(ctx):
    p = ctx.get("p", 0.7)
    box_n = ctx.get("box_n", 4)
    n_seeds = ctx.get("seeds", 20)
    cap = ctx.get("size_cap", 8)
    c, gamma = ctx.get("c", 1.0), ctx.get("gamma", 0.125)
    master = ctx.params["seed"]
    # Box radius 1 keeps clusters at 9 vertices or fewer, so the brute-force
    # oracle below always has something to chew on.
    picked = [(box_n, t) for t in
              _sampled_origin_clusters(2, box_n, p, n_seeds, master, 2)]
    picked += [(1, t) for t in
               _sampled_origin_clusters(2, 1, p, n_seeds, master + n_seeds, 2)]
    all_positive = True
    oracle_ok = True
    oracle_count = 0
    betas = []
    for i, (radius, cluster) in enumerate(picked):
        report = iso.isoperimetric_beta(cluster, None, c, gamma, cap, radius)
        betas.append(report.beta)
        if not report.beta > 0:
            all_positive = False
        if cluster.n_vertices <= ORACLE_LIMIT:
            oracle_count += 1
            full = iso.isoperimetric_beta(cluster, None, c, gamma,
                                          cluster.n_vertices, radius)
            oracle = _beta_oracle(cluster, c, gamma, radius)
            if oracle is None or abs(full.beta - oracle) > 1e-12:
                oracle_ok = False
        if i == 0:
            ctx.write("beta_first.json", report.to_json)
    ctx.check("beta > 0 on every sampled cluster", all_positive,
              f"min beta {min(betas):.4f} over {len(picked)} clusters")
    ctx.check("exhaustive search matches the all-subsets oracle",
              oracle_ok, f"{oracle_count} fully enumerable instances compared")


def _recipe_folner_wreath(ctx):
    k_list = ctx.get("k_list", [1, 2, 3])
    bases = _hand_built_graphs()[:2] + [
        ("triangle", _graph_from([(0, 0), (1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)], 1))]
    rows = []
    all_hold = True
    for base_id, base in bases:
        report = iso.folner_lower_bound_check(base, k_list)
        for entry in report:
            rows.append((base_id, entry))
            if not (entry["holds"] and entry["exact"]):
                all_hold = False
    ctx.check("wreath Folner dominates exp(C1 Fol(C2 k))", all_hold,
              "; ".join(f"{bid} k={e['k']}: {e['wreath_folner']} >= {e['rhs']:.3f}"
                        for bid, e in rows))
    ctx.write_rows("folner.csv", "k,value,exact,connected_only,cap",
                   [(e["k"], e["wreath_folner"], e["exact"], False, "all") for _, e in rows])

    # small-boundary subsets of the 2-vertex-base wreath: both fractions
    base = bases[0][1]
    graph = wr.build_wreath(base)
    nbr = _neighbour_masks(*graph.csr)
    checked = 0
    fractions_ok = True
    for k in k_list:
        for mask in range(1, 1 << graph.n_vertices):
            U = [v for v in range(graph.n_vertices) if mask >> v & 1]
            boundary = sum((nbr[u] & ~mask).bit_count() for u in U)
            if boundary / len(U) > 1.0 / (1000.0 * k):
                continue
            checked += 1
            result = iso.lemma_neud_check(graph, U, k)
            if not result["holds"]:
                fractions_ok = False
    ctx.check("bad-point and unsatisfiable fractions", fractions_ok,
              f"{checked} qualifying subsets checked exhaustively")


def _random_graph(rng, nv: int, p_edge: float) -> list:
    # one uniform per pair i < j in row-major order, all drawn in one call
    flags = (rng.random(nv * (nv - 1) // 2) < p_edge).tolist()
    adjacency = [[] for _ in range(nv)]
    for i, j in compress(combinations(range(nv), 2), flags):
        adjacency[i].append(j)
        adjacency[j].append(i)
    return adjacency


def _recipe_pruning_property(ctx):
    n_graphs = ctx.get("graphs", 1000)
    n_families = ctx.get("families", 500)
    master = ctx.params["seed"]
    rng = np.random.Generator(np.random.Philox(key=master))
    accepted = 0
    attempts = 0
    prune_ok = True
    while accepted < n_graphs and attempts < 100 * n_graphs:
        attempts += 1
        nv = int(rng.integers(6, 20))
        p_edge = float(rng.uniform(0.2, 0.8))
        b = int(rng.integers(2, 7))
        adjacency = _random_graph(rng, nv, p_edge)
        if not any(adjacency):
            continue
        if iso.ns_edge_fraction(adjacency, b) >= 0.5:
            continue
        accepted += 1
        alive = iso.prune_to_satisfiable(adjacency, b)
        if not alive:
            prune_ok = False
            continue
        for v in alive:
            if 3 * len(alive.intersection(adjacency[v])) < b:
                prune_ok = False
    ctx.check("pruning terminates nonempty with min degree >= b/3",
              prune_ok and accepted >= n_graphs,
              f"{accepted} qualifying graphs (of {attempts} sampled)")

    flips_ok = True
    holding = 0
    for _ in range(n_families):
        m = int(rng.integers(3, 10))
        if rng.random() < 0.5:
            # random subcube: fix some sites, leave Y free
            free = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                     replace=False).tolist())
            fixed_bits = int(rng.integers(0, 2**m)) & ~sum(1 << x for x in free)
            Y = len(free)
            # member k sets site free[t] when bit t of k is set
            assign = np.arange(2**Y)[:, None] >> np.arange(Y) & 1
            family = (fixed_bits | assign @ (1 << np.array(free))).tolist()
        else:
            size = int(rng.integers(1, 2**m))
            family = rng.choice(2**m, size=size, replace=False).tolist()
            Y = int(rng.integers(0, m + 1))
        verdict = iso.flip_closure_bound_check(family, m, Y)
        if verdict["premise_holds"]:
            holding += 1
            if not verdict["bound_holds"]:
                flips_ok = False
    ctx.check("flip-closed families have >= 2^Y members", flips_ok,
              f"{holding} premise-holding families of {n_families}")


def _recipe_nash_curve(ctx):
    t_max = ctx.get("t_max", 1e7)
    settings = {2: dict(n=2**24, gamma=0.125), 3: dict(n=4**10, gamma=0.1)}
    d_list = ctx.get("d_list", [2, 3])
    if not set(d_list) <= set(settings):
        raise ValueError(f"nash-curve supports d_list within {sorted(settings)}, got {d_list}")
    for d in d_list:
        prof = bounds.NashProfile(d=d, n=settings[d]["n"],
                                  gamma=settings[d]["gamma"])
        sol = bounds.nash_ode_solve(prof, t_max)
        ctx.check(f"a positive and strictly decreasing (d={d})",
                  bool(np.all(np.isfinite(sol.L)) and np.all(np.diff(sol.L) > 0)),
                  f"{sol.L.size} samples, -log a up to {sol.L[-1]:.1f}")

        # t(L) = int_0^L 8 f(l + log 4)^2 dl by trapezoids at step h and h/2
        def t_of_L(panels, L_end=sol.L[-1], prof=prof):
            ell = np.linspace(0.0, L_end, panels + 1)
            return float(np.trapezoid(8.0 * prof.F_inv_log(ell + bounds.LOG4) ** 2, ell))
        t_h, t_h2 = t_of_L(20_000), t_of_L(40_000)
        rel = abs(t_h - t_h2) / t_h2
        gap = max(abs(t_h - sol.t[-1]), abs(t_h2 - sol.t[-1])) / sol.t[-1]
        ctx.check(f"self-convergence under step halving (d={d})",
                  rel < 1e-6 and gap < 1e-6,
                  f"relative change of t(-log a(t_max)): {rel:.2e}, off t_max by {gap:.2e}")
        slope = bounds.tail_exponent(sol)
        target = d / (d + 2.0)
        ctx.check(f"tail slope near d/(d+2) (d={d})",
                  abs(slope - target) / target <= 0.05,
                  f"slope {slope:.4f}, target {target:.4f}")
        fit = bounds.piecewise_constants_fit(sol)
        ctx.check(f"piecewise forms fit with small residual (d={d})",
                  fit["max_relative_residual"] < 1e-3 and fit["slopes_positive"],
                  f"max rel residual {fit['max_relative_residual']:.2e}")
        ctx.check(f"continuity at regime boundaries (d={d})",
                  all(c < 1e-3 for c in fit["continuity_mismatch"]),
                  f"mismatches {['%.2e' % c for c in fit['continuity_mismatch']]}")
        ctx.write_rows(f"nash_d{d}.csv", "t,neg_log_a", zip(sol.t, sol.L))


def _recipe_lemma45(ctx):
    n_max = ctx.get("n_max", 5)
    alphas = ctx.get("alphas", [0.3, 0.5, 0.7])

    # doubling inequality by exact enumeration on the full lattice
    doubling_ok = True
    for n in range(1, n_max + 1):
        report = bounds.lemma_4_5_check(_full_lattice(2 * n + 1), n)
        if not report["doubling_holds"]:
            doubling_ok = False
    ctx.check("doubling inequality on the full lattice", doubling_ok,
              f"every m, n = 1..{n_max}")

    # assembled lower bound against the exact pinned value, criterion-1 instances
    violations = []
    exact_violations = []
    total = 0
    worst_ratio = 0.0
    rows = []
    radius = {n: bounds.surrogate_optimal_r(n, 2)[0] for n in range(1, n_max + 1)}
    for base_id, cluster in small_cluster_collection():
        laws = walk.exact_visited_laws(cluster, 2 * n_max)
        survival = {}  # n -> P(sigma_r > n) at r = radius[n], one kernel per radius
        for r in sorted(set(radius.values())):
            survival.update(walk.survival_probabilities(
                cluster, r, [n for n in radius if radius[n] == r]))
        for n, r_star in radius.items():
            conf = survival[n]
            law = laws[2 * n]
            for alpha in alphas:
                total += 1
                assembled = bounds.lower_bound_assemble(r_star, n, alpha, 2, conf)
                certified = bounds.lower_bound_assemble_exact(
                    cluster, r_star, n, alpha, conf)
                pinned = walk._laplace_of(law, alpha, pinned=True)
                rows.append((base_id, alpha, n, r_star, assembled, pinned))
                if assembled > pinned * (1 + 1e-12):
                    violations.append((base_id, alpha, n))
                    worst_ratio = max(worst_ratio,
                                      assembled / pinned if pinned > 0 else np.inf)
                if certified > pinned * (1 + 1e-12):
                    exact_violations.append((base_id, alpha, n))
    ctx.check("assembled lower bound below the exact pinned value",
              not violations,
              f"{len(violations)} violations of {total} instances"
              + (f", worst ratio {worst_ratio:.2f}, e.g. {violations[0]}"
                 if violations else ""))
    ctx.check("cluster-aware assembly below the exact pinned value",
              not exact_violations,
              f"{len(exact_violations)} violations of {total} instances")
    ctx.write_rows("lower_bound.csv", "base_id,alpha,n,r,assembled,pinned", rows)


def _recipe_renorm_field(ctx):
    spec_small = perc.LatticeSpec(2, 14)
    full = perc.sample_bond_config(spec_small, 1.0, 0)
    field_full = perc.classify_boxes(full, 4)
    good = [field_full.blocks[i].good for i in field_full.classifiable_blocks()]
    ctx.check("all classifiable blocks good at p=1",
              len(good) > 0 and all(good), f"{len(good)} blocks")

    empty = perc.BondConfiguration(spec_small, 0.0, 0,
                                   np.zeros(spec_small.n_edges, dtype=bool))
    field_empty = perc.classify_boxes(empty, 4)
    bad = [not field_empty.blocks[i].good
           for i in field_empty.classifiable_blocks()]
    ctx.check("all classifiable blocks bad with no open edge",
              len(bad) > 0 and all(bad), f"{len(bad)} blocks")

    p = ctx.get("p", 0.95)
    N = ctx.get("N", 10)
    n_seeds = ctx.get("seeds", 20)
    master = ctx.params["seed"]
    box_n = ctx.get("box_n", 33)
    seeds = seed_manifest(master, n_seeds)
    good_count = 0
    classifiable = 0
    for s in seeds:
        config = perc.sample_bond_config(perc.LatticeSpec(2, box_n), p, s)
        field = perc.classify_boxes(config, N)
        for i in field.classifiable_blocks():
            classifiable += 1
            good_count += field.blocks[i].good
    frac = good_count / classifiable
    ctx.check("good fraction above 0.9 at p=0.95", frac > 0.9,
              f"{good_count}/{classifiable} = {frac:.3f}")

    def writer(fh):
        for i in sorted(field_full.blocks):
            s = field_full.blocks[i]
            fh.write(f"{i} classifiable={s.classifiable} good={s.good}\n")
    ctx.write("renorm_p1.txt", writer)


# the one table of default seeds: a recipe reads ctx.params["seed"], which run fills
DEFAULT_SEEDS = {
    "identity-sweep": 0,
    "confinement": 20240,
    "exponent-fit": 31,
    "spectral-bracket": 404,
    "isoperimetry-small": 77,
    "folner-wreath": 0,
    "pruning-property": 5150,
    "nash-curve": 0,
    "lemma45": 0,
    "renorm-field": 909,
}

RECIPES = {
    "identity-sweep": _recipe_identity_sweep,
    "confinement": _recipe_confinement,
    "exponent-fit": _recipe_exponent_fit,
    "spectral-bracket": _recipe_spectral_bracket,
    "isoperimetry-small": _recipe_isoperimetry_small,
    "folner-wreath": _recipe_folner_wreath,
    "pruning-property": _recipe_pruning_property,
    "nash-curve": _recipe_nash_curve,
    "lemma45": _recipe_lemma45,
    "renorm-field": _recipe_renorm_field,
}


def run(spec: ExperimentSpec) -> RunReport:
    """Dispatch one recipe; returns the report with per-assertion outcomes.

    A param that the recipe never reads is an error, raised before
    ``report.txt`` is written; ``seed`` is exempt, as a seedless recipe
    draws nothing from it.
    """
    start = time.perf_counter()
    params = dict(spec.params)
    params.setdefault("seed", DEFAULT_SEEDS[spec.recipe])
    spec = ExperimentSpec(spec.recipe, params, spec.out_dir)
    ctx = _Run(params, spec.out_dir)
    RECIPES[spec.recipe](ctx)
    unread = sorted(set(params) - ctx.read - {"seed"})
    if unread:
        raise ValueError(f"recipe {spec.recipe!r} does not read param {unread}; "
                         f"it reads {sorted(ctx.read)}")
    elapsed = time.perf_counter() - start
    report = RunReport(spec, seed_manifest(params["seed"], 1),
                       ctx.assertions, ctx.artifacts, elapsed)
    ctx.write("report.txt", report.write)
    return report
