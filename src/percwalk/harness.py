"""Experiment recipes, configuration, seeding and report emission.

Each recipe bundles one quantitative claim of the toolkit into a batch run
with explicit assertions; the command-line tool dispatches here.  All
randomness flows from a master seed through `seed_manifest`, so any report
can be regenerated bit-identically from its echoed spec.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from percwalk import bounds, isoperimetry as iso, walk, wreath as wr
from percwalk import percolation as perc

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "seed_manifest",
    "parse_config",
    "run",
    "RECIPES",
    "small_cluster_collection",
    "hand_built_graphs",
]

IDENTITY_TOL = 1e-12


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


def _check(assertions: list, name: str, passed: bool, detail: str = ""):
    assertions.append({"name": name, "passed": bool(passed), "detail": detail})


def _write_artifact(out_dir: Path | None, name: str, writer: Callable,
                    artifacts: list):
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        writer(fh)
    artifacts.append(str(path))


# ---------------------------------------------------------------------------
# Shared small-graph collection
# ---------------------------------------------------------------------------

def _graph_from(coords: list, edges: list, meta_n: int = 1) -> perc.ClusterGraph:
    adjacency = [[] for _ in coords]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    adjacency = [sorted(a) for a in adjacency]
    origin = min(range(len(coords)), key=lambda i: tuple(coords[i]))
    return perc.ClusterGraph(np.array(coords), adjacency, origin,
                             {"d": 2, "n": meta_n, "p": 1.0, "seed": 0})


def hand_built_graphs() -> list:
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


def small_cluster_collection(max_size: int = 6) -> list:
    """Every connected induced subgraph of a 3x2 grid block (>= 2 vertices,
    up to max_size), plus the hand-built graphs."""
    coords = [(x, y) for x in range(3) for y in range(2)]
    index = {c: i for i, c in enumerate(coords)}
    adjacency = [[] for _ in coords]
    for (x, y), i in index.items():
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            j = index.get((x + dx, y + dy))
            if j is not None:
                adjacency[i].append(j)
    out = []
    for mask, _ in iso.iter_connected_subsets(adjacency, max_size):
        if mask.bit_count() < 2:
            continue
        verts = [i for i in range(len(coords)) if mask >> i & 1]
        local = {v: li for li, v in enumerate(verts)}
        sub_coords = [coords[v] for v in verts]
        sub_edges = [(local[v], local[w]) for v in verts for w in adjacency[v]
                     if w in local and v < w]
        out.append((f"grid-{mask:02x}", _graph_from(sub_coords, sub_edges, 2)))
    out.extend(hand_built_graphs())
    return out


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def _recipe_identity_sweep(params, out_dir, artifacts):
    alphas = params.get("alphas", [0.3, 0.5, 0.7])
    n_max = params.get("n_max", 5)
    tol = params.get("tol", IDENTITY_TOL)
    assertions = []
    rows = []
    worst = 0.0
    for base_id, cluster in small_cluster_collection():
        laws = {n: walk.exact_visited_distribution(cluster, 2 * n)
                for n in range(1, n_max + 1)}
        graph = wr.build_wreath(cluster)
        for alpha in alphas:
            kernel = wr.LamplighterKernel(graph, alpha)
            v = np.zeros(graph.n_vertices)
            v[graph.origin_state] = 1.0
            for n in range(1, n_max + 1):
                v = kernel.step(kernel.step(v))
                lhs = float(v[graph.origin_state])
                rhs = walk._laplace_of(laws[n], alpha, pinned=True)
                gap = abs(lhs - rhs)
                worst = max(worst, gap)
                rows.append((base_id, cluster.n_vertices, alpha, n, lhs, rhs, gap))
    _check(assertions, "identity gap", worst <= tol,
           f"max |lhs-rhs| = {worst:.3e} over {len(rows)} cases, tol {tol:g}")

    def writer(fh):
        fh.write("base_id,base_size,alpha,n,lhs,rhs,gap\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    _write_artifact(out_dir, "identity.csv", writer, artifacts)
    return assertions


def _sampled_origin_clusters(d, box_n, p, count, start_seed, min_size):
    """First `count` seeds (scanning upward) whose origin cluster is big enough."""
    out = []
    seed = start_seed
    while len(out) < count:
        config = perc.sample_bond_config(perc.LatticeSpec(d, box_n), p, seed)
        cluster = perc.component_of_origin(config)
        if cluster.n_vertices >= min_size:
            out.append((seed, config, cluster))
        seed += 1
    return out


def _recipe_confinement(params, out_dir, artifacts):
    """Monte Carlo estimators against their exact oracles."""
    p = params.get("p", 0.7)
    box_n = params.get("box_n", 2)
    samples = params.get("samples", 10**6)
    alphas = params.get("alphas", [0.5, 0.9])
    n_list = params.get("n_list", [6, 10, 12])
    n_clusters = params.get("clusters", 5)
    master = params.get("seed", 20240)
    assertions = []
    seeds = seed_manifest(master, n_clusters + 1)
    picked = _sampled_origin_clusters(2, box_n, p, n_clusters, master, 4)
    all_ok = True
    worst = 0.0
    for i, (cseed, config, cluster) in enumerate(picked):
        counts = walk.mc_visited_samples(cluster, n_list, samples, seeds[i])
        exact_laws = {n: walk.exact_visited_distribution(cluster, n) for n in n_list}
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
            _write_artifact(out_dir, f"mc_cluster{i}_alpha{alpha}.csv",
                            series.to_csv, artifacts)
    _check(assertions, "mc vs exact Laplace", all_ok,
           f"worst deviation {worst:.2f} sigma over "
           f"{len(picked) * len(alphas) * len(n_list)} cases (limit 4)")

    # confinement estimator against exact survival on the first cluster
    _, _, cluster = picked[0]
    r, n_conf = params.get("conf_r", 2), params.get("conf_n", 8)
    mc_samples = params.get("conf_samples", 10**5)
    est, se = walk.confinement_probability(cluster, r, n_conf, mc_samples, seeds[-1])
    exact_surv = walk.survival_probabilities(cluster, r, [n_conf])[0][1]
    dev = abs(est - exact_surv) / se if se > 0 else abs(est - exact_surv)
    ok = dev <= 4.0 if se > 0 else dev <= 1e-12
    _check(assertions, "confinement vs exact survival", ok,
           f"mc {est:.5f} vs exact {exact_surv:.5f} ({dev:.2f} sigma)")
    return assertions


def _recipe_exponent_fit(params, out_dir, artifacts):
    p_list = params.get("p_list", [1.0, 0.7])
    alpha = params.get("alpha", 0.9)
    box_n = params.get("box_n", 120)
    n_list = params.get("n_list", [20, 30, 45, 65, 90, 120])
    samples = params.get("samples", 30000)
    master = params.get("seed", 31)
    lo, hi = params.get("slope_band", [0.35, 0.65])
    assertions = []
    seeds = seed_manifest(master, 2 * len(p_list))
    for j, p in enumerate(p_list):
        config = perc.sample_bond_config(perc.LatticeSpec(2, box_n), p, seeds[2 * j])
        cluster = perc.component_of_origin(config)
        series = walk.mc_laplace(cluster, alpha, n_list, samples, seeds[2 * j + 1])
        fit = bounds.fit_exponent(series)
        _write_artifact(out_dir, f"series_p{p}.csv", series.to_csv, artifacts)
        _write_artifact(
            out_dir, f"fit_p{p}.txt",
            lambda fh, fit=fit: fh.write(
                f"slope,intercept,residual,points_used\n"
                f"{fit['slope']!r},{fit['intercept']!r},"
                f"{fit['residual']!r},{fit['points_used']}\n"),
            artifacts)
        _check(assertions, f"noise floor p={p}",
               fit["points_used"] == len(n_list),
               f"{fit['points_used']}/{len(n_list)} points usable")
        _check(assertions, f"slope band p={p}", lo <= fit["slope"] <= hi,
               f"slope {fit['slope']:.4f}, band [{lo}, {hi}]")
    return assertions


def _recipe_spectral_bracket(params, out_dir, artifacts):
    r_list = params.get("r_list", [5, 10, 20])
    p_list = params.get("p_list", [0.7, 1.0])
    n_seeds = params.get("seeds", 5)
    master = params.get("seed", 404)
    assertions = []

    # exact sanity value on the smallest full-lattice ball
    config = perc.sample_bond_config(perc.LatticeSpec(2, 2), 1.0, 0)
    cluster = perc.component_of_origin(config)
    report = walk.killed_operator_report(cluster, 1, [0, 1])
    _check(assertions, "lambda1(B_1) = 1/2 on the full lattice",
           abs(report.lambda1 - 0.5) <= 1e-10,
           f"lambda1 = {report.lambda1!r}")
    _check(assertions, "survival at n=0", report.survival[0][1] == 1.0,
           f"value {report.survival[0][1]}")

    bound_ok = True
    rayleigh_ok = True
    detail = []
    for p in p_list:
        for r in r_list:
            box_n = r + 1 if p == 1.0 else r
            picked = _sampled_origin_clusters(2, box_n, p, n_seeds, master, 5) \
                if p < 1.0 else [(0, None,
                                  perc.component_of_origin(
                                      perc.sample_bond_config(
                                          perc.LatticeSpec(2, box_n), 1.0, 0)))]
            for i, (_, _, cluster) in enumerate(picked):
                rep = walk.killed_operator_report(cluster, r, [0])
                if rep.lambda1 > rep.paper_bound:
                    bound_ok = False
                    detail.append(f"violation p={p} r={r} seed#{i}")
                if rep.lambda1 > rep.rayleigh_h + 1e-10:
                    rayleigh_ok = False
                if p == 1.0 and i == 0:
                    _write_artifact(out_dir, f"killed_r{r}_p{p}.json",
                                    rep.to_json, artifacts)
    _check(assertions, "lambda1 within the volume bound", bound_ok,
           "; ".join(detail) if detail else
           f"all r in {r_list}, p in {p_list}, {n_seeds} seeds")
    _check(assertions, "lambda1 below the Rayleigh quotient of h", rayleigh_ok, "")

    decay_ok = True
    decay_detail = []
    for r in (3, 5):
        box_n = r + 1
        config = perc.sample_bond_config(perc.LatticeSpec(2, box_n), 1.0, 0)
        cluster = perc.component_of_origin(config)
        n = 50 * r * r
        rep = walk.killed_operator_report(cluster, r, [n])
        rate = -np.log(rep.survival[0][1]) / n
        target = -np.log(1.0 - rep.lambda1)
        rel = abs(rate - target) / abs(target)
        decay_detail.append(f"r={r}: rel err {rel:.3f}")
        if rel > 0.1:
            decay_ok = False
    _check(assertions, "survival decay rate matches lambda1", decay_ok,
           "; ".join(decay_detail))
    return assertions


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
    nbr = iso.neighbor_masks(cluster.adjacency)
    nv = cluster.n_vertices
    best = None
    for mask in range(1, 1 << nv):
        if not _connected_mask(nbr, mask):
            continue
        b = iso.mask_boundary(nbr, mask)
        if b == 0:
            continue
        ratio = b / iso.profile_f(mask.bit_count(), c, n, gamma, 2)
        if best is None or ratio < best:
            best = ratio
    return best


def _recipe_isoperimetry_small(params, out_dir, artifacts):
    p = params.get("p", 0.7)
    box_n = params.get("box_n", 4)
    n_seeds = params.get("seeds", 20)
    cap = params.get("size_cap", 8)
    oracle_limit = params.get("oracle_limit", 14)
    c, gamma = params.get("c", 1.0), params.get("gamma", 0.125)
    master = params.get("seed", 77)
    assertions = []
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
    for i, (radius, (_, _, cluster)) in enumerate(picked):
        report = iso.isoperimetric_beta(cluster, None, c, gamma, cap, radius)
        betas.append(report.beta)
        if not report.beta > 0:
            all_positive = False
        if cluster.n_vertices <= oracle_limit:
            oracle_count += 1
            full = iso.isoperimetric_beta(cluster, None, c, gamma,
                                          cluster.n_vertices, radius)
            oracle = _beta_oracle(cluster, c, gamma, radius)
            if oracle is None or abs(full.beta - oracle) > 1e-12:
                oracle_ok = False
        if i == 0:
            _write_artifact(out_dir, "beta_first.json", report.to_json, artifacts)
    _check(assertions, "beta > 0 on every sampled cluster", all_positive,
           f"min beta {min(betas):.4f} over {len(picked)} clusters")
    _check(assertions, "exhaustive search matches the all-subsets oracle",
           oracle_ok, f"{oracle_count} fully enumerable instances compared")
    return assertions


def _recipe_folner_wreath(params, out_dir, artifacts):
    k_list = params.get("k_list", [1, 2, 3])
    assertions = []
    bases = [("path-2", hand_built_graphs()[0][1]),
             ("path-3", hand_built_graphs()[1][1]),
             ("triangle", _graph_from([(0, 0), (1, 0), (0, 1)],
                                      [(0, 1), (0, 2), (1, 2)], 1))]
    rows = []
    all_hold = True
    for base_id, base in bases:
        report = iso.folner_lower_bound_check(base, k_list)
        for entry in report:
            rows.append((base_id, entry))
            if not (entry["holds"] and entry["exact"]):
                all_hold = False
    _check(assertions, "wreath Folner dominates exp(C1 Fol(C2 k))", all_hold,
           "; ".join(f"{bid} k={e['k']}: {e['wreath_folner']} >= {e['rhs']:.3f}"
                     for bid, e in rows))

    def writer(fh):
        fh.write("k,value,exact,connected_only,cap\n")
        for bid, e in rows:
            fh.write(f"{e['k']},{e['wreath_folner']},{e['exact']},False,all\n")
    _write_artifact(out_dir, "folner.csv", writer, artifacts)

    # small-boundary subsets of the 2-vertex-base wreath: both fractions
    base = bases[0][1]
    graph = wr.build_wreath(base)
    adj = graph.adjacency_lists()
    checked = 0
    fractions_ok = True
    for k in k_list:
        for mask in range(1, 1 << graph.n_vertices):
            U = [v for v in range(graph.n_vertices) if mask >> v & 1]
            boundary = sum(1 for u in U for w in adj[u] if not mask >> w & 1)
            if boundary / len(U) > 1.0 / (1000.0 * k):
                continue
            checked += 1
            result = iso.lemma_neud_check(graph, U, k)
            if not result["holds"]:
                fractions_ok = False
    _check(assertions, "bad-point and unsatisfiable fractions", fractions_ok,
           f"{checked} qualifying subsets checked exhaustively")
    return assertions


def _random_graph(rng, nv: int, p_edge: float) -> list:
    adjacency = [[] for _ in range(nv)]
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p_edge:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def _recipe_pruning_property(params, out_dir, artifacts):
    n_graphs = params.get("graphs", 1000)
    n_families = params.get("families", 500)
    master = params.get("seed", 5150)
    assertions = []
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
        if sum(len(a) for a in adjacency) == 0:
            continue
        if iso.ns_edge_fraction(adjacency, b) >= 0.5:
            continue
        accepted += 1
        alive = iso.prune_to_satisfiable(adjacency, b)
        if not alive:
            prune_ok = False
            continue
        for v in alive:
            deg = sum(1 for w in adjacency[v] if w in alive)
            if 3 * deg < b:
                prune_ok = False
    _check(assertions, "pruning terminates nonempty with min degree >= b/3",
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
            family = []
            for assign in range(2 ** len(free)):
                f = fixed_bits
                for bit, site in enumerate(free):
                    if assign >> bit & 1:
                        f |= 1 << site
                family.append(f)
            Y = len(free)
        else:
            size = int(rng.integers(1, 2**m))
            family = rng.choice(2**m, size=size, replace=False).tolist()
            Y = int(rng.integers(0, m + 1))
        verdict = iso.flip_closure_bound_check(family, m, Y)
        if verdict["premise_holds"]:
            holding += 1
            if not verdict["bound_holds"]:
                flips_ok = False
    _check(assertions, "flip-closed families have >= 2^Y members", flips_ok,
           f"{holding} premise-holding families of {n_families}")
    return assertions


def _recipe_nash_curve(params, out_dir, artifacts):
    t_max = params.get("t_max", 1e7)
    assertions = []
    settings = {2: dict(n=2**24, gamma=0.125), 3: dict(n=4**10, gamma=0.1)}
    for d in params.get("d_list", [2, 3]):
        prof = bounds.NashProfile(d=d, n=settings[d]["n"],
                                  gamma=settings[d]["gamma"])
        sol = bounds.nash_ode_solve(prof, t_max)
        _check(assertions, f"a positive and strictly decreasing (d={d})",
               bool(np.all(np.isfinite(sol.L)) and np.all(np.diff(sol.L) > 0)),
               f"{sol.L.size} samples, -log a up to {sol.L[-1]:.1f}")

        # t(L) = int_0^L 8 f(l + log 4)^2 dl by trapezoids at step h and h/2
        def t_of_L(panels, L_end=sol.L[-1], prof=prof):
            ell = np.linspace(0.0, L_end, panels + 1)
            return float(np.trapezoid(8.0 * prof.F_inv_log(ell + bounds.LOG4) ** 2, ell))
        t_h, t_h2 = t_of_L(20_000), t_of_L(40_000)
        rel = abs(t_h - t_h2) / t_h2
        gap = max(abs(t_h - sol.t[-1]), abs(t_h2 - sol.t[-1])) / sol.t[-1]
        _check(assertions, f"self-convergence under step halving (d={d})",
               rel < 1e-6 and gap < 1e-6,
               f"relative change of t(-log a(t_max)): {rel:.2e}, off t_max by {gap:.2e}")
        slope = bounds.tail_exponent(sol)
        target = d / (d + 2.0)
        _check(assertions, f"tail slope near d/(d+2) (d={d})",
               abs(slope - target) / target <= 0.05,
               f"slope {slope:.4f}, target {target:.4f}")
        fit = bounds.piecewise_constants_fit(sol)
        _check(assertions, f"piecewise forms fit with small residual (d={d})",
               fit["max_relative_residual"] < 1e-3 and fit["slopes_positive"],
               f"max rel residual {fit['max_relative_residual']:.2e}")
        _check(assertions, f"continuity at regime boundaries (d={d})",
               all(c < 1e-3 for c in fit["continuity_mismatch"]),
               f"mismatches {['%.2e' % c for c in fit['continuity_mismatch']]}")

        def writer(fh, sol=sol):
            fh.write("t,neg_log_a\n")
            for t, lv in zip(sol.t, sol.L):
                fh.write(f"{float(t)!r},{float(lv)!r}\n")
        _write_artifact(out_dir, f"nash_d{d}.csv", writer, artifacts)
    return assertions


def _recipe_lemma45(params, out_dir, artifacts):
    n_max = params.get("n_max", 5)
    alphas = params.get("alphas", [0.3, 0.5, 0.7])
    assertions = []

    # doubling inequality by exact enumeration on the full lattice
    doubling_ok = True
    for n in range(1, n_max + 1):
        config = perc.sample_bond_config(perc.LatticeSpec(2, 2 * n + 1), 1.0, 0)
        cluster = perc.component_of_origin(config)
        report = bounds.lemma_4_5_check(cluster, n)
        if not report["doubling_holds"]:
            doubling_ok = False
    _check(assertions, "doubling inequality on the full lattice", doubling_ok,
           f"every m, n = 1..{n_max}")

    # assembled lower bound against the exact pinned value, criterion-1 instances
    violations = []
    exact_violations = []
    total = 0
    worst_ratio = 0.0
    rows = []
    for base_id, cluster in small_cluster_collection():
        for n in range(1, n_max + 1):
            r_star, _ = bounds.surrogate_optimal_r(n, 2)
            conf = walk.survival_probabilities(cluster, r_star, [n])[0][1]
            law = walk.exact_visited_distribution(cluster, 2 * n)
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
    _check(assertions, "assembled lower bound below the exact pinned value",
           not violations,
           f"{len(violations)} violations of {total} instances"
           + (f", worst ratio {worst_ratio:.2f}, e.g. {violations[0]}"
              if violations else ""))
    _check(assertions, "cluster-aware assembly below the exact pinned value",
           not exact_violations,
           f"{len(exact_violations)} violations of {total} instances")

    def writer(fh):
        fh.write("base_id,alpha,n,r,assembled,pinned\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    _write_artifact(out_dir, "lower_bound.csv", writer, artifacts)
    return assertions


def _recipe_renorm_field(params, out_dir, artifacts):
    assertions = []
    spec_small = perc.LatticeSpec(2, 14)
    full = perc.sample_bond_config(spec_small, 1.0, 0)
    field_full = perc.classify_boxes(full, 4)
    good = [field_full.blocks[i].good for i in field_full.classifiable_blocks()]
    _check(assertions, "all classifiable blocks good at p=1",
           len(good) > 0 and all(good), f"{len(good)} blocks")

    empty = perc.BondConfiguration(spec_small, 0.0, 0,
                                   np.zeros(spec_small.n_edges, dtype=bool))
    field_empty = perc.classify_boxes(empty, 4)
    bad = [not field_empty.blocks[i].good
           for i in field_empty.classifiable_blocks()]
    _check(assertions, "all classifiable blocks bad with no open edge",
           len(bad) > 0 and all(bad), f"{len(bad)} blocks")

    p = params.get("p", 0.95)
    N = params.get("N", 10)
    n_seeds = params.get("seeds", 20)
    master = params.get("seed", 909)
    box_n = params.get("box_n", 33)
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
    _check(assertions, "good fraction above 0.9 at p=0.95", frac > 0.9,
           f"{good_count}/{classifiable} = {frac:.3f}")

    def writer(fh):
        for i in sorted(field_full.blocks):
            s = field_full.blocks[i]
            fh.write(f"{i} classifiable={s.classifiable} good={s.good}\n")
    _write_artifact(out_dir, "renorm_p1.txt", writer, artifacts)
    return assertions


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
    """Dispatch one recipe; returns the report with per-assertion outcomes."""
    start = time.perf_counter()
    artifacts: list = []
    params = dict(spec.params)
    params.setdefault("seed", DEFAULT_SEEDS[spec.recipe])
    spec = ExperimentSpec(spec.recipe, params, spec.out_dir)
    assertions = RECIPES[spec.recipe](params, spec.out_dir, artifacts)
    elapsed = time.perf_counter() - start
    report = RunReport(spec, seed_manifest(params["seed"], 1),
                       assertions, artifacts, elapsed)
    if spec.out_dir is not None:
        buf = io.StringIO()
        report.write(buf)
        _write_artifact(spec.out_dir, "report.txt",
                        lambda fh: fh.write(buf.getvalue()), artifacts)
    return report
