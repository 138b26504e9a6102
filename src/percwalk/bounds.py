"""Analytic bound pipeline: the two-regime growth profile, the associated
decay ODE in closed form, and the lower-bound assembly.

The ODE a' = -a / (8 F_inv(4/a)^2), a(0) = 1 is separable in
u = log(4/a) = L + log 4 with L = -log a: du/dt = 1 / (8 f(u)^2), f = F_inv_log.
On each of the three branches of f a power of u is exactly linear in t:
u^3 below the knee, u itself on the plateau and u^{(d+2)/d} past it, so
``nash_ode_solve`` evaluates the exact solution instead of integrating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from percwalk.percolation import ClusterGraph
from percwalk.walk import WalkSeries, exact_visited_laws

__all__ = [
    "NashProfile",
    "OdeSolution",
    "nash_ode_solve",
    "tail_exponent",
    "piecewise_constants_fit",
    "surrogate_optimal_r",
    "lower_bound_assemble",
    "lower_bound_assemble_exact",
    "lemma_4_5_check",
    "fit_exponent",
]

LOG4 = float(np.log(4.0))
ALPHA_ONE = 1.0 / (2.0 * np.sqrt(5.0))


@dataclass(frozen=True)
class NashProfile:
    """Growth profile F(k) = e^{Ck} below the knee k0 = c n^gamma, e^{Ck^d} above."""

    d: int
    n: int
    C: float = 1.0
    c: float = 1.0
    gamma: float = None

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 / (2 * (self.d + 2)))
        if self.d < 2 or self.n < 1 or self.C <= 0 or self.c <= 0:
            raise ValueError("need d >= 2, n >= 1, C > 0, c > 0")
        if not 0 < self.gamma < 1.0 / (self.d + 2):
            raise ValueError(f"gamma must lie in (0, 1/(d+2)), got {self.gamma}")
        if self.knee < 1.0:
            raise ValueError("knee c n^gamma below 1; raise n or c")

    @property
    def knee(self) -> float:
        return self.c * self.n**self.gamma

    def F_inv_log(self, logy):
        """F_inv(y) as a function of log y, elementwise; the inf-definition
        gives three branches with a plateau at the knee."""
        k = np.maximum(logy, 0.0) / self.C
        k0 = self.knee
        return np.where(k < k0, k, np.where(k <= k0**self.d, k0, k ** (1.0 / self.d)))[()]

    def branches(self) -> list[tuple[float, float, float, float]]:
        """``(t_start, u_start, p, rate)`` per branch of the decay ODE.

        Along a branch u = log(4/a) obeys u^p = u_start^p + rate (t - t_start):
        p = 3 below the knee, 1 on the plateau, (d+2)/d past it.  The start
        u(0) = log 4 may already lie past the knee or the plateau; a branch
        it skips has zero length.
        """
        C, d, k0 = self.C, self.d, self.knee
        laws = ((3.0, 3.0 * C**2 / 8.0), (1.0, 1.0 / (8.0 * k0**2)),
                ((d + 2.0) / d, (d + 2.0) / d * C ** (2.0 / d) / 8.0))
        t, u, out = 0.0, LOG4, []
        for (p, rate), end in zip(laws, (C * k0, C * k0**d, np.inf)):
            out.append((t, u, p, rate))
            end = max(u, end)
            t, u = t + (end**p - u**p) / rate, end
        return out

    def regime_times(self) -> tuple[float, float]:
        """(t1, t2): when log(4/a) reaches C k0 and C k0^d."""
        _, second, third = self.branches()
        return second[0], third[0]


@dataclass
class OdeSolution:
    """Samples of the decay ODE, stored as L = -log a to dodge underflow."""

    profile: NashProfile
    t: np.ndarray
    L: np.ndarray


def nash_ode_solve(profile: NashProfile, t_max: float) -> OdeSolution:
    """Exact solution of a' = -a / (8 F_inv(4/a)^2), a(0) = 1, sampled at
    t = expm1(s) for 2000 values of s evenly spaced over [0, log1p(t_max)]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    t = np.expm1(np.linspace(0.0, float(np.log1p(t_max)), 2000))
    L = np.empty_like(t)
    branches = profile.branches()
    ends = [b[0] for b in branches[1:]] + [np.inf]
    for (t0, u0, p, rate), t1 in zip(branches, ends):
        on = (t >= t0) & (t < t1)
        # u - u0 = u0 ((1 + rate (t - t0) / u0^p)^{1/p} - 1), free of cancellation
        grow = u0 * np.expm1(np.log1p(rate * (t[on] - t0) / u0**p) / p)
        L[on] = (u0 - LOG4) + grow
    return OdeSolution(profile, t, L)


def tail_exponent(solution: OdeSolution) -> float:
    """Least-squares slope of log(-log a) against log t over the last decade."""
    t, L = solution.t, solution.L
    keep = (t > 0) & (L > 0) & (t >= t[-1] / 10)
    if np.count_nonzero(keep) < 3:
        raise ValueError("not enough tail samples")
    slope, _ = np.polyfit(np.log(t[keep]), np.log(L[keep]), 1)
    return float(slope)


def piecewise_constants_fit(solution: OdeSolution) -> dict:
    """Fit the closed forms of -log a on the three regimes of the profile.

    With the additive log 4 shift the forms are exactly linear in t:
    (L + log4)^3 below the knee, L itself on the plateau, and
    (L + log4)^{(d+2)/d} past it.  Returns slopes, intercepts, regime
    boundaries, the worst relative residual of the reconstructed L, and the
    continuity mismatches at the two boundaries.
    """
    prof = solution.profile
    t, L = solution.t, solution.L
    t1, t2 = prof.regime_times()
    d = prof.d
    powers = (3.0, 1.0, (d + 2.0) / d)
    shifts = (LOG4, 0.0, LOG4)
    masks = (t <= t1, (t >= t1) & (t <= t2), t >= t2)
    fits = []
    worst = 0.0
    for power, shift, mask in zip(powers, shifts, masks):
        if np.count_nonzero(mask) < 3:
            fits.append(None)
            continue
        y = (L[mask] + shift) ** power
        slope, intercept = np.polyfit(t[mask], y, 1)
        pred = np.maximum(slope * t[mask] + intercept, 0.0) ** (1.0 / power) - shift
        denom = np.maximum(np.abs(L[mask]), 1e-3)
        worst = max(worst, float(np.max(np.abs(pred - L[mask]) / denom)))
        fits.append((float(slope), float(intercept)))

    def eval_fit(fit, power, shift, tt):
        slope, intercept = fit
        return max(slope * tt + intercept, 0.0) ** (1.0 / power) - shift

    cont = []
    for (left, right), tt in (((0, 1), t1), ((1, 2), t2)):
        if fits[left] is not None and fits[right] is not None:
            a = eval_fit(fits[left], powers[left], shifts[left], tt)
            b = eval_fit(fits[right], powers[right], shifts[right], tt)
            cont.append(abs(a - b) / max(abs(a), 1e-12))
    return {
        "t1": t1, "t2": t2, "fits": fits, "powers": powers, "shifts": shifts,
        "max_relative_residual": worst,
        "continuity_mismatch": cont,
        "slopes_positive": all(f is None or f[0] > 0 for f in fits),
    }


# ---------------------------------------------------------------------------
# Lower bound assembly
# ---------------------------------------------------------------------------

def surrogate_optimal_r(n: int, d: int) -> tuple[int, float]:
    """argmin over integer r >= 1 of r^d + n / r^2, by direct scan up to
    max(2, ceil(n^(1/d)))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r_max = max(2, int(np.ceil(n ** (1.0 / d))))
    rs = np.arange(1, r_max + 1, dtype=np.float64)
    vals = rs**d + n / rs**2
    i = int(np.argmin(vals))
    return int(rs[i]), float(vals[i])


def _checked_confinement(r: int, n: int, alpha: float, confinement: float) -> float:
    """The confinement probability of an assembly, after its argument checks."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 0.0 <= confinement <= 1.0:
        raise ValueError("confinement probability out of [0, 1]")
    return 1.0 if n <= r else confinement  # the walk cannot leave the ball in n <= r steps


def lower_bound_assemble(r: int, n: int, alpha: float, d: int,
                         confinement: float) -> float:
    """alpha^{r^d} / (2 d r^d) times the squared confinement probability."""
    confinement = _checked_confinement(r, n, alpha, confinement)
    return alpha ** (r**d) / (2.0 * d * r**d) * confinement**2


def lower_bound_assemble_exact(cluster: ClusterGraph, r: int, n: int,
                               alpha: float, confinement: float) -> float:
    """Cluster-aware assembly: nu(0) alpha^{|B_r|} conf^2 / sum_{B_r} nu.

    Unlike ``lower_bound_assemble`` this keeps the reversible measure nu
    (vertex degree) and the actual ball size, so the result is a certified
    lower bound on E[alpha^{N_2n} 1{X_2n = 0}] for every finite cluster.
    """
    confinement = _checked_confinement(r, n, alpha, confinement)
    in_ball = cluster.distances_from_origin() <= r
    deg = cluster.degrees
    nu_ball = float(deg[in_ball].sum())
    nu0 = float(deg[cluster.origin])
    return nu0 * alpha ** int(in_ball.sum()) / nu_ball * confinement**2


def lemma_4_5_check(cluster: ClusterGraph, n: int) -> dict:
    """Exact check of the doubling inequalities tying N_n to pinned N_2n.

    For every m with P(N_n = m) > 0 verifies
    P(N_n = m)^2 <= 2d (2m+1)^d P(N_2n <= 2m, X_2n = 0), and reports the
    empirical constant E[(1/2)^{N_2n} 1{X_2n=0}] / E[alpha1^{N_n}] with
    alpha1 = 1/(2 sqrt 5).
    """
    d = int(cluster.meta.get("d", cluster.coords.shape[1]))
    laws = exact_visited_laws(cluster, 2 * n)
    dist_n, dist_2n = laws[n], laws[2 * n]

    pn = {}
    for (m, _), pr in dist_n.items():
        pn[m] = pn.get(m, 0.0) + pr
    pinned_2n = {}
    for (m, pin), pr in dist_2n.items():
        if pin:
            pinned_2n[m] = pinned_2n.get(m, 0.0) + pr

    per_m = []
    all_hold = True
    for m in sorted(pn):
        lhs = pn[m] ** 2
        tail = sum(pr for mm, pr in pinned_2n.items() if mm <= 2 * m)
        rhs = 2.0 * d * (2 * m + 1) ** d * tail
        ok = lhs <= rhs * (1 + 1e-12)
        all_hold = all_hold and ok
        per_m.append({"m": m, "lhs": lhs, "rhs": rhs, "holds": ok})

    lhs_lemma = sum(0.5**m * pr for m, pr in pinned_2n.items())
    rhs_lemma = sum(ALPHA_ONE**m * pr for m, pr in pn.items())
    return {
        "per_m": per_m, "doubling_holds": all_hold,
        "lemma_lhs": lhs_lemma, "lemma_rhs": rhs_lemma,
        "empirical_c0": lhs_lemma / rhs_lemma if rhs_lemma > 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

def fit_exponent(series: WalkSeries) -> dict:
    """Slope of log(-log value) against log n over the usable entries.

    Entries must sit strictly inside (0, 1) and clear the Monte Carlo noise
    floor (value > 10 stderr); at least three are required.
    """
    pts = [(n, v) for n, v, se, _ in series.entries
           if 0.0 < v < 1.0 and v > 10.0 * se and n >= 1]
    if len(pts) < 3:
        raise ValueError(f"only {len(pts)} usable points, need at least 3")
    x = np.log([n for n, _ in pts])
    y = np.log(-np.log([v for _, v in pts]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return {"slope": float(slope), "intercept": float(intercept),
            "residual": resid, "points_used": len(pts)}
