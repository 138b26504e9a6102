"""Growth profile, decay ODE, lower-bound assembly, and exponent fitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from percwalk import bounds, percolation as perc, walk
from conftest import alpha_transfer, make_graph, nash_ode_oracle


def log_F(prof: bounds.NashProfile, k: float) -> float:
    """log F(k) of the growth profile: C k below the knee, C k^d from it on."""
    return prof.C * (k if k < prof.knee else k**prof.d)


def full_lattice(n: int) -> perc.ClusterGraph:
    config = perc.sample_bond_config(perc.LatticeSpec(2, n), 1.0, 0)
    return perc.component_of_origin(config)


class TestProfile:
    def test_gamma_default(self):
        prof = bounds.NashProfile(2, 1000)
        assert prof.gamma == pytest.approx(1.0 / 8)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            bounds.NashProfile(2, 1000, gamma=0.3)

    def test_rejects_sub_unit_knee(self):
        with pytest.raises(ValueError):
            bounds.NashProfile(2, 1, c=0.5, gamma=0.1)

    def test_branches(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)  # knee 8
        assert prof.knee == pytest.approx(8.0)
        assert (log_F(prof, 2), log_F(prof, 10)) == (2.0, 100.0)
        assert prof.F_inv_log(log_F(prof, 3)) == pytest.approx(3.0)
        assert prof.F_inv_log(20.0) == pytest.approx(8.0)  # plateau: log F jumps 8 -> 64
        assert prof.F_inv_log(log_F(prof, 10)) == pytest.approx(10.0)

    @settings(max_examples=60, deadline=None)
    @given(k=st.floats(min_value=0.0, max_value=40.0),
           logy=st.floats(min_value=0.01, max_value=2000.0))
    def test_galois_property(self, k, logy):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        # F(F_inv(y)) >= y and F_inv(F(k)) <= k, compared in log space
        # because F overflows floats long before the property gets tricky
        fi = prof.F_inv_log(logy)
        assert log_F(prof, fi) >= logy - 1e-9 * max(1.0, logy)
        assert prof.F_inv_log(log_F(prof, k)) <= k + 1e-9 * max(1.0, k)


class TestOde:
    def test_initial_condition_and_monotonicity(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        sol = bounds.nash_ode_solve(prof, 1e5)
        assert sol.L[0] == 0.0
        assert np.all(np.isfinite(sol.L))
        assert np.all(np.diff(sol.L) > 0)

    def test_step_refinement(self):
        # the RK45 oracle, at either step bound, lands on the closed form
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        exact = bounds.nash_ode_solve(prof, 1e4)
        for max_step in (0.01, 0.005):
            oracle = nash_ode_oracle(prof, 1e4, rtol=1e-11, max_step=max_step)
            np.testing.assert_array_equal(exact.t, oracle.t)
            np.testing.assert_allclose(exact.L, oracle.L, rtol=1e-8, atol=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]),
           C=st.floats(min_value=0.05, max_value=4.0),
           knee=st.floats(min_value=1.0, max_value=12.0),
           gamma_frac=st.floats(min_value=0.05, max_value=0.95),
           n=st.integers(min_value=1, max_value=2**30),
           log_t_max=st.floats(min_value=-2.0, max_value=8.0))
    @example(d=2, C=1.0, knee=1.2, gamma_frac=0.5, n=2**20, log_t_max=6.0)
    @example(d=3, C=0.5, knee=1.0, gamma_frac=0.5, n=2**20, log_t_max=6.0)
    # the first kink, u = C k0 = 1.387, lies just past the start u = log 4
    @example(d=2, C=1.177734375, knee=1.177734375, gamma_frac=0.5, n=1, log_t_max=0.0)
    def test_matches_rk45_oracle(self, d, C, knee, gamma_frac, n, log_t_max):
        gamma = gamma_frac / (d + 2)
        c = knee / n**gamma * (1 + 1e-12)  # keep the knee >= 1 through rounding
        prof = bounds.NashProfile(d, n, C=C, c=c, gamma=gamma)
        exact = bounds.nash_ode_solve(prof, 10.0**log_t_max)
        oracle = nash_ode_oracle(prof, 10.0**log_t_max, rtol=1e-12)
        np.testing.assert_array_equal(exact.t, oracle.t)
        np.testing.assert_allclose(exact.L, oracle.L, rtol=1e-8, atol=1e-11)

    @pytest.mark.parametrize("knee, skipped", [
        (1.2, 1),   # C k0 = 1.2 <= log 4 < C k0^2 = 1.44: no branch below the knee
        (1.0, 2),   # C k0^2 = 1 <= log 4: straight past the plateau
    ])
    def test_start_past_the_knee(self, knee, skipped):
        prof = bounds.NashProfile(2, 2**24, c=knee / 8.0, gamma=0.125)
        times = prof.regime_times()
        assert times[:skipped] == (0.0,) * skipped
        assert all(t > 0 for t in times[skipped:])
        assert bounds.nash_ode_solve(prof, 1e5).L[0] == 0.0

    def test_regime_times_exact(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)  # knee 8, C = 1
        t1, t2 = prof.regime_times()
        # u^3 grows at rate 3/8 from log 4 to 8, then u at rate 1/512 to 64
        assert t1 == pytest.approx(8.0 * (8.0**3 - np.log(4.0)**3) / 3.0, rel=1e-14)
        assert t2 == pytest.approx(t1 + 512.0 * (64.0 - 8.0), rel=1e-14)
        sol = bounds.nash_ode_solve(prof, 1e7)
        for tt, level in ((t1, 8.0), (t2, 64.0)):
            assert np.interp(tt, sol.t, sol.L) + np.log(4.0) == pytest.approx(level, rel=1e-4)

    def test_rejects_bad_horizon(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        with pytest.raises(ValueError):
            bounds.nash_ode_solve(prof, 0.0)

    def test_tail_exponent_on_synthetic(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        t = np.logspace(0, 6, 500)
        sol = bounds.OdeSolution(prof, t, 0.7 * t**0.5)
        assert bounds.tail_exponent(sol) == pytest.approx(0.5, abs=1e-9)

    def test_piecewise_fit(self):
        prof = bounds.NashProfile(2, 2**24, gamma=0.125)
        sol = bounds.nash_ode_solve(prof, 1e7)
        fit = bounds.piecewise_constants_fit(sol)
        assert fit["max_relative_residual"] < 1e-3
        assert fit["slopes_positive"]
        assert all(m < 1e-3 for m in fit["continuity_mismatch"])
        assert 0 < fit["t1"] < fit["t2"] < 1e7

    @pytest.mark.parametrize("d, n, gamma", [(2, 2**24, 0.125), (3, 4**10, 0.1)])
    def test_tail_slope_far_out(self, d, n, gamma):
        # the two profiles of the nash-curve recipe, five decades past its t_max
        prof = bounds.NashProfile(d=d, n=n, gamma=gamma)
        slope = bounds.tail_exponent(bounds.nash_ode_solve(prof, 1e12))
        assert slope == pytest.approx(d / (d + 2.0), rel=1e-3)


class TestLowerBound:
    def test_surrogate_scan(self):
        r, value = bounds.surrogate_optimal_r(64, 2)
        assert r == 3
        assert value == pytest.approx(9 + 64 / 9)

    def test_surrogate_domain(self):
        with pytest.raises(ValueError):
            bounds.surrogate_optimal_r(0, 2)

    def test_confinement_forced_inside(self):
        value = bounds.lower_bound_assemble(4, 3, 0.5, 2, 0.0)
        assert value == pytest.approx(0.5**16 / (2 * 2 * 16))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            bounds.lower_bound_assemble(0, 3, 0.5, 2, 1.0)
        with pytest.raises(ValueError):
            bounds.lower_bound_assemble(2, 3, 1.5, 2, 1.0)
        with pytest.raises(ValueError):
            bounds.lower_bound_assemble(2, 3, 0.5, 2, 1.5)

    def test_certified_assembly_below_pinned(self):
        graphs = [
            make_graph([(x, 0) for x in range(3)], [(0, 1), (1, 2)]),
            make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0)]),
            full_lattice(3),
        ]
        for g in graphs:
            for n in (1, 2, 3):
                r, _ = bounds.surrogate_optimal_r(n, 2)
                conf = dict(walk.survival_probabilities(g, r, [n]))[n]
                certified = bounds.lower_bound_assemble_exact(g, r, n, 0.3, conf)
                pinned = walk.exact_laplace(g, 0.3, 2 * n, pinned=True)
                assert certified <= pinned * (1 + 1e-12)
                assert certified > 0


class TestAlphaTransfer:
    def test_identity(self):
        assert alpha_transfer(3.0, 0.5, 0.5) == 3.0

    def test_domination(self):
        assert alpha_transfer(3.0, 0.5, 0.25) == 3.0

    def test_rescaling(self):
        factor = alpha_transfer(1.0, 0.5, 0.75)
        assert factor == pytest.approx(np.log(0.75) / np.log(0.5))
        assert factor == pytest.approx(0.4150, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(min_value=0.05, max_value=0.95),
           b=st.floats(min_value=0.05, max_value=0.95))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert alpha_transfer(2.0, 0.5, hi) <= \
            alpha_transfer(2.0, 0.5, lo) + 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bounds_exact_laplace(self, path3, n):
        # a constant valid at alpha0 transfers to every alpha in (0, 1)
        graphs = [path3, full_lattice(3)]
        alphas = (0.2, 0.5, 0.8)
        for g in graphs:
            c = {a: -np.log(walk.exact_laplace(g, a, n)) for a in alphas}
            for a0 in alphas:
                for a in alphas:
                    assert c[a] >= alpha_transfer(c[a0], a0, a) - 1e-12


class TestDoubling:
    def test_full_lattice_small_n(self):
        for n in (1, 2, 3):
            cluster = full_lattice(2 * n + 1)
            report = bounds.lemma_4_5_check(cluster, n)
            assert report["doubling_holds"]
            assert report["empirical_c0"] > 0

    def test_zero_steps_arithmetic(self, path3):
        report = bounds.lemma_4_5_check(path3, 0)
        assert report["lemma_lhs"] == pytest.approx(0.5)
        assert report["lemma_rhs"] == pytest.approx(bounds.ALPHA_ONE)
        assert report["empirical_c0"] == pytest.approx(0.5 / bounds.ALPHA_ONE)

    def test_small_clusters_positive_constant(self):
        g = make_graph([(0, 0), (1, 0), (1, 1), (0, 1)],
                       [(0, 1), (1, 2), (2, 3), (3, 0)])
        for n in (1, 2, 3, 4):
            report = bounds.lemma_4_5_check(g, n)
            assert report["doubling_holds"]
            assert report["empirical_c0"] > 0


class TestFitExponent:
    @staticmethod
    def _series(values, stderr=0.0):
        entries = [(n, v, stderr, "exact" if stderr == 0 else "monte_carlo")
                   for n, v in values]
        return walk.WalkSeries(entries, 0.9, 1.0, 2, 0)

    def test_exact_power_law(self):
        ns = [10, 20, 40, 80, 160]
        series = self._series([(n, float(np.exp(-n**0.5))) for n in ns])
        fit = bounds.fit_exponent(series)
        assert fit["slope"] == pytest.approx(0.5, abs=1e-12)
        assert fit["residual"] < 1e-12
        assert fit["points_used"] == len(ns)

    def test_constant_and_intercept(self):
        ns = [10, 20, 40, 80]
        series = self._series([(n, float(np.exp(-2 * n**0.6))) for n in ns])
        fit = bounds.fit_exponent(series)
        assert fit["slope"] == pytest.approx(0.6, abs=1e-12)
        assert fit["intercept"] == pytest.approx(np.log(2), abs=1e-12)

    def test_noise_floor_filter(self):
        entries = [(10, 0.5, 0.0, "exact"), (20, 0.3, 0.0, "exact"),
                   (40, 0.1, 0.0, "exact"), (80, 0.01, 0.005, "monte_carlo")]
        series = walk.WalkSeries(entries, 0.9, 1.0, 2, 0)
        fit = bounds.fit_exponent(series)
        assert fit["points_used"] == 3

    def test_insufficient_points(self):
        series = self._series([(10, 0.5), (20, 0.3)])
        with pytest.raises(ValueError):
            bounds.fit_exponent(series)
