import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from reglab import criteria, kernels, pdesim, spectral


def run(family, l, tau_end, n=160, dt=None, initial="bump", seed=0, tau0=0.0):
    cfg = pdesim.SimConfig(family=family, phi=criteria.Constant(l), n=n, dt=dt,
                           tau_span=(tau0, tau_end), initial=initial, seed=seed)
    return pdesim.simulate(cfg)


class TestFitRate:
    def test_synthetic_exponential(self):
        tau = np.linspace(0.0, 10.0, 400)
        res = pdesim.SimResult(config=None, tau=tau, sup_norm=np.exp(-0.5 * tau),
                               a0=np.zeros_like(tau), z=np.zeros(3),
                               snapshots_tau=np.array([0.0]), snapshots=np.zeros((1, 3)))
        assert pdesim.fit_rate(res, (1.0, 9.0)) == pytest.approx(-0.5, abs=1e-6)

    def test_window_needs_samples(self):
        tau = np.linspace(0.0, 1.0, 50)
        res = pdesim.SimResult(config=None, tau=tau, sup_norm=np.exp(-tau),
                               a0=np.zeros_like(tau), z=np.zeros(3),
                               snapshots_tau=np.array([0.0]), snapshots=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            pdesim.fit_rate(res, (2.0, 3.0))


class TestConstantWallFactors:
    @pytest.mark.parametrize("family,n,l,tau_end,dt", [("biharmonic", 96, 2.0, 2.0, 0.01),
                                                      ("heat", 96, 1.0, 1.0, 0.005),
                                                      ("biharmonic", 2048, 2.0, 0.2, 0.01)])
    def test_matches_banded_reference_loop(self, family, n, l, tau_end, dt):
        cfg = pdesim.SimConfig(family=family, phi=criteria.Constant(l), n=n, dt=dt,
                               tau_span=(0.0, tau_end), initial="bump")
        res = pdesim.simulate(cfg)

        # reference: one banded backward-Euler solve per step
        h, z = 2.0 / n, res.z
        if family == "biharmonic":
            ab, bands, inner = pdesim._biharmonic_operator(n, h, l, 0.0)[2:], (2, 2), slice(2, n - 1)
            fk = kernels.eval_kernel(kernels.biharmonic(), l * z)
        else:
            ab, bands, inner = pdesim._heat_operator(n, h, l, 0.0)[1:], (1, 1), slice(1, n)
            fk = kernels.eval_kernel(kernels.heat(), l * z)
        ab = -dt * ab
        ab[bands[0], :] += 1.0
        x = pdesim._initial_data(cfg, z)[inner]
        sups, a0s = [], []
        for _ in range(math.ceil(tau_end / dt)):
            x = solve_banded(bands, ab, x)
            sups.append(np.max(np.abs(x)))
            a0s.append(np.trapezoid(pdesim._full_state(family, x, n) * fk * l, z))

        assert len(res.sup_norm) == len(sups)
        np.testing.assert_allclose(res.sup_norm, sups, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(res.a0, a0s, rtol=1e-9, atol=0.0)


class TestMovingWallDirectSolves:
    @pytest.mark.parametrize("family,phi", [
        ("biharmonic", criteria.PowerLog(2.0, 0.75)),
        ("heat", criteria.PetrovskiiSqrtLog(2.0)),
    ])
    def test_matches_solve_banded_reference_loop(self, family, phi):
        n, dt, tau0 = 128, 0.02, criteria.TAU0
        cfg = pdesim.SimConfig(family=family, phi=phi, n=n, dt=dt,
                               tau_span=(tau0, tau0 + 3.0), initial="bump")
        res = pdesim.simulate(cfg)

        # reference: rebuild the banded matrix from phi and phi' and call
        # solve_banded on every step
        h, z = 2.0 / n, res.z
        if family == "biharmonic":
            build, bands, inner, fam = pdesim._biharmonic_operator, (2, 2), slice(2, n - 1), \
                kernels.biharmonic()
        else:
            build, bands, inner, fam = pdesim._heat_operator, (1, 1), slice(1, n), kernels.heat()
        x = pdesim._initial_data(cfg, z)[inner]
        sups, a0s, states = [], [], []
        for k in range(math.ceil(3.0 / dt)):
            tau = tau0 + (k + 1) * dt
            pv, ps = phi(tau), phi.derivative(tau)
            ab = -dt * build(n, h, pv, ps)[bands[0]:]
            ab[bands[0], :] += 1.0
            x = solve_banded(bands, ab, x)
            w = pdesim._full_state(family, x, n)
            sups.append(np.max(np.abs(x)))
            a0s.append(np.trapezoid(w * kernels.eval_kernel(fam, pv * z) * pv, z))
            states.append(w)

        assert len(res.sup_norm) == len(sups)
        np.testing.assert_allclose(res.sup_norm, sups, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.a0, a0s, rtol=1e-12, atol=0.0)
        steps_of_snapshots = np.rint((res.snapshots_tau - tau0) / dt).astype(int) - 1
        np.testing.assert_allclose(res.snapshots, np.array(states)[steps_of_snapshots],
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    def test_non_finite_boundary_is_rejected(self, family):
        class BreaksDown(criteria.BoundaryFunction):
            # finite up to tau = 3.5, nan after
            def _phi_u(self, u):
                return np.where(u > math.log(3.5), np.nan, 2.0 + 0.0 * u)

            def _dphi(self, tau):
                return np.zeros_like(tau)

        cfg = pdesim.SimConfig(family=family, phi=BreaksDown(), n=64, dt=0.02,
                               tau_span=(criteria.TAU0, 5.0))
        with pytest.raises(ValueError, match="boundary is not finite at tau=3.5"):
            pdesim.simulate(cfg)

    @pytest.mark.parametrize("kl", [1, 2])
    def test_singular_step_matrix_is_rejected(self, kl):
        ab = np.zeros((3 * kl + 1, 8))  # LAPACK band layout of the zero matrix
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            pdesim._band_solve(ab, kl, np.ones(8))


class TestKernelEvaluations:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls, original = [], kernels.eval_kernel

        def counted(family, y):
            calls.append(len(y))
            return original(family, y)

        monkeypatch.setattr(kernels, "eval_kernel", counted)
        return calls

    def test_constant_wall_evaluates_once(self, kernel_calls):
        res = run("biharmonic", 2.0, 1.0, n=64, dt=0.01)
        assert len(res.tau) == 100
        assert kernel_calls == [65]

    @pytest.mark.parametrize("family,phi", [("biharmonic", criteria.PowerLog(2.0, 0.75)),
                                            ("heat", criteria.PetrovskiiSqrtLog(2.0))])
    def test_moving_wall_evaluates_once_per_record(self, kernel_calls, family, phi):
        cfg = pdesim.SimConfig(family=family, phi=phi, n=64, dt=0.02,
                               tau_span=(criteria.TAU0, criteria.TAU0 + 1.0))
        res = pdesim.simulate(cfg)
        assert len(res.tau) == 50
        assert kernel_calls == [65] * len(res.tau)


class TestRateSpectrumAgreement:
    def test_fast_decay_small_interval(self):
        res = run("biharmonic", 1.0, 0.45)
        assert pdesim.fit_rate(res, (0.1, 0.45)) == pytest.approx(-31.16, abs=0.1)

    def test_moderate_interval(self):
        res = run("biharmonic", 2.0, 6.0)
        assert pdesim.fit_rate(res, (2.0, 6.0)) == pytest.approx(-1.83, abs=0.04)

    def test_near_neutral_interval(self):
        res = run("biharmonic", 4.0, 400.0, n=128, dt=0.02)
        assert pdesim.fit_rate(res, (50.0, 400.0)) == pytest.approx(-0.008152, abs=2e-3)

    def test_growth_interval(self):
        res = run("biharmonic", 5.0, 300.0, n=128, dt=0.02)
        assert pdesim.fit_rate(res, (50.0, 300.0)) == pytest.approx(0.0483, abs=4e-3)

    def test_grid_convergence(self):
        r1 = pdesim.fit_rate(run("biharmonic", 2.0, 6.0, n=96), (2.0, 6.0))
        r2 = pdesim.fit_rate(run("biharmonic", 2.0, 6.0, n=192), (2.0, 6.0))
        assert abs(r2 - r1) < 0.1 * abs(r2) + 1e-3

    def test_heat_rate_matches_collocation(self):
        res = run("heat", 1.0, 3.0, n=128)
        rate = pdesim.fit_rate(res, (0.8, 3.0))
        prob = spectral.IntervalEigenProblem(1.0, family=kernels.heat(),
                                             method="collocation", grid_size=64)
        lam = spectral.interval_spectrum(prob, 1)[0].lam.real
        assert rate == pytest.approx(lam, abs=0.02)


class TestHeatPositivity:
    def test_nonnegative_data_stays_nonnegative(self):
        res = run("heat", 1.0, 2.0, n=128, initial="bump")
        assert np.all(res.snapshots >= -1e-12)


class TestInitialData:
    def test_clamped_conditions(self):
        for initial in ("bump", "poly", "random-smooth"):
            cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0),
                                   n=64, tau_span=(0.0, 1.0), initial=initial, seed=3)
            z = -1.0 + (2.0 / cfg.n) * np.arange(cfg.n + 1)
            w = pdesim._initial_data(cfg, z)
            assert w[0] == 0.0 and w[-1] == 0.0
            h = z[1] - z[0]
            # the analytic wall slope is zero; the one-sided difference is O(h)
            assert abs(w[1] - w[0]) / h < 5.0 * h

    def test_seed_reproducibility(self):
        cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0),
                               n=64, tau_span=(0.0, 1.0), initial="random-smooth", seed=5)
        z = np.linspace(-1, 1, 65)
        w1 = pdesim._initial_data(cfg, z)
        w2 = pdesim._initial_data(cfg, z)
        assert np.array_equal(w1, w2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(1.0), n=63,
                             tau_span=(0.0, 1.0))
        with pytest.raises(ValueError):
            pdesim.SimConfig(family="wave", phi=criteria.Constant(1.0),
                             tau_span=(0.0, 1.0))


class TestBoundaryRange:
    def test_span_must_start_inside_the_boundary_range(self):
        cfg = pdesim.SimConfig(family="heat", phi=criteria.PetrovskiiSqrtLog(2.0),
                               n=64, dt=0.01, tau_span=(1.0, 5.0))
        with pytest.raises(ValueError, match="range"):
            pdesim.simulate(cfg)

    def test_span_must_end_inside_a_tabulated_range(self):
        taus = np.geomspace(criteria.TAU0, 10.0, 8)
        phi = criteria.Tabulated(tuple(taus), tuple(2.0 * np.sqrt(np.log(taus))))
        cfg = pdesim.SimConfig(family="heat", phi=phi, n=64, dt=0.01,
                               tau_span=(criteria.TAU0, 12.0))
        with pytest.raises(ValueError, match="range"):
            pdesim.simulate(cfg)
        short = pdesim.SimConfig(family="heat", phi=phi, n=64, dt=0.01,
                                 tau_span=(criteria.TAU0, 10.0))
        assert np.all(np.isfinite(pdesim.simulate(short).sup_norm))

    def test_phi_must_be_a_boundary_function(self):
        cfg = pdesim.SimConfig(family="heat", phi=lambda tau: 2.0, n=64, dt=0.01,
                               tau_span=(0.0, 1.0))
        with pytest.raises(TypeError):
            pdesim.simulate(cfg)


class TestExpansionConsistency:
    def test_interior_reconstruction_from_low_modes(self):
        # at late times the interior field is captured by the adjoint
        # polynomial expansion paired against the kernel derivatives; the
        # zero-extension makes pointwise convergence geometric but slow,
        # so seven modes reach ~12 percent at l = 3 and fifteen reach 5
        l = 3.0
        res = run("biharmonic", l, 40.0, n=160)
        w = res.snapshots[-1]
        z = res.z
        fam = kernels.biharmonic()
        sel = np.abs(z) <= 0.5
        scale = np.max(np.abs(w[sel]))

        def reconstruction_error(k_max):
            recon = np.zeros_like(z)
            for k in range(k_max + 1):
                pair = kernels.hermite_pair(fam, k)
                a_k = np.trapezoid(w * pair.psi(l * z) * l, z)
                recon = recon + a_k * pair.psi_star(l * z)
            return np.max(np.abs(recon[sel] - w[sel])) / scale

        err7 = reconstruction_error(6)
        err15 = reconstruction_error(14)
        assert err7 < 0.15
        assert err15 < 0.05
        assert err15 < err7

    def test_coefficient_dominance(self):
        # the first coefficient carries the late-time solution (the gap to
        # one is the wall overshoot riding on the sup-norm)
        res = run("biharmonic", 3.0, 40.0, n=160)
        i = len(res.tau) - 1
        assert abs(res.a0[i]) > 0.7 * res.sup_norm[i]


class TestBoundaryLayerSnapshot:
    def test_heat_wall_profile(self):
        cfg = pdesim.SimConfig(family="heat", phi=criteria.PetrovskiiSqrtLog(2.0),
                               n=192, dt=0.01, tau_span=(criteria.TAU0, 60.0),
                               initial="bump")
        res = pdesim.simulate(cfg)
        chk = pdesim.bl_snapshot_check(res, 55.0)
        assert chk["conclusive"]
        assert chk["dominance"] >= 0.9
        assert chk["deviation"] <= 0.1

    def test_fourth_order_wall_profile_moderate_width(self):
        # the coefficient dominates at l = 6, but the layer asymptotics have
        # an order-one coefficient there: the measured gap is ~0.3 and only
        # reaches the first-omitted-term scale for l >= 10
        res = run("biharmonic", 6.0, 100.0, n=192, dt=0.02)
        chk = pdesim.bl_snapshot_check(res, 100.0)
        assert chk["conclusive"]
        assert chk["deviation"] <= 0.35

    def test_dominance_precondition_reported(self):
        res = run("biharmonic", 10.0, 120.0, n=256, dt=0.02)
        chk = pdesim.bl_snapshot_check(res, 120.0)
        # the wall overshoot carries the sup-norm at this width, so the
        # strict dominance precondition fails and the check says so
        assert not chk["conclusive"]
        assert chk["deviation"] == math.inf


class TestVerifyP2:
    def test_fixed_two_case_suite(self):
        report = pdesim.verify_P2(seeds=(1, 2, 3), tau_end=400.0)
        assert report.passed
        assert report.all_decay_at_4 and report.all_grow_at_5
        growth = [r for (l, _), r in report.rates.items() if l == 5.0]
        assert all(abs(g - 0.0483) < 0.015 for g in growth)
