import math

import numpy as np
import pytest
from scipy import integrate

from reglab import blayer, kernels, spectral
from reglab.numcore import NumericsError, OdeError, RootConvergenceError, find_root


class TestPoincare:
    def test_reference_value(self):
        assert spectral.poincare_lambda(1.0) == pytest.approx(31.285, abs=0.05)

    def test_quartic_scaling(self):
        lam1 = spectral.poincare_lambda(1.0)
        assert spectral.poincare_lambda(2.0) == pytest.approx(lam1 / 16.0, rel=1e-12)

    def test_frequency_equation_oracle(self):
        from scipy.optimize import brentq

        mu = brentq(lambda x: math.cosh(x) * math.cos(x) - 1.0, 4.0, 5.0, xtol=1e-13) / 2.0
        assert spectral.poincare_lambda(1.0) == pytest.approx(mu**4, rel=2e-5)


class TestRegularityBound:
    def test_value(self):
        assert spectral.regularity_bound() == pytest.approx(3.9779, abs=2e-3)

    def test_consistent_with_poincare(self):
        expected = (8.0 * spectral.poincare_lambda(1.0)) ** 0.25
        assert spectral.regularity_bound() == pytest.approx(expected, rel=1e-13)

    def test_negative_spectrum_below_bound(self):
        for l in (1.0, 2.0, 3.0, 3.9):
            assert spectral.top_eigenvalue(l) < 0.0


REFERENCE_BRANCH = [
    (1.0, -31.16, 0.05),
    (2.0, -1.83, 0.02),
    (3.0, -0.2647, 0.005),
    (4.0, -0.008152, 1e-3),
    (5.0, 0.0483, 2e-3),
]


class TestIntervalSpectrum:
    @pytest.mark.parametrize("l,ref,tol", REFERENCE_BRANCH)
    def test_shooting_matches_reference(self, l, ref, tol):
        assert spectral.top_eigenvalue(l) == pytest.approx(ref, abs=tol)

    def test_large_l_reference_values(self):
        assert spectral.top_eigenvalue(7.5) == pytest.approx(-0.0097, abs=2e-3)
        assert spectral.top_eigenvalue(8.0) == pytest.approx(-0.027, abs=3e-3)

    @pytest.mark.parametrize("l", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_shooting_collocation_agreement(self, l):
        prob = spectral.IntervalEigenProblem(l, method="collocation", grid_size=96)
        col = spectral.interval_spectrum(prob, 1)[0].lam
        sh = spectral.top_eigenvalue(l)
        assert abs(col.imag) < 1e-9
        assert abs(col.real - sh) < max(1e-4 * abs(sh), 1e-6)

    def test_collocation_two_grid_residual(self):
        prob = spectral.IntervalEigenProblem(3.0, method="collocation", grid_size=96)
        pair = spectral.interval_spectrum(prob, 1)[0]
        assert pair.residual < 1e-6

    def test_drift_negligible_for_small_interval(self):
        # the measured drift shift grows like l^4: 0.4% at l=1, 0.8% at 1.2,
        # 2% at 1.5; the one-percent negligibility window ends near 1.25
        for l in (1.0, 1.2):
            lam = spectral.top_eigenvalue(l)
            lam_free = -spectral.poincare_lambda(l)
            assert abs(lam - lam_free) / abs(lam_free) <= 0.01
        lam = spectral.top_eigenvalue(1.5)
        assert abs(lam + spectral.poincare_lambda(1.5)) / spectral.poincare_lambda(1.5) <= 0.025

    def test_sturm_zero_counts(self):
        prob = spectral.IntervalEigenProblem(1.0, method="shooting")
        pairs = spectral.interval_spectrum(prob, 5)
        for k, pair in enumerate(pairs):
            assert pair.zero_count == k
            assert pair.is_real

    def test_scan_refines_only_the_sign_changes_it_needs(self, monkeypatch):
        # at l = 8 the near-zero sweep holds no sign change and the first
        # fallback window two
        det = spectral.ClampedEndDeterminant(8.0, 2, "even")
        changes = [np.count_nonzero(v[:-1] * v[1:] < 0)
                   for v in map(det, spectral._scan_grids(8.0, "even", 1))]
        assert changes[:2] == [0, 2]
        brackets = []

        def counted(f, bracket, **kwargs):
            brackets.append(bracket)
            return find_root(f, bracket, **kwargs)

        monkeypatch.setattr(spectral, "find_root", counted)
        lam = spectral.top_eigenvalue(8.0)
        assert len(brackets) == 1 and brackets[0][0] < lam < brackets[0][1]
        assert len(spectral.interval_spectrum(spectral.IntervalEigenProblem(8.0, parity="even"),
                                              2)) == 2
        assert len(brackets) == 3

    def test_top_eigenvalue_real_at_sampled_widths(self):
        for l, n in ((1.0, 96), (5.0, 96), (9.0, 128), (13.0, 160)):
            prob = spectral.IntervalEigenProblem(l, method="collocation", grid_size=n)
            pair = spectral.interval_spectrum(prob, 1)[0]
            assert abs(pair.lam.imag) <= 1e-6

    def test_eigenfunction_normalized_and_clamped(self):
        prob = spectral.IntervalEigenProblem(2.0, method="shooting")
        pair = spectral.interval_spectrum(prob, 1)[0]
        assert np.max(np.abs(pair.values)) == pytest.approx(1.0)
        assert abs(pair.values[0]) < 1e-8 and abs(pair.values[-1]) < 1e-8
        assert pair.residual < 1e-8

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError):
            spectral.IntervalEigenProblem(-1.0)
        with pytest.raises(ValueError):
            spectral.IntervalEigenProblem(1.0, parity="sideways")


class TestHalfLengthValidation:
    @pytest.mark.parametrize("l", [-1.0, 0.0, math.nan, math.inf])
    def test_rejected_by_every_entry_point(self, l):
        with pytest.raises(ValueError):
            spectral.top_eigenvalue(l)
        with pytest.raises(ValueError):
            spectral.ClampedEndDeterminant(l, 2, "even")
        with pytest.raises(ValueError):
            spectral.IntervalEigenProblem(l)
        with pytest.raises(ValueError, match="half-length l must be positive and finite"):
            spectral.poincare_lambda(l)

    @pytest.mark.parametrize("l_range", [(-1.0, 2.0), (0.0, 2.0), (math.nan, 2.0),
                                         (1.0, math.inf), (1.0, math.nan)])
    def test_branch_trace_rejects_range(self, l_range):
        with pytest.raises(ValueError):
            spectral.branch_trace(l_range, 0.05)


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_rejected_before_shooting(self, tol):
        with pytest.raises(ValueError, match="tol"):
            spectral.ClampedEndDeterminant(4.0, 2, "even", tol=tol)
        with pytest.raises(ValueError, match="tol"):
            spectral.IntervalEigenProblem(4.0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            spectral.top_eigenvalue(4.0, tol=tol)


class TestShootingDeterminant:
    # branch traces shoot up to l = 13.5; the benchmark up to l = 8
    @pytest.mark.parametrize("l", [1.0, 4.0, 8.0, 13.5])
    def test_batched_matches_scalar_loop_on_scan_grid(self, l):
        det = spectral.ClampedEndDeterminant(l, 2, "even")
        c0 = spectral._mode_centers(l, "even", 1)[0]
        grid = np.linspace(0.3 * abs(c0) + 0.25, 1.6 * c0, 24)
        scalar = np.array([det(x) for x in grid])
        batched = det(grid)
        assert isinstance(det(grid[0]), float)
        assert batched.shape == grid.shape
        assert np.max(np.abs(batched - scalar)) <= 1e-12
        assert np.array_equal(np.sign(batched), np.sign(scalar))

    @pytest.fixture(scope="class")
    def pairs(self):
        # the scan grids at four half-widths, with the scalar calls they must match
        ls = np.repeat([1.0, 4.0, 8.0, 13.5], 24)
        lams = np.concatenate([next(spectral._scan_grids(l, "even", 1)) for l in ls[::24]])
        scalar = np.array([spectral.ClampedEndDeterminant(l, 2, "even")(lam)
                           for lam, l in zip(lams, ls)])
        return lams, ls, scalar

    @pytest.mark.parametrize("max_stack", [None, 10])
    def test_per_pair_half_widths_match_scalar_calls(self, pairs, max_stack, monkeypatch):
        if max_stack:  # more pairs than one stacked solve takes
            monkeypatch.setattr(spectral, "_MAX_STACK", max_stack)
        lams, ls, scalar = pairs
        order = np.random.default_rng(0).permutation(len(ls))
        det = spectral.ClampedEndDeterminant(2.0, 2, "even")  # its own l is not used
        per_pair = det(lams[order], ls[order])
        assert np.max(np.abs(per_pair - scalar[order])) <= 1e-12
        assert np.array_equal(np.sign(per_pair), np.sign(scalar[order]))
        one = det(lams[30], ls[30])
        assert isinstance(one, float) and abs(one - scalar[30]) <= 1e-12

    @pytest.mark.parametrize("l", [np.array([4.0]), np.array([4.0, -1.0]),
                                   np.array([4.0, np.nan]), 4.0])
    def test_rejects_bad_per_pair_half_widths(self, l):
        with pytest.raises(ValueError):
            spectral.ClampedEndDeterminant(4.0, 2, "even")(np.array([-0.1, -0.2]), l)

    def test_half_widths_with_zero_eigenvalue(self):
        zeros = spectral.ClampedEndDeterminant(13.5, 2, "even").zero_eigenvalue_half_widths()
        np.testing.assert_allclose(zeros, [4.0774, 7.2864, 10.0839, 12.6436], atol=1e-4)
        det_at_zero = [spectral.ClampedEndDeterminant(z, 2, "even")(0.0) for z in zeros]
        assert np.max(np.abs(det_at_zero)) < 1e-13

    @pytest.mark.parametrize("lam", [np.zeros((2, 2)), np.zeros(0)])
    def test_rejects_lambda_shapes(self, lam):
        with pytest.raises(ValueError):
            spectral.ClampedEndDeterminant(4.0, 2, "even")(lam)

    # a complex array used to lose its imaginary part with a ComplexWarning only
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [-0.1 + 0.01j, 1j, np.array([-0.1 + 0.01j, -0.2]),
                                     np.array([-0.1, -0.2], dtype=complex)])
    def test_rejects_non_real_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be real"):
            spectral.ClampedEndDeterminant(4.0, 2, "even")(lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, np.array([-0.1, math.nan])])
    def test_rejects_non_finite_lambda_before_integrating(self, lam, monkeypatch):
        def no_step(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(spectral, "_taylor_coefficients", no_step)
        with pytest.raises(ValueError, match="lambda"):
            spectral.ClampedEndDeterminant(4.0, 2, "even")(lam)

    # scan grids down to lambda = -4e5 (l = 0.5) and up to l = 13.5, the
    # longest branch trace
    @pytest.mark.parametrize("l", [0.5, 1.0, 4.0, 8.0, 13.5])
    def test_matches_tight_dop853_on_scan_grids(self, l):
        g0, g1, g2, u0, target = spectral._compound_setup(2, "even")
        lams = np.concatenate(list(spectral._scan_grids(l, "even", 3)))
        ref = []
        for lam in lams:
            sol = integrate.solve_ivp(lambda y, u: (g0 + y * g1 + lam * g2) @ u, (0.0, l), u0,
                                      method="DOP853", rtol=1e-13, atol=1e-15)
            ref.append(sol.y[target, -1] / np.linalg.norm(sol.y[:, -1]))
        det = spectral.ClampedEndDeterminant(l, 2, "even")
        assert np.max(np.abs(det(lams) - np.array(ref))) <= 1e-12

    # every parity at the half-widths of the shooting tests and branch traces
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("l", [1.0, 4.0, 8.0, 13.0])
    def test_eigenfunction_matches_tight_dop853(self, l, parity):
        pair = spectral.interval_spectrum(spectral.IntervalEigenProblem(l, parity=parity))[0]
        lam, ys = pair.lam.real, np.linspace(0.0, l, 401)
        a0, a1, a2 = spectral._companion_parts(2)
        z0 = np.zeros((4, 2))
        z0[spectral._parity_seed_indices(2, parity), [0, 1]] = 1.0
        sol = integrate.solve_ivp(lambda y, z: ((a0 + y * a1 + lam * a2) @ z.reshape(4, 2)).ravel(),
                                  (0.0, l), z0.ravel(), t_eval=ys, method="DOP853",
                                  rtol=1e-13, atol=1e-15)
        assert sol.success
        z = sol.y.reshape(4, 2, -1)
        half = np.linalg.svd(z[:2, :, -1])[2][-1] @ z[0]
        ref = np.concatenate([(1.0 if parity == "even" else -1.0) * half[::-1], half[1:]])
        ref /= ref[np.argmax(np.abs(ref))]
        assert np.max(np.abs(pair.values - ref)) <= 1e-10
        assert pair.residual < 1e-8
        assert pair.zero_count == spectral._count_zeros(ref)

    @pytest.mark.filterwarnings("error")
    def test_failed_shooting_raises_numerics_error(self):
        # eps = 1e-302 asks for steps of 3e-10, ten billion of them to reach l = 4
        det = spectral.ClampedEndDeterminant(4.0, 2, "even", tol=1e-300)
        for lam in (-0.1, np.array([-0.1, -0.2])):
            with pytest.raises(OdeError, match="too short") as info:
                det(lam)
            assert isinstance(info.value, NumericsError)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficients_raise_numerics_error(self):
        det = spectral.ClampedEndDeterminant(4.0, 2, "even")
        det._g0 = det._g0 * 1e300
        with pytest.raises(OdeError, match=r"lambda=\[-0.1\]: Taylor coefficient not finite"):
            det(-0.1)


class TestBranchTrace:
    def test_first_root_refined(self):
        br = spectral.branch_trace((3.9, 4.3), step=0.05)
        assert len(br.roots) == 1
        assert br.roots[0] == pytest.approx(4.0775, abs=3e-3)

    def test_second_root(self):
        br = spectral.branch_trace((7.0, 7.6), step=0.05)
        assert len(br.roots) == 1
        assert br.roots[0] == pytest.approx(7.25, abs=0.05)

    def test_branch_continuity(self):
        br = spectral.branch_trace((3.5, 5.0), step=0.05)
        lams = np.array([lam for _, lam in br.samples])
        assert np.max(np.abs(np.diff(lams))) < 0.05

    def test_root_bracketed_by_samples(self):
        br = spectral.branch_trace((3.9, 4.3), step=0.05)
        ls = np.array([l for l, _ in br.samples])
        lams = np.array([lam for _, lam in br.samples])
        root = br.roots[0]
        below = lams[ls < root][-1]
        above = lams[ls > root][0]
        assert below * above < 0

    @pytest.mark.parametrize("l_range,step", [((3.9, 4.3), 0.05), ((7.0, 7.6), 0.05),
                                              ((3.5, 5.0), 0.05), ((9.5, 10.5), 0.125),
                                              ((12.5, 13.5), 0.125)])
    def test_samples_match_top_eigenvalue(self, l_range, step):
        br = spectral.branch_trace(l_range, step)
        for l, lam in br.samples:
            assert abs(lam - spectral.top_eigenvalue(l)) <= 1e-12, l

    def test_first_sample_at_nine_and_a_half_needs_a_fallback_round(self):
        # lambda_0(9.5) ~ -0.0079 lies below the near-zero sweep, so the
        # (9.5, 10.5) trace above checks the batched fallback windows too
        det = spectral.ClampedEndDeterminant(9.5, 2, "even")
        vals = det(next(spectral._scan_grids(9.5, "even", 1)))
        assert not np.any(vals[:-1] * vals[1:] < 0)

    def test_top_eigenvalue_changes_sign_across_each_root(self):
        roots = [r for l_range in [(3.9, 4.3), (7.0, 7.6), (9.5, 10.5), (12.5, 13.5)]
                 for r in spectral.branch_trace(l_range, 0.125).roots]
        assert len(roots) == 4
        for r in roots:
            assert spectral.top_eigenvalue(r - 1e-6) * spectral.top_eigenvalue(r + 1e-6) < 0

    def test_range_without_roots(self):
        br = spectral.branch_trace((2.0, 3.5), 0.05)
        assert br.roots == ()
        assert all(lam < 0 for _, lam in br.samples)

    # the samples change sign on [4.05, 4.1] only
    @pytest.mark.parametrize("zeros", [[], [4.01, 4.2], [4.06, 4.09]])
    def test_sign_change_without_one_zero_is_an_error(self, zeros, monkeypatch):
        monkeypatch.setattr(spectral.ClampedEndDeterminant, "zero_eigenvalue_half_widths",
                            lambda self: np.array(zeros))
        with pytest.raises(RootConvergenceError):
            spectral.branch_trace((3.9, 4.3), 0.05)

    def test_find_root_on_branch_window(self):
        lam = find_root(lambda l: spectral.top_eigenvalue(float(l)), (4.0, 4.2), tol=1e-4)
        assert lam == pytest.approx(4.08, abs=0.02)


class TestBoundaryLayerApprox:
    def test_profile_boundary_conditions(self):
        for l in (8.0, 10.0, 13.0):
            ap = spectral.bl_eigenvalue_approx(l)
            big_l = l ** (4.0 / 3.0)
            assert ap.v(0.0) == pytest.approx(1.0, abs=1e-8)
            assert abs(ap.v(big_l)) < 1e-8
            assert abs(ap.v_deriv(big_l, 1)) < 1e-8

    def test_rates(self):
        ap = spectral.bl_eigenvalue_approx(9.0)
        kc = kernels.kernel_constants(kernels.biharmonic())
        b = 2.0 ** (-5.0 / 3.0)
        assert ap.d_hat == pytest.approx(kc.d0 + b)
        assert ap.b_hat == pytest.approx(0.5 * (kc.b0 + math.sqrt(3.0) * b))

    def test_matched_estimate_oscillates_with_predicted_period(self):
        # sign changes of the matched estimate are spaced like half a
        # period of the kernel oscillation in the l^(4/3) variable
        kc = kernels.kernel_constants(kernels.biharmonic())
        ls = np.arange(8.0, 14.01, 0.0625)
        vals = [spectral.bl_eigenvalue_approx(float(l)).lam0_matched for l in ls]
        flips = [0.5 * (ls[i] + ls[i + 1]) for i in range(len(ls) - 1)
                 if vals[i] * vals[i + 1] < 0]
        assert len(flips) >= 2
        spacing = np.diff([f ** (4.0 / 3.0) for f in flips])
        assert np.allclose(spacing, math.pi / kc.b0, rtol=0.25)

    def test_matched_sign_changes_near_branch_roots(self):
        # branch roots beyond the second live near 10.2 and 12.8; the
        # matched layer estimate localizes both
        ls = np.arange(9.0, 13.51, 0.125)
        vals = [spectral.bl_eigenvalue_approx(float(l)).lam0_matched for l in ls]
        flips = [0.5 * (ls[i] + ls[i + 1]) for i in range(len(ls) - 1)
                 if vals[i] * vals[i + 1] < 0]
        br = spectral.branch_trace((9.8, 10.6), step=0.1)
        l3 = br.roots[0]
        br = spectral.branch_trace((12.4, 13.2), step=0.1)
        l4 = br.roots[0]
        assert min(abs(f - l3) for f in flips) <= 0.5
        assert min(abs(f - l4) for f in flips) <= 0.5

    def test_requires_asymptotic_regime(self):
        with pytest.raises(ValueError):
            spectral.bl_eigenvalue_approx(5.0)

    @pytest.mark.parametrize("l", [8.0, 9.3, 12.0])
    def test_matched_estimate_is_the_layer_flux(self, l):
        flux = blayer.wall_flux(*blayer.wall_constants(blayer.biharmonic_profile()))
        assert spectral.bl_eigenvalue_approx(l).lam0_matched == flux(l)


class TestHeatInterval:
    def test_second_order_problem_solves(self):
        prob = spectral.IntervalEigenProblem(1.0, family=kernels.heat(),
                                             method="collocation", grid_size=64)
        pair = spectral.interval_spectrum(prob, 1)[0]
        assert pair.lam.real < 0.0
        assert abs(pair.lam.imag) < 1e-9
