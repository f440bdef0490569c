import math

import numpy as np
import pytest

from reglab import kernels, spectral
from reglab.numcore import NumericsError, OdeError, find_root


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

    @pytest.mark.parametrize("l_range", [(-1.0, 2.0), (0.0, 2.0), (math.nan, 2.0),
                                         (1.0, math.inf), (1.0, math.nan)])
    def test_branch_trace_rejects_range(self, l_range):
        with pytest.raises(ValueError):
            spectral.branch_trace(l_range, 0.05)


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

    @pytest.mark.parametrize("lam", [np.zeros((2, 2)), np.zeros(0)])
    def test_rejects_lambda_shapes(self, lam):
        with pytest.raises(ValueError):
            spectral.ClampedEndDeterminant(4.0, 2, "even")(lam)

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_shooting_raises_numerics_error(self):
        # atol = 1e-302 cannot be met: the step size underflows at y = 0
        det = spectral.ClampedEndDeterminant(4.0, 2, "even", tol=1e-300)
        for lam in (-0.1, np.array([-0.1, -0.2])):
            with pytest.raises(OdeError) as info:
                det(lam)
            assert isinstance(info.value, NumericsError)


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


class TestHeatInterval:
    def test_second_order_problem_solves(self):
        prob = spectral.IntervalEigenProblem(1.0, family=kernels.heat(),
                                             method="collocation", grid_size=64)
        pair = spectral.interval_spectrum(prob, 1)[0]
        assert pair.lam.real < 0.0
        assert abs(pair.lam.imag) < 1e-9
