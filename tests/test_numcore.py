import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from reglab import numcore as nc


class TestAdaptiveQuadrature:
    def test_constant_integrand(self):
        assert nc.adaptive_quadrature(lambda x: 1.0, 0.0, 1.0, 1e-12) == pytest.approx(1.0)

    def test_gaussian_quartic_tail(self):
        # int_0^inf exp(-s^4) ds = Gamma(5/4), the known special value
        val = nc.adaptive_quadrature(lambda s: math.exp(-s**4), 0.0, math.inf, 1e-10,
                                     envelope=lambda s: math.exp(-s**4))
        assert val == pytest.approx(math.gamma(1.25), abs=1e-10)

    def test_full_period_cosine(self):
        val = nc.adaptive_quadrature(math.cos, 0.0, 2.0 * math.pi, 1e-12)
        assert abs(val) < 1e-12

    def test_linearity(self):
        f = lambda x: math.sin(3 * x)
        g = lambda x: math.exp(-x)
        tol = 1e-10
        q = lambda h: nc.adaptive_quadrature(h, 0.0, 2.0, tol)
        combo = q(lambda x: 2.0 * f(x) - 0.5 * g(x))
        assert combo == pytest.approx(2.0 * q(f) - 0.5 * q(g), abs=2 * tol)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            nc.adaptive_quadrature(lambda x: x, 0.0, 1.0, -1.0)


class TestOscillatoryQuadrature:
    def test_slowly_decaying_alternating_tail(self):
        # int_1^inf sin(pi x)/x dx = pi/2 - Si(pi), conditionally convergent
        from scipy.special import sici

        f = lambda x: math.sin(math.pi * x) / x
        pts = [1.0 + k for k in range(80)]
        val = nc.oscillatory_quadrature(f, pts, 1e-10)
        ref = math.pi / 2 - sici(math.pi)[0]
        assert val == pytest.approx(ref, abs=1e-6)


class TestIntegrateOde:
    def test_exponential(self):
        tr = nc.integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), 1e-10)
        assert tr.final_state()[0] == pytest.approx(math.e, abs=1e-8)

    def test_sine(self):
        tr = nc.integrate_ode(lambda t, y: [y[1], -y[0]], [0.0, 1.0], (0.0, math.pi), 1e-10)
        assert abs(tr.final_state()[0]) < 1e-9

    def test_fourth_order_layer_equation_against_modes(self):
        # V'''' = -(1/4) V' with V(0)=0, V'(0)=0, V''(0)=1, V'''(0)=0.
        # Closed form: expand in the characteristic modes r^4 = -r/4
        roots = [0.0] + list(np.roots([1.0, 0.0, 0.0, 0.25]))
        vander = np.array([[r**k for r in roots] for k in range(4)], dtype=complex)
        coef = np.linalg.solve(vander, [0.0, 0.0, 1.0, 0.0])

        def exact(x):
            return float(np.real(sum(c * np.exp(r * x) for c, r in zip(coef, roots))))

        tol = 1e-10
        rhs = lambda t, y: [y[1], y[2], y[3], -0.25 * y[1]]
        tr = nc.integrate_ode(rhs, [0.0, 0.0, 1.0, 0.0], (0.0, 5.0), tol)
        assert tr.final_state()[0] == pytest.approx(exact(5.0), abs=10 * tol)

    def test_order_from_step_halving(self):
        # fixed-step order check on the sine problem: halving the step cap
        # must cut the error at least fourfold (the embedded pair is high order)
        def err(h):
            tr = nc.integrate_ode(lambda t, y: [y[1], -y[0]], [0.0, 1.0],
                                  (0.0, math.pi), 1e-3, max_step=h)
            return abs(tr.final_state()[0])

        assert err(math.pi / 8) / max(err(math.pi / 16), 1e-300) > 4.0

    def test_abscissae_increasing(self):
        tr = nc.integrate_ode(lambda t, y: -y, [1.0], (0.0, 3.0), 1e-8)
        assert np.all(np.diff(tr.abscissae) > 0)
        assert np.all(np.isfinite(tr.states))


class TestFindRoot:
    def test_sqrt_two(self):
        assert nc.find_root(lambda x: x * x - 2.0, (1.0, 2.0)) == pytest.approx(math.sqrt(2.0))

    def test_half_pi(self):
        assert nc.find_root(math.cos, (1.0, 2.0)) == pytest.approx(math.pi / 2)

    def test_no_sign_change_is_distinct_error(self):
        with pytest.raises(nc.BracketError):
            nc.find_root(lambda x: x * x + 1.0, (0.0, 1.0))

    @staticmethod
    def counting(f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        return counted, calls

    def test_known_ends_never_evaluated(self):
        f, calls = self.counting(lambda x: x * x - 2.0)
        root = nc.find_root(f, (1.0, 2.0), f_ends=(-1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0))
        assert calls and 1.0 not in calls and 2.0 not in calls

    def test_ends_evaluated_once_without_known_values(self):
        f, calls = self.counting(lambda x: x * x - 2.0)
        nc.find_root(f, (1.0, 2.0))
        assert calls.count(1.0) == 1 and calls.count(2.0) == 1

    def test_known_ends_without_sign_change(self):
        f, calls = self.counting(lambda x: x * x + 1.0)
        with pytest.raises(nc.BracketError):
            nc.find_root(f, (0.0, 1.0), f_ends=(1.0, 2.0))
        assert calls == []


class TestDenseEigenvalues:
    def test_identity(self):
        vals = nc.dense_eigenvalues(np.eye(3))
        assert np.allclose(vals, 1.0)

    def test_rotation_pair(self):
        vals = nc.dense_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert sorted(np.round(v.imag, 12) for v in vals) == [-1.0, 1.0]
        assert np.allclose([v.real for v in vals], 0.0)

    def test_descending_real_order(self):
        vals = nc.dense_eigenvalues(np.diag([1.0, 5.0, -3.0]))
        assert [v.real for v in vals] == sorted([v.real for v in vals], reverse=True)

    def test_symmetric_matrix_real_spectrum(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        sym = 0.5 * (a + a.T)
        vals = nc.dense_eigenvalues(sym)
        assert max(abs(v.imag) for v in vals) < 1e-10

    def test_clamped_plate_smallest_eigenvalue(self):
        # beam frequency oracle: smallest eigenvalue of D^4 on [-1,1] clamped
        # is mu^4 with cosh(2 mu) cos(2 mu) = 1
        from reglab.spectral import poincare_lambda

        mu = brentq(lambda x: math.cosh(x) * math.cos(x) - 1.0, 4.0, 5.0, xtol=1e-13) / 2.0
        assert poincare_lambda(1.0) == pytest.approx(mu**4, abs=5e-4)
        assert mu == pytest.approx(2.3650, abs=2e-4)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            nc.dense_eigenvalues(np.ones((2, 3)))

    def test_accepts_wrapper_type(self):
        vals = nc.dense_eigenvalues(nc.DenseMatrix(np.diag([2.0, 1.0])))
        assert vals[0].real == pytest.approx(2.0)
        with pytest.raises(ValueError):
            nc.DenseMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestPolynomial:
    def test_exact_derivative_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                      for _ in range(int(rng.integers(1, 9)))]
            p = nc.Polynomial(coeffs)
            y = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
            h = Fraction(1, 10**6)
            dp = p.derivative()
            # differentiate-then-evaluate equals the exact coefficient rule
            manual = sum(k * c * y ** (k - 1) for k, c in enumerate(p.coeffs) if k)
            assert dp(y) == manual

    def test_arithmetic_exactness(self):
        p = nc.Polynomial([Fraction(1, 3), 2, Fraction(-7, 5)])
        q = nc.Polynomial([1, 0, 0, Fraction(2, 9)])
        s = p * q + p
        y = Fraction(13, 7)
        assert s(y) == p(y) * q(y) + p(y)

    def test_zero_and_degree(self):
        z = nc.Polynomial([0])
        assert z.is_zero() and z.degree == 0
        p = nc.Polynomial([1, 0, 0, 5])
        assert p.degree == 3
        assert p.derivative(4).is_zero()

    def test_float_evaluation(self):
        p = nc.Polynomial([1, 2, 1])
        assert p(2.0) == pytest.approx(9.0)
        assert np.allclose(p(np.array([0.0, 1.0])), [1.0, 4.0])

    def test_monomial_shift(self):
        p = nc.Polynomial([1, 1]).shift_degree(2)
        assert p.coeffs == (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
