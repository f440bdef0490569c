import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from reglab import numcore as nc


class TestGaussLegendreWindows:
    def test_smooth_windows(self):
        # exp over dyadic windows: exact to rounding, one array call
        calls = []

        def f(u):
            calls.append(u.size)
            return np.exp(-u)

        edges = np.array([1.0, 2.0, 4.0, 8.0])
        sums = nc.gauss_legendre_windows(f, edges)
        np.testing.assert_allclose(sums, np.exp(-edges[:-1]) - np.exp(-edges[1:]),
                                   rtol=1e-14)
        assert len(calls) == 1

    def test_kink_is_refined_or_split(self):
        # |u - 1.1| has a kink inside the panel [1.0, 1.25]: without the
        # breakpoint the panels around it are halved until the orders agree
        calls = []

        def f(u):
            calls.append(u.size)
            return np.abs(u - 1.1)

        exact = 0.5 * (0.1**2 + 0.9**2)
        (val,) = nc.gauss_legendre_windows(f, [1.0, 2.0])
        assert val == pytest.approx(exact, rel=1e-12)
        assert len(calls) > 1
        calls.clear()
        (val,) = nc.gauss_legendre_windows(f, [1.0, 2.0], [1.1])
        assert val == pytest.approx(exact, rel=1e-14)
        assert len(calls) == 1

    def test_jump_raises(self):
        f = lambda u: np.where(u < 1.1, 1.0, 2.0)
        with pytest.raises(nc.QuadratureError, match=r"order doubling moves window \[1, 2\]"):
            nc.gauss_legendre_windows(f, [1.0, 2.0])
        (val,) = nc.gauss_legendre_windows(f, [1.0, 2.0], [1.1])
        assert val == pytest.approx(1.9, rel=1e-14)

    def test_unresolvable_oscillation_raises(self):
        # ~1.6e11 periods: the panel budget runs out long before agreement
        with pytest.raises(nc.QuadratureError, match="order doubling"):
            nc.gauss_legendre_windows(lambda u: np.cos(1e12 * u), [1.0, 2.0])

    def test_bounded_calls_and_sums_independent_of_chunking(self, monkeypatch):
        # 800 panels: f sees bounded blocks of nodes, and each panel's sums
        # are row-wise, so the window sums do not depend on how panels are blocked
        calls = []

        def f(u):
            calls.append(u.size)
            return np.cos(3.0 * u) * np.exp(-0.01 * u)

        edges = np.linspace(0.0, 200.0, 9)
        sums = nc.gauss_legendre_windows(f, edges)
        assert len(calls) > 1 and max(calls) <= nc._CHUNK * 72
        monkeypatch.setattr(nc, "_CHUNK", 7)
        assert np.array_equal(nc.gauss_legendre_windows(f, edges), sums)
        exact = [(np.exp(-0.01 * u) * (0.01 * -np.cos(3.0 * u) + 3.0 * np.sin(3.0 * u))
                  / (0.01**2 + 9.0)) for u in edges]
        np.testing.assert_allclose(sums, np.diff(exact), rtol=1e-12, atol=1e-14)

    def test_non_finite_sum_raises(self):
        with pytest.raises(nc.QuadratureError, match="not finite"):
            nc.gauss_legendre_windows(lambda u: np.where(u > 1.5, np.nan, u), [1.0, 2.0])


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

    # the cubic problems of TestFindRoots: x^3 - target on each bracket
    CUBICS = [(0.5, 0.0, 1.0), (2.0, 1.0, 2.0), (7.0, 1.0, 2.5), (30.0, 2.0, 4.0),
              (-3.0, -2.0, 0.0)]

    @pytest.mark.parametrize("target, lo, hi", CUBICS)
    def test_is_the_one_bracket_find_roots(self, target, lo, hi):
        root = nc.find_root(lambda x: x**3 - target, (lo, hi), tol=1e-13)
        many = nc.find_roots(lambda x, idx: x**3 - target, [lo], [hi],
                             ([lo**3 - target], [hi**3 - target]), tol=1e-13)
        assert type(root) is float and root == many[0]  # bit for bit

    @pytest.mark.parametrize("target, lo, hi", CUBICS)
    def test_within_tol_of_brent(self, target, lo, hi):
        f = lambda x: x**3 - target
        for tol in (1e-8, 1e-13):
            ref = brentq(f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps)
            assert abs(nc.find_root(f, (lo, hi), tol=tol) - ref) <= tol + 4 * math.ulp(ref)

    def test_nan_inside_the_bracket_is_a_convergence_error(self):
        with pytest.raises(nc.RootConvergenceError, match="non-finite value"):
            nc.find_root(lambda x: math.nan if 1.2 < x < 1.8 else x - 1.5, (1.0, 2.0))

    @pytest.mark.parametrize("bracket", [(math.nan, 2.0), (0.0, math.inf), (-math.inf, 2.0)])
    def test_non_finite_end_is_a_bracket_error(self, bracket):
        # a nan end used to pass the sign test, and a nan root came back
        with pytest.raises(nc.BracketError, match="not finite"):
            nc.find_root(lambda x: x - 1.0, bracket)

    def test_non_finite_end_value_is_a_bracket_error(self):
        f, calls = self.counting(lambda x: x - 1.0)
        with pytest.raises(nc.BracketError, match=r"not finite on \[0.0, 2.0\]"):
            nc.find_root(f, (0.0, 2.0), f_ends=(math.nan, 1.0))
        assert calls == []


class TestFindRoots:
    @staticmethod
    def problems(targets):
        # problem i: x^3 - targets[i] on its bracket; records every call
        calls = []

        def f(x, idx):
            calls.append((x.copy(), idx.copy()))
            return x**3 - targets[idx]

        return f, calls

    def test_matches_brentq_per_problem(self):
        targets = np.array([0.5, 2.0, 7.0, 30.0, -3.0])
        lo, hi = np.array([0.0, 1.0, 1.0, 2.0, -2.0]), np.array([1.0, 2.0, 2.5, 4.0, 0.0])
        f, calls = self.problems(targets)
        roots = nc.find_roots(f, lo, hi, (lo**3 - targets, hi**3 - targets), tol=1e-13)
        ref = [brentq(lambda x, t=t: x**3 - t, a, b, xtol=1e-14) for t, a, b in
               zip(targets, lo, hi)]
        np.testing.assert_allclose(roots, ref, rtol=0.0, atol=2e-13)
        assert len(calls) < 20  # superlinear: far fewer rounds than bisection's 45

    def test_each_round_evaluates_only_open_brackets(self):
        targets = np.array([1.0, 8.0])
        lo, hi = np.array([0.0, 1.5]), np.array([1.0, 3.0])  # the first is solved by its end
        f, calls = self.problems(targets)
        roots = nc.find_roots(f, lo, hi, (lo**3 - targets, hi**3 - targets))
        assert roots[0] == 1.0 and roots[1] == pytest.approx(2.0, abs=1e-12)
        assert calls and all(list(idx) == [1] for _, idx in calls)
        assert all(not np.isin(x, [1.5, 3.0]).any() for x, _ in calls)

    def test_no_sign_change_is_a_bracket_error(self):
        f, calls = self.problems(np.array([1.0, 1.0]))
        with pytest.raises(nc.BracketError):
            nc.find_roots(f, [0.0, 2.0], [2.0, 3.0], ([-1.0, 7.0], [7.0, 26.0]))
        assert calls == []

    def test_round_limit_is_a_convergence_error(self):
        f, _ = self.problems(np.array([2.0]))
        with pytest.raises(nc.RootConvergenceError):
            nc.find_roots(f, [1.0], [2.0], ([-1.0], [6.0]), tol=1e-15, maxiter=3)

    @pytest.mark.parametrize("lo, hi, f_ends", [
        ([math.nan], [2.0], ([-1.0], [1.0])),  # returned 2.0
        ([0.0], [math.inf], ([-1.0], [1.0])),
        ([0.0], [2.0], ([-1.0], [math.nan])),
        ([0.0, 0.0], [2.0, 2.0], ([-1.0, -math.inf], [1.0, 1.0])),
    ])
    def test_non_finite_bracket_is_a_bracket_error(self, lo, hi, f_ends):
        f, calls = self.problems(np.array([1.0, 1.0]))
        with pytest.raises(nc.BracketError, match="not finite"):
            nc.find_roots(f, lo, hi, f_ends)
        assert calls == []

    def test_non_finite_value_is_a_convergence_error(self):
        with pytest.raises(nc.RootConvergenceError):
            nc.find_roots(lambda x, idx: np.full(x.shape, np.nan), [1.0], [2.0], ([-1.0], [1.0]))


class TestRangeSamples:
    # the ranges of the benchmark, the acceptance gate, `reproduce branch-roots`
    # and the CI sweeps, whose arange samples all lie inside them
    @pytest.mark.parametrize("lo,hi,step", [
        (3.9, 4.3, 0.05), (7.0, 7.5, 0.05), (7.0, 7.6, 0.05), (9.5, 10.5, 0.125),
        (12.5, 13.5, 0.125), (0.5, 14.0, 0.5), (9.8, 13.2, 0.1), (0.0, 40.0, 1.0),
        (-400.0, 400.0, 0.25)])
    def test_samples_inside_the_range_keep_their_bits(self, lo, hi, step):
        xs = np.arange(lo, hi + 0.5 * step, step)
        assert xs.tobytes() == nc.range_samples(lo, hi, step).tobytes()

    @pytest.mark.parametrize("lo,hi,step,want", [
        (7.0, 7.28, 0.3, [7.0, 7.28]),  # arange's 7.3 is past the end
        (0.0, 1.1, 0.4, [0.0, 0.4, 0.8, 1.1]),  # and its 1.2
        (4.0, 4.3, 1.0, [4.0, 4.3]),  # the end is more than a step from 4.0
        (1.0, 1.0, 0.5, [1.0]),
    ])
    def test_never_past_the_end_and_the_end_read(self, lo, hi, step, want):
        xs = nc.range_samples(lo, hi, step)
        assert xs.tolist() == pytest.approx(want, abs=1e-15) and xs[-1] == hi
        assert np.all(np.diff(xs) > 0) and xs.max() <= hi

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(0.0, 20.0), st.floats(1e-3, 5.0))
    def test_property(self, lo, width, step):
        hi = lo + width
        xs = nc.range_samples(lo, hi, step)
        assert xs[0] == lo and xs.max() <= hi and np.all(np.diff(xs) > 0)
        assert hi - xs[-1] <= 1e-9 * step


class TestUltrasphericalOperators:
    """Each operator against numpy's Chebyshev series arithmetic."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_diff_is_the_converted_derivative(self, order):
        # D_k c, in C^(k), equals the T coefficients of the k-th derivative
        # converted up by S_(k-1)...S_0; chebder's recurrence cancels about
        # 1e-11 of the largest value at order 6
        n = 24
        c = np.random.default_rng(order).standard_normal(n)
        der = np.zeros(n)
        der[:n - order] = np.polynomial.chebyshev.chebder(c, order)
        diff = nc.ultraspherical_diff(order, n) @ c
        converted = nc.ultraspherical_conversion(0, order, n) @ der
        assert np.max(np.abs(diff - converted)) <= 1e-10 * np.max(np.abs(diff))

    def test_end_rows_are_derivatives_at_the_ends(self):
        n, count = 20, 5
        plus, minus = nc.chebyshev_end_rows(n, count)
        for k in range(n):
            t = np.eye(n)[k]
            for j in range(count):
                ends = np.polynomial.chebyshev.chebval([1.0, -1.0],
                                                       np.polynomial.chebyshev.chebder(t, j))
                assert (plus[j, k], minus[j, k]) == pytest.approx(tuple(ends), rel=1e-13)


class TestDenseEigenvalues:
    def test_clamped_plate_smallest_eigenvalue(self):
        # beam frequency oracle: smallest eigenvalue of D^4 on [-1,1] clamped
        # is mu^4 with cosh(2 mu) cos(2 mu) = 1
        from reglab.spectral import poincare_lambda

        mu = brentq(lambda x: math.cosh(x) * math.cos(x) - 1.0, 4.0, 5.0, xtol=1e-13) / 2.0
        assert poincare_lambda(1.0) == pytest.approx(mu**4, abs=5e-4)
        assert mu == pytest.approx(2.3650, abs=2e-4)


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
