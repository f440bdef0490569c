import functools
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab import kernels as K
from reglab.numcore import Polynomial, QuadratureError


class TestKernelConstants:
    def test_fourth_order_closed_forms(self):
        kc = K.kernel_constants(K.parabolic(2))
        assert kc.alpha == pytest.approx(4.0 / 3.0)
        assert kc.d0 == pytest.approx(3.0 * 2.0 ** (-11.0 / 3.0), rel=1e-15)
        assert kc.b0 == pytest.approx(3.0**1.5 * 2.0 ** (-11.0 / 3.0), rel=1e-15)
        assert kc.delta0 == pytest.approx(1.0 / 3.0)
        assert kc.d0 == pytest.approx(0.23623, abs=1e-5)
        assert kc.b0 == pytest.approx(0.40918, abs=1e-5)

    def test_heat_limit(self):
        kc = K.kernel_constants(K.heat())
        assert (kc.alpha, kc.d0, kc.b0, kc.delta0) == (2.0, 0.25, 0.0, 0.0)

    def test_dispersion_decay(self):
        kc = K.kernel_constants(K.dispersion3())
        assert kc.alpha == 1.5
        assert kc.d0 == pytest.approx(2.0 * math.sqrt(3.0) / 9.0, rel=1e-15)
        assert kc.d0 == pytest.approx(0.38490, abs=5e-6)

    def test_critical_constant_identity(self):
        # d0(m=2)^(-3/4) equals 3^(-3/4) 2^(11/4) exactly in closed form
        kc = K.kernel_constants(K.parabolic(2))
        assert kc.d0 ** (-0.75) == pytest.approx(3.0 ** (-0.75) * 2.0**2.75, rel=1e-14)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, False, 0, -1, None, "2", math.nan])
    def test_parabolic_order_must_be_an_integer_at_least_one(self, m):
        # parabolic(2.5) used to evaluate a kernel of an order-5 equation, and
        # parabolic(True) to pass for the heat equation
        with pytest.raises(ValueError, match="integer order"):
            K.parabolic(m)

    def test_integer_orders_still_build(self):
        assert K.parabolic(np.int64(3)) == K.parabolic(3)
        assert K.heat().m == 1 and K.biharmonic().m == 2


class TestKernelEvaluation:
    @pytest.mark.parametrize("family", [K.heat(), K.biharmonic(), K.dispersion3(), K.beam4()],
                             ids=str)
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, family, tol):
        # eval_kernel(biharmonic(), 20.0, tol=nan) used to return -3.45e-7
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            K.eval_kernel(family, 20.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            K.eval_kernel(family, 20.0, tol=tol, order=1)

    def test_heat_value_at_origin(self):
        assert K.eval_kernel(K.heat(), 0.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)),
                                                             abs=1e-12)

    def test_heat_matches_gaussian(self):
        ys = np.linspace(-4.0, 4.0, 33)
        gauss = np.exp(-ys**2 / 4.0) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(K.eval_kernel(K.heat(), ys) - gauss)) < 1e-12

    def test_fourth_order_value_at_origin(self):
        # alpha0 = 1/pi from Fourier inversion times Gamma(5/4)
        assert K.eval_kernel(K.parabolic(2), 0.0) == pytest.approx(
            math.gamma(1.25) / math.pi, abs=1e-12)

    def test_unit_mass(self):
        from scipy.integrate import quad

        val, _ = quad(lambda y: K.eval_kernel(K.parabolic(2), float(y), 1e-12),
                      0.0, 30.0, limit=300)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-8)

    def test_evenness(self):
        ys = np.array([0.3, 1.7, 4.4, 9.1])
        tol = 1e-10
        left = K.eval_kernel(K.parabolic(2), -ys, tol)
        right = K.eval_kernel(K.parabolic(2), ys, tol)
        assert np.max(np.abs(left - right)) <= 2 * tol

    def test_dispersion_is_normalized_airy(self):
        # independent route: integrate F'' = -(y/3) F from the decayed left
        # tail and compare shapes through the normalization of the peak
        from scipy.integrate import solve_ivp
        from scipy.special import airy

        f = lambda y: K.eval_kernel(K.dispersion3(), y)
        y0 = -8.0
        scale = 3.0 ** (-1.0 / 3.0)
        a0, a0p = airy(-scale * y0)[0] * scale, -airy(-scale * y0)[1] * scale**2
        sol = solve_ivp(lambda y, z: [z[1], -(y / 3.0) * z[0]], (y0, 4.0), [a0, a0p],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for y in (-3.0, 0.0, 2.5):
            assert sol.sol(y)[0] == pytest.approx(f(y), abs=1e-7)

    def test_dispersion_unit_mass(self):
        # the kernel by quadrature on [-14, 20]; the right tail, which decays
        # like y^(-3/4) only, from the Airy integral: with x = s y it is
        # int_(20 s)^inf Ai(-x) dx = 2/3 - int_0^(20 s) Ai(-x) dx (DLMF §9.10)
        from scipy.integrate import quad
        from scipy.special import itairy

        body, _ = quad(lambda y: K.eval_kernel(K.dispersion3(), float(y)), -14.0, 20.0,
                       epsabs=1e-12, epsrel=1e-12, limit=400)
        tail = 2.0 / 3.0 - itairy(20.0 * 3.0 ** (-1.0 / 3.0))[2]
        assert body + tail == pytest.approx(1.0, abs=1e-8)

    def test_beam_value_at_origin(self):
        # Fresnel-type closed value: F(0) = 1/sqrt(2 pi)
        assert K.eval_kernel(K.beam4(), 0.0, 1e-9) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-8)

    def test_beam_matches_its_taylor_integral(self):
        # independent route: F(0) = 1/sqrt(2 pi), F'(0) = 0 and
        # F''(s) = -(cos(s^2/4) - sin(s^2/4)) / (2 sqrt(2 pi)), so
        # F(y) = F(0) + int_0^|y| (|y| - s) F''(s) ds, by quad on the arcs
        # between the zeros s = sqrt(pi (4k + 1)) of F''; the grid crosses the
        # seam at |y| = 12 between the Fresnel form and the far series
        from scipy.integrate import quad

        root = math.sqrt(2.0 * math.pi)
        f2 = lambda s: -(math.cos(0.25 * s * s) - math.sin(0.25 * s * s)) / (2.0 * root)
        zeros = np.sqrt(math.pi * (4.0 * np.arange(130) + 1.0))
        ys = np.linspace(-7.0, 40.0, 48)
        vals = K.eval_kernel(K.beam4(), ys)
        for y, v in zip(ys, vals):
            ay = abs(float(y))
            edges = [0.0, *zeros[zeros < ay], ay]
            ref = 1.0 / root + math.fsum(quad(lambda s: (ay - s) * f2(s), a, b, epsabs=0.0)[0]
                                         for a, b in zip(edges[:-1], edges[1:]))
            assert v == pytest.approx(ref, rel=0.0, abs=1e-12)
            assert K.eval_kernel(K.beam4(), float(y)) == v

    @pytest.mark.parametrize("y", [100.0, 1e3, 1e4])
    def test_beam_far_remainder_is_order_y_to_the_minus_four(self, y):
        # F = sqrt(2/pi) (cos(y^2/4) - sin(y^2/4)) / y^2 + O(y^-4); the next
        # term of the Fresnel series has amplitude 12/sqrt(pi) = 6.77
        far = math.sqrt(2.0 / math.pi) * (math.cos(0.25 * y * y) - math.sin(0.25 * y * y)) / y**2
        assert abs(y**4 * (K.eval_kernel(K.beam4(), y) - far)) <= 7.0


# Mirrored and repeated arguments.  Every point takes its own route, so the
# split is for coverage only: for m >= 2, |y| <= 7.5 takes the certified
# Chebyshev table and |y| >= 12.5 the saddle-line quadrature (m = 1 is
# closed form throughout).  Mixed batches are the property test below.
# Far values run from 1e-20 down to 1e-300, so every comparison is exact: a
# scalar read takes the route and the route function of its element of an
# array read, and must give its value bit for bit.
_NEAR = np.array([0.0, 0.0, 0.5, -0.5, 1.25, -1.25, 1.25, 3.0, -3.0, -3.0, 7.5, -7.5])
_FAR = np.array([12.5, -12.5, 20.0, -20.0, 20.0])


def _seams():
    """The arguments where a read changes route, and their neighbours: every
    panel joint, and |y| = 12 and the floats either side."""
    joints = np.arange(-48, 49) * 0.25
    edge = np.array([12.0, np.nextafter(12.0, 0.0), np.nextafter(12.0, 13.0)])
    return np.concatenate([joints, edge, -edge])


class TestArrayCallsMatchScalarCalls:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("ys", [_NEAR, _FAR], ids=["near", "far"])
    def test_value_and_derivative(self, m, ys):
        fam = K.parabolic(m)
        for order in (0, 1):
            vector = K.eval_kernel(fam, ys, order=order)
            scalars = np.array([K.eval_kernel(fam, float(y), order=order) for y in ys])
            np.testing.assert_array_equal(vector, scalars)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("ys", [_NEAR, _FAR], ids=["near", "far"])
    def test_deriv_orders(self, m, order, ys):
        kern = K.get_kernel(K.parabolic(m))
        vector = kern.deriv(ys, order)
        scalars = np.array([kern.deriv(float(y), order) for y in ys])
        np.testing.assert_array_equal(vector, scalars)
        # a repeated argument gets one value
        for y in np.unique(ys):
            assert np.unique(vector[ys == y]).size == 1

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_route_seams(self, m, order, tol):
        kern = K.get_kernel(K.parabolic(m))
        ys = _seams()
        vector = kern.deriv(ys, order, tol)
        scalars = np.array([kern.deriv(float(y), order, tol) for y in ys])
        np.testing.assert_array_equal(vector, scalars)
        assert np.array_equal(np.signbit(vector), np.signbit(scalars))

    @pytest.mark.parametrize("m", [2, 3])
    def test_fill_order_does_not_matter(self, m):
        # a fresh evaluator whose first reads are scalars fills its tables from
        # the scalar lane; the shared evaluator has filled them from array reads
        fresh, shared = K._ParabolicKernel(m), K.get_kernel(K.parabolic(m))
        ys = np.concatenate([_NEAR, _FAR, [40.0, -40.0]])
        for order in range(4):
            scalars = np.array([fresh.deriv(float(y), order) for y in ys])
            np.testing.assert_array_equal(scalars, shared.deriv(ys, order))
        assert fresh.switch_point() == shared.switch_point()


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), order=st.integers(0, 3),
       ys=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=6))
@example(m=1, order=0, ys=[11.9, 20.0])
@example(m=2, order=1, ys=[11.9, -20.0])
@example(m=3, order=0, ys=[-11.9, 26.0])
def test_each_point_is_independent_of_its_batch(m, order, ys):
    fam = K.parabolic(m)
    kern = K.get_kernel(fam)
    fns = [lambda y: kern.deriv(y, order), lambda y: K.eval_kernel(fam, y, order=order)]
    ys = np.array(ys)
    for fn in fns:
        scalars = np.array([fn(float(y)) for y in ys])
        np.testing.assert_array_equal(fn(ys), scalars)


# every panel joint of the table on [-12, 12] and a dense grid between them
_TABLE_GRID = np.unique(np.concatenate([np.arange(-48, 49) * 0.25, np.linspace(-12.0, 12.0, 2401)]))


class TestKernelTable:
    """For m >= 2, points with |y| <= 12 come from a piecewise-Chebyshev table."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_table_matches_quadrature(self, m, order):
        kern = K.get_kernel(K.parabolic(m))
        err = np.abs(kern.deriv(_TABLE_GRID, order) - kern._quad(_TABLE_GRID, 1e-13, order))
        assert err.max() <= 1e-14

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_exact_parity(self, m, order):
        kern = K.get_kernel(K.parabolic(m))
        right, left = kern.deriv(_TABLE_GRID, order), kern.deriv(-_TABLE_GRID, order)
        assert np.array_equal(left, right if order % 2 == 0 else -right)
        if order % 2:
            assert kern.deriv(0.0, order) == 0.0

    def test_failed_certification_raises_and_stores_nothing(self):
        kern = K._ParabolicKernel(2)
        kern._TABLE_TOL = 1e-20  # below the rounding of the quadrature it is checked against
        for _ in range(2):
            with pytest.raises(QuadratureError, match="table of order 1"):
                kern.deriv(1.0, 1)
        assert getattr(kern, "_table1", None) is None
        assert kern.deriv(20.0, 1) == K.get_kernel(K.biharmonic()).deriv(20.0, 1)


def _qawo(m, y, order):
    """D^order F(y) by scipy's adaptive cosine/sine-weighted rule (QAWO), point by point.

    The reference the saddle-line rule replaced: (1/pi) int_0^smax exp(-s^(2m))
    s^order cos(s|y| + order pi/2) ds, odd orders flipped for y < 0.
    """
    from scipy import integrate

    weight = "cos" if order % 2 == 0 else "sin"
    sign = (1.0, -1.0, -1.0, 1.0)[order % 4]
    smax = K._s_cutoff(m, order)
    out = []
    for yi in y:
        v, _ = integrate.quad(lambda s: math.exp(-s ** (2 * m)) * s**order, 0.0, smax,
                              weight=weight, wvar=abs(yi), epsabs=1e-16, epsrel=1e-13, limit=200)
        out.append(sign * v / math.pi * (-1.0 if order % 2 and yi < 0 else 1.0))
    return np.array(out)


_SADDLE_GRID = np.concatenate([np.linspace(12.0001, 45.0, 67), -np.linspace(12.25, 45.0, 27)])


class TestSaddleLineRule:
    """Past |y| = 12, ``_quad`` sums the Fourier integral on a line through the saddle."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_adaptive_oscillatory_quadrature(self, m, order):
        kern = K.get_kernel(K.parabolic(m))
        err = np.abs(kern._quad(_SADDLE_GRID, 1e-13, order) - _qawo(m, _SADDLE_GRID, order))
        assert err.max() <= 2e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_doubling_gap_and_finite_everywhere(self, m):
        # the rule's two node counts agree to rounding, and no argument,
        # however large, gives a value that is not finite
        kern = K._ParabolicKernel(m)
        ys = np.concatenate([np.linspace(12.0001, 60.0, 97), [1e3, 1e8, 1e300, np.inf]])
        for v1, v2 in kern._saddle_line(ys, tuple(range(7))):
            assert np.abs(v1 - v2).max() <= 1e-15
            assert np.isfinite(v2).all() and v2[-2:].tolist() == [0.0, 0.0]

    def test_failed_doubling_raises(self, monkeypatch):
        real = K._gl_nodes
        # a 6-node rule in place of the 128-node one cannot agree with 256 nodes;
        # a fresh per-m cache of the saddle-line nodes reads the patched rule
        monkeypatch.setattr(K, "_gl_nodes", lambda n: real(6 if n == 128 else n))
        monkeypatch.setattr(K, "_saddle_nodes", functools.lru_cache(K._saddle_nodes.__wrapped__))
        kern = K._ParabolicKernel(2)
        with pytest.raises(QuadratureError, match="doubling check"):
            kern._quad(20.0, 1e-10, 2)
        with pytest.raises(QuadratureError, match="doubling check"):
            kern.deriv(np.array([-15.0, 30.0]), 2)

    def test_never_calls_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate.quad called")

        monkeypatch.setattr(scipy.integrate, "quad", refuse)
        ys = np.array([-30.0, -12.5, -3.0, 0.0, 7.0, 12.0, 12.5, 20.0, 45.0, 1e4])
        for m in (1, 2, 3):
            kern = K._ParabolicKernel(m)
            for order in range(4):
                assert np.isfinite(kern._quad(ys, 1e-10, order)).all()

    def test_memory_does_not_grow_with_the_batch(self):
        import tracemalloc

        kern = K.get_kernel(K.biharmonic())
        ys = np.linspace(12.0, 40.0, 20_000)
        kern._quad(ys[:3], order=2)  # node caches filled outside the measurement
        tracemalloc.start()
        try:
            kern._quad(ys, order=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of 128 points holds 128 x 384 complex node terms (0.8 MB);
        # the whole batch at once would take about 120 MB
        assert peak < 5e6


# 12 < |y| <= 45 on both sides, with the points where the fitted far form
# that once served F and F' missed its tolerance most: F of m = 2 at 23.56
# (2.6e-10 off at tol 1e-10) and F' of m = 3 at 41.3 (9.9e-10)
_FAR_READS = np.concatenate([np.linspace(12.25, 45.0, 35), [23.56, 24.06, 41.3]])
_FAR_READS = np.concatenate([_FAR_READS, -_FAR_READS])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_tolerance_holds_past_twelve(m, order, tol):
    vals = K.eval_kernel(K.parabolic(m), _FAR_READS, tol, order)
    assert np.abs(vals - _qawo(m, _FAR_READS, order)).max() <= 2e-15


class TestMultiOrderReads:
    """A tuple of orders reads each order as its single-order read does, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("ys", [_NEAR, _FAR, np.concatenate([_NEAR, _FAR, [40.0, -45.0]])],
                             ids=["near", "far", "mixed"])
    def test_parabolic_orders_zero_to_two(self, m, ys):
        kern = K.get_kernel(K.parabolic(m))
        orders = (0, 1, 2)
        together = kern.deriv(ys, orders)
        assert isinstance(together, tuple) and len(together) == 3
        for k, v in zip(orders, together):
            np.testing.assert_array_equal(v, kern.deriv(ys, k))
        for y in ys:
            together = kern.deriv(float(y), orders)
            assert together == tuple(kern.deriv(float(y), k) for k in orders)
            assert all(isinstance(v, float) for v in together)
        # the public read, and an order asked twice or out of turn
        fam = K.parabolic(m)
        pair = K.eval_kernel(fam, ys, order=(2, 0, 2))
        for k, v in zip((2, 0, 2), pair):
            np.testing.assert_array_equal(v, kern.deriv(ys, k))

    def test_dispersion_orders_zero_and_one(self):
        kern = K.get_kernel(K.dispersion3())
        ys = np.array([-9.0, -1.5, 0.0, 2.0, 17.5])
        f0, f1 = kern.deriv(ys, (0, 1))
        np.testing.assert_array_equal(f0, kern.deriv(ys, 0))
        np.testing.assert_array_equal(f1, kern.deriv(ys, 1))
        assert kern.deriv(2.0, (0, 1)) == (kern.deriv(2.0, 0), kern.deriv(2.0, 1))

    def test_beam_takes_order_zero_only(self):
        kern = K.get_kernel(K.beam4())
        assert kern.deriv(3.0, (0,)) == (kern.deriv(3.0, 0),)
        with pytest.raises(ValueError, match="beam4"):
            kern.deriv(3.0, (0, 1))
        with pytest.raises(ValueError, match="beam4"):
            K.eval_kernel(K.beam4(), np.array([1.0, 2.0]), order=(0, 1))

    @pytest.mark.parametrize("fam", [K.heat(), K.biharmonic(), K.dispersion3(), K.beam4()], ids=str)
    def test_empty_or_negative_orders_rejected(self, fam):
        for order in ((), (0, -1), -1):
            with pytest.raises(ValueError, match="derivative order"):
                K.eval_kernel(fam, 1.0, order=order)


class TestValuesThatMustNotMove:
    """The near-field table, the fit and the switch point never reach the far rule."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_table_and_fit_do_not_use_the_far_rule(self, m, monkeypatch):
        shared = K.get_kernel(K.parabolic(m))
        ys = np.linspace(-12.0, 12.0, 241)
        near = {k: shared.deriv(ys, k) for k in range(4)}
        fit = shared.ensure_fit()

        def refuse(*args):
            raise AssertionError("far rule called")

        monkeypatch.setattr(K._ParabolicKernel, "_saddle_line", refuse)
        fresh = K._ParabolicKernel(m)
        for k in range(4):
            assert np.array_equal(fresh.deriv(ys, k), near[k])
        assert K.kernel_asymptotics_fit(K.parabolic(m), fit.window) == fit

    @pytest.mark.parametrize("m, switch, c1, c2", [
        (2, 13.25, 0.1862158290003875, 0.30935201676403146),
        (3, 24.5, 0.17973855482307743, 0.2219093645134407),
    ])
    def test_pinned_switch_point_and_fit(self, m, switch, c1, c2):
        kern = K.get_kernel(K.parabolic(m))
        assert kern.switch_point() == switch
        fit = kern.ensure_fit()
        # the fit samples the near-field quadrature only; a few ulps allow
        # for the cosine of another SIMD build
        assert fit.c1 == pytest.approx(c1, rel=1e-14, abs=0.0)
        assert fit.c2 == pytest.approx(c2, rel=1e-14, abs=0.0)


class TestOneEvaluator:
    @pytest.mark.parametrize("order", range(6))
    def test_heat_closed_form_matches_fourier_integral(self, order):
        # independent route: (1/pi) int_0^inf exp(-s^2) s^k cos(s y + k pi/2) ds
        from scipy.integrate import quad

        kern = K.get_kernel(K.heat())
        for y in (0.0, 0.7, -1.3, 2.5, 4.0, -6.0):
            integrand = lambda s: math.exp(-s * s) * s**order * math.cos(s * y + 0.5 * math.pi * order)
            ref, _ = quad(integrand, 0.0, 8.0, epsabs=1e-14, epsrel=0.0, limit=200)
            assert kern.deriv(y, order) == pytest.approx(ref / math.pi, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("fam", [K.heat(), K.biharmonic(), K.parabolic(3), K.dispersion3()],
                             ids=str)
    def test_public_calls_are_deriv(self, fam):
        ys = np.array([-20.0, -3.5, 0.0, 0.4, 7.0, 13.0, 30.0])
        kern = K.get_kernel(fam)
        assert np.array_equal(K.eval_kernel(fam, ys), kern.deriv(ys, 0))
        assert np.array_equal(K.eval_kernel(fam, ys, order=1), kern.deriv(ys, 1))
        assert K.eval_kernel(fam, 13.0) == kern.deriv(13.0, 0)

    def test_beam_has_order_zero_only(self):
        assert K.eval_kernel(K.beam4(), 2.0) == K.get_kernel(K.beam4()).deriv(2.0, 0)
        with pytest.raises(ValueError, match="beam4"):
            K.eval_kernel(K.beam4(), 1.0, order=1)
        with pytest.raises(ValueError, match="beam4"):
            K.get_kernel(K.beam4()).deriv(1.0, 2)

    def test_dispersion_rejects_order_two(self):
        kern = K.get_kernel(K.dispersion3())
        assert np.isfinite(kern.deriv(1.0, 1))
        with pytest.raises(ValueError, match="dispersion3"):
            kern.deriv(1.0, 2)

    def test_dispersion_fit_holds_on_the_right_only(self):
        fit = K.get_kernel(K.dispersion3()).ensure_fit()
        vals = fit(np.array([-6.0, -2.0, 2.0, 6.0]))
        assert np.isnan(vals[:2]).all() and np.isfinite(vals[2:]).all()

    def test_even_fit_extends_by_parity(self):
        fit = K.get_kernel(K.biharmonic()).ensure_fit()
        assert fit(-15.0) == fit(15.0)


class TestLazyFillUnderThreads:
    """Evaluators are shared between threads; their lazy state fills once."""

    def _race(self, fn, workers=16):
        # more threads than cores and a short switch interval force interleaving
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(workers, timeout=30)

            def call(_):
                barrier.wait()
                return fn()

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return [f.result(timeout=60) for f in [pool.submit(call, i) for i in range(workers)]]
        finally:
            sys.setswitchinterval(old)

    def test_fit_is_computed_once(self, monkeypatch):
        calls = []
        sentinel = object()

        def slow_fit(family, window):
            calls.append(family)
            threading.Event().wait(0.01)
            return sentinel

        monkeypatch.setattr(K, "kernel_asymptotics_fit", slow_fit)
        kern = K._ParabolicKernel(2)
        results = self._race(kern.ensure_fit)
        assert len(calls) == 1
        assert all(r is sentinel for r in results)

    def test_evaluator_is_created_once(self, monkeypatch):
        monkeypatch.setattr(K, "_KERNELS", {})
        results = self._race(lambda: K.get_kernel(K.parabolic(3)))
        assert all(r is results[0] for r in results)
        assert K._KERNELS == {K.parabolic(3): results[0]}

    @pytest.mark.parametrize("m", [2, 3])
    def test_each_table_is_built_once(self, m):
        kern = K._ParabolicKernel(m)
        built = []
        build = kern._build_table

        def counted(order):
            built.append(order)
            threading.Event().wait(0.01)
            return build(order)

        kern._build_table = counted
        starts = itertools.count()

        def ask_all_orders():
            # each thread asks for all four orders, starting from a different one
            s = next(starts)
            return [(k, kern.deriv(1.3, k)) for k in ((s + j) % 4 for j in range(4))]

        results = self._race(ask_all_orders)
        assert sorted(built) == [0, 1, 2, 3]
        values = {k: v for r in results for k, v in r}
        assert all(dict(r) == values for r in results)

    def test_switch_point_is_computed_once(self, monkeypatch):
        kern = K._ParabolicKernel(2)
        kern._fit = K.get_kernel(K.biharmonic()).ensure_fit()
        quad_calls = []
        quad_value = kern._quad

        def counted(ys, tol=1e-10):
            quad_calls.append(len(ys))
            return quad_value(ys, tol)

        monkeypatch.setattr(kern, "_quad", counted)
        results = self._race(kern.switch_point)
        assert len(quad_calls) == 1
        assert set(results) == {K.get_kernel(K.biharmonic()).switch_point()}


class TestAsymptoticFit:
    def test_heat_fit_recovers_gaussian(self):
        fit = K.kernel_asymptotics_fit(K.heat(), (3.0, 6.0))
        assert fit.c1 == 0.0
        assert fit.c2 == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-9)
        assert fit.residual < 1e-6

    def test_heat_fit_samples_the_closed_form(self):
        # the form is exact for heat, so its amplitude is 1/(2 sqrt pi) to rounding
        fit = K.get_kernel(K.heat()).ensure_fit()
        c = 1.0 / (2.0 * math.sqrt(math.pi))
        assert abs(fit.c2 - c) <= math.ulp(c)
        ys = np.array([-6.0, -2.0, 1.0, 2.0, 4.0, 6.0])
        assert np.max(np.abs(fit(ys) - K.eval_kernel(K.heat(), ys))) <= 1e-16

    def test_fourth_order_fit_quality(self):
        fit = K.kernel_asymptotics_fit(K.parabolic(2), (5.0, 9.0))
        assert fit.residual < 1e-3

    def test_zero_crossing_spacing(self):
        # spacing of kernel zeros in the y^(4/3) variable approaches pi/b0
        from scipy.optimize import brentq

        kern = K.get_kernel(K.parabolic(2))
        kc = kern.constants
        grid = np.linspace(4.0, 16.0, 900)
        vals = kern._quad(grid, 1e-12)
        zeros = []
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0:
                zeros.append(brentq(lambda y: kern._quad(float(y), 1e-12),
                                    grid[i], grid[i + 1], xtol=1e-10))
        spacings = np.diff([z ** (4.0 / 3.0) for z in zeros])
        assert len(spacings) >= 2
        assert np.allclose(spacings, math.pi / kc.b0, rtol=0.02)

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError):
            K.kernel_asymptotics_fit(K.parabolic(2), (5.0, 5.4))

    # an unbounded window reached LAPACK (DLASCL lines on stderr, then
    # LinAlgError), a negative end a complex power, a reversed one the
    # half-oscillation rule
    @pytest.mark.parametrize("family", [K.parabolic(2), K.dispersion3(), K.beam4()],
                             ids=["biharmonic", "dispersion3", "beam4"])
    @pytest.mark.parametrize("window", [(8.0, math.inf), (-5.0, 12.0), (12.0, 8.0),
                                        (math.nan, 12.0), (8.0, math.nan), (8.0, 8.0)],
                             ids=["inf", "negative", "reversed", "nan-lo", "nan-hi", "empty"])
    def test_bad_window_rejected_with_nothing_on_stderr(self, family, window, capfd):
        with pytest.raises(ValueError, match=r"window must satisfy 0 <= lo < hi < inf"):
            K.kernel_asymptotics_fit(family, window)
        assert capfd.readouterr().err == ""

    def test_custom_window_fit_leaves_cached_kernel_unchanged(self):
        fam = K.biharmonic()
        before = K.eval_kernel(fam, 25.0)
        fit = K.kernel_asymptotics_fit(fam, (6.0, 10.0))
        assert fit.window == (6.0, 10.0)
        assert K.get_kernel(fam).ensure_fit().window == (5.0, 9.0)
        assert K.eval_kernel(fam, 25.0) == before

    @pytest.mark.parametrize("family, c1, c2, exponent", [
        (K.dispersion3(), 3.0 ** -0.25 / math.sqrt(2.0 * math.pi),
         3.0 ** -0.25 / math.sqrt(2.0 * math.pi), 0.25),
        (K.beam4(), -math.sqrt(2.0 / math.pi), math.sqrt(2.0 / math.pi), 2.0),
    ], ids=["dispersion3", "beam4"])
    def test_far_forms_are_closed_form(self, family, c1, c2, exponent):
        # F = s Ai(-s y) (DLMF 9.7.9) and the Fresnel form of the beam kernel
        fit = K.get_kernel(family).ensure_fit()
        assert abs(fit.c1 - c1) <= 1e-15 and abs(fit.c2 - c2) <= 1e-15
        assert fit.exponent == exponent == K.kernel_constants(family).delta0
        # the window only measures the misfit
        other = K.kernel_asymptotics_fit(family, (20.0, 30.0))
        assert (other.c1, other.c2) == (fit.c1, fit.c2) and other.residual < fit.residual


class TestHermitePairs:
    def test_published_fourth_order_polynomials(self):
        fam = K.parabolic(2)
        p0 = K.hermite_pair(fam, 0)
        assert p0.psi_star_poly == Polynomial([1]) and p0.lam == 0
        p4 = K.hermite_pair(fam, 4)
        assert p4.psi_star_poly == Polynomial([24, 0, 0, 0, 1])
        assert p4.norm_sq == 24
        p5 = K.hermite_pair(fam, 5)
        assert p5.psi_star_poly == Polynomial([0, 120, 0, 0, 0, 1])
        p6 = K.hermite_pair(fam, 6)
        assert p6.psi_star_poly == Polynomial([0, 0, 360, 0, 0, 0, 1])
        assert p6.lam == Fraction(-3, 2)

    def test_eigenvalues_exact_rational(self):
        for m in (1, 2, 3):
            for k in range(8):
                assert K.hermite_pair(K.parabolic(m), k).lam == Fraction(-k, 2 * m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_adjoint_operator_identity_exact(self, m):
        for k in range(13):
            pair = K.hermite_pair(K.parabolic(m), k)
            lhs = K.b_star_apply(pair.psi_star_poly, m)
            assert lhs == pair.psi_star_poly * pair.lam

    def test_degree_and_parity(self):
        for k in range(9):
            pair = K.hermite_pair(K.parabolic(2), k)
            assert pair.psi_star_poly.degree == k
            for j, c in enumerate(pair.psi_star_poly.coeffs):
                if (j - k) % 2:
                    assert c == 0

    def test_psi_parity(self):
        fam = K.parabolic(2)
        ys = np.array([0.7, 1.9, 3.2])
        for k in range(4):
            pair = K.hermite_pair(fam, k)
            assert np.allclose(pair.psi(-ys), (-1.0) ** k * pair.psi(ys), atol=1e-10)

    def test_eigenfunction_ode_residual(self):
        # B psi_k = lambda_k psi_k with B = -D^4 + (y/4) D + 1/4 for m=2,
        # all derivatives taken through the integral representation
        fam = K.parabolic(2)
        kern = K.get_kernel(fam)
        ys = np.linspace(-5.0, 5.0, 161)
        for k in range(5):
            pair = K.hermite_pair(fam, k)
            norm = ((-1.0) ** k) / math.sqrt(pair.norm_sq)
            psi = norm * kern.deriv(ys, k, 1e-12)
            d4 = norm * kern.deriv(ys, k + 4, 1e-12)
            d1 = norm * kern.deriv(ys, k + 1, 1e-12)
            resid = -d4 + 0.25 * ys * d1 + 0.25 * psi - float(pair.lam) * psi
            rel = np.linalg.norm(resid) / np.linalg.norm(psi)
            assert rel < 1e-4


class TestOrthonormality:
    def test_gram_matrix_close_to_identity(self):
        res = K.orthonormality_matrix(K.parabolic(2), 6, tol=1e-8)
        assert res.max_deviation <= 1e-6

    def test_unit_mass_entry(self):
        res = K.orthonormality_matrix(K.parabolic(2), 1, tol=1e-10)
        assert res.matrix[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert abs(res.matrix[1, 0]) < 1e-9  # exact derivative of a decaying function


class TestPencil:
    def test_exact_eigenvalue_pairs(self):
        for k in range(9):
            pp = K.pencil_pair(k)
            assert pp.lam_plus == Fraction(-k, 2)
            assert pp.lam_minus == Fraction(-k, 2) - 1
            # exact roots of lam^2 + (k+1) lam + k(k-1)/4 + 3k/4 = 0
            for lam in (pp.lam_plus, pp.lam_minus):
                assert lam * lam + (k + 1) * lam + Fraction(k * (k - 1), 4) + Fraction(3 * k, 4) == 0

    def test_low_index_pairs(self):
        assert (K.pencil_pair(0).lam_plus, K.pencil_pair(0).lam_minus) == (0, -1)
        assert (K.pencil_pair(1).lam_plus, K.pencil_pair(1).lam_minus) == (
            Fraction(-1, 2), Fraction(-3, 2))

    def test_degree_four_polynomial(self):
        # the pencil equation pins the constant term: x^4 - 12 t^2 solves the
        # beam equation, so the adjoint polynomial is (y^4 - 12)/sqrt(24)
        pp = K.pencil_pair(4)
        assert pp.psi_star_poly == Polynomial([-12, 0, 0, 0, 1])
        assert pp.norm_sq == 24

    @pytest.mark.parametrize("k", range(9))
    def test_pencil_annihilation_exact(self, k):
        pp = K.pencil_pair(k)
        assert K.beam_pencil_apply(pp.psi_star_poly, pp.lam_plus).is_zero()
        assert K.beam_pencil_apply(pp.psi_star_poly_shifted, pp.lam_minus).is_zero()

    def test_translated_solution_check(self):
        # the k=4 principal eigenfunction corresponds to u = x^4 - 12 t^2,
        # which must satisfy u_tt = -u_xxxx as an exact polynomial identity
        x_part = Polynomial([0, 0, 0, 0, 1])  # x^4
        t_part = Polynomial([0, 0, -12])  # -12 t^2
        u_tt = t_part.derivative(2)  # d^2/dt^2 of the t factor
        u_xxxx = x_part.derivative(4)
        assert u_tt == u_xxxx * Fraction(-1)


class TestMajorant:
    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # tol = nan used to return d_star = 1.1745 with one zero
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            K.majorant_deficiency(K.parabolic(2), tol)

    def test_positive_kernel_has_unit_deficiency(self):
        res = K.majorant_deficiency(K.heat(), 1e-8)
        assert res.d_star == pytest.approx(1.0, abs=1e-8)
        assert res.zeros == ()

    def test_oscillatory_kernel_exceeds_one(self):
        res = K.majorant_deficiency(K.parabolic(2), 1e-8)
        assert res.d_star > 1.0
        # frozen golden value computed by sign-split quadrature
        assert res.d_star == pytest.approx(1.2372934, abs=5e-6)

    def test_zeros_match_brent(self):
        # the sign changes of F are refined together by find_roots
        from scipy.optimize import brentq

        kern = K.get_kernel(K.parabolic(2))
        ys = np.linspace(0.0, 30.0, 601)
        vals = kern.deriv(ys, 0, 1e-10)
        ref = [brentq(lambda y: kern.deriv(float(y), 0, 1e-10), ys[i], ys[i + 1], xtol=1e-14)
               for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
        res = K.majorant_deficiency(K.parabolic(2), 1e-8)
        assert len(res.zeros) == len(ref) == 12
        np.testing.assert_allclose(res.zeros, ref, rtol=0.0, atol=1e-12)

    def test_pointwise_majorant_bound(self):
        res = K.majorant_deficiency(K.parabolic(2), 1e-8)
        ys = np.linspace(-12.0, 12.0, 1000)
        f = K.eval_kernel(K.parabolic(2), ys)
        assert np.all(np.abs(f) <= res.d_star * res.majorant(ys) + 1e-12)

    def test_majorant_unit_mass(self):
        from scipy.integrate import quad

        res = K.majorant_deficiency(K.parabolic(2), 1e-8)
        val, _ = quad(lambda y: res.majorant(float(y)), 0.0, 30.0, limit=400,
                      points=list(res.zeros))
        assert 2.0 * val == pytest.approx(1.0, abs=1e-5)
