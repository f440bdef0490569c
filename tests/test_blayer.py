import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from reglab import blayer, kernels
from reglab.numcore import BvpError, NumericsError


class TestClosedForms:
    def test_biharmonic_wall_conditions(self):
        p = blayer.biharmonic_profile()
        assert p(0.0) == pytest.approx(0.0, abs=1e-15)
        d1, d2, d3 = p.wall_derivatives
        assert d1 == 0.0
        assert d2 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-15)
        assert d3 == pytest.approx(-0.25, rel=1e-15)

    def test_biharmonic_wall_curvature_by_finite_differences(self):
        p = blayer.biharmonic_profile()
        h = 1e-4
        fd2 = (p(2 * h) - 2 * p(h) + p(0.0)) / h**2
        assert fd2 == pytest.approx(2.0 ** (-4.0 / 3.0), abs=5e-4)

    def test_biharmonic_residual_identity(self):
        # -g'''' + g'/4 vanishes identically for the closed form; check by
        # high-order finite differences on a moderate grid
        p = blayer.biharmonic_profile()
        xi = np.linspace(0.5, 29.5, 400)
        h = 1e-2
        stencil = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])
        g1 = sum(w * p(xi + k * h) for w, k in zip([1.0 / 12, -2.0 / 3, 0.0, 2.0 / 3, -1.0 / 12],
                                                   [-2, -1, 0, 1, 2])) / h
        g4 = sum(w * p(xi + k * h) for w, k in zip([1.0, -4.0, 6.0, -4.0, 1.0],
                                                   [-2, -1, 0, 1, 2])) / h**4
        assert np.max(np.abs(-g4 + 0.25 * g1)) < 1e-5

    def test_biharmonic_envelope_bound(self):
        p = blayer.biharmonic_profile()
        xi = np.linspace(0.0, 30.0, 800)
        b = 2.0 ** (-5.0 / 3.0)
        bound = np.exp(-b * xi) * (1.0 + 1.0 / math.sqrt(3.0))
        assert np.all(np.abs(p(xi) - 1.0) <= bound + 1e-12)

    def test_dispersion_values(self):
        p = blayer.dispersion_profile()
        assert p(0.0) == 0.0
        assert p(60.0) == pytest.approx(1.0, abs=1e-12)
        assert p(math.sqrt(3.0) * math.log(2.0)) == pytest.approx(0.5, rel=1e-12)
        d1, d2, _ = p.wall_derivatives
        assert d1 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert d2 == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_heat_wall_slope(self):
        p = blayer.heat_profile()
        assert p.wall_derivatives[0] == 0.5

    def test_wall_constants_selection(self):
        g1, g2 = blayer.wall_constants(blayer.biharmonic_profile())
        assert (g1, g2) == (pytest.approx(2.0 ** (-4.0 / 3.0)), pytest.approx(-0.25))
        g1d, g2d = blayer.wall_constants(blayer.dispersion_profile())
        assert (g1d, g2d) == (pytest.approx(1.0 / math.sqrt(3.0)), pytest.approx(-1.0 / 3.0))
        g1h, _ = blayer.wall_constants(blayer.heat_profile())
        assert g1h == 0.5

    @pytest.mark.parametrize("profile", [blayer.biharmonic_profile, blayer.dispersion_profile,
                                         blayer.heat_profile])
    @pytest.mark.parametrize("xi_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_length_rejected(self, profile, xi_max):
        # nan used to give a profile of nan, 0 one of 601 zeros
        with pytest.raises(ValueError, match="xi_max must be positive and finite"):
            profile(xi_max)


class TestBoundaryValueRoute:
    def test_biharmonic_matches_closed_form(self):
        closed = blayer.biharmonic_profile()
        solved = blayer.solve_bl_bvp("biharmonic", 30.0, tol=1e-10)
        dev = np.max(np.abs(solved.values - closed(solved.xi)))
        assert dev <= 1e-6
        assert solved.provenance == "bvp"

    def test_dispersion_matches_closed_form(self):
        closed = blayer.dispersion_profile()
        solved = blayer.solve_bl_bvp("dispersion3", 30.0, tol=1e-10)
        assert np.max(np.abs(solved.values - closed(solved.xi))) <= 1e-6

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3"])
    @pytest.mark.parametrize("length", [20.0, 30.0, 60.0, 120.0])
    def test_linear_layer_exact_to_rounding(self, family, length):
        # the ultraspherical solve against the closed form, values on the
        # output grid and between its points, wall derivatives and plateau
        solved = blayer.solve_bl_bvp(family, length)
        profile, wall = blayer._CLOSED[family]
        assert np.max(np.abs(solved.values - profile(solved.xi))) <= 1e-13
        xi = np.linspace(0.0, length, 997)
        assert np.max(np.abs(solved(xi) - profile(xi))) <= 1e-13
        assert np.max(np.abs(np.subtract(solved.wall_derivatives, wall))) <= 1e-13
        assert solved.far_value == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3"])
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
    def test_tol_bounds_every_output(self, family, tol):
        # the wall-derivative rows weigh coefficient k by up to k^6; a stop
        # on the size of the trailing coefficients alone left the biharmonic
        # wall derivatives 91 x tol off at tol = 1e-4
        profile, wall = blayer._CLOSED[family]
        for length in np.geomspace(0.5, 2000.0, 30):
            solved = blayer.solve_bl_bvp(family, float(length), tol)
            assert np.max(np.abs(solved.values - profile(solved.xi))) <= tol
            assert np.max(np.abs(np.subtract(solved.wall_derivatives, wall))) <= tol
            assert abs(solved.far_value - 1.0) <= tol

    def test_wall_constants_truncation_insensitive(self):
        a = blayer.solve_bl_bvp("biharmonic", 30.0, tol=1e-11)
        b = blayer.solve_bl_bvp("biharmonic", 60.0, tol=1e-11)
        assert abs(a.wall_derivatives[1] - b.wall_derivatives[1]) < 1e-13
        assert abs(a.wall_derivatives[2] - b.wall_derivatives[2]) < 1e-13

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3", "pme4"])
    @pytest.mark.parametrize("xi", [-1e-9, 30.000001, math.nan, [1.0, 31.0]])
    def test_read_outside_the_layer_rejected(self, family, xi):
        # the collocation route used to extrapolate its polynomial silently
        with pytest.raises(ValueError, match=r"layer profile read outside \[0, 30.0\]"):
            blayer.solve_bl_bvp(family, 30.0)(xi)

    def test_pme4_route_unchanged(self, profile):
        # the cubic layer's collocation, pinned bit for bit (digits recorded
        # with numpy 2.4 and scipy 1.17)
        assert np.array_equal(profile.wall_derivatives,
                              (0.0, float.fromhex("0x1.2d548fc8cb24cp-2"),
                               float.fromhex("-0x1.fd4c1aea77f0ep-3")))
        assert np.array_equal(profile.values[[100, 400, 800, 1200]],
                              [0.8782389973519966, 0.970531002527611,
                               0.9992199574063536, 0.9999794021726501])
        assert profile.far_value == 1.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            blayer.solve_bl_bvp("beam4")

    def test_closed_form_only_family_rejected_by_name(self):
        # heat has a closed form but no boundary-value layer
        with pytest.raises(ValueError, match="no boundary-value layer for family 'heat'"):
            blayer.solve_bl_bvp("heat")

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3", "pme4"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, family, tol):
        # tol = 0 used to run the collocation up to its node limit
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            blayer.solve_bl_bvp(family, 30.0, tol=tol)

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3", "pme4"])
    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_length_rejected(self, family, length):
        # length = 0 or nan used to reach scipy's "x must be strictly increasing"
        with pytest.raises(ValueError, match="layer length must be positive and finite"):
            blayer.solve_bl_bvp(family, length)

    def test_pme4_length_inside_the_wall_offset_rejected(self):
        with pytest.raises(ValueError, match="pme4 layer length must exceed the wall offset"):
            blayer.solve_bl_bvp("pme4", 1e-4)

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3", "pme4"])
    def test_failed_collocation_is_a_numerics_error(self, family, monkeypatch):
        # a linear layer 1e6 long is a wall step that 1024 Chebyshev
        # coefficients do not resolve; a real non-converging pme4 solve needs
        # seconds of mesh refinement, so its solver's failure report is stubbed
        length = 1e6
        if family == "pme4":
            failed = SimpleNamespace(success=False,
                                     message="The maximum number of mesh nodes is exceeded.")
            monkeypatch.setattr(scipy.integrate, "solve_bvp", lambda *args, **kwargs: failed)
            length = 30.0
        with pytest.raises(BvpError, match=f"layer BVP for {family} did not converge") as info:
            blayer.solve_bl_bvp(family, length)
        assert isinstance(info.value, NumericsError)

    @pytest.mark.parametrize("family", ["biharmonic", "dispersion3"])
    def test_length_past_the_float_range_is_a_numerics_error(self, family):
        # (2/length)^j overflows: an error, not a profile of nan
        with pytest.raises(BvpError, match="past the float range"):
            blayer.solve_bl_bvp(family, 1e-100)


class TestWallFlux:
    @pytest.mark.parametrize("a0", [1.0, 0.3])
    @pytest.mark.parametrize("v", [2.0, 9.3, 17.5])
    def test_matches_the_explicit_formula(self, v, a0):
        g1, g2 = blayer.wall_constants(blayer.biharmonic_profile())
        fam = kernels.biharmonic()
        y = v / math.sqrt(a0)
        expected = (g2 * math.sqrt(a0) * v * kernels.eval_kernel(fam, y)
                    + g1 * a0 ** (2.0 / 3.0) * v ** (2.0 / 3.0)
                    * kernels.eval_kernel(fam, y, order=1))
        assert blayer.wall_flux(g1, g2)(v, a0) == expected

    def test_reads_the_kernel_through_its_module(self, monkeypatch):
        # the benchmark tracer counts kernel points by wrapping this name;
        # F and F' come from one read
        calls, fn = [], kernels.eval_kernel
        monkeypatch.setattr(kernels, "eval_kernel", lambda fam, y, *a, **kw:
                            calls.append(kw) or fn(fam, y, *a, **kw))
        blayer.wall_flux(0.5, 0.5)(14.0, 0.8)
        assert calls == [{"order": (0, 1)}]


@pytest.fixture(scope="module")
def profile():
    return blayer.solve_bl_bvp("pme4", 50.0, tol=1e-8)


class TestCubicDiffusionLayer:

    def test_wall_and_plateau(self, profile):
        assert profile(0.0) == 0.0
        assert profile.wall_derivatives[0] == 0.0  # slope vanishes at the wall
        assert profile.far_value == pytest.approx(1.0, abs=1e-4)

    def test_single_dominant_overshoot(self, profile):
        dev = profile.values - 1.0
        # count excursions exceeding 5% of the plateau
        significant = np.abs(dev) > 0.05
        sign_blocks = []
        for s, big in zip(np.sign(dev), significant):
            if big and (not sign_blocks or sign_blocks[-1] != s):
                sign_blocks.append(s)
        overshoots = sum(1 for s in sign_blocks if s > 0)
        assert overshoots == 1
        assert profile.values.max() > 1.05

    def test_monotone_envelope_decay(self, profile):
        # excursions away from the plateau shrink with distance
        dev = np.abs(profile(np.linspace(10.0, 45.0, 200)) - 1.0)
        late = dev[-50:].max()
        early = dev[:50].max()
        assert late < early

    def test_wall_curvature_positive(self, profile):
        assert profile.wall_derivatives[1] > 0.0
