import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from reglab import criteria as cr
from reglab import blayer, kernels, numcore

C_STAR_4TH = 3.0 ** (-0.75) * 2.0**2.75  # ~2.9512, threshold of the fourth-order family
C_STAR_DISP_LEFT = (1.5 * math.sqrt(3.0)) ** (2.0 / 3.0)
BIH, HEAT, DISP = kernels.biharmonic(), kernels.heat(), kernels.dispersion3()


class TestBoundaryConstants:
    """A constant that is not positive and finite, or an exponent that is not
    finite, gives no boundary: each family refuses it when built."""

    BAD_C = [0.0, -2.0, math.nan, math.inf, -math.inf]
    BAD_GAMMA = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("l", BAD_C)
    def test_constant(self, l):
        with pytest.raises(ValueError, match="positive and finite"):
            cr.Constant(l)

    @pytest.mark.parametrize("c, gamma", [(c, 0.75) for c in BAD_C]
                             + [(3.0, g) for g in BAD_GAMMA])
    def test_power_log(self, c, gamma):
        # PowerLog(-3, 0.75) used to fail later with a TypeError on a complex
        # power, and PowerLog(nan, 0.75) to classify as indeterminate
        with pytest.raises(ValueError):
            cr.PowerLog(c, gamma)

    @pytest.mark.parametrize("c", BAD_C)
    def test_petrovskii_sqrt_log(self, c):
        # PetrovskiiSqrtLog(-2) used to classify as regular for heat
        with pytest.raises(ValueError, match="positive and finite"):
            cr.PetrovskiiSqrtLog(c)

    @pytest.mark.parametrize("c, gamma", [(c, 1.5) for c in BAD_C]
                             + [(1.0, g) for g in BAD_GAMMA])
    def test_power_of_tau(self, c, gamma):
        # PowerOfTau(-1, 1.5) used to classify as irregular on the dispersion right side
        with pytest.raises(ValueError):
            cr.PowerOfTau(c, gamma)

    @pytest.mark.parametrize("taus, values", [
        ((3.0, 10.0, 100.0, 1e3), (1.0, math.nan, 2.0, 3.0)),
        ((3.0, 10.0, 100.0, 1e3), (1.0, 2.0, 3.0, math.inf)),
        ((3.0, 10.0, math.nan, 1e3), (1.0, 2.0, 3.0, 4.0)),
        ((3.0, 10.0, 100.0, math.inf), (1.0, 2.0, 3.0, 4.0)),
    ])
    def test_tabulated_non_finite(self, taus, values):
        # a nan value used to build, and phi(50) returned nan
        with pytest.raises(ValueError, match="tau_grid and values must be finite"):
            cr.Tabulated(taus, values)

    def test_good_constants_still_build(self):
        assert cr.Constant(4.0).l == 4.0
        assert cr.PowerLog(2.0, -0.5).log_power == (2.0, -0.5)
        assert cr.PetrovskiiSqrtLog(1e-3).c == 1e-3
        assert cr.PowerOfTau(1.0, 0.0).gamma == 0.0


@pytest.fixture(scope="module")
def wrapped():
    return cr.apply_cutoff(cr.PowerLog(2.0, 0.75), kernels.biharmonic())


class TestCutoff:

    def test_nondecreasing_and_dominating(self, wrapped):
        tau = np.geomspace(cr.TAU0, 1e8, 20000)
        base = wrapped.base(tau)
        vals = wrapped(tau)
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all(vals >= base - 1e-10)

    def test_positive_phase_fraction_small(self, wrapped):
        spec = wrapped.spec
        tau = np.geomspace(1e3, 1e6, 200000)
        theta = spec.osc_rate * wrapped(tau) ** spec.exponent + spec.phase
        frac = np.mean(np.cos(theta) > 1e-12)
        assert frac < 0.01

    def test_integrand_nonpositive_off_ramps(self, wrapped):
        # positive contributions only survive inside the short ramps; the
        # negative mass dominates by a wide margin
        f, _ = cr.criterion_integrand_logtime(wrapped.spec, wrapped)
        integrand = f(np.linspace(math.log(10.0), math.log(1e7), 50000))
        total_positive = np.sum(integrand[integrand > 0])
        total_negative = -np.sum(integrand[integrand < 0])
        assert total_positive < 0.05 * total_negative

    @pytest.mark.parametrize("phi", [
        cr.PowerLog(2.0, -0.5), cr.PowerOfTau(1.0, -0.2),
        cr.Tabulated((3.0, 10.0, 100.0, 1e3), (4.0, 3.0, 3.5, 5.0)),
    ])
    def test_decreasing_base_rejected(self, phi):
        # PowerLog(2, -0.5) used to be cut off and classified regular
        assert not phi.monotone
        with pytest.raises(ValueError, match="nondecreasing base"):
            cr.apply_cutoff(phi, kernels.biharmonic())

    def test_nondecreasing_bases_are_monotone(self):
        assert all(phi.monotone for phi in (
            cr.Constant(2.0), cr.PowerLog(2.0, 0.0), cr.PowerLog(2.0, 0.75),
            cr.PetrovskiiSqrtLog(1.0), cr.PowerOfTau(1.0, 0.5),
            cr.Tabulated((3.0, 10.0, 100.0, 1e3), (3.0, 3.0, 3.5, 5.0))))

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_window_rejected(self, eps):
        # eps_s = nan, 0 and -1 used to be cut off and classified regular
        phi = cr.PowerLog(2.0, 0.75)
        with pytest.raises(ValueError, match="eps_s must be positive and finite"):
            cr.apply_cutoff(phi, kernels.biharmonic(), eps_s=eps)
        with pytest.raises(ValueError, match="eps_s must be positive and finite"):
            cr.CutoffBoundary(phi, cr.oscillation_spec(kernels.biharmonic()), eps)
        with pytest.raises(ValueError, match="eps_s must be positive and finite"):
            cr.apply_cutoff(phi, kernels.heat(), eps_s=eps)

    def test_non_oscillatory_family_passes_through(self):
        phi = cr.PowerLog(1.0, 0.5)
        assert cr.apply_cutoff(phi, kernels.heat()) is phi

    def test_halving_smoothing_width_keeps_verdicts(self):
        phi = cr.PowerLog(2.0, 0.75)
        for eps in (math.pi / 20.0, math.pi / 40.0):
            wrapped = cr.apply_cutoff(phi, kernels.biharmonic(), eps_s=eps)
            assert cr.classify(BIH, wrapped).verdict == cr.REGULAR


class TestBiharmonicClassification:
    def test_critical_family_regular_with_cutoff(self):
        phi = cr.apply_cutoff(cr.PowerLog(C_STAR_4TH, 0.75), kernels.biharmonic())
        verdict = cr.classify(BIH, phi)
        assert verdict.verdict == cr.REGULAR
        assert verdict.rationale == "analytic-family"

    def test_above_threshold_irregular(self):
        verdict = cr.classify(BIH, cr.PowerLog(C_STAR_4TH + 0.1, 0.75))
        assert verdict.verdict == cr.IRREGULAR_NONSINGULAR

    def test_verdict_flips_exactly_at_threshold(self):
        eps = 1e-9
        lo = cr.classify(BIH, cr.apply_cutoff(cr.PowerLog(C_STAR_4TH - eps, 0.75),
                                                    kernels.biharmonic()))
        hi = cr.classify(BIH, cr.PowerLog(C_STAR_4TH + eps, 0.75))
        assert lo.verdict == cr.REGULAR
        assert hi.verdict == cr.IRREGULAR_NONSINGULAR

    def test_below_threshold_without_cutoff_indeterminate(self):
        verdict = cr.classify(BIH, cr.PowerLog(C_STAR_4TH - 0.3, 0.75))
        assert verdict.verdict == cr.INDETERMINATE

    def test_sign_alternating_partial_integrals_without_cutoff(self):
        spec = cr.oscillation_spec(kernels.biharmonic())
        diag = cr.diagnose_tail(spec, cr.PowerLog(2.0, 0.75))
        assert diag.kind == "divergent-oscillatory"
        signs = np.sign(diag.window_sums)
        assert np.any(signs[1:] * signs[:-1] < 0)

    def test_constant_boundaries_delegate_to_spectrum(self):
        assert cr.classify(BIH, cr.Constant(4.0)).verdict == cr.REGULAR
        v5 = cr.classify(BIH, cr.Constant(5.0))
        assert v5.verdict == cr.IRREGULAR_SINGULAR
        assert v5.rationale == "delegated-spectral"

    def test_constant_near_branch_root(self):
        v = cr.classify(BIH, cr.Constant(4.0775))
        assert v.verdict == cr.IRREGULAR_NONSINGULAR

    def test_verdict_monotonicity_in_amplitude(self):
        # larger domains are more irregular along the critical family
        cs = [2.0, 2.5, C_STAR_4TH - 0.05, C_STAR_4TH + 0.05, 3.2, 4.0]
        verdicts = [cr.classify(BIH, cr.apply_cutoff(cr.PowerLog(c, 0.75), BIH)).verdict
                    for c in cs]
        seen_irregular = False
        for v in verdicts:
            if v == cr.IRREGULAR_NONSINGULAR:
                seen_irregular = True
            elif seen_irregular:
                pytest.fail("regular verdict above an irregular one")

    def test_steep_log_power_converges_regardless_of_cutoff(self):
        v = cr.classify(BIH, cr.PowerLog(1.0, 1.0))
        assert v.verdict == cr.IRREGULAR_NONSINGULAR


class TestHeatClassification:
    def test_classic_threshold(self):
        assert cr.classify(HEAT, cr.PetrovskiiSqrtLog(2.0)).verdict == cr.REGULAR
        assert cr.classify(HEAT, cr.PetrovskiiSqrtLog(2.0 * 1.05)).verdict == \
            cr.IRREGULAR_NONSINGULAR

    def test_flip_exactly_at_two(self):
        eps = 1e-9
        assert cr.classify(HEAT, cr.PetrovskiiSqrtLog(2.0 - eps)).verdict == cr.REGULAR
        assert cr.classify(HEAT, cr.PetrovskiiSqrtLog(2.0 + eps)).verdict == \
            cr.IRREGULAR_NONSINGULAR

    def test_full_logarithm_is_irregular(self):
        # phi = ln(tau) decays like tau^(-ln(tau)/4): faster than any power
        assert cr.classify(HEAT, cr.PowerLog(1.0, 1.0)).verdict == cr.IRREGULAR_NONSINGULAR

    def test_slow_log_power_regular(self):
        assert cr.classify(HEAT, cr.PowerLog(5.0, 0.3)).verdict == cr.REGULAR

    def test_no_cutoff_needed(self):
        # regular verdicts come without any cut-off for the positive kernel
        v = cr.classify(HEAT, cr.PowerLog(1.0, 0.4))
        assert v.verdict == cr.REGULAR

    def test_constant_interval_always_regular(self):
        assert cr.classify(HEAT, cr.Constant(3.0)).verdict == cr.REGULAR

    @pytest.mark.parametrize("l", [12.0, 14.0, 20.0, 30.0])
    def test_wide_constant_interval_regular(self, l):
        # lambda_0 < 0 for every l by the weighted energy identity; past
        # l ~ 14 it is below rounding and the pencil reads it as +2e-16 (l = 14)
        # to +1.4e-4 (l = 30), which once gave irregular-singular
        v = cr.classify(HEAT, cr.Constant(l))
        assert v.verdict == cr.REGULAR and v.rationale == "delegated-spectral"
        assert all(math.isfinite(v.diagnostics[k]) for k in ("lambda0", "residual"))
        assert "weighted energy identity" in v.diagnostics["note"]

    def test_density_form_agrees_on_sweep(self):
        # 20-case family sweep: the phi-form verdict matches the density form.
        # With rho(h) = exp(-phi(-ln h)^2 / 4) the density integrand
        # rho sqrt(-ln rho) over v = -ln h is phi/2 exp(-phi^2/4): the heat
        # integrand with amplitude 1/2, classified by the numeric tail
        rho_spec = dataclasses.replace(cr.oscillation_spec(HEAT), amplitude=0.5)
        cases = [cr.PetrovskiiSqrtLog(c) for c in np.linspace(1.2, 3.2, 10)]
        cases += [cr.PowerLog(c, g) for c, g in
                  [(1.0, 0.3), (2.0, 0.35), (0.7, 0.45), (3.0, 0.55), (1.5, 0.65),
                   (1.0, 0.8), (2.5, 0.42), (2.2, 0.58), (4.0, 0.25), (1.2, 1.2)]]
        for phi in cases:
            verdict = cr.classify(HEAT, phi).verdict
            rho = cr.diagnose_tail(rho_spec, phi)
            if verdict == cr.REGULAR:
                assert rho.kind == "divergent"
            else:
                assert rho.kind == "convergent"


class TestDispersionClassification:
    def test_right_boundary_threshold(self):
        assert cr.classify(DISP, cr.PowerOfTau(1.0, 1.5)).verdict == \
            cr.IRREGULAR_NONSINGULAR
        spec = cr.oscillation_spec(kernels.dispersion3())
        wrapped = cr.apply_cutoff(cr.PowerOfTau(1.0, 4.0 / 3.0), spec)
        assert cr.classify(DISP, wrapped).verdict == cr.REGULAR

    def test_right_threshold_is_amplitude_independent(self):
        for c in (0.3, 1.0, 7.0):
            v = cr.classify(DISP, cr.PowerOfTau(c, 1.4))
            assert v.verdict == cr.IRREGULAR_NONSINGULAR

    def test_right_without_cutoff_indeterminate(self):
        v = cr.classify(DISP, cr.PowerOfTau(1.0, 1.0))
        assert v.verdict == cr.INDETERMINATE

    def test_right_accepts_single_log_spelled_as_powerlog(self):
        # the natural right-boundary family carries a single logarithm in
        # the original time; (C, gamma) are read off either spelling
        assert cr.classify(DISP, cr.PowerLog(1.0, 1.5)).verdict == \
            cr.IRREGULAR_NONSINGULAR

    def test_left_boundary_threshold(self):
        reg = cr.classify(DISP, cr.PowerLog(C_STAR_DISP_LEFT, 2.0 / 3.0), "left")
        irr = cr.classify(DISP, cr.PowerLog(C_STAR_DISP_LEFT + 0.05, 2.0 / 3.0), "left")
        assert reg.verdict == cr.REGULAR
        assert irr.verdict == cr.IRREGULAR_NONSINGULAR

    def test_left_needs_no_cutoff(self):
        v = cr.classify(DISP, cr.PowerLog(1.0, 0.5), "left")
        assert v.verdict == cr.REGULAR

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            cr.classify_dispersion("top", cr.PowerLog(1.0, 1.0))

    def test_default_side_is_right(self):
        phi = cr.PowerOfTau(1.0, 1.0)
        assert cr.classify(DISP, phi) == cr.classify(DISP, phi, "right") == \
            cr.classify_dispersion("right", phi)


class TestPolyharmonicClassification:
    def test_order_six_threshold_constant(self):
        kc = kernels.kernel_constants(kernels.parabolic(3))
        c_star = kc.d0 ** (-1.0 / kc.alpha)
        crit_gamma = 5.0 / 6.0
        hi = cr.classify(kernels.parabolic(3), cr.PowerLog(c_star + 0.1, crit_gamma))
        assert hi.verdict == cr.IRREGULAR_NONSINGULAR
        lo = cr.classify(kernels.parabolic(3), cr.apply_cutoff(
            cr.PowerLog(c_star - 0.1, crit_gamma), kernels.parabolic(3)))
        assert lo.verdict == cr.REGULAR

    def test_matches_fourth_order_wrapper(self):
        v1 = cr.classify_biharmonic(cr.PowerLog(3.2, 0.75))
        v2 = cr.classify(kernels.parabolic(2), cr.PowerLog(3.2, 0.75))
        assert v1 == v2

    def test_epsilon_above_threshold_irregular_any_order(self):
        for m in (2, 3, 4):
            kc = kernels.kernel_constants(kernels.parabolic(m))
            c_star = kc.d0 ** (-1.0 / kc.alpha)
            gamma = (2 * m - 1) / (2 * m)
            v = cr.classify(kernels.parabolic(m), cr.PowerLog(c_star + 0.1, gamma))
            assert v.verdict == cr.IRREGULAR_NONSINGULAR

    def test_second_order_redirected(self):
        # order 2 is the heat equation: Gaussian threshold 2, no cut-off
        v = cr.classify(kernels.parabolic(1), cr.PowerLog(2.0, 0.5))
        assert v.verdict == cr.REGULAR and v.rationale == "analytic-family"
        assert v.diagnostics["critical_c"] == 2.0
        assert cr.classify_heat(cr.PowerLog(2.0, 0.5)) == v


# C* of order 2m in closed form: d0 = (2m-1) (2m)^(-alpha) sin(pi / (2 (2m-1))),
# alpha = 2m / (2m-1); for m = 3, sin(pi/10) = (sqrt(5) - 1) / 4
@pytest.mark.parametrize("family, side, closed_form", [
    (kernels.biharmonic(), "right", 3.0 ** (-0.75) * 2.0 ** 2.75),
    (kernels.biharmonic(), "left", 3.0 ** (-0.75) * 2.0 ** 2.75),
    (kernels.heat(), "right", 2.0),
    (kernels.parabolic(3), "right", 6.0 * (1.25 * (math.sqrt(5.0) - 1.0)) ** (-5.0 / 6.0)),
    (kernels.dispersion3(), "right", 4.0 / 3.0),
    (kernels.dispersion3(), "left", (1.5 * math.sqrt(3.0)) ** (2.0 / 3.0)),
], ids=["biharmonic", "biharmonic-left", "heat", "order6", "dispersion-right",
        "dispersion-left"])
def test_threshold_matches_closed_form(family, side, closed_form):
    assert cr.threshold(family, side) == pytest.approx(closed_form, rel=1e-15, abs=0.0)


class TestClassifyRejectsBadInput:
    def test_beam_has_no_criterion(self):
        with pytest.raises(ValueError, match="beam4"):
            cr.classify(kernels.beam4(), cr.PowerLog(1.0, 0.5))
        with pytest.raises(ValueError, match="beam4"):
            cr.threshold(kernels.beam4())

    @pytest.mark.parametrize("family", ["biharmonic", 2, None])
    def test_non_family_named(self, family):
        with pytest.raises(ValueError, match=f"EquationFamily, got {family!r}"):
            cr.classify(family, cr.PowerLog(1.0, 0.5))

    @pytest.mark.parametrize("family", [kernels.biharmonic(), kernels.dispersion3()])
    def test_bad_side_named(self, family):
        with pytest.raises(ValueError, match="got 'top'"):
            cr.classify(family, cr.PowerLog(1.0, 0.5), side="top")


class TestNumericTail:
    def test_nan_cap_rejected(self):
        # u_max = nan used to return "inconclusive" with no windows
        with pytest.raises(ValueError, match="u_max"):
            cr.diagnose_tail(cr.oscillation_spec(BIH), cr.PowerLog(2.0, 0.75), u_max=math.nan)

    def test_analytic_numeric_agreement_near_threshold(self):
        # five percent away from the critical constant the dyadic-tail
        # diagnosis must agree with the analytic verdict
        spec = cr.oscillation_spec(kernels.biharmonic())
        for c, expected in [(1.05 * C_STAR_4TH, "convergent"),
                            (1.2 * C_STAR_4TH, "convergent")]:
            diag = cr.diagnose_tail(spec, cr.PowerLog(c, 0.75))
            assert diag.kind == expected, (c, diag)
        wrapped = cr.apply_cutoff(cr.PowerLog(0.95 * C_STAR_4TH, 0.75), kernels.biharmonic())
        diag = cr.diagnose_tail(spec, wrapped)
        assert diag.kind == "divergent"

    def test_heat_numeric_agreement(self):
        spec = cr.oscillation_spec(kernels.heat())
        diag = cr.diagnose_tail(spec, cr.PetrovskiiSqrtLog(2.0 * 1.05))
        assert diag.kind == "convergent"
        diag = cr.diagnose_tail(spec, cr.PetrovskiiSqrtLog(2.0 * 0.95))
        assert diag.kind == "divergent"

    def test_tabulated_short_range_indeterminate(self):
        taus = np.geomspace(cr.TAU0, 1e4, 32)
        phi = cr.Tabulated(tuple(taus), tuple(2.0 * np.log(taus) ** 0.75))
        assert cr.classify(BIH, phi).verdict == cr.INDETERMINATE

    def test_tabulated_long_range_classified(self):
        taus = np.geomspace(cr.TAU0, 1e70, 200)
        phi = cr.Tabulated(tuple(taus), tuple(4.2 * np.log(taus) ** 0.75))
        verdict = cr.classify(BIH, phi)
        assert verdict.verdict == cr.IRREGULAR_NONSINGULAR
        assert verdict.rationale == "numeric-tail"


def _tabulated(c, gamma, lntau):
    return cr.Tabulated(tuple(np.exp(lntau)), tuple(c * lntau**gamma))


C_STAR_6TH = cr.threshold(kernels.parabolic(3))


class TestWindowRule:
    @pytest.mark.parametrize("family, phi", [
        (BIH, cr.apply_cutoff(cr.PowerLog(0.95 * C_STAR_4TH, 0.75), BIH)),
        (BIH, cr.PowerLog(1.05 * C_STAR_4TH, 0.75)),
        (BIH, cr.PowerLog(1.2 * C_STAR_4TH, 0.75)),
        (BIH, cr.PowerLog(C_STAR_4TH - 0.2, 0.75)),
        (HEAT, cr.PetrovskiiSqrtLog(1.9)),
        (HEAT, cr.PetrovskiiSqrtLog(2.1)),
        (HEAT, _tabulated(1.8, 0.5, np.linspace(1.0, 700.0, 60))),
        (HEAT, _tabulated(2.2, 0.5, np.linspace(1.0, 700.0, 60))),
        (DISP, cr.apply_cutoff(cr.PetrovskiiSqrtLog(1.0), DISP)),
        (kernels.parabolic(3),
         cr.apply_cutoff(cr.PetrovskiiSqrtLog(0.9 * C_STAR_6TH), kernels.parabolic(3))),
        (BIH, _tabulated(4.2, 0.75, np.log(np.geomspace(cr.TAU0, 1e70, 200)))),
    ], ids=["cutoff-0.95", "bare-1.05", "bare-1.2", "bare-minus-0.2", "heat-1.9", "heat-2.1",
            "tabulated-heat-1.8", "tabulated-heat-2.2", "dispersion-right-cutoff",
            "order6-cutoff", "tabulated-1e70"])
    def test_order_doubling_moves_no_window(self, family, phi):
        # diagnose_tail raises QuadratureError for any window whose order-24
        # and order-48 sums differ by more than 1e-12 of its integral of |f|
        diag = cr.diagnose_tail(cr.oscillation_spec(family), phi, u_max=math.log(phi.tau_max))
        assert len(diag.window_sums) >= 3

    def test_unpublished_jump_raises(self):
        class Jump(cr.BoundaryFunction):
            # sqrt-log boundary that jumps at u = 5.1, inside a panel
            def _phi_u(self, u):
                return np.where(u < 5.1, 1.9, 2.1) * np.sqrt(u)

        class PublishedJump(Jump):
            def breakpoints(self, u_lo, u_hi):
                return np.array([5.1])

        spec = cr.oscillation_spec(HEAT)
        with pytest.raises(numcore.QuadratureError, match=r"window \[4, 8\]"):
            cr.diagnose_tail(spec, Jump())
        assert cr.diagnose_tail(spec, PublishedJump()).kind == "convergent"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, side, phi, kind", [
        (DISP, "left", cr.PowerOfTau(1.0, 1.3), "convergent"),
        (DISP, "left", cr.PowerOfTau(0.5, 0.7), "convergent"),
        (HEAT, "right", cr.PowerOfTau(1.0, 1.2), "convergent"),
        (HEAT, "right", cr.PowerOfTau(0.5, 1.0), "convergent"),
        (BIH, "right", cr.PowerLog(0.5, 3.0), "convergent"),
        (kernels.parabolic(3), "right", cr.PowerOfTau(1.0, 3.0), "convergent"),
    ], ids=["dispersion-left-tau-1.3", "dispersion-left-tau-0.7", "heat-tau-1.2",
            "heat-tau-1.0", "biharmonic-log-3", "order6-tau-3"])
    def test_steep_envelope_collapse(self, family, side, phi, kind):
        # the envelope falls through many decades inside one panel, and phi
        # itself passes the float range before u = 1024: panels are halved
        # where the orders disagree, and the collapsed integrand reads 0
        assert cr.diagnose_tail(cr.oscillation_spec(family, side), phi).kind == kind

    def test_power_of_tau_on_the_dispersion_left_side(self):
        verdict = cr.classify(DISP, cr.PowerOfTau(1.0, 1.3), "left")
        assert (verdict.verdict, verdict.rationale) == (cr.IRREGULAR_NONSINGULAR, "numeric-tail")

    def test_cutoff_of_a_power_of_tau_is_refused(self):
        # the phase of C tau^gamma runs through ~1e12 radians by u = 16:
        # too many joints to publish, so no window is integrated
        wrapped = cr.apply_cutoff(cr.PowerOfTau(1.0, 1.2), DISP)
        with pytest.raises(numcore.NumericsError, match="too many cut-off arcs"):
            cr.diagnose_tail(cr.oscillation_spec(DISP), wrapped, u_max=20.0)


class TestCoefficientTraces:
    def test_heat_coefficient_decreases_to_zero(self):
        tr = cr.integrate_a0("heat", cr.PetrovskiiSqrtLog(2.0), lntau_span=(1.0, 2000.0))
        assert not tr.hit_zero
        assert np.all(np.diff(tr.log_a0) <= 1e-12)
        assert tr.log_a0[-1] < -15.0  # diverging negative log-integral

    def test_heat_positivity_preserved(self):
        tr = cr.integrate_a0("heat", cr.PowerLog(1.5, 0.4), lntau_span=(1.0, math.log(1e8)))
        assert np.all(np.isfinite(tr.log_a0))  # a0 stayed positive

    def test_fourth_order_below_threshold_oscillates_unboundedly(self):
        tr = cr.integrate_a0("biharmonic", cr.PowerLog(2.5, 0.75),
                             lntau_span=(1.0, math.log(1e12)), n_out=1200)
        la = tr.log_a0
        assert la.max() > 20.0 and la.min() < -20.0
        # excursions grow: the singular-irregular signature
        half = len(la) // 2
        assert np.max(np.abs(la[half:])) > np.max(np.abs(la[:half]))

    def test_fourth_order_above_threshold_settles(self):
        tr = cr.integrate_a0("biharmonic", cr.PowerLog(3.5, 0.75),
                             lntau_span=(1.0, math.log(1e12)), n_out=1200)
        la = tr.log_a0
        tail_swing = la[-300:].max() - la[-300:].min()
        assert tail_swing < 0.05  # convergent envelope, finite nonzero limit

    def test_reduced_cubic_model_asymptotics(self):
        tr = cr.integrate_a0("pme4-reduced", cr.Constant(1.0),
                             lntau_span=(1.0, 3000.0), n_out=800)
        p, amp = tr.fit_log_power(lntau_window=(700.0, 3000.0))
        assert p == pytest.approx(-1.5, abs=0.05)
        assert amp == pytest.approx(3.0**1.5 * 2.0**-5.5, rel=0.15)

    def test_full_cubic_model_decays_for_unit_boundary(self):
        tr = cr.integrate_a0("pme4", cr.Constant(1.0), lntau_span=(1.0, 60.0))
        assert tr.log_a0[-1] < tr.log_a0[0] - 2.0

    def test_positive_start_required(self):
        with pytest.raises(ValueError):
            cr.integrate_a0("pme4-reduced", cr.Constant(1.0), lntau_span=(1.0, 10.0),
                            a0_init=-1.0)

    @pytest.mark.parametrize("family", ["heat", "biharmonic", "beam4", "pme4", "pme4-reduced"])
    @pytest.mark.parametrize("a0_init", [-1.0, 0.0, math.nan, math.inf])
    def test_positive_finite_start_required(self, family, a0_init):
        # heat with a0_init = -1 used to fail with "math domain error"
        with pytest.raises(ValueError, match="a0_init"):
            cr.integrate_a0(family, cr.PetrovskiiSqrtLog(2.0), lntau_span=(1.0, 10.0),
                            a0_init=a0_init)

    @pytest.mark.parametrize("span", [(10.0, 1.0), (5.0, 5.0), (-5.0, 1.0), (0.5, 10.0),
                                      (1.0, math.inf), (math.nan, 10.0), (1.0, math.nan)])
    def test_bad_log_span_rejected(self, span):
        # (10, 1) used to return log a0 = 445.5 and (-5, 1) a nan trace
        with pytest.raises(ValueError, match="span"):
            cr.integrate_a0("heat", cr.PetrovskiiSqrtLog(2.0), lntau_span=span)

    def test_decreasing_tau_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            cr.integrate_a0("heat", cr.PetrovskiiSqrtLog(2.0),
                            lntau_span=(math.log(1e8), math.log(cr.TAU0)))

    @pytest.mark.parametrize("n_out", [1, 0, -3])
    def test_fewer_than_two_output_points_rejected(self, n_out):
        # n_out = 1 used to fail with an IndexError
        with pytest.raises(ValueError, match="n_out"):
            cr.integrate_a0("heat", cr.PetrovskiiSqrtLog(2.0), lntau_span=(1.0, 10.0),
                            n_out=n_out)

    @pytest.mark.parametrize("a0_init", [1e2, 1e3, 1e4])
    def test_a_trace_that_crosses_the_floor_stops_before_it(self, a0_init):
        # phi = 1e-30 leaves the reduced model at da0/du = -e^u to the last bit, so
        # a0 = a0_init + e - e^u, which meets the floor 1e-12 a0_init at u_cross,
        # where the rate is -e^u_cross, not 0
        tr = cr.integrate_a0("pme4-reduced", cr.Constant(1e-30), lntau_span=(1.0, 10.0),
                             a0_init=a0_init, n_out=91)
        u_cross = math.log(a0_init + math.e - 1e-12 * a0_init)
        u_eval = np.linspace(1.0, 10.0, 91)
        assert tr.hit_zero
        assert np.array_equal(tr.ln_tau, u_eval[u_eval < u_cross])
        exact = a0_init + math.e - np.exp(tr.ln_tau)
        np.testing.assert_allclose(np.exp(tr.log_a0), exact, rtol=0.0, atol=1e-8 * a0_init)

    @pytest.mark.parametrize("family", ["pme4", "pme4-reduced"])
    def test_rate_runs_linearly_to_zero_below_the_floor(self, family):
        # a rate that dropped to 0 at the floor would jump there; on span (1, 30)
        # with a0_init = 1e3 the trace above stalled LSODA at u = 6.9105 with
        # steps of 2.4e-15
        floor = 1e-12
        rhs, jac = cr._a0_direct_rhs(family, cr.Constant(1e-6).at_logtime, floor)
        at_floor = rhs(3.0, floor)
        assert at_floor < 0.0
        assert rhs(3.0, 0.5 * floor) == 0.5 * at_floor
        assert rhs(3.0, 0.0) == rhs(3.0, -1.0) == 0.0
        if jac is not None:
            assert jac(3.0, 0.5 * floor) == at_floor / floor and jac(3.0, 0.0) == 0.0

    @pytest.mark.parametrize("family, phi, span", [
        ("pme4-reduced", cr.Constant(1.0), (1.0, 3000.0)),
        ("pme4", cr.Constant(1.0), (1.0, 60.0)),
        ("biharmonic", cr.PowerLog(3.5, 0.75), (1.0, 40.0)),
    ])
    def test_steps_do_not_depend_on_the_outputs(self, family, phi, span):
        # the outputs are read off LSODA's interpolant; its first step is sized
        # by the whole span, so the output grid never steers a step
        calls = {cr.integrate_a0(family, phi, lntau_span=span, n_out=n).rhs_calls
                 for n in (2, 57, 400)}
        assert len(calls) == 1

    def test_beam_trace_swings_both_ways(self):
        tr = cr.integrate_a0("beam4", cr.PowerLog(1.0, 0.5), lntau_span=(1.0, math.log(1e8)))
        assert tr.log_a0.max() > 1.0 and tr.log_a0.min() < -1.0

    @pytest.mark.parametrize("ratio", [1.05, 1.18, 1.3])
    def test_biharmonic_trace_matches_a_certified_quadrature(self, ratio):
        # independent route: ln a0 is the integral of the slope, here summed
        # window by window by the composite Gauss-Legendre rule on the kernel
        # quadrature alone; a fitted far form past v = 23.5 once put these
        # traces off by up to 7.7e-3
        phi = cr.PowerLog(ratio * C_STAR_4TH, 0.75)
        tr = cr.integrate_a0("biharmonic", phi, lntau_span=(1.0, 60.0))
        g1, g2 = blayer.wall_constants(blayer.biharmonic_profile())
        kern = kernels.get_kernel(BIH)

        def slope(u):
            v = phi.at_logtime(u)
            f0, f1 = kern._quad(v, 1e-13, (0, 1))
            return (g2 * v * f0 + g1 * v ** (2.0 / 3.0) * f1) * np.exp(u)

        sums = numcore.gauss_legendre_windows(slope, tr.ln_tau)
        ref = np.concatenate([[0.0], np.cumsum(sums)])
        assert np.abs(tr.log_a0 - ref).max() <= 1e-9


class TestFullCubicModel:
    """The full pme4 coefficient settles on the root a0* of the layer flux
    by ln tau ~ 5; after that its right-hand side is e^u times rounding
    noise, and only the analytic Jacobian keeps LSODA's work bounded."""

    @pytest.fixture(scope="class")
    def flux_root(self):
        g1, g2 = blayer.wall_constants(blayer.solve_bl_bvp("pme4", 50.0, tol=1e-8))
        fam = kernels.biharmonic()

        def density(a0):
            arg = 1.0 / math.sqrt(a0)
            return (g2 * math.sqrt(a0) * kernels.eval_kernel(fam, arg)
                    + g1 * a0 ** (2.0 / 3.0) * kernels.eval_kernel(fam, arg, order=1))

        return numcore.find_root(density, (0.03, 0.2), tol=1e-15)

    @pytest.mark.parametrize("a0_init", [0.9, 0.95, 0.98, 1.0, 1.05])
    def test_every_start_reaches_the_end_on_the_flux_root(self, a0_init, flux_root):
        tr = cr.integrate_a0("pme4", cr.Constant(1.0), lntau_span=(1.0, 3000.0),
                             a0_init=a0_init)
        assert tr.ln_tau[-1] == 3000.0 and not tr.hit_zero
        assert math.exp(tr.log_a0[-1]) == pytest.approx(flux_root, rel=1e-9)
        # a count, not a time: starts in this range took 440-680 calls
        assert tr.rhs_calls < 2000

    def test_wall_constants_solved_once(self, monkeypatch):
        solves, solve = [], blayer.solve_bl_bvp

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        cr._pme4_wall_constants.cache_clear()
        monkeypatch.setattr(cr.blayer, "solve_bl_bvp", counted)
        for _ in range(2):
            cr._a0_direct_rhs("pme4", cr.Constant(1.0).at_logtime, 1e-12)
        direct = blayer.wall_constants(solve("pme4", 50.0, tol=1e-8))
        assert solves == [("pme4", 50.0)] and cr._pme4_wall_constants() == direct

    @pytest.mark.parametrize("a0", [0.03, 0.0639, 0.2, 1.0, 1.5])
    @pytest.mark.parametrize("u", [1.0, 4.0])
    def test_jacobian_matches_a_central_difference(self, a0, u):
        rhs, jac = cr._a0_direct_rhs("pme4", cr.Constant(1.0).at_logtime, 1e-12)
        h = 1e-5 * a0
        central = (rhs(u, a0 + h) - rhs(u, a0 - h)) / (2.0 * h)
        assert jac(u, a0) == pytest.approx(central, rel=1e-7, abs=1e-9 * math.exp(u))

    def test_solver_failure_is_an_ode_error(self, monkeypatch):
        def failed_run(func, y0, t, **kwargs):
            # the outputs at ln tau = 2 and 3 were reached; the call for 4 stopped
            # at 3, and the rows after it are unset
            tcur = np.full(t.size - 1, np.nan)
            tcur[:3] = (2.0, 3.0, 3.0)
            return np.ones((t.size, 1)), {"message": "Unexpected istate in LSODA.",
                                          "tcur": tcur, "nfe": np.full(t.size - 1, 10)}

        monkeypatch.setattr(scipy.integrate, "odeint", failed_run)
        with pytest.raises(numcore.OdeError, match=r"'pme4'.*ln tau = 3 of 100: .*istate") as err:
            cr.integrate_a0("pme4", cr.Constant(1.0), lntau_span=(1.0, 100.0), n_out=100)
        assert err.value.last_abscissa == 3.0


class TestCubicCriticalFamily:
    def test_scale_invariance(self):
        report = cr.pme4_critical()
        assert report.gamma == 0.75
        assert report.scale_invariant
        assert report.verdicts["C=1, gamma=3/4"] == report.verdicts["C=2, gamma=3/4"]

    def test_steeper_power_stays_positive(self):
        fate, trace = cr.pme4_coefficient_fate(cr.PowerLog(1.0, 0.9))
        assert fate == "frozen"
        assert trace.log_a0[-1] > math.log(1e-6)

    def test_shallower_power_decays(self):
        fate, _ = cr.pme4_coefficient_fate(cr.PowerLog(1.0, 0.5))
        assert fate == "decaying"
