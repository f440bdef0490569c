"""Properties every boundary family and its oscillatory cut-off must keep."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import criteria as cr
from reglab import kernels

TAU_HI = 1e12
OSCILLATORY = {"biharmonic": kernels.biharmonic(), "dispersion3": kernels.dispersion3()}


def _tabulated(c, gamma):
    taus = np.geomspace(cr.TAU0, TAU_HI, 40)
    return cr.Tabulated(tuple(taus), tuple(c * np.log(taus) ** gamma))


amplitudes = st.floats(0.1, 5.0)
log_exponents = st.floats(0.1, 1.5)
base_boundaries = st.one_of(
    st.builds(cr.Constant, amplitudes),
    st.builds(cr.PowerLog, amplitudes, log_exponents),
    st.builds(cr.PetrovskiiSqrtLog, amplitudes),
    st.builds(cr.PowerOfTau, amplitudes, st.floats(0.05, 1.5)),
    st.builds(_tabulated, amplitudes, log_exponents),
)


@st.composite
def boundaries(draw):
    """A built-in boundary, bare or behind the cut-off of an oscillatory family."""
    phi = draw(base_boundaries)
    family = draw(st.sampled_from([None, *OSCILLATORY]))
    return phi if family is None else cr.apply_cutoff(phi, OSCILLATORY[family])


taus = st.floats(cr.TAU0, TAU_HI)


@settings(max_examples=60, deadline=None)
@given(boundaries(), st.lists(taus, min_size=1, max_size=12))
def test_array_call_equals_scalar_calls_bit_for_bit(phi, points):
    arr = np.array(points)
    for fn, xs in ((phi, arr), (phi.derivative, arr), (phi.at_logtime, np.log(arr))):
        scalars = [fn(x) for x in xs.tolist()]
        assert all(type(v) is float for v in scalars)
        vector = fn(xs)
        assert isinstance(vector, np.ndarray) and vector.shape == xs.shape
        np.testing.assert_array_equal(vector, np.array(scalars))


@settings(max_examples=60, deadline=None)
@given(amplitudes, log_exponents, st.lists(taus, min_size=1, max_size=12))
def test_tabulated_cached_log_grid_keeps_the_formula(c, gamma, points):
    # the log grid is made on first use and kept; scalar calls, array calls
    # and a fresh instance's first call all equal the log-log interpolation
    arr = np.array(points)
    phi = _tabulated(c, gamma)
    direct = np.exp(np.interp(np.log(arr), np.log(np.asarray(phi.tau_grid)),
                              np.log(np.asarray(phi.values))))
    np.testing.assert_array_equal(np.array([phi(t) for t in points]), direct)
    np.testing.assert_array_equal(phi(arr), direct)
    np.testing.assert_array_equal(_tabulated(c, gamma)(arr), direct)


@settings(max_examples=60, deadline=None)
@given(boundaries(), taus)
def test_logtime_reading_matches_tau_reading(phi, tau):
    # phi(tau) is the log-time formula at np.log(tau); math.log differs from
    # np.log in the last bit for a few inputs in 1e5, so it is not used here
    at_u = phi.at_logtime(float(np.log(tau)))
    assert type(at_u) is float
    assert at_u == phi(tau)


def test_constant_reads_tau_zero_without_a_warning():
    # ln 0 = -inf reaches the log-time formula, which a constant ignores
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cr.Constant(2.5)(0.0) == 2.5
        np.testing.assert_array_equal(cr.Constant(2.5)(np.array([0.0, 1.0])), [2.5, 2.5])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(OSCILLATORY)), st.floats(0.01, 0.5),
       st.lists(st.floats(-60.0, 60.0), min_size=2, max_size=40))
def test_cutoff_phase_map(family, eps_s, thetas):
    wrapped = cr.apply_cutoff(cr.PowerLog(1.0, 0.75), OSCILLATORY[family], eps_s=eps_s)
    theta = np.sort(np.array(thetas))
    g = wrapped._phase_map(theta)
    ulps = 8.0 * np.finfo(float).eps * np.maximum(np.abs(g), 1.0)
    assert np.all(np.diff(g) >= -ulps[1:])
    assert np.all(g >= theta - ulps)
    # off the ramps (relative phase beyond eps_s in the positive-cosine
    # arc, or before it) the trigonometric factor is nonpositive
    arc_entry = 2.0 * math.pi * np.floor((theta + 0.5 * math.pi) / (2.0 * math.pi)) - 0.5 * math.pi
    off_ramp = ~((theta - arc_entry > 0.0) & (theta - arc_entry <= eps_s))
    assert np.all(np.cos(g[off_ramp]) <= 1e-12)
