"""Properties every boundary family and its oscillatory cut-off must keep."""

import math

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
    for fn in (phi, phi.derivative):
        scalars = [fn(t) for t in points]
        assert all(type(v) is float for v in scalars)
        vector = fn(arr)
        assert isinstance(vector, np.ndarray) and vector.shape == arr.shape
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
    value = phi(tau)
    at_u = phi.at_logtime(math.log(tau))
    assert type(at_u) is float
    assert math.isclose(at_u, value, rel_tol=1e-12)


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
