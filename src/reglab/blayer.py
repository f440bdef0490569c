"""Stationary boundary-layer profiles near the lateral wall.

In the wall variable xi (distance from the boundary in layer units) the
generic solution transitions from 0 at the wall to the interior plateau
value 1.  Closed forms exist for the heat, fourth-order (biharmonic) and
third-order dispersion layers; the generic linear operator and the cubic
diffusion layer are solved as boundary-value problems with far-field
conditions that kill the growing mode and pin the plateau exactly, so
the finite truncation length does not limit the accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from reglab.numcore import BvpError, check_tolerance


@dataclass(frozen=True)
class BoundaryLayerProfile:
    """Wall profile g0 with its wall derivatives.

    ``wall_derivatives`` holds (g0'(0), g0''(0), g0'''(0)); the curvature
    pair used by the criterion ODEs is exposed via
    :func:`wall_constants`.  ``provenance`` is ``closed-form`` or
    ``bvp``.
    """

    family: str
    xi: np.ndarray
    values: np.ndarray
    wall_derivatives: tuple[float, float, float]
    far_value: float
    provenance: str
    evaluate: callable

    def __call__(self, xi):
        return self.evaluate(xi)


# ---------------------------------------------------------------------------
# closed forms


_BIH_B = 2.0 ** (-5.0 / 3.0)
_BIH_A = math.sqrt(3.0) * _BIH_B


def biharmonic_characteristic_roots():
    """Roots of the layer operator -g'''' + g'/4: 0 and the decaying pair."""
    pair = 4.0 ** (-1.0 / 3.0) * complex(-0.5, 0.5 * math.sqrt(3.0))
    return 0.0, pair, pair.conjugate()


def _biharmonic_closed(xi):
    xi = np.asarray(xi, dtype=float)
    b, a = _BIH_B, _BIH_A
    out = 1.0 - np.exp(-b * xi) * (np.cos(a * xi) + np.sin(a * xi) / math.sqrt(3.0))
    return out if out.shape else float(out)


def biharmonic_profile(xi_max=30.0):
    """Closed-form layer profile of the fourth-order equation, on 601 points of [0, xi_max].

    g0(xi) = 1 - exp(-xi/2^(5/3)) [cos(sqrt(3) xi / 2^(5/3))
                                   + sin(sqrt(3) xi / 2^(5/3)) / sqrt(3)],
    with exact wall derivatives (0, 2^(-4/3), -1/4).
    """
    xi = np.linspace(0.0, xi_max, 601)
    b, a = _BIH_B, _BIH_A
    # g0' = (4b/sqrt(3)) e^(-b xi) sin(a xi); differentiate twice more at 0
    g1 = 0.0
    g2 = 4.0 * b * b  # = 2^(-4/3)
    g3 = -8.0 * b**3  # = -1/4
    return BoundaryLayerProfile(
        family="biharmonic", xi=xi, values=_biharmonic_closed(xi),
        wall_derivatives=(g1, g2, g3), far_value=1.0,
        provenance="closed-form", evaluate=_biharmonic_closed,
    )


def _dispersion_closed(xi):
    xi = np.asarray(xi, dtype=float)
    out = 1.0 - np.exp(-xi / math.sqrt(3.0))
    return out if out.shape else float(out)


def dispersion_profile(xi_max=30.0):
    """Closed-form dispersion layer profile 1 - exp(-xi/sqrt(3)), on 601 points of [0, xi_max].

    Only g0(0) = 0 is imposed by the third-order operator; the wall
    derivative set is (1/sqrt(3), -1/3, ...).
    """
    xi = np.linspace(0.0, xi_max, 601)
    s = 1.0 / math.sqrt(3.0)
    return BoundaryLayerProfile(
        family="dispersion3", xi=xi, values=_dispersion_closed(xi),
        wall_derivatives=(s, -s * s, s**3), far_value=1.0,
        provenance="closed-form", evaluate=_dispersion_closed,
    )


def _heat_closed(xi):
    xi = np.asarray(xi, dtype=float)
    out = 1.0 - np.exp(-0.5 * xi)
    return out if out.shape else float(out)


def heat_profile(xi_max=30.0):
    """Heat-equation layer profile 1 - exp(-xi/2) on 601 points of [0, xi_max]; wall slope 1/2."""
    xi = np.linspace(0.0, xi_max, 601)
    return BoundaryLayerProfile(
        family="heat", xi=xi, values=_heat_closed(xi),
        wall_derivatives=(0.5, -0.25, 0.125), far_value=1.0,
        provenance="closed-form", evaluate=_heat_closed,
    )


def wall_constants(profile):
    """Leading wall-derivative pair feeding the criterion ODEs.

    For clamped layers (wall value and slope both zero) this is
    (gamma_1, gamma_2) = (g0''(0), g0'''(0)); for the third-order layer
    the set starts at the first derivative, so (g0'(0), g0''(0)) is
    returned.
    """
    d1, d2, d3 = profile.wall_derivatives
    if profile.family in ("dispersion3", "heat"):
        return d1, d2
    return d2, d3


# ---------------------------------------------------------------------------
# boundary-value solver


def _linear_layer_modes(family):
    """Characteristic roots of the linearized layer operator at the plateau."""
    if family == "biharmonic":
        # -g'''' + g'/4 = 0 linear part: roots of r^3 = 1/4 plus r = 0
        r = 4.0 ** (-1.0 / 3.0)
    elif family == "pme4":
        # -G'''' + |G|^(-2/3) G'/12 at G = 1: roots of r^3 = 1/12
        r = 12.0 ** (-1.0 / 3.0)
    elif family == "dispersion3":
        # g''' - g'/3 = 0: roots 0, +-1/sqrt(3)
        return [complex(1.0 / math.sqrt(3.0), 0.0)], [complex(-1.0 / math.sqrt(3.0), 0.0)]
    else:
        raise ValueError(f"no boundary-value layer for family {family!r}")
    growing = [complex(r, 0.0)]
    decaying = [r * complex(-0.5, 0.5 * math.sqrt(3.0)), r * complex(-0.5, -0.5 * math.sqrt(3.0))]
    return growing, decaying


def _far_field_functionals(family, order):
    """Rows extracting the growing-mode coefficient and the plateau value.

    In the mode basis {1, growing, decaying...} of the linearized
    operator, the solution state at the truncation point is
    y = V c with V the Vandermonde matrix of the roots.  The returned
    real rows applied to the state give (growing coefficient, plateau
    constant), so the far boundary conditions (kill growth, plateau = 1)
    hold exactly rather than up to the truncated tail.
    """
    growing, decaying = _linear_layer_modes(family)
    roots = [complex(0.0, 0.0)] + growing + decaying
    vand = np.array([[r**k for r in roots] for k in range(order)], dtype=complex)
    inv = np.linalg.inv(vand)
    row_grow = inv[1]
    row_plateau = inv[0]
    return np.real(row_grow), np.imag(row_grow), np.real(row_plateau)


def solve_bl_bvp(family, length=30.0, tol=1e-10):
    """Layer profile by collocation on (0, length) for the named family.

    ``family`` is ``biharmonic``, ``dispersion3`` (linear layers, the
    closed forms are the oracles) or ``pme4`` for the cubic diffusion
    layer solved in semilinear form: -G'''' + |G|^(-2/3) G'/12 = 0 with
    G = G' = 0 at the wall and plateau 1.  Far-field conditions are the
    growth-killing and plateau-pinning functionals of the linearization,
    so the quality is limited by the solver tolerance, not the domain
    truncation.  The linear layers start from their closed forms on 400
    even nodes.  ``tol`` must be positive and finite (``ValueError``); a
    solve that does not converge raises ``numcore.BvpError``.
    """
    check_tolerance(tol)
    if family == "dispersion3":
        order = 3

        def rhs(xi, y):
            return np.vstack([y[1], y[2], y[1] / 3.0])

        rg_re, _, row_pl = _far_field_functionals(family, order)

        def bc(ya, yb):
            return np.array([ya[0], rg_re @ yb, row_pl @ yb - 1.0])

        guess_fun = _dispersion_closed
    elif family == "biharmonic":
        order = 4

        def rhs(xi, y):
            return np.vstack([y[1], y[2], y[3], y[1] / 4.0])

        rg_re, rg_im, row_pl = _far_field_functionals(family, order)

        def bc(ya, yb):
            return np.array([ya[0], ya[1], rg_re @ yb, row_pl @ yb - 1.0])

        guess_fun = _biharmonic_closed
    elif family == "pme4":
        return _solve_pme4_layer(length, tol)
    else:
        raise ValueError(f"no boundary-value layer for family {family!r}")

    xi = np.linspace(0.0, length, 400)
    guess = np.zeros((order, xi.size))
    guess[0] = guess_fun(xi)
    for k in range(1, order):
        guess[k] = np.gradient(guess[k - 1], xi)

    sol = integrate.solve_bvp(rhs, bc, xi, guess, tol=tol, max_nodes=200000)
    if not sol.success:
        raise BvpError(f"layer BVP for {family} did not converge: {sol.message}")

    xi_out = np.linspace(0.0, length, 1201)
    vals = sol.sol(xi_out)[0]
    state0 = sol.sol(0.0)
    wall = (float(state0[1]), float(state0[2]), float(state0[3]) if order > 3 else 0.0)
    far = float(row_pl @ sol.sol(length))
    return BoundaryLayerProfile(
        family=family, xi=xi_out, values=vals,
        wall_derivatives=wall, far_value=far,
        provenance="bvp", evaluate=lambda q, _s=sol: _s.sol(np.asarray(q, dtype=float))[0],
    )


def _solve_pme4_layer(length, tol, xi0=1e-3):
    """Cubic diffusion layer G'''' = |G|^(-2/3) G'/12, G = G' = 0 at the wall.

    The wall is a singular point of the coefficient, so the domain starts
    at ``xi0`` with Taylor conditions G ~ s2 xi^2/2 + s3 xi^3/6 whose
    coefficients are unknown parameters of the collocation problem (the
    local corrections enter at order xi^(11/3) and are negligible at
    xi0).  Far-field conditions kill the growing mode of the plateau
    linearization and pin the plateau to one.
    """
    check_tolerance(tol)
    order = 4
    floor = 1e-14

    def rhs(xi, y, p):
        g = np.maximum(np.abs(y[0]), floor)
        return np.vstack([y[1], y[2], y[3], g ** (-2.0 / 3.0) * y[1] / 12.0])

    rg_re, rg_im, row_pl = _far_field_functionals("pme4", order)

    def bc(ya, yb, p):
        s2, s3 = p
        return np.array([
            ya[0] - (0.5 * s2 * xi0**2 + s3 * xi0**3 / 6.0),
            ya[1] - (s2 * xi0 + 0.5 * s3 * xi0**2),
            ya[2] - (s2 + s3 * xi0),
            ya[3] - s3,
            rg_re @ yb,
            row_pl @ yb - 1.0,
        ])

    xi = np.geomspace(xi0, length, 900)
    guess = np.zeros((order, xi.size))
    base = np.clip(_biharmonic_closed(xi), 1e-8, None)
    guess[0] = base**3
    for k in range(1, order):
        guess[k] = np.gradient(guess[k - 1], xi)

    sol = integrate.solve_bvp(rhs, bc, xi, guess, p=[0.3, 0.3], tol=tol, max_nodes=200000)
    if not sol.success:
        raise BvpError(f"layer BVP for pme4 did not converge: {sol.message}")

    s2, s3 = sol.p
    xi_out = np.linspace(0.0, length, 1201)
    vals = sol.sol(np.clip(xi_out, xi0, None))[0]
    vals[0] = 0.0
    far = float(row_pl @ sol.sol(length))

    def evaluate(q, _s=sol, _s2=s2, _s3=s3):
        q = np.asarray(q, dtype=float)
        inner = q < xi0
        out = _s.sol(np.clip(q, xi0, None))[0]
        if np.any(inner):
            qt = q[inner] if q.shape else q
            taylor = 0.5 * _s2 * qt**2 + _s3 * qt**3 / 6.0
            if q.shape:
                out[inner] = taylor
            else:
                out = taylor
        return out if out.shape else float(out)

    return BoundaryLayerProfile(
        family="pme4", xi=xi_out, values=vals,
        wall_derivatives=(0.0, float(s2), float(s3)), far_value=far,
        provenance="bvp", evaluate=evaluate,
    )
