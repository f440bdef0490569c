"""Stationary boundary-layer profiles near the lateral wall, and their flux.

In the wall variable xi (distance from the boundary in layer units) the
generic solution transitions from 0 at the wall to the interior plateau
value 1.  A layer is an entry of two tables: ``_CLOSED`` holds the closed
form g0 and its exact wall derivatives (heat, fourth-order (biharmonic)
and third-order dispersion layers), ``_LAYERS`` the order, coefficient c
and growing root of the linear operator g^(order) = g'/c (for the cubic
diffusion layer, of its linearization at the plateau).  The layers are
solved as boundary-value problems with far-field conditions that kill
the growing mode and pin the plateau exactly, so the finite truncation
length does not limit the accuracy.  The linear layers use the
ultraspherical method (Olver & Townsend, SIAM Rev. 55, 2013): one dense
solve on Chebyshev coefficients, grown until the trailing quarter moves
the profile and each wall derivative by at most ``tol``; the cubic
diffusion layer brings its own coefficient and wall conditions and is
collocated by ``scipy.integrate.solve_bvp``.  ``wall_flux`` is the
matched flux g2 v F + g1 v^(2/3) F' of a fourth-order layer, which drives
the first coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from reglab import kernels
from reglab.numcore import (BvpError, chebyshev_end_rows, check_positive,
                            ultraspherical_conversion, ultraspherical_diff)


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
_S3 = 1.0 / math.sqrt(3.0)

# family: (g0 of a float array, exact wall derivatives (g0'(0), g0''(0), g0'''(0)))
_CLOSED = {
    # g0' = (4b/sqrt(3)) e^(-b xi) sin(a xi), differentiated twice more at 0
    "biharmonic": (lambda xi: 1.0 - np.exp(-_BIH_B * xi)
                   * (np.cos(_BIH_A * xi) + np.sin(_BIH_A * xi) / math.sqrt(3.0)),
                   (0.0, 4.0 * _BIH_B * _BIH_B, -8.0 * _BIH_B**3)),
    # the third-order operator imposes only g0(0) = 0
    "dispersion3": (lambda xi: 1.0 - np.exp(-xi / math.sqrt(3.0)), (_S3, -_S3 * _S3, _S3**3)),
    "heat": (lambda xi: 1.0 - np.exp(-0.5 * xi), (0.5, -0.25, 0.125)),
}


def _closed_form(family, xi):
    out = _CLOSED[family][0](np.asarray(xi, dtype=float))
    return out if out.shape else float(out)


def _closed_profile(family, xi_max):
    check_positive("xi_max", xi_max)
    xi = np.linspace(0.0, xi_max, 601)
    return BoundaryLayerProfile(
        family=family, xi=xi, values=_closed_form(family, xi),
        wall_derivatives=_CLOSED[family][1], far_value=1.0,
        provenance="closed-form", evaluate=lambda q: _closed_form(family, q),
    )


def biharmonic_profile(xi_max=30.0):
    """Fourth-order layer 1 - e^(-b xi) (cos(a xi) + sin(a xi)/sqrt(3)) on 601 points
    of [0, xi_max], b = 2^(-5/3), a = sqrt(3) b; wall derivatives (0, 2^(-4/3), -1/4)."""
    return _closed_profile("biharmonic", xi_max)


def dispersion_profile(xi_max=30.0):
    """Dispersion layer 1 - exp(-xi/sqrt(3)) on 601 points of [0, xi_max]."""
    return _closed_profile("dispersion3", xi_max)


def heat_profile(xi_max=30.0):
    """Heat-equation layer 1 - exp(-xi/2) on 601 points of [0, xi_max]; wall slope 1/2."""
    return _closed_profile("heat", xi_max)


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


def wall_flux(g1, g2):
    """Matched flux of a fourth-order layer with wall constants (g1, g2).

    Returns ``flux(v, a0=1.0)`` = g2 sqrt(a0) v F(y) + g1 a0^(2/3) v^(2/3) F'(y),
    y = v / sqrt(a0), with F the biharmonic kernel: the rate at which a layer
    of amplitude a0 at a wall of half-width v feeds the first coefficient,
    and at a0 = 1 the matched estimate of lambda_0(v).
    """
    fam = kernels.biharmonic()

    def flux(v, a0=1.0):
        y = v / math.sqrt(a0)
        return (g2 * math.sqrt(a0) * v * kernels.eval_kernel(fam, y)
                + g1 * a0 ** (2.0 / 3.0) * v ** (2.0 / 3.0)
                * kernels.eval_kernel_derivative(fam, y))

    return flux


# ---------------------------------------------------------------------------
# boundary-value solver


# family: (order, c, growing root r) of the linear layer operator
# g^(order) = g'/c, whose roots are 0 and r times the roots of unity of
# degree order - 1; pme4 is linearized at the plateau G = 1
_LAYERS = {
    "biharmonic": (4, 4.0, 4.0 ** (-1.0 / 3.0)),
    "dispersion3": (3, 3.0, 1.0 / math.sqrt(3.0)),
    "pme4": (4, 12.0, 12.0 ** (-1.0 / 3.0)),
}


def _layer_roots(family):
    """Roots 0, r and then the decaying ones of the family's linear layer operator."""
    order, _, r = _LAYERS[family]
    if order == 3:
        decaying = [complex(-r, 0.0)]
    else:
        decaying = [r * complex(-0.5, 0.5 * math.sqrt(3.0)),
                    r * complex(-0.5, -0.5 * math.sqrt(3.0))]
    return [complex(0.0, 0.0), complex(r, 0.0)] + decaying


def _far_field_functionals(family):
    """Rows extracting the growing-mode coefficient and the plateau value.

    In the mode basis {1, growing, decaying...} of the linearized
    operator, the solution state at the truncation point is
    y = V c with V the Vandermonde matrix of the roots.  The returned
    real rows applied to the state give (growing coefficient, plateau
    constant), so the far boundary conditions (kill growth, plateau = 1)
    hold exactly rather than up to the truncated tail.
    """
    roots = _layer_roots(family)
    vand = np.array([[r**k for r in roots] for k in range(len(roots))], dtype=complex)
    inv = np.linalg.inv(vand)
    return np.real(inv[1]), np.real(inv[0])


# the linear layers by the ultraspherical method: n Chebyshev coefficients
# on (0, length), n doubled from the first size up to the cap
_FIRST_COEFFS = 32
_MAX_COEFFS = 1024


@lru_cache(maxsize=16)
def _linear_parts(family, n):
    """The length-free pieces of a linear layer on n Chebyshev coefficients.

    Returns the first n - order rows of D_order and of S_(order-1)...S_1 D_1
    / c, and the rows T_k^(j)(+1) and T_k^(j)(-1), j <= 3, on [-1, 1].
    """
    order, c, _ = _LAYERS[family]
    keep = n - order
    return (ultraspherical_diff(order, n)[:keep],
            (ultraspherical_conversion(1, order, n) @ ultraspherical_diff(1, n))[:keep] / c,
            *chebyshev_end_rows(n, 4))


def _solve_linear_layer(family, length, tol):
    """Chebyshev coefficients of a linear layer in x = 2 xi / length - 1.

    One dense solve of the rows, top to bottom: g = 0 (and g' = 0 in
    fourth order) at the wall; the growth-killing and plateau-pinning
    functionals applied to the state (g, g', ...) at xi = length; the
    first n - order rows of (2/L)^order D_order - (2/L)/c S_(order-1)...S_1
    D_1.  n starts at 32 and doubles, up to 1024, until the trailing
    quarter of the coefficients moves the profile (by at most the sum of
    their sizes) and each wall-derivative row by at most ``tol``.  Returns
    the coefficients, the wall derivatives (g'(0), g''(0), g'''(0)) and
    the plateau value.
    """
    order, _, _ = _LAYERS[family]
    far = np.array(_far_field_functionals(family))
    n = _FIRST_COEFFS
    while True:
        d_order, drift, plus, minus = _linear_parts(family, n)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = (2.0 / length) ** np.arange(order + 1.0)[:, None]  # d/dxi = (2/L) d/dx
            plus, minus = scale[:order] * plus[:order], scale[:4] * minus
            a = np.vstack([minus[:order - 2], far @ plus, scale[order] * d_order - scale[1] * drift])
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(minus))):
            raise BvpError(f"layer BVP for {family} did not converge: length {length!r} "
                           "takes the rows of the xi-derivatives past the float range")
        coef = np.linalg.solve(a, np.eye(n)[order - 1])
        # the most the trailing quarter moves the profile (|T_k| <= 1) or a
        # wall derivative, whose rows weigh coefficient k by up to k^6
        size = np.abs(coef[3 * n // 4:])
        tail = max(size.sum(), np.max(np.abs(minus[1:, 3 * n // 4:]) @ size))
        if tail <= tol:
            return coef, tuple(float(d) for d in minus[1:] @ coef), float(far[1] @ plus @ coef)
        if n >= _MAX_COEFFS:
            raise BvpError(f"layer BVP for {family} did not converge: trailing Chebyshev "
                           f"coefficients move it by {tail:.2g}, above tol {tol:g}, at the "
                           f"cap of {n}")
        n *= 2


def _in_layer(q, length):
    """``q`` as a float array; ``ValueError`` if any of it leaves [0, length]."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= length)):
        raise ValueError(f"layer profile read outside [0, {length!r}]")
    return q


def solve_bl_bvp(family, length=30.0, tol=1e-10):
    """Layer profile on (0, length) for the named family.

    ``family`` is ``biharmonic``, ``dispersion3`` (linear layers, the
    closed forms are the oracles) or ``pme4`` for the cubic diffusion
    layer solved in semilinear form: -G'''' + |G|^(-2/3) G'/12 = 0 with
    G = G' = 0 at the wall and plateau 1.  Far-field conditions are the
    growth-killing and plateau-pinning functionals of the linearization,
    so the domain truncation does not limit the accuracy.  The linear
    layers are solved by the ultraspherical method, one dense solve on
    Chebyshev coefficients, and ``tol`` bounds what the trailing quarter
    of those coefficients adds to the profile and to each wall
    derivative; pme4 is solved by collocation
    (``scipy.integrate.solve_bvp``), and ``tol`` is its residual
    tolerance.  ``length`` and ``tol`` must be positive and finite
    (``ValueError``), and ``length`` for pme4 past its wall offset; a
    solve that does not converge raises ``numcore.BvpError``.  The
    profile reads xi in [0, length] only (``ValueError``).
    """
    check_positive("tol", tol)
    check_positive("layer length", length)
    if family not in _LAYERS:
        raise ValueError(f"no boundary-value layer for family {family!r}")
    if family == "pme4":
        return _solve_pme4_layer(length, tol)
    coef, wall, far = _solve_linear_layer(family, length, tol)

    def evaluate(q):
        out = np.polynomial.chebyshev.chebval(2.0 * _in_layer(q, length) / length - 1.0, coef)
        return out if out.shape else float(out)

    xi = np.linspace(0.0, length, 1201)
    return BoundaryLayerProfile(family=family, xi=xi, values=evaluate(xi), wall_derivatives=wall,
                                far_value=far, provenance="bvp", evaluate=evaluate)


def _solve_pme4_layer(length, tol, xi0=1e-3):
    """Cubic diffusion layer G'''' = |G|^(-2/3) G'/12, G = G' = 0 at the wall.

    The wall is a singular point of the coefficient, so the domain starts
    at ``xi0`` with Taylor conditions G ~ s2 xi^2/2 + s3 xi^3/6 whose
    coefficients are unknown parameters of the collocation problem (the
    local corrections enter at order xi^(11/3) and are negligible at
    xi0).  Far-field conditions kill the growing mode of the plateau
    linearization and pin the plateau to one.
    """
    if length <= xi0:
        raise ValueError(f"pme4 layer length must exceed the wall offset {xi0}, got {length!r}")
    _, c, _ = _LAYERS["pme4"]
    floor = 1e-14

    def rhs(xi, y, p):
        g = np.maximum(np.abs(y[0]), floor)
        return np.vstack([y[1], y[2], y[3], g ** (-2.0 / 3.0) * y[1] / c])

    row_grow, row_plateau = _far_field_functionals("pme4")

    def bc(ya, yb, p):
        s2, s3 = p
        return np.array([
            ya[0] - (0.5 * s2 * xi0**2 + s3 * xi0**3 / 6.0),
            ya[1] - (s2 * xi0 + 0.5 * s3 * xi0**2),
            ya[2] - (s2 + s3 * xi0),
            ya[3] - s3,
            row_grow @ yb,
            row_plateau @ yb - 1.0,
        ])

    xi = np.geomspace(xi0, length, 900)
    guess = np.zeros((4, xi.size))  # a cubed biharmonic layer and its successive gradients
    guess[0] = np.clip(_CLOSED["biharmonic"][0](xi), 1e-8, None) ** 3
    for k in range(1, 4):
        guess[k] = np.gradient(guess[k - 1], xi)
    sol = scipy.integrate.solve_bvp(rhs, bc, xi, guess, tol=tol, max_nodes=200000, p=[0.3, 0.3])
    if not sol.success:
        raise BvpError(f"layer BVP for pme4 did not converge: {sol.message}")

    s2, s3 = sol.p
    xi_out = np.linspace(0.0, length, 1201)
    vals = sol.sol(np.clip(xi_out, xi0, None))[0]
    vals[0] = 0.0
    far = float(row_plateau @ sol.sol(length))

    def evaluate(q, _s=sol, _s2=s2, _s3=s3):
        q = _in_layer(q, length)
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
