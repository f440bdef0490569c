"""Stationary boundary-layer profiles near the lateral wall, and their flux.

In the wall variable xi (distance from the boundary in layer units) the
generic solution transitions from 0 at the wall to the interior plateau
value 1.  A layer is an entry of two tables: ``_CLOSED`` holds the closed
form g0 and its exact wall derivatives (heat, fourth-order (biharmonic)
and third-order dispersion layers), ``_LAYERS`` the order, coefficient c
and growing root of the linear operator g^(order) = g'/c (for the cubic
diffusion layer, of its linearization at the plateau).  Far-field
conditions kill the growing mode exactly, so the truncation length does
not limit the accuracy.  Each layer is a Chebyshev series, grown until
its trailing quarter moves the profile by at most ``tol``.  The linear
layers are one dense ultraspherical solve (Olver & Townsend, SIAM Rev.
55, 2013) with the plateau pinned, whose tail also moves each wall
derivative by at most ``tol``.  The cubic diffusion layer is solved
through its first integral G''' = (G^(1/3) - 1)/4 in s = xi^(1/3), from
the wall itself, as one Volterra equation for G'' by Newton's method on
values at Chebyshev points (Greengard, SIAM J. Numer. Anal. 28, 1991);
its ``far_value`` reads the plateau, which no condition pins.
``wall_flux`` is the matched flux g2 v F + g1 v^(2/3) F' of a
fourth-order layer, which drives the first coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        f0, f1 = kernels.eval_kernel(fam, y, order=(0, 1))
        return g2 * math.sqrt(a0) * v * f0 + g1 * a0 ** (2.0 / 3.0) * v ** (2.0 / 3.0) * f1

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
    constant), so the far boundary conditions (kill growth, and for the
    linear layers plateau = 1) hold exactly rather than up to the
    truncated tail.
    """
    roots = _layer_roots(family)
    vand = np.array([[r**k for r in roots] for k in range(len(roots))], dtype=complex)
    inv = np.linalg.inv(vand)
    return np.real(inv[1]), np.real(inv[0])


# every layer on n Chebyshev coefficients, n doubled from the first size up to
# the cap until the trailing quarter moves it by at most tol
_FIRST_COEFFS = 32
_MAX_COEFFS = 1024


def _trailing_quarter(coef, rows=None):
    """The most the trailing quarter of ``coef`` moves its series (|T_k| <= 1)
    or, if ``rows`` are given, any functional that they apply to it."""
    size = np.abs(coef[3 * coef.size // 4:])
    if rows is None:
        return size.sum()
    return max(size.sum(), np.max(np.abs(rows[:, 3 * coef.size // 4:]) @ size))


def _grow(family, tol, solve):
    """The first result of ``(tail, result) = solve(n, last result)``, n = 32, 64, ...,
    whose tail is at most ``tol``; a larger tail at the cap is a ``BvpError``."""
    n, last = _FIRST_COEFFS, None
    while True:
        tail, last = solve(n, last)
        if tail <= tol:
            return last
        if n >= _MAX_COEFFS:
            raise BvpError(f"layer BVP for {family} did not converge: trailing Chebyshev "
                           f"coefficients move it by {tail:.2g}, above tol {tol:g}, at the "
                           f"cap of {n}")
        n *= 2


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
    D_1.  n grows until the trailing quarter of the coefficients moves the
    profile and each wall derivative, whose rows weigh coefficient k by up
    to k^6, by at most ``tol``.  Returns the coefficients, the wall
    derivatives (g'(0), g''(0), g'''(0)) and the plateau value.
    """
    order, _, _ = _LAYERS[family]
    far = np.array(_far_field_functionals(family))

    def solve(n, _):
        d_order, drift, plus, minus = _linear_parts(family, n)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = (2.0 / length) ** np.arange(order + 1.0)[:, None]  # d/dxi = (2/L) d/dx
            plus, minus = scale[:order] * plus[:order], scale[:4] * minus
            a = np.vstack([minus[:order - 2], far @ plus, scale[order] * d_order - scale[1] * drift])
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(minus))):
            raise BvpError(f"layer BVP for {family} did not converge: length {length!r} "
                           "takes the rows of the xi-derivatives past the float range")
        coef = np.linalg.solve(a, np.eye(n)[order - 1])
        return _trailing_quarter(coef, minus[1:]), (
            coef, tuple(float(d) for d in minus[1:] @ coef), float(far[1] @ plus @ coef))

    return _grow(family, tol, solve)


_NEWTON_STEPS = 8  # at one size of the pme4 layer


@lru_cache(maxsize=16)
def _pme4_parts(n):
    """Points sigma_j = (1 + x_j)/2 of [0, 1], x_j = -cos(pi j/(n - 1)), the map
    from values there to Chebyshev coefficients, and the cumulative
    integration A v = int_0^sigma 3 t^2 v dt on values, with its square.
    The ends are exact, so row 0 and column 0 (weight 3 t^2 = 0) of A are 0."""
    cheb = np.polynomial.chebyshev
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    x[0], x[-1] = -1.0, 1.0
    to_coef = np.linalg.inv(cheb.chebvander(x, n - 1))
    a = cheb.chebvander(x, n) @ cheb.chebint(np.eye(n), lbnd=-1.0) @ to_coef \
        * (1.5 * (0.5 * (x + 1.0))**2)  # d sigma = dx / 2
    a[0] = 0.0
    return 0.5 * (x + 1.0), to_coef, a, a @ a


def _solve_pme4_layer(length, tol):
    """Cubic diffusion layer from its first integral G''' = (G^(1/3) - 1)/4.

    -G'''' + |G|^(-2/3) G'/12 is the derivative of -G''' + G^(1/3)/4, and
    the plateau fixes the constant, so G'''(0) = -1/4 exactly.  G is a power
    series in s = xi^(1/3), where A v = int_0^s 3 t^2 v dt integrates in xi:
    the layer is one Volterra equation G2 = g1 + A f(A^2 G2) for G2 = G'',
    f = (cbrt G - 1)/4, with G1 = A G2, G = A G1 and g1 = G2(0) from the wall
    itself.  Newton's method solves it on values at n Chebyshev points of
    s; row 0, which the equation leaves empty, is the growth-killing row
    applied to (G, G1, G2, f) at s = length^(1/3).  Each size starts from
    the last one's G2 (the first, or after a size where 8 steps did not
    bring a step down to ``tol``, from the biharmonic layer's G''), and
    ``_grow`` doubles n until the trailing quarter of G's coefficients moves
    it by at most ``tol``.  Returns those coefficients, in
    x = 2 (xi/length)^(1/3) - 1, the wall derivatives and the plateau row
    of the same state, which nothing pins.
    """
    row_grow, row_plateau = _far_field_functionals("pme4")

    def solve(n, last):
        sigma, to_coef, a, a2 = _pme4_parts(n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a, a2, xi = length * a, length * length * a2, length * sigma**3
            g2 = (4.0 * _BIH_B**2 * np.exp(-_BIH_B * xi)
                  * (np.cos(_BIH_A * xi) - _S3 * np.sin(_BIH_A * xi)) if last is None
                  else np.polynomial.chebyshev.chebval(2.0 * sigma - 1.0, last[-1]))
            for _ in range(_NEWTON_STEPS):
                g = a2 @ g2
                root = np.cbrt(g)
                f, fp = 0.25 * (root - 1.0), 1.0 / (12.0 * root * root)
                fp[0] = 0.0  # infinite at the wall, where column 0 of A weighs nothing
                res = g2 - g2[0] - a @ f
                res[0] = row_grow @ (g[-1], a[-1] @ g2, g2[-1], f[-1])
                jac = np.eye(n) - a @ (fp[:, None] * a2)
                jac[:, 0] -= 1.0
                jac[0] = (row_grow[0] + row_grow[3] * fp[-1]) * a2[-1] + row_grow[1] * a[-1]
                jac[0, -1] += row_grow[2]
                delta = np.linalg.solve(jac, res)
                g2, step = g2 - delta, np.max(np.abs(delta))
                if step <= tol:
                    break
            g = a2 @ g2
            far = row_plateau @ (g[-1], a[-1] @ g2, g2[-1], 0.25 * (np.cbrt(g[-1]) - 1.0))
        coef = to_coef @ g
        tail = max(_trailing_quarter(coef), step)
        if not step <= tol:  # unsettled (nan too): the next size starts afresh
            return (tail if tail > tol else math.inf), None
        return tail, (coef, (0.0, float(g2[0]), -0.25), float(far), to_coef @ g2)

    return _grow("pme4", tol, solve)[:3]


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
    layer -G'''' + |G|^(-2/3) G'/12 = 0 with G = G' = 0 at the wall and
    plateau 1.  Far-field conditions are functionals of the
    linearization at the plateau, so the domain truncation does not limit
    the accuracy.  Every layer is a Chebyshev series, grown from 32 to at
    most 1024 coefficients until its trailing quarter moves the profile by
    at most ``tol`` (and, for the linear layers, each wall derivative).
    The linear layers are one dense ultraspherical solve with the plateau
    pinned.  pme4 is solved through its first integral
    G''' = (G^(1/3) - 1)/4, in s = xi^(1/3) from the wall itself, by
    Newton's method on values at Chebyshev points; only the growing mode is
    killed, so its ``far_value`` reads the plateau and shows whether
    ``length`` is long enough.  ``length`` and ``tol`` must be positive and
    finite (``ValueError``); a solve that does not converge raises
    ``numcore.BvpError``.  The profile reads xi in [0, length] only
    (``ValueError``).
    """
    check_positive("tol", tol)
    check_positive("layer length", length)
    if family not in _LAYERS:
        raise ValueError(f"no boundary-value layer for family {family!r}")
    cheb = np.polynomial.chebyshev
    if family == "pme4":
        coef, wall, far = _solve_pme4_layer(length, tol)
        # the series' own wall value, 1e-16 or less, is read back as 0
        to_x, offset = (lambda q: 2.0 * np.cbrt(q / length) - 1.0), cheb.chebval(-1.0, coef)
    else:
        coef, wall, far = _solve_linear_layer(family, length, tol)
        to_x, offset = (lambda q: 2.0 * q / length - 1.0), 0.0

    def evaluate(q):
        out = cheb.chebval(to_x(_in_layer(q, length)), coef) - offset
        return out if out.shape else float(out)

    xi = np.linspace(0.0, length, 1201)
    return BoundaryLayerProfile(family=family, xi=xi, values=evaluate(xi), wall_derivatives=wall,
                                far_value=far, provenance="bvp", evaluate=evaluate)
