"""Shared numerical primitives: quadrature, ODE integration, root finding,
dense eigenvalue extraction, and exact-rational polynomial arithmetic.

Everything here is a pure function of its inputs; returned objects are
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize


class NumericsError(Exception):
    """Base class for failures of the numerical primitives."""


class QuadratureError(NumericsError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (best estimate {estimate!r}, bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(NumericsError):
    """Root bracket does not straddle a sign change."""


class RootConvergenceError(NumericsError):
    """Root iteration failed to converge inside a valid bracket."""


class OdeError(NumericsError):
    """ODE integration broke down; carries the last reached abscissa."""

    def __init__(self, message, last_abscissa):
        super().__init__(f"{message} (last abscissa {last_abscissa!r})")
        self.last_abscissa = last_abscissa


class EigenError(NumericsError):
    """Eigenvalue iteration failed; names the offending index."""


# ---------------------------------------------------------------------------
# quadrature


def adaptive_quadrature(f, a, b, tol, envelope=None, limit=400):
    """Integrate ``f`` over ``(a, b)`` to absolute accuracy ``tol``.

    ``b`` may be ``inf``.  If an ``envelope`` bound for ``|f|`` is given,
    a semi-infinite range is truncated at the point where the envelope
    falls below ``tol / 100``; otherwise the infinite range is handed to
    the library transform as is.

    Raises :class:`QuadratureError` when the error estimate exceeds the
    tolerance after the subdivision budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    upper = b
    if math.isinf(b) and envelope is not None:
        upper = _truncation_point(envelope, a, tol / 100.0)
    value, err = integrate.quad(f, a, upper, epsabs=tol / 2, epsrel=1e-12, limit=limit)
    if not math.isfinite(value) or err > tol:
        raise QuadratureError("quadrature did not converge", value, err)
    return value


def _truncation_point(envelope, a, threshold):
    """Smallest grid point past ``a`` where ``envelope`` drops below ``threshold``."""
    x = max(a, 0.0) + 1.0
    for _ in range(200):
        if envelope(x) < threshold:
            return x
        x *= 1.5
    raise QuadratureError("envelope never fell below the truncation threshold", x, math.inf)


def gauss_legendre_panel(f, a, b, n):
    """Fixed-order Gauss-Legendre rule on ``[a, b]`` for a vectorized ``f``."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.dot(w, f(mid + half * x))

def alternating_series_sum(terms, tol):
    """Sum an eventually alternating sequence with iterated Euler averaging.

    ``terms`` is a finite sequence of partial contributions (one per
    half-wave).  Returns the accelerated sum; works well when magnitudes
    decay slowly but signs alternate.
    """
    s = np.cumsum(np.asarray(terms, dtype=float))
    while len(s) > 1:
        s_next = 0.5 * (s[1:] + s[:-1])
        if len(s_next) >= 2 and abs(s_next[-1] - s_next[-2]) < tol:
            return float(s_next[-1])
        s = s_next
    return float(s[-1])


def oscillatory_quadrature(f, breakpoints, tol):
    """Integrate an oscillatory ``f`` by splitting at predicted sign changes.

    ``breakpoints`` is an increasing sequence bracketing the half-waves
    (typically the zeros of the trigonometric factor).  Panel integrals
    are summed with alternating-series acceleration, which handles the
    conditionally convergent tails produced by slowly decaying envelopes.
    """
    pts = list(breakpoints)
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    panels = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, _ = integrate.quad(f, lo, hi, epsabs=tol / 10, epsrel=1e-12, limit=200)
        panels.append(v)
    return alternating_series_sum(panels, tol)


# ---------------------------------------------------------------------------
# ODE integration


@dataclass(frozen=True)
class OdeTrajectory:
    """Result of an adaptive ODE integration.

    ``abscissae`` is strictly increasing; ``states`` has one row per
    abscissa.  ``error_estimate`` is the reported local-error level and
    ``interpolant`` a dense-output callable.
    """

    abscissae: np.ndarray
    states: np.ndarray
    error_estimate: float
    interpolant: Callable[[float], np.ndarray]

    def final_state(self):
        return self.states[-1]


def integrate_ode(rhs, y0, span, tol, max_step=None, t_eval=None):
    """Integrate ``y' = rhs(t, y)`` over ``span`` with local error ``<= tol``.

    Uses an adaptive high-order embedded Runge-Kutta pair.  ``max_step``
    caps the step size (useful for order checks against a fixed grid).
    Raises :class:`OdeError` if the step size underflows before the end
    of the span.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    kwargs = {}
    if max_step is not None:
        kwargs["max_step"] = max_step
    sol = integrate.solve_ivp(
        rhs,
        span,
        np.atleast_1d(np.asarray(y0, dtype=float)),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-3,
        dense_output=True,
        t_eval=t_eval,
        **kwargs,
    )
    if not sol.success:
        raise OdeError(f"integration failed: {sol.message}", sol.t[-1] if len(sol.t) else span[0])
    return OdeTrajectory(
        abscissae=sol.t,
        states=sol.y.T,
        error_estimate=tol,
        interpolant=sol.sol,
    )


# ---------------------------------------------------------------------------
# root finding


def find_root(f, bracket, tol=1e-12, maxiter=200, f_ends=None):
    """Locate a root of ``f`` inside ``bracket = (lo, hi)``.

    Requires an explicit sign change; callers tracing branches must
    supply brackets from grid scans.  Raises :class:`BracketError` when
    the endpoints do not straddle zero (distinct from non-convergence,
    which raises :class:`RootConvergenceError`).

    ``f_ends = (f(lo), f(hi))`` passes end values the caller already
    holds (for example from a grid scan); ``f`` is then never evaluated
    at ``lo`` or ``hi``.  Either way each end is evaluated at most once.
    """
    lo, hi = bracket
    flo, fhi = (f(lo), f(hi)) if f_ends is None else f_ends
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f ends {flo:g}, {fhi:g}")
    known = {lo: flo, hi: fhi}  # brentq starts by evaluating both ends again

    def memo_f(x):
        return known[x] if x in known else f(x)

    try:
        return optimize.brentq(memo_f, lo, hi, xtol=tol, rtol=4 * np.finfo(float).eps,
                               maxiter=maxiter)
    except RuntimeError as exc:  # brentq's non-convergence signal
        raise RootConvergenceError(str(exc)) from exc


# ---------------------------------------------------------------------------
# dense eigenvalues


def dense_eigenvalues(matrix, vectors=False, residual_tol=1e-8):
    """All eigenvalues of a dense square matrix, descending by real part.

    With ``vectors=True`` returns ``(values, vectors)`` where column ``j``
    of ``vectors`` pairs with ``values[j]``.  Residuals are checked
    against ``residual_tol`` for well-conditioned inputs; a failure names
    the offending index.  Near-degenerate clusters are reported as-is,
    never resolved artificially.
    """
    if isinstance(matrix, DenseMatrix):
        matrix = matrix.entries
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    vals, vecs = np.linalg.eig(m)
    order = np.lexsort((-vals.imag, -vals.real))
    vals, vecs = vals[order], vecs[:, order]
    scale = max(np.linalg.norm(m, ord=np.inf), 1.0)
    for j, lam in enumerate(vals):
        v = vecs[:, j]
        res = np.linalg.norm(m @ v - lam * v) / np.linalg.norm(v)
        if res > residual_tol * scale:
            raise EigenError(f"eigenpair {j} residual {res:.3e} exceeds tolerance")
    if vectors:
        return vals, vecs
    return vals


# ---------------------------------------------------------------------------
# exact polynomial arithmetic


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise TypeError("float coefficients must be whole numbers; use Fraction")
        return Fraction(int(x))
    return Fraction(x)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are indexed by degree.  All arithmetic (addition,
    scaling, multiplication, differentiation, evaluation at rational
    points) is exact; evaluation at floats returns floats.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [_as_fraction(c) for c in coeffs] or [Fraction(0)]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.coeffs == (Fraction(0),)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        c = _as_fraction(other)
        return Polynomial([c * x for x in self.coeffs])

    __rmul__ = __mul__

    def scale(self, c):
        return self * Fraction(c)

    def derivative(self, order=1):
        p = self
        for _ in range(order):
            if p.degree == 0:
                p = Polynomial([0])
                break
            p = Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])
        return p

    def shift_degree(self, k):
        """Multiply by y**k."""
        return Polynomial([Fraction(0)] * k + list(self.coeffs))

    def __call__(self, y):
        if isinstance(y, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * y + c
            return acc
        ya = np.asarray(y, dtype=float)
        acc = np.zeros_like(ya)
        for c in reversed(self.coeffs):
            acc = acc * ya + float(c)
        return acc if ya.shape else float(acc)

    @staticmethod
    def monomial(k, coeff=1):
        return Polynomial([Fraction(0)] * k + [_as_fraction(coeff)])


@dataclass(frozen=True)
class DenseMatrix:
    """Thin immutable wrapper for a square dense matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("entries must form a square matrix of size >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", m)

    @property
    def size(self):
        return self.entries.shape[0]
