"""Shared numerical primitives: the failure classes of the numerical
layers, alternating-series summation, the certified composite
Gauss-Legendre rule, bracketed root finding, dense eigenvalue
extraction, and exact-rational polynomial arithmetic.

Everything here is a pure function of its inputs; returned objects are
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import optimize


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


class BvpError(NumericsError):
    """Boundary-value collocation did not converge."""


class EigenError(NumericsError):
    """Eigenvalue iteration failed; names the offending index."""


def check_tolerance(tol):
    """Raise ``ValueError`` unless ``tol`` is positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


# ---------------------------------------------------------------------------
# series summation


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


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature

# one rule, certified by order doubling on panels at most 0.25 wide
_GL = [np.polynomial.legendre.leggauss(n) for n in (24, 48)]
_GL_NODES = np.concatenate([_GL[0][0], _GL[1][0]])
_PANEL_WIDTH = 0.25
_AGREEMENT = 1e-12
_MAX_HALVINGS = 20  # a panel is halved at most this often ...
_MAX_PANELS = 2**14  # ... and no more than this many are evaluated in one round
_CHUNK = 128  # panels per call of f, so its node arrays (9216 values) stay small


def gauss_legendre_windows(f, edges, breakpoints=()):
    """Integrals of ``f`` over the windows ``[edges[i], edges[i+1]]``.

    One composite Gauss-Legendre rule: panels 0.25 wide on a grid from
    ``edges[0]``, split at the edges and at ``breakpoints`` (where ``f`` is
    not smooth), and ``f`` called, as an array function, on the nodes of
    orders 24 and 48 of up to 128 panels at a time; each panel is summed
    on its own, so the sums do not depend on that blocking.  A window
    whose two orders differ by more than 1e-12 of its integral of |f| has
    the panels that carry the difference halved and evaluated again, up
    to 20 times; a jump in ``f`` is never resolved this way.  Returns the
    order-48 sums.  Raises :class:`QuadratureError`, and returns no
    number, for a window that stays unresolved or an ``f`` that is not
    finite.
    """
    edges = np.asarray(edges, dtype=float)
    grid = np.arange(edges[0], edges[-1], _PANEL_WIDTH)
    cuts = np.unique(np.concatenate([grid, edges, breakpoints]))
    cuts = cuts[(cuts >= edges[0]) & (cuts <= edges[-1])]
    lo, hi = cuts[:-1], cuts[1:]
    n, width = _GL[0][0].size, np.diff(edges)
    settled = np.zeros((3, width.size))  # order-24, order-48 and |f| sums of settled panels
    for _ in range(_MAX_HALVINGS + 1):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        parts = np.empty((3, mid.size))
        for i in range(0, mid.size, _CHUNK):
            fx = f((mid[i:i + _CHUNK, None] + half[i:i + _CHUNK, None] * _GL_NODES).ravel())
            fx = fx.reshape(-1, _GL_NODES.size)
            if not np.all(np.isfinite(fx)):
                raise QuadratureError("integrand not finite", math.nan, math.inf)
            # row-wise sums: a panel's sums never depend on the other panels of its block
            parts[:, i:i + _CHUNK] = [(fx[:, :n] * _GL[0][1]).sum(axis=1),
                                      (fx[:, n:] * _GL[1][1]).sum(axis=1),
                                      (np.abs(fx[:, n:]) * _GL[1][1]).sum(axis=1)]
        parts *= half
        window = np.searchsorted(edges, lo, side="right") - 1
        low, high, mass = settled + [np.bincount(window, p, width.size) for p in parts]
        failing = ~(np.abs(high - low) <= _AGREEMENT * mass)  # a nan sum fails too
        if not failing.any():
            return high
        # halve each panel of a failing window whose own difference exceeds
        # its share of the window's tolerance
        split = failing[window] & ~(np.abs(parts[1] - parts[0]) * width[window]
                                    <= _AGREEMENT * mass[window] * (hi - lo))
        if not split.any() or 2 * np.count_nonzero(split) > _MAX_PANELS:
            break
        settled += [np.bincount(window[~split], p[~split], width.size) for p in parts]
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
    i = np.flatnonzero(failing)[0]
    raise QuadratureError(f"order doubling moves window [{edges[i]:g}, {edges[i + 1]:g}] "
                          f"by {abs(high[i] - low[i]):.3g} of mass {mass[i]:.3g}",
                          high[i], abs(high[i] - low[i]))


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


def find_roots(f, lo, hi, f_ends, tol=1e-12, maxiter=200):
    """Roots of k bracketed problems at once, by Chandrupatla's iteration.

    ``f(x, idx)`` returns the value of problem ``idx[j]`` at ``x[j]``; each
    round calls it once, for the brackets still open.  ``lo``/``hi`` are
    the k bracket ends and ``f_ends = (f(lo), f(hi))`` their known values,
    which are never re-evaluated (an end value of 0 is its own root).
    Rounds bisect or, where Chandrupatla's test allows, interpolate
    inverse-quadratically.  A root is returned, as the bracket end with the
    smaller |f|, once its bracket is narrower than ``tol`` plus 4 ulps.
    Raises :class:`BracketError` if any bracket lacks a sign change and
    :class:`RootConvergenceError` on a non-finite value or after
    ``maxiter`` rounds.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = (np.array(v, dtype=float) for v in f_ends)
    bad = np.flatnonzero(f1 * f2 > 0)
    if bad.size:
        i = bad[0]
        raise BracketError(f"no sign change on [{x1[i]}, {x2[i]}]: f ends {f1[i]:g}, {f2[i]:g}")
    x3, f3 = x2.copy(), f2.copy()  # the end dropped last; unused in the first round
    for it in range(maxiter + 1):
        small = np.abs(f1) < np.abs(f2)
        xm = np.where(small, x1, x2)
        dx = np.abs(x2 - x1)
        xtol = tol + 4 * np.finfo(float).eps * np.abs(xm)
        live = np.flatnonzero((np.where(small, f1, f2) != 0) & (dx >= xtol))
        if not live.size:
            return xm
        if it == maxiter:
            raise RootConvergenceError(f"{live.size} of {x1.size} brackets still open "
                                       f"after {maxiter} rounds")
        a, b, c = x1[live], x2[live], x3[live]
        fa, fb, fc = f1[live], f2[live], f3[live]
        t = np.full(live.size, 0.5)
        if it:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
                iqi = (1 - np.sqrt(1 - xi) < ph) & (ph < np.sqrt(xi))
                alpha = (c - a) / (b - a)
                t_iqi = fa / (fa - fb) * fc / (fc - fb) - alpha * fa / (fc - fa) * fb / (fb - fc)
            tl = 0.5 * xtol[live] / dx[live]
            t = np.clip(np.where(iqi, t_iqi, 0.5), tl, 1 - tl)
        x = a + t * (b - a)
        fx = np.asarray(f(x, live), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise RootConvergenceError(f"non-finite value at x = {x[~np.isfinite(fx)][0]}")
        same = np.sign(fx) == np.sign(fa)  # x replaces a; else a becomes the far end
        x3[live], f3[live] = np.where(same, a, b), np.where(same, fa, fb)
        x2[live], f2[live] = np.where(same, b, a), np.where(same, fb, fa)
        x1[live], f1[live] = x, fx


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
