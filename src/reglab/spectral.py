"""Interval eigenproblem for the drift-augmented operator and its branches.

The operator is B* v = (-1)^(m+1) v^(2m) - (1/2m) y v' on (-l, l) with
clamped conditions v = v' = ... = v^(m-1) = 0 at both ends (m = 2 is the
main case).  Two independent routes are provided: compound-matrix
shooting for real eigenvalues, found by one scan for every caller, and the
ultraspherical spectral method (Chebyshev coefficients, a banded pencil
solved by dense QZ) for the full (possibly complex) spectrum.  On top of
these sit the Poincare bound and the top branch lambda_0(l) sampled over
a range of l with its sign-change roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy

from reglab import kernels
from reglab.numcore import (BracketError, OdeError, RootConvergenceError, check_positive,
                            chebyshev_end_rows, find_root, find_roots, range_samples,
                            ultraspherical_conversion, ultraspherical_diff)


# ---------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class IntervalEigenProblem:
    """Eigenproblem description for B* on (-l, l) with clamped ends."""

    l: float
    family: kernels.EquationFamily = field(default_factory=kernels.biharmonic)
    parity: str = "full"  # even | odd | full
    method: str = "shooting"  # shooting | collocation
    grid_size: int = 96  # Chebyshev coefficients of the collocation pencil, at least 8m

    def __post_init__(self):
        check_positive("half-length l", self.l)
        if self.family.kind != "parabolic":
            raise ValueError("interval eigenproblem is posed for the parabolic family")
        if self.parity not in ("even", "odd", "full"):
            raise ValueError("parity must be even, odd or full")
        if self.method not in ("shooting", "collocation"):
            raise ValueError("method must be shooting or collocation")
        n, least = self.grid_size, 8 * self.family.m
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
            raise ValueError(f"grid_size must be an integer of at least {least} (8m), got {n!r}")


@dataclass(frozen=True)
class Eigenpair:
    lam: complex
    ys: np.ndarray
    values: np.ndarray
    residual: float
    zero_count: int
    parity: str


@dataclass(frozen=True)
class EigenBranch:
    samples: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]


# ---------------------------------------------------------------------------
# ultraspherical pencil


@lru_cache(maxsize=64)
def chebyshev_diff(n):
    """Chebyshev points (descending) and differentiation matrix of size n+1."""
    if n == 0:
        return np.array([1.0]), np.zeros((1, 1))
    j = np.arange(n + 1)
    x = np.cos(math.pi * j / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** j
    xx = np.tile(x, (n + 1, 1)).T
    dx = xx - xx.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


@lru_cache(maxsize=16)
def _pencil_parts(m, n):
    """The l-free pieces of the pencil of B* on n Chebyshev coefficients.

    Returns the 2m clamped rows T_k^(j)(+-1), j < m, the first n - 2m rows
    of (-1)^(m+1) D_2m and of (1/2m) S_{2m-1}...S_1 M_x D_1, the matrix B
    (2m zero rows over the first n - 2m rows of S_{2m-1}...S_0) and
    T_k(x_j) at the n + 1 Chebyshev points x_j = cos(pi j / n).
    """
    conv = ultraspherical_conversion(1, 2 * m, n)
    mult_x = np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
    plus, minus = chebyshev_end_rows(n, m)
    keep = n - 2 * m
    b = np.zeros((n, n))
    b[2 * m:] = (conv @ ultraspherical_conversion(0, 1, n))[:keep]
    return (np.stack([plus, minus], axis=1).reshape(2 * m, n),  # the +1 and -1 rows of each j
            (-1.0) ** (m + 1) * ultraspherical_diff(2 * m, n)[:keep],
            (conv @ mult_x @ ultraspherical_diff(1, n))[:keep] / (2 * m), b,
            np.cos(math.pi * np.outer(np.arange(n + 1), np.arange(n)) / n))


def _pencil_spectrum(l, m, n, vectors):
    """Eigenvalues of the pencil inside the energy box, descending by real part.

    The pencil is A - lam B with A = [clamped rows; (-1)^(m+1) l^(-2m) D_2m
    - (1/2m) S_{2m-1}...S_1 M_x D_1] (see ``_pencil_parts``), solved by
    dense QZ.  Infinite eigenvalues are dropped, and so is every finite
    one outside the box that holds each eigenvalue of B*: on (-l, l) the
    energy identity Re lam |v|^2 = |v|^2 / 4m - |v^(m)|^2 and, for
    clamped v, |v'| <= |v|^(1-1/m) |v^(m)|^(1/m) give Re lam <= 1/4m and
    |Im lam| <= (l/2m) (1/4m - Re lam)^(1/2m).  The spurious modes of the
    pencil (moduli 6e5 to 3e10 for m = 3, n = 48) fall outside it.  With
    ``vectors`` the Chebyshev coefficients of the kept modes come too, one
    column each.
    """
    top, d2m, drift, b, _ = _pencil_parts(m, n)
    a = np.vstack([top, d2m / l ** (2 * m) - drift])
    if vectors:
        lam, coef = scipy.linalg.eig(a, b)
    else:
        lam, coef = scipy.linalg.eig(a, b, right=False), None
    gap = 1.0 / (4 * m) - lam.real
    with np.errstate(invalid="ignore"):
        keep = (np.isfinite(lam) & (gap >= 0)
                & (np.abs(lam.imag) <= l / (2 * m) * gap ** (1 / (2 * m))))
    order = np.flatnonzero(keep)[np.lexsort((-lam.imag[keep], -lam.real[keep]))]
    return lam[order], None if coef is None else coef[:, order]


def _collocation_spectrum(l, m, n, count):
    """The top ``count`` eigenpairs of the pencil on n coefficients.

    Each residual is |lam_n - lam_(n+16)|, from a second pencil solved
    without eigenvectors; each eigenfunction is read at the n + 1
    Chebyshev points.
    """
    lams, coef = _pencil_spectrum(l, m, n, vectors=True)
    check, _ = _pencil_spectrum(l, m, n + 16, vectors=False)
    cheb = _pencil_parts(m, n)[4]
    out = []
    for lam, c, lam_check in zip(lams[:count], coef.T, check):
        v = cheb @ c
        v = v / v[np.argmax(np.abs(v))]
        if np.max(np.abs(v.imag)) < 1e-9:
            v = v.real
        out.append(Eigenpair(lam=complex(lam), ys=l * cheb[:, 1], values=v,
                             residual=float(abs(lam - lam_check)),
                             zero_count=_count_zeros(np.real(v)), parity="full"))
    return out


# ---------------------------------------------------------------------------
# compound-matrix shooting


def _companion_parts(m):
    """A(y; lam) = A0 + y*A1 + lam*A2 for the first-order system of B*."""
    n = 2 * m
    a0 = np.zeros((n, n))
    for i in range(n - 1):
        a0[i, i + 1] = 1.0
    s = (-1.0) ** (m + 1)
    a1 = np.zeros((n, n))
    a1[n - 1, 1] = (1.0 / (2 * m)) / s
    a2 = np.zeros((n, n))
    a2[n - 1, 0] = 1.0 / s
    return a0, a1, a2


def _compound_generator(a, idx, pos):
    """Generator of the induced flow on m-fold minors for Z' = A Z."""
    size = len(idx)
    n = a.shape[0]
    g = np.zeros((size, size))
    for ci, comb in enumerate(idx):
        comb_set = set(comb)
        for i in comb:
            for j in range(n):
                if a[i, j] == 0.0:
                    continue
                if j == i:
                    g[ci, ci] += a[i, j]
                elif j not in comb_set:
                    rest = sorted(comb_set - {i} | {j})
                    swaps = sum(1 for r in comb if r != i and ((r < j) != (r < i)))
                    g[ci, pos[tuple(rest)]] += a[i, j] * (-1.0) ** swaps
    return g


def _parity_seed_indices(m, parity):
    return tuple(range(0 if parity == "even" else 1, 2 * m, 2))


@lru_cache(maxsize=16)
def _compound_setup(m, parity):
    idx = list(combinations(range(2 * m), m))
    pos = {c: i for i, c in enumerate(idx)}
    g0, g1, g2 = (_compound_generator(a, idx, pos) for a in _companion_parts(m))
    u0 = np.zeros(len(idx))
    u0[pos[tuple(sorted(_parity_seed_indices(m, parity)))]] = 1.0
    target = pos[tuple(range(m))]
    return g0, g1, g2, u0, target


# most (lambda, l) pairs in one stacked solve: bounds the Taylor coefficient
# array of a step, (_TAYLOR_ORDER + 1) x minors x pairs floats (381 kB at m = 2)
_MAX_STACK = 256
_TAYLOR_ORDER = 30


def _taylor_coefficients(gen, lam, u, n_ord):
    """Taylor coefficients c_0 = u, ..., c_n_ord about y0 of the stacked ODE.

    ``gen`` stacks G0 + y0 G1, G2 and G1, so one product per order gives
    all three terms of (n+1) c_{n+1} = (G0 + y0 G1) c_n + (G2 c_n) diag(lam)
    + G1 c_{n-1}, the last one from the order before.
    """
    size = u.shape[0]
    c = np.empty((n_ord + 1,) + u.shape)
    c[0] = u
    prev = np.zeros_like(u)  # G1 c_{-1}
    for n in range(n_ord):
        p = gen @ c[n]
        c[n + 1] = (p[:size] + p[size:2 * size] * lam + prev) / (n + 1)
        prev = p[2 * size:]
    return c


def _horner(c, t):
    """The Taylor polynomial with coefficients ``c`` at ``t`` (per column)."""
    v = c[-1]
    for cn in c[-2::-1]:
        v = v * t + cn
    return v


def _taylor_steps(g0, g1, g2, u, lams, ends, tol):
    """Order-30 Taylor steps of U' = (G0 + y G1) U + (G2 U) diag(lam) from y = 0.

    The coefficients are linear in y, so the Taylor coefficients follow the
    recurrence of ``_taylor_coefficients`` (Jorba & Zou, Experimental
    Math. 14, 2005).  Each step is 0.9 times the shortest length at which,
    for some column u_j, the last two terms reach eps |u_j|_inf (eps =
    tol / 100), so every column is held to its own tolerance.  Yields
    ``(y, h, c, cols, read)`` per step: its start and length, the
    coefficients (order x rows x columns) of the columns ``cols`` still in
    the stack, and the mask of those whose ``ends`` lie within the step,
    which leave the stack after it.  A non-finite coefficient, or a step
    below 1e-12 max(ends) or too short to reach the last end in a million
    more, raises :class:`~reglab.numcore.OdeError`.
    """
    n_ord, eps, min_step = _TAYLOR_ORDER, tol * 1e-2, 1e-12 * ends.max()
    cols = np.arange(len(lams))  # the columns still in the stack
    y = 0.0
    while True:
        with np.errstate(all="ignore"):  # a non-finite result raises below
            c = _taylor_coefficients(np.vstack([g0 + y * g1, g2, g1]), lams[cols], u, n_ord)
            size_u = eps * np.max(np.abs(u), axis=0)
            h = 0.9 * min(np.min((size_u / np.max(np.abs(c[-1]), axis=0)) ** (1 / n_ord)),
                          np.min((size_u / np.max(np.abs(c[-2]), axis=0)) ** (1 / (n_ord - 1))))
        if not np.all(np.isfinite(c)):
            raise OdeError(f"shooting failed at lambda={lams[cols]}: "
                           "Taylor coefficient not finite", y)
        # a step a million times shorter than the way left asks for a
        # tolerance that no sum in double precision meets
        if not h >= max(min_step, 1e-6 * (ends[cols].max() - y)):
            raise OdeError(f"shooting failed at lambda={lams[cols]}: step {h:.3g} too short", y)
        read = ends[cols] <= y + h
        yield y, h, c, cols, read
        if read.any():
            cols, c = cols[~read], c[:, :, ~read]
            if not cols.size:
                return
        u = _horner(c, h)
        y += h


class ClampedEndDeterminant:
    """Normalized clamped-end determinant d(lambda) for one parity class.

    The determinant of the boundary rows of the parity-adapted fundamental
    solutions is evolved as a compound (minor) vector, which is immune to
    the cancellation between growing fundamental modes.  The returned
    value is scaled by the full minor norm at y = l, so sign changes in
    lambda are meaningful for bracketing.

    A scalar ``lam`` returns a float.  A 1-D array of lambdas returns an
    array of the same length: the minor ODE is linear in lambda, so all k
    of them are integrated as one stacked system U' = (G0 + y G1) U
    + (G2 U) diag(lam) by :func:`_taylor_steps`.

    The ODE does not depend on the half-width either, so ``l`` (one
    half-width per lambda, of the shape of ``lam``) reads each lambda's
    determinant at its own half-width instead of ``self.l``, by Horner's
    rule inside the step that holds it.  More than 256 pairs are solved in
    chunks of consecutive l.  A failed step raises ``OdeError``; every
    lambda must be real and finite, and every half-width and ``tol``
    positive and finite (``ValueError`` otherwise).
    """

    def __init__(self, l, m, parity, tol=1e-12):
        check_positive("half-length l", l)
        check_positive("tol", tol)
        self.l, self.m, self.parity, self.tol = l, m, parity, tol
        self._g0, self._g1, self._g2, self._u0, self._target = _compound_setup(m, parity)

    def __call__(self, lam, l=None):
        if np.iscomplexobj(lam):
            raise ValueError(f"lambda must be real, got {lam!r}")
        lams = np.atleast_1d(np.asarray(lam, dtype=float))
        if lams.ndim != 1 or not lams.size:
            raise ValueError("lambda must be a scalar or a non-empty 1-D array")
        if not np.all(np.isfinite(lams)):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        ls = None
        if l is not None:
            if np.shape(l) != np.shape(lam):
                raise ValueError("l must hold one half-width per lambda")
            ls = np.atleast_1d(np.asarray(l, dtype=float))
            if not np.all(np.isfinite(ls) & (ls > 0)):
                raise ValueError(f"half-length l must be positive and finite, got {l!r}")
        if lams.size > _MAX_STACK:
            order = np.arange(lams.size) if ls is None else np.argsort(ls, kind="stable")
            out = np.empty(lams.size)
            for part in np.array_split(order, -(-lams.size // _MAX_STACK)):
                out[part] = self._stacked(lams[part], None if ls is None else ls[part])
            return out
        d = self._stacked(lams, ls)
        return float(d[0]) if np.ndim(lam) == 0 else d

    def _stacked(self, lams, ls):
        """One stacked solve: d at ``self.l``, or at ``ls`` column by column."""
        ends = np.full(len(lams), float(self.l)) if ls is None else ls
        out = np.empty((len(self._u0), len(lams)))
        u = np.repeat(self._u0[:, None], len(lams), axis=1)
        for y, _, c, cols, read in _taylor_steps(self._g0, self._g1, self._g2, u, lams, ends,
                                                 self.tol):
            if read.any():
                out[:, cols[read]] = _horner(c[:, :, read], ends[cols[read]] - y)
        norms = np.linalg.norm(out, axis=0)
        return np.divide(out[self._target], norms, out=np.zeros(len(lams)), where=norms > 0)

    def zero_eigenvalue_half_widths(self):
        """Half-widths in (0, l] at which 0 is an eigenvalue.

        These are the zeros in y of the lambda = 0 target minor, which do
        not depend on where the integration stops.  On each Taylor step up
        to ``self.l`` the minor is a polynomial; ``find_root`` refines each
        sign change between 9 equally spaced points of the step (over the
        whole step where its ends hold the only one), so a step may hold
        several zeros.  The zero at y = 0 is not returned.
        """
        zeros = []
        for y, h, c, _, _ in _taylor_steps(self._g0, self._g1, self._g2, self._u0[:, None],
                                           np.zeros(1), np.array([float(self.l)]), self.tol):
            p, t = c[:, self._target, 0], min(h, self.l - y)
            ts = np.linspace(0.0, t, 9)
            vs = _horner(p, ts)
            cuts = [(i, i + 1) for i in np.flatnonzero(vs[:-1] * vs[1:] < 0)]
            if vs[0] * vs[-1] < 0 and len(cuts) <= 1:
                cuts = [(0, 8)]
            for i, j in cuts:
                zeros.append(y + find_root(lambda s: _horner(p, s), (ts[i], ts[j]), tol=1e-15,
                                           f_ends=(vs[i], vs[j])))
        return np.array(zeros)


def _shooting_eigenfunction(l, m, parity, lam):
    """Eigenfunction of a located real eigenvalue on 401 points of [0, l], mirrored by parity."""
    z0 = np.zeros((2 * m, m))
    z0[_parity_seed_indices(m, parity), range(m)] = 1.0
    ys = np.linspace(0.0, l, 401)
    z = np.empty((len(ys), 2 * m, m))
    # Z' = (A0 + y A1 + lam A2) Z, read by Horner at the points of each Taylor step
    for y, h, c, _, _ in _taylor_steps(*_companion_parts(m), z0, np.full(m, float(lam)),
                                       np.full(m, float(l)), 1e-12):
        at = (ys >= y) & (ys <= y + h)
        z[at] = _horner(c, (ys[at] - y)[:, None, None])
    bnd = z[-1, :m]
    coef = np.linalg.svd(bnd)[2][-1]
    resid = float(np.linalg.norm(bnd @ coef) / max(np.linalg.norm(z[-1] @ coef), 1e-300))

    vhalf = z[:, 0] @ coef
    sign = 1.0 if parity == "even" else -1.0
    ys_full = np.concatenate([-ys[::-1], ys[1:]])
    v_full = np.concatenate([sign * vhalf[::-1], vhalf[1:]])
    v_full = v_full / v_full[np.argmax(np.abs(v_full))]
    return ys_full, v_full, resid


def _count_zeros(v):
    s = np.sign(v[2:-2])  # next to the clamped walls v is at rounding level
    s = s[s != 0]
    return int(np.sum(s[1:] * s[:-1] < 0))


_CLAMPED_BEAM_X = (4.730040744862704, 7.853204624095838, 10.995607838001671,
                   14.137165491257464, 17.278759657399481, 20.420352245626061,
                   23.561944902040455, 26.703537555508188)


def _mode_centers(l, parity, n_modes):
    """Drift-free eigenvalue predictions -(x_k / 2l)^4 for one parity."""
    xs = _CLAMPED_BEAM_X[0 if parity == "even" else 1::2]
    return [-((x / (2.0 * l)) ** 4) for x in xs[:n_modes]]


def _scan_grids(l, parity, count):
    """The lambda grids scanned for the top ``count`` eigenvalues, in order.

    First the near-zero sweep, which catches the drift-shifted top of the
    spectrum, then one fallback window around each further drift-free mode.
    """
    centers = _mode_centers(l, parity, count + 2)
    grid = np.linspace(0.3 * abs(centers[0]) + 0.25, 1.6 * centers[0], 24)
    yield grid
    for c in centers[1:]:
        gap = 0.55 * abs(c - grid[-1])
        grid = np.linspace(max(c + gap, grid[-1]), c - gap, 14)
        yield grid


def _scan_eigenvalues(det, ls, parity, count):
    """The top ``count`` real eigenvalues of ``det``'s parity class at each
    half-width of ``ls``: a descending list per half-width, shorter where
    the scan finds fewer sign changes.

    Each round is one stacked ``det`` call holding the next ``_scan_grids``
    grid of every half-width still short of ``count`` sign changes.  The
    grids run downward, so the sign changes come in descending lambda.
    One ``find_roots`` call refines every bracket to 1e-13.
    """
    ls = np.asarray(ls, dtype=float)
    brackets = [[] for _ in ls]  # (lo, hi, f(lo), f(hi)) per half-width
    todo = np.arange(len(ls))
    for grids in zip(*(_scan_grids(l, parity, count) for l in ls)):
        g = np.stack([grids[j] for j in todo])
        vals = det(g.ravel(), np.repeat(ls[todo], g.shape[1])).reshape(g.shape)
        for j, x, v in zip(todo, g, vals):
            for i in np.flatnonzero(v[:-1] * v[1:] < 0)[:count - len(brackets[j])]:
                brackets[j].append((x[i + 1], x[i], v[i + 1], v[i]))
        todo = todo[[len(brackets[j]) < count for j in todo]]
        if not todo.size:
            break
    owner = np.repeat(np.arange(len(ls)), [len(b) for b in brackets])
    rank = np.concatenate([np.arange(len(b)) for b in brackets])

    def det_by_rank(x, idx):
        # stacked columns share Taylor steps, so two brackets of one
        # half-width never share a call: no eigenvalue depends on ``count``
        out = np.empty(len(idx))
        for k in np.unique(rank[idx]):
            at = rank[idx] == k
            out[at] = det(x[at], ls[owner[idx[at]]])
        return out

    lo, hi, f_lo, f_hi = np.reshape([b for bs in brackets for b in bs], (-1, 4)).T
    lams = find_roots(det_by_rank, lo, hi, (f_lo, f_hi), tol=1e-13)
    return [[float(lam) for lam in lams[owner == j]] for j in range(len(ls))]


def interval_spectrum(problem, count=1):
    """Leading eigenpairs of B* on (-l, l), ordered by descending real part.

    Shooting mode locates real eigenvalues by bracketing the clamped-end
    determinant per parity class.  Collocation mode takes the spectrum of
    the ultraspherical pencil on ``grid_size`` Chebyshev coefficients
    (Olver & Townsend, SIAM Rev. 55, 2013), complex eigenvalues included,
    and reports |lam_n - lam_(n+16)| as the residual; its eigenfunctions
    are read at the n + 1 Chebyshev points.  Shooting scans one window per
    clamped-beam mode, so it gives at most 4 eigenvalues per parity class;
    a larger ``count`` raises ``ValueError``.
    """
    if problem.method == "collocation":
        return _collocation_spectrum(problem.l, problem.family.m, problem.grid_size, count)

    m = problem.family.m
    if m != 2:
        raise NotImplementedError("shooting is implemented for the fourth-order case")
    parities = [problem.parity] if problem.parity != "full" else ["even", "odd"]
    # the scan has one window per clamped-beam mode of the parity
    limit = len(_CLAMPED_BEAM_X) // 2 * len(parities)
    if count > limit:
        raise ValueError(f"shooting finds at most {limit} eigenvalues with parity "
                         f"{problem.parity!r}, got count={count}; use collocation for more")
    found = []
    for par in parities:
        det = ClampedEndDeterminant(problem.l, m, par)
        for lam in _scan_eigenvalues(det, [problem.l], par, count)[0]:
            ys, v, resid = _shooting_eigenfunction(problem.l, m, par, lam)
            found.append(Eigenpair(lam=complex(lam), ys=ys, values=v,
                                   residual=resid, zero_count=_count_zeros(v), parity=par))
    if not found:
        raise BracketError("no real eigenvalue bracketed; widen the scan or use collocation")
    found.sort(key=lambda p: -p.lam.real)
    return found[:count]


def top_eigenvalue(l):
    """Real top eigenvalue lambda_0(l) of the fourth-order (m = 2) operator,
    even parity, by shooting: ``_scan_eigenvalues`` at the one half-width.

    Raises ``ValueError`` unless ``l`` is positive and finite, and
    ``BracketError`` if no scan window holds a sign change.
    """
    found = _scan_eigenvalues(ClampedEndDeterminant(l, 2, "even"), [l], "even", 1)[0]
    if not found:
        raise BracketError(f"lambda_0({l}) not bracketed by the scan")
    return found[0]


# ---------------------------------------------------------------------------
# Poincare bound and the guaranteed-regularity radius


# smallest eigenvalue of D^4 on H_0^2(-1, 1): the clamped beam of length 2,
# cosh(2 mu) cos(2 mu) = 1 at 2 mu = x_1
_CLAMPED_BILAPLACIAN_MIN = (_CLAMPED_BEAM_X[0] / 2) ** 4


def poincare_lambda(l):
    """First eigenvalue of D^4 on the clamped interval of half-length l.

    (x_1 / 2l)^4, with x_1 the first clamped-beam root.  Raises ``ValueError``
    unless ``l`` is positive and finite.
    """
    check_positive("half-length l", l)
    return _CLAMPED_BILAPLACIAN_MIN / l**4


def regularity_bound():
    """Half-length below which the vertex is guaranteed regular.

    The energy identity with the Poincare inequality forces every
    eigenvalue to have negative real part for l < (8 Lambda_0(1))^(1/4).
    """
    return (8.0 * _CLAMPED_BILAPLACIAN_MIN) ** 0.25


# ---------------------------------------------------------------------------
# branch tracing


def branch_trace(l_range, step=0.05):
    """lambda_0(l) of the fourth-order (m = 2) operator sampled every
    ``step`` over ``l_range``, with its roots.

    The samples run from l_min by ``step``, never past l_max, with l_max
    added when the last falls short of it (``numcore.range_samples``).  The
    minor ODE does not depend on l, so the scan of ``top_eigenvalue`` reads
    them all together, to about 1e-13 of it.

    A root is a half-width at which lambda = 0 is an eigenvalue: a zero in
    l of the lambda = 0 target minor.  One Taylor integration to the
    largest l finds them all (``zero_eigenvalue_half_widths``).  Each
    sample interval over which lambda_0 changes sign must hold exactly one
    of them, else ``RootConvergenceError``; a sample equal to 0 is a root
    itself.  Raises ``BracketError`` if a sample's scan finds no sign
    change.
    """
    l_min, l_max = l_range
    if not (0 < l_min < l_max < math.inf) or not 0 < step < math.inf:
        raise ValueError("need 0 < l_min < l_max < inf and 0 < step < inf")
    ls = range_samples(l_min, l_max, step)
    det = ClampedEndDeterminant(ls[-1], 2, "even")
    found = _scan_eigenvalues(det, ls, "even", 1)
    if not all(found):
        raise BracketError(f"lambda_0({ls[found.index([])]}) not bracketed by the scan")
    lams = np.array([lam for lam, in found])

    samples = tuple((float(l), float(lam)) for l, lam in zip(ls, lams))
    zeros = det.zero_eigenvalue_half_widths() if np.any(lams[:-1] * lams[1:] < 0) else ()
    roots = []
    for i in range(len(ls) - 1):
        if lams[i] == 0.0:
            roots.append(float(ls[i]))
        elif lams[i] * lams[i + 1] < 0:
            inside = [z for z in zeros if ls[i] <= z <= ls[i + 1]]
            if len(inside) != 1:
                raise RootConvergenceError(
                    f"lambda_0 changes sign on [{ls[i]:g}, {ls[i + 1]:g}], where lambda = 0 "
                    f"is an eigenvalue at {len(inside)} half-widths")
            roots.append(float(inside[0]))
    return EigenBranch(samples=samples, roots=tuple(roots))
