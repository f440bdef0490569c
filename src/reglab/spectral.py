"""Interval eigenproblem for the drift-augmented operator and its branches.

The operator is B* v = (-1)^(m+1) v^(2m) - (1/2m) y v' on (-l, l) with
clamped conditions v = v' = ... = v^(m-1) = 0 at both ends (m = 2 is the
main case).  Two independent routes are provided: compound-matrix
shooting for real eigenvalues, and Chebyshev collocation for the full
(possibly complex) spectrum.  On top of these sit the Poincare bound,
the top branch lambda_0(l) sampled over a range of l with its sign-change
roots, and the large-l boundary-layer approximation of lambda_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from reglab import blayer, kernels
from reglab.numcore import (BracketError, OdeError, RootConvergenceError, check_positive,
                            dense_eigenvalues, find_root, find_roots)


# ---------------------------------------------------------------------------
# problem description


@dataclass(frozen=True)
class IntervalEigenProblem:
    """Eigenproblem description for B* on (-l, l) with clamped ends."""

    l: float
    family: kernels.EquationFamily = field(default_factory=kernels.biharmonic)
    parity: str = "full"  # even | odd | full
    method: str = "shooting"  # shooting | collocation
    grid_size: int = 96
    tol: float = 1e-12

    def __post_init__(self):
        check_positive("half-length l", self.l)
        check_positive("tol", self.tol)
        if self.family.kind != "parabolic":
            raise ValueError("interval eigenproblem is posed for the parabolic family")
        if self.parity not in ("even", "odd", "full"):
            raise ValueError("parity must be even, odd or full")
        if self.method not in ("shooting", "collocation"):
            raise ValueError("method must be shooting or collocation")


@dataclass(frozen=True)
class Eigenpair:
    lam: complex
    ys: np.ndarray
    values: np.ndarray
    residual: float
    zero_count: int
    parity: str

    @property
    def is_real(self):
        return abs(self.lam.imag) < 1e-9


@dataclass(frozen=True)
class EigenBranch:
    samples: tuple[tuple[float, float], ...]
    roots: tuple[float, ...]


# ---------------------------------------------------------------------------
# Chebyshev collocation


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


def _substituted_operator(l, m, n, with_drift=True):
    """Collocation matrices for B* acting on v = (1 - x^2)^m q.

    Returns the Chebyshev points, the full operator matrix in q-values,
    and the weight p(x); endpoint rows are constraints (p vanishes there)
    to be eliminated by the caller.
    """
    x, d = chebyshev_diff(n)
    dpow = [np.eye(n + 1)]
    for _ in range(2 * m):
        dpow.append(d @ dpow[-1])

    pc = np.array([1.0])
    for _ in range(m):  # (1 - x^2)^m, ascending coefficients
        pc = np.convolve(pc, np.array([1.0, 0.0, -1.0]))
    pder = []
    cur = np.polynomial.polynomial.Polynomial(pc)
    for _ in range(2 * m + 1):
        pder.append(cur(x))
        cur = cur.deriv()

    sign = (-1.0) ** (m + 1)
    a = np.zeros((n + 1, n + 1))
    for j in range(2 * m + 1):
        a += math.comb(2 * m, j) * (pder[j][:, None] * dpow[2 * m - j])
    a *= sign / l ** (2 * m)
    if with_drift:
        drift = pder[1][:, None] * dpow[0] + pder[0][:, None] * dpow[1]
        a -= (x[:, None] / (2 * m)) * drift
    return x, a, pder[0]


def _eliminate_endpoints(a, p, n):
    interior = np.arange(1, n)
    ends = np.array([0, n])
    a_ee = a[np.ix_(ends, ends)]
    a_ei = a[np.ix_(ends, interior)]
    a_ie = a[np.ix_(interior, ends)]
    a_ii = a[np.ix_(interior, interior)]
    shur = a_ii - a_ie @ np.linalg.solve(a_ee, a_ei)
    mat = shur / p[interior][:, None]
    recover = lambda q_i: -np.linalg.solve(a_ee, a_ei @ q_i)
    return interior, ends, mat, recover


def _collocation_spectrum(l, m, n, count):
    x, a, p = _substituted_operator(l, m, n)
    interior, ends, mat, recover = _eliminate_endpoints(a, p, n)
    vals, vecs = dense_eigenvalues(mat, vectors=True)

    out = []
    for j in range(min(count, len(vals))):
        q = np.empty(n + 1, dtype=complex)
        q[interior] = vecs[:, j]
        q[ends] = recover(vecs[:, j])
        v = p * q
        v = v / v[np.argmax(np.abs(v))]
        if np.max(np.abs(v.imag)) < 1e-9:
            v = v.real
        out.append(Eigenpair(lam=complex(vals[j]), ys=x * l, values=v,
                             residual=float("nan"), zero_count=_count_zeros(np.real(v)),
                             parity="full"))
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
        sign change over a step on it.  The zero at y = 0 is not returned.
        """
        zeros = []
        for y, h, c, _, _ in _taylor_steps(self._g0, self._g1, self._g2, self._u0[:, None],
                                           np.zeros(1), np.array([float(self.l)]), self.tol):
            p, t = c[:, self._target, 0], min(h, self.l - y)
            f_ends = p[0], _horner(p, t)
            if f_ends[0] * f_ends[1] < 0:
                zeros.append(y + find_root(lambda s: _horner(p, s), (0.0, t), tol=1e-15,
                                           f_ends=f_ends))
        return np.array(zeros)


def _shooting_eigenfunction(l, m, parity, lam, tol):
    """Eigenfunction of a located real eigenvalue on 401 points of [0, l], mirrored by parity."""
    z0 = np.zeros((2 * m, m))
    z0[_parity_seed_indices(m, parity), range(m)] = 1.0
    ys = np.linspace(0.0, l, 401)
    z = np.empty((len(ys), 2 * m, m))
    # Z' = (A0 + y A1 + lam A2) Z, read by Horner at the points of each Taylor step
    for y, h, c, _, _ in _taylor_steps(*_companion_parts(m), z0, np.full(m, float(lam)),
                                       np.full(m, float(l)), tol):
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


def _scan_parity_eigenvalues(det, l, parity, count):
    """Real eigenvalues of one parity class, descending, via windowed scans.

    The grids run downward one after the other, so sign changes turn up in
    descending order and only the first ``count`` distinct ones are refined.
    """
    found = []
    for grid in _scan_grids(l, parity, count):
        if len(found) >= count:
            break
        vals = det(grid)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            if len(found) >= count:
                break
            r = find_root(det, (grid[i + 1], grid[i]), tol=1e-13, f_ends=(vals[i + 1], vals[i]))
            if not any(abs(r - f) < 1e-9 * max(1, abs(r)) for f in found):
                found.append(r)
    return found


def interval_spectrum(problem, count=1):
    """Leading eigenpairs of B* on (-l, l), ordered by descending real part.

    Shooting mode locates real eigenvalues by bracketing the clamped-end
    determinant per parity class; collocation mode extracts the discrete
    spectrum of the substituted Chebyshev matrix, with a doubled-grid
    agreement check reported as the residual.
    """
    if problem.method == "collocation":
        m, n = problem.family.m, problem.grid_size
        pairs = _collocation_spectrum(problem.l, m, n, count)
        refined = _collocation_spectrum(problem.l, m, 2 * n, count)
        out = []
        for p, pr in zip(pairs, refined):
            out.append(Eigenpair(lam=pr.lam, ys=pr.ys, values=pr.values,
                                 residual=float(abs(p.lam - pr.lam)),
                                 zero_count=pr.zero_count, parity="full"))
        return out

    m = problem.family.m
    if m != 2:
        raise NotImplementedError("shooting is implemented for the fourth-order case")
    parities = [problem.parity] if problem.parity != "full" else ["even", "odd"]
    found = []
    for par in parities:
        det = ClampedEndDeterminant(problem.l, m, par, problem.tol)
        for lam in _scan_parity_eigenvalues(det, problem.l, par, count):
            ys, v, resid = _shooting_eigenfunction(problem.l, m, par, lam, problem.tol)
            found.append(Eigenpair(lam=complex(lam), ys=ys, values=v,
                                   residual=resid, zero_count=_count_zeros(v), parity=par))
    if not found:
        raise BracketError("no real eigenvalue bracketed; widen the scan or use collocation")
    found.sort(key=lambda p: -p.lam.real)
    return found[:count]


def top_eigenvalue(l, tol=1e-12):
    """Real top eigenvalue lambda_0(l) of the fourth-order (m = 2) operator,
    even parity, by shooting.

    The determinant is scanned over the near-zero sweep and then, until a
    sign change turns up, over the fallback windows; the top sign change
    is refined by ``find_root`` to 1e-13.  Raises ``ValueError`` unless
    ``l`` is positive and finite, and ``BracketError`` if no window holds
    a sign change.
    """
    det = ClampedEndDeterminant(l, 2, "even", tol)
    vals = _scan_parity_eigenvalues(det, l, "even", 1)
    if not vals:
        raise BracketError(f"lambda_0({l}) not bracketed by the scan")
    return vals[0]


# ---------------------------------------------------------------------------
# Poincare bound and the guaranteed-regularity radius


@lru_cache(maxsize=8)
def _clamped_bilaplacian_min(n=96):
    """Smallest eigenvalue of D^4 on H_0^2(-1, 1) by collocation."""
    x, a, p = _substituted_operator(1.0, 2, n, with_drift=False)
    _, _, mat, _ = _eliminate_endpoints(-a, p, n)  # flip sign: D^4 is positive
    vals = dense_eigenvalues(mat)
    real = np.array([v.real for v in vals if abs(v.imag) < 1e-8 and v.real > 0])
    return float(np.min(real))


def poincare_lambda(l):
    """First eigenvalue of D^4 on the clamped interval of half-length l.

    Computed once at l = 1 and scaled by 1/l^4.  Raises ``ValueError``
    unless ``l`` is positive and finite.
    """
    check_positive("half-length l", l)
    return _clamped_bilaplacian_min() / l**4


def regularity_bound():
    """Half-length below which the vertex is guaranteed regular.

    The energy identity with the Poincare inequality forces every
    eigenvalue to have negative real part for l < (8 Lambda_0(1))^(1/4).
    """
    return (8.0 * _clamped_bilaplacian_min()) ** 0.25


# ---------------------------------------------------------------------------
# branch tracing


def branch_trace(l_range, step=0.05, tol=1e-12):
    """lambda_0(l) of the fourth-order (m = 2) operator sampled every
    ``step`` over ``l_range``, with its roots.

    The minor ODE does not depend on l, so one stacked determinant call
    serves any set of (lambda, l) pairs (``ClampedEndDeterminant`` with
    ``l``): all samples are computed together.  Each scan round is one
    call holding the next grid of ``top_eigenvalue``'s scan for every
    sample still without a sign change (the near-zero sweep, then the
    fallback windows), and the top brackets of all samples are refined
    together by ``find_roots`` (one call per round, xtol 1e-13).  Every
    sample agrees with ``top_eigenvalue(l)`` to about 1e-13.

    A root is a half-width at which lambda = 0 is an eigenvalue: a zero in
    l of the lambda = 0 target minor.  One Taylor integration to the
    largest l finds them all (``zero_eigenvalue_half_widths``).  Each
    sample interval over which lambda_0 changes sign must hold exactly one
    of them, else ``RootConvergenceError``; a sample equal to 0 is a root
    itself.  Raises ``BracketError`` if a sample's scan finds no sign
    change.
    """
    l_min, l_max = l_range
    if not (0 < l_min < l_max < math.inf) or not step > 0:
        raise ValueError("need 0 < l_min < l_max < inf and step > 0")
    ls = np.arange(l_min, l_max + 0.5 * step, step)
    det = ClampedEndDeterminant(ls[-1], 2, "even", tol)

    lo, hi, f_lo, f_hi = (np.empty(len(ls)) for _ in range(4))
    todo = np.arange(len(ls))
    for grids in zip(*(_scan_grids(l, "even", 1) for l in ls)):
        g = np.stack([grids[j] for j in todo])
        vals = det(g.ravel(), np.repeat(ls[todo], g.shape[1])).reshape(g.shape)
        change = vals[:, :-1] * vals[:, 1:] < 0
        hit = np.flatnonzero(change.any(axis=1))
        i = np.argmax(change[hit], axis=1)  # the top sign change
        j = todo[hit]
        lo[j], hi[j], f_lo[j], f_hi[j] = (g[hit, i + 1], g[hit, i],
                                          vals[hit, i + 1], vals[hit, i])
        todo = np.delete(todo, hit)
        if not todo.size:
            break
    else:
        raise BracketError(f"lambda_0({ls[todo[0]]}) not bracketed by the scan")
    lams = find_roots(lambda x, idx: det(x, ls[idx]), lo, hi, (f_lo, f_hi), tol=1e-13)

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


# ---------------------------------------------------------------------------
# boundary-layer eigenvalue approximation


@dataclass(frozen=True)
class BlEigenApprox:
    """Large-l approximation of lambda_0 from boundary-layer matching.

    ``v`` is the explicit layer profile on (0, l^(4/3)) with v(0) = 1 and
    clamped far end.  ``lam0_matched`` couples the kernel and its
    derivative at l to the wall curvatures of the stationary layer
    profile normalized to the interior plateau, the matching that
    localizes the branch roots.  ``d_hat``/``b_hat`` are the predicted
    envelope and oscillation rates of lambda_0(l).
    """

    l: float
    c1: float
    c2: float
    c3: float
    lam0_matched: float
    d_hat: float
    b_hat: float

    _B = 2.0 ** (-5.0 / 3.0)

    def v(self, z):
        b = self._B
        a = math.sqrt(3.0) * b
        z = np.asarray(z, dtype=float)
        out = self.c3 - np.exp(-b * z) * (self.c1 * np.cos(a * z) + self.c2 * np.sin(a * z))
        return out if out.shape else float(out)

    def v_deriv(self, z, order=1):
        b = self._B
        a = math.sqrt(3.0) * b
        r = complex(-b, a)
        z = np.asarray(z, dtype=float)
        w = (self.c1 - 1j * self.c2) * np.exp(r * z) * r**order
        out = -np.real(w)
        return out if out.shape else float(out)


def bl_eigenvalue_approx(l):
    """Boundary-layer profile V and the matched estimate of lambda_0(l).

    Posed for the fourth-order (m = 2) operator only.  Requires l >= 8
    (asymptotic regime).  The estimate is the layer flux
    ``blayer.wall_flux`` g2 l F(l) + g1 l^(2/3) F'(l), with F the
    biharmonic kernel and (g1, g2) the wall constants of the stationary
    layer profile; V lives on (0, L), L = l^(4/3).
    """
    if l < 8.0:
        raise ValueError("the boundary-layer approximation needs l >= 8")
    kc = kernels.kernel_constants(kernels.biharmonic())
    b = 2.0 ** (-5.0 / 3.0)
    a = math.sqrt(3.0) * b
    big_l = l ** (4.0 / 3.0)
    cosl, sinl, el = math.cos(a * big_l), math.sin(a * big_l), math.exp(b * big_l)
    den = 1.0 - el * (cosl - sinl / math.sqrt(3.0))
    c1 = el * (cosl - sinl / math.sqrt(3.0)) / den
    c2 = el * (sinl + cosl / math.sqrt(3.0)) / den
    c3 = 1.0 / den

    lam0_matched = blayer.wall_flux(*blayer.wall_constants(blayer.biharmonic_profile()))(l)
    return BlEigenApprox(l=l, c1=c1, c2=c2, c3=c3, lam0_matched=float(lam0_matched),
                         d_hat=kc.d0 + b, b_hat=0.5 * (kc.b0 + a))
