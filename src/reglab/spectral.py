"""Interval eigenproblem for the drift-augmented operator and its branches.

The operator is B* v = (-1)^(m+1) v^(2m) - (1/2m) y v' on (-l, l) with
clamped conditions v = v' = ... = v^(m-1) = 0 at both ends (m = 2 is the
main case).  Two independent routes are provided: compound-matrix
shooting for real eigenvalues, and Chebyshev collocation for the full
(possibly complex) spectrum.  On top of these sit the Poincare bound,
continuation of the top branch lambda_0(l) with its sign-change roots,
and the large-l boundary-layer approximation of lambda_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import integrate

from reglab import kernels
from reglab.numcore import BracketError, OdeError, dense_eigenvalues, find_root


# ---------------------------------------------------------------------------
# problem description


def _check_half_length(l):
    if not (math.isfinite(l) and l > 0):
        raise ValueError(f"half-length l must be positive and finite, got {l!r}")


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
        _check_half_length(self.l)
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
    if parity == "even":
        return tuple(range(0, 2 * m, 2))
    return tuple(range(1, 2 * m, 2))


@lru_cache(maxsize=16)
def _compound_setup(m, parity):
    idx = list(combinations(range(2 * m), m))
    pos = {c: i for i, c in enumerate(idx)}
    a0, a1, a2 = _companion_parts(m)
    g0 = _compound_generator(a0, idx, pos)
    g1 = _compound_generator(a1, idx, pos)
    g2 = _compound_generator(a2, idx, pos)
    u0 = np.zeros(len(idx))
    u0[pos[tuple(sorted(_parity_seed_indices(m, parity)))]] = 1.0
    target = pos[tuple(range(m))]
    return g0, g1, g2, u0, target


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
    + (G2 U) diag(lam).  DOP853 bounds the RMS error over all components,
    which lets one lambda's error grow to sqrt(k) times the bound, so the
    stacked solve runs at ``rtol`` and ``atol`` divided by sqrt(k): each
    lambda is held to at least its scalar tolerance.  A failed integration
    raises :class:`~reglab.numcore.OdeError`.
    """

    def __init__(self, l, m, parity, tol=1e-12):
        _check_half_length(l)
        self.l, self.m, self.parity, self.tol = l, m, parity, tol
        self._g0, self._g1, self._g2, self._u0, self._target = _compound_setup(m, parity)

    def __call__(self, lam):
        lams = np.atleast_1d(np.asarray(lam, dtype=float))
        if lams.ndim != 1 or not lams.size:
            raise ValueError("lambda must be a scalar or a non-empty 1-D array")
        g0, g1, g2 = self._g0, self._g1, self._g2
        size, k = len(self._u0), len(lams)

        def rhs(y, u):
            us = u.reshape(size, k)
            return ((g0 + y * g1) @ us + (g2 @ us) * lams).ravel()

        scale = math.sqrt(k)
        sol = integrate.solve_ivp(rhs, (0.0, self.l), np.repeat(self._u0, k), method="DOP853",
                                  rtol=self.tol / scale, atol=self.tol * 1e-2 / scale)
        if not sol.success:
            raise OdeError(f"shooting failed at lambda={lam}: {sol.message}", float(sol.t[-1]))
        us = sol.y[:, -1].reshape(size, k)
        norms = np.linalg.norm(us, axis=0)
        d = np.divide(us[self._target], norms, out=np.zeros(k), where=norms > 0)
        return float(d[0]) if np.ndim(lam) == 0 else d


def _shooting_eigenfunction(l, m, parity, lam, tol, n_samples=401):
    """Recover and normalize the eigenfunction of a located real eigenvalue."""
    seeds = _parity_seed_indices(m, parity)
    z0 = np.zeros((2 * m, m))
    for col, s in enumerate(seeds):
        z0[s, col] = 1.0
    a0, a1, a2 = _companion_parts(m)

    def rhs(y, z):
        zm = z.reshape(2 * m, m)
        return ((a0 + y * a1 + lam * a2) @ zm).ravel()

    ys = np.linspace(0.0, l, n_samples)
    sol = integrate.solve_ivp(rhs, (0.0, l), z0.ravel(), t_eval=ys,
                              method="DOP853", rtol=tol, atol=tol * 1e-2)
    z = sol.y.reshape(2 * m, m, -1)
    bnd = z[:m, :, -1]
    _, _, vt = np.linalg.svd(bnd)
    coef = vt[-1]
    state_scale = np.linalg.norm(z[:, :, -1] @ coef)
    resid = float(np.linalg.norm(bnd @ coef) / max(state_scale, 1e-300))

    vhalf = np.tensordot(z[0], coef, axes=(0, 0))
    sign = 1.0 if parity == "even" else -1.0
    ys_full = np.concatenate([-ys[::-1], ys[1:]])
    v_full = np.concatenate([sign * vhalf[::-1], vhalf[1:]])
    v_full = v_full / v_full[np.argmax(np.abs(v_full))]
    return ys_full, v_full, resid


def _count_zeros(v, edge_clip=2):
    core = v[edge_clip:-edge_clip] if edge_clip else v
    s = np.sign(core)
    s = s[s != 0]
    return int(np.sum(s[1:] * s[:-1] < 0))


_CLAMPED_BEAM_X = (4.730040744862704, 7.853204624095838, 10.995607838001671,
                   14.137165491257464, 17.278759657399481, 20.420352245626061,
                   23.561944902040455, 26.703537555508188)


def _mode_centers(l, parity, n_modes):
    """Drift-free eigenvalue predictions -(x_k / 2l)^4 for one parity."""
    xs = _CLAMPED_BEAM_X[0 if parity == "even" else 1::2]
    return [-((x / (2.0 * l)) ** 4) for x in xs[:n_modes]]


def _scan_parity_eigenvalues(det, l, parity, count):
    """Real eigenvalues of one parity class, descending, via windowed scans."""
    centers = _mode_centers(l, parity, count + 2)
    found = []
    # near-zero sweep catches the drift-shifted top of the spectrum
    top = 0.3 * abs(centers[0]) + 0.25
    grid = np.linspace(top, 1.6 * centers[0], 24)
    vals = det(grid)
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            found.append(find_root(det, (grid[i + 1], grid[i]), tol=1e-13,
                                   f_ends=(vals[i + 1], vals[i])))
    lo_reached = grid[-1]
    for c in centers[1:]:
        if len(found) >= count:
            break
        gap = 0.55 * abs(c - lo_reached)
        grid = np.linspace(max(c + gap, lo_reached), c - gap, 14)
        vals = det(grid)
        for i in range(len(grid) - 1):
            if vals[i] * vals[i + 1] < 0:
                r = find_root(det, (grid[i + 1], grid[i]), tol=1e-13,
                              f_ends=(vals[i + 1], vals[i]))
                if not any(abs(r - f) < 1e-9 * max(1, abs(r)) for f in found):
                    found.append(r)
        lo_reached = grid[-1]
    found.sort(reverse=True)
    return found[:count]


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


def top_eigenvalue(l, family=None, tol=1e-12, bracket=None):
    """Real top eigenvalue lambda_0(l), even parity, by shooting.

    ``bracket = (lo, hi)`` reuses knowledge from a continuation
    neighbour (both ends are evaluated in one batched determinant call);
    without it (or if the bracket fails) a windowed scan runs.  Raises
    ``ValueError`` unless ``l`` is positive and finite.
    """
    family = family or kernels.biharmonic()
    det = ClampedEndDeterminant(l, family.m, "even", tol)
    if bracket is not None:
        flo, fhi = det(np.asarray(bracket, dtype=float))
        try:
            return find_root(det, bracket, tol=1e-13, f_ends=(flo, fhi))
        except BracketError:
            pass
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

    Computed once at l = 1 and scaled by 1/l^4.
    """
    if l <= 0:
        raise ValueError("l must be positive")
    return _clamped_bilaplacian_min() / l**4


def regularity_bound():
    """Half-length below which the vertex is guaranteed regular.

    The energy identity with the Poincare inequality forces every
    eigenvalue to have negative real part for l < (8 Lambda_0(1))^(1/4).
    """
    return (8.0 * _clamped_bilaplacian_min()) ** 0.25


# ---------------------------------------------------------------------------
# branch tracing


def branch_trace(l_range, step=0.05, family=None, tol=1e-12):
    """Continuation of lambda_0(l) over ``l_range`` with root refinement.

    The previous eigenvalue seeds the next bracket; a jump beyond ten
    times the local trend triggers a fresh scan.  Sign changes between
    samples are refined by the bracketed root finder on l -> lambda_0(l).
    """
    family = family or kernels.biharmonic()
    l_min, l_max = l_range
    if not (0 < l_min < l_max < math.inf) or not step > 0:
        raise ValueError("need 0 < l_min < l_max < inf and step > 0")
    ls = np.arange(l_min, l_max + 0.5 * step, step)

    lams = []
    prev, trend = None, None
    for l in ls:
        if prev is None:
            lam = top_eigenvalue(l, family, tol)
        else:
            width = max(0.05, 4.0 * abs(trend) if trend is not None else 0.05)
            lam = top_eigenvalue(l, family, tol, bracket=(prev - width, prev + width))
            if trend is not None and abs(lam - prev) > 10.0 * max(abs(trend), 1e-3):
                lam = top_eigenvalue(l, family, tol)
        trend = None if prev is None else lam - prev
        prev = lam
        lams.append(lam)

    samples = tuple((float(l), float(lam)) for l, lam in zip(ls, lams))
    roots = []
    for i in range(len(ls) - 1):
        if lams[i] == 0.0:
            roots.append(float(ls[i]))
        elif lams[i] * lams[i + 1] < 0:
            state = {"bracket": (min(lams[i], lams[i + 1]) - 0.02,
                                 max(lams[i], lams[i + 1]) + 0.02)}

            def branch_fun(l, _state=state):
                lam = top_eigenvalue(l, family, tol, bracket=_state["bracket"])
                _state["bracket"] = (lam - 0.02, lam + 0.02)
                return lam

            roots.append(float(find_root(branch_fun, (float(ls[i]), float(ls[i + 1])), tol=1e-5,
                                         f_ends=(lams[i], lams[i + 1]))))
    return EigenBranch(samples=samples, roots=tuple(roots))


# ---------------------------------------------------------------------------
# boundary-layer eigenvalue approximation


@dataclass(frozen=True)
class BlEigenApprox:
    """Large-l approximation of lambda_0 from boundary-layer matching.

    ``v`` is the explicit layer profile on (0, l^(4/3)) with v(0) = 1 and
    clamped far end; ``lam0`` couples its far-end second and third
    derivatives to the kernel and its derivative at l.  That literal
    assembly inherits resonance poles from the profile normalization, so
    ``lam0_matched`` is also provided: the same matching formula with the
    wall curvatures of the stationary layer profile normalized to the
    interior plateau, which is the variant that localizes the branch
    roots.  ``d_hat``/``b_hat`` are the predicted envelope and
    oscillation rates of lambda_0(l).
    """

    l: float
    c1: float
    c2: float
    c3: float
    lam0: float
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


def bl_eigenvalue_approx(l, family=None):
    """Boundary-layer profile V and the matched estimate of lambda_0(l).

    Requires l >= 8 (asymptotic regime).  The estimate is
    -l V'''(L) F(l) + l^(2/3) V''(L) F'(l) with L = l^(4/3).
    """
    if l < 8.0:
        raise ValueError("the boundary-layer approximation needs l >= 8")
    family = family or kernels.biharmonic()
    kc = kernels.kernel_constants(family)
    b = 2.0 ** (-5.0 / 3.0)
    a = math.sqrt(3.0) * b
    big_l = l ** (4.0 / 3.0)
    cosl, sinl, el = math.cos(a * big_l), math.sin(a * big_l), math.exp(b * big_l)
    den = 1.0 - el * (cosl - sinl / math.sqrt(3.0))
    c1 = el * (cosl - sinl / math.sqrt(3.0)) / den
    c2 = el * (sinl + cosl / math.sqrt(3.0)) / den
    c3 = 1.0 / den

    approx = BlEigenApprox(l=l, c1=c1, c2=c2, c3=c3, lam0=0.0, lam0_matched=0.0,
                           d_hat=kc.d0 + b, b_hat=0.5 * (kc.b0 + a))
    v2 = approx.v_deriv(big_l, 2)
    v3 = approx.v_deriv(big_l, 3)
    f_l = kernels.eval_kernel(family, l)
    fp_l = kernels.eval_kernel_derivative(family, l)
    lam0 = -l * v3 * f_l + l ** (2.0 / 3.0) * v2 * fp_l

    from reglab import blayer  # lazy: blayer does not depend on spectral

    g1, g2 = blayer.wall_constants(blayer.biharmonic_profile())
    lam0_matched = g2 * l * f_l + g1 * l ** (2.0 / 3.0) * fp_l
    return BlEigenApprox(l=l, c1=c1, c2=c2, c3=c3, lam0=float(lam0),
                         lam0_matched=float(lam0_matched),
                         d_hat=kc.d0 + b, b_hat=0.5 * (kc.b0 + a))
