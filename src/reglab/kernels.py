"""Rescaled fundamental kernels and their bi-orthogonal eigenfunction systems.

Covers the even-order heat-type family ``u_t = -(-D^2)^m u`` (order ``2m``),
the third-order dispersion equation ``u_t = u_xxx``, and the fourth-order
beam (hyperbolic) equation ``u_tt = -u_xxxx``.  For each family the module
computes the rescaled kernel ``F``, its closed-form decay/oscillation
constants, the double-scale large-argument asymptotics, the polynomial
adjoint eigenfunctions with exact rational coefficients, and the L1
majorant deficiency of the oscillatory kernel.  Every evaluator has one
method, ``deriv(y, order, tol)``, whose value at a point never depends on
the batch it is asked in, and which reads one order or a tuple of them:
the heat kernel is the Gaussian in closed form; higher orders read a
piecewise-Chebyshev table per derivative order for |y| <= 12 (built once
from the quadrature, which stays the reference, and certified against it
between its nodes), and beyond take quadrature on a line through the
saddle point of the Fourier integral, one pass for all the orders asked;
dispersion is an Airy function, beam a Fresnel integral, and both far
forms are closed-form.  The fitted ``AsymptoticFit`` serves the far-field
constants and the CLI's comparison column, never a kernel read.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy

from reglab.numcore import Polynomial, QuadratureError, check_positive, find_roots


# ---------------------------------------------------------------------------
# equation families


@dataclass(frozen=True)
class EquationFamily:
    """Tag for the evolution equation whose kernel is being studied.

    ``kind`` is one of ``parabolic`` (order ``2m``, m an integer >= 1; a
    bool is refused), ``dispersion3`` or ``beam4``.
    """

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind == "parabolic":
            if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral) or self.m < 1:
                raise ValueError(f"parabolic family needs an integer order m >= 1, got {self.m!r}")
        elif self.kind in ("dispersion3", "beam4"):
            if self.m is not None:
                raise ValueError(f"{self.kind} takes no order parameter")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def __str__(self):
        return f"parabolic(m={self.m})" if self.kind == "parabolic" else self.kind


def parabolic(m):
    return EquationFamily("parabolic", m)


def heat():
    return parabolic(1)


def dispersion3():
    return EquationFamily("dispersion3")


def beam4():
    return EquationFamily("beam4")


def biharmonic():
    return parabolic(2)


# ---------------------------------------------------------------------------
# kernel constants


@dataclass(frozen=True)
class KernelConstants:
    """Analytic constants governing kernel decay and oscillation.

    The large-argument form is
    ``F(y) ~ y**(-delta0) * exp(-d0*y**alpha) * (C1 sin(b0*y**alpha) + C2 cos(b0*y**alpha))``.
    For the dispersion kernel the decay (``d0``) applies on the left
    half-line and the oscillation (rate ``b0 = d0``) on the right; the
    beam kernel has no exponential envelope and decays like y**-2.
    """

    family: EquationFamily
    m: int | None
    alpha: float
    d0: float
    b0: float
    delta0: float
    alpha0: float


def kernel_constants(family):
    """Closed-form decay/oscillation constants for the given family.

    The amplitudes C1, C2 come from :func:`kernel_asymptotics_fit` (cached
    per kernel by ``ensure_fit``): in closed form for the dispersion and
    beam kernels, fitted for the parabolic ones.
    """
    if family.kind == "parabolic":
        m = family.m
        alpha = 2 * m / (2 * m - 1)
        modulus = (2 * m - 1) / (2 * m) ** alpha
        d0 = modulus * math.sin(math.pi / (2 * (2 * m - 1)))
        b0 = 0.0 if m == 1 else modulus * math.cos(math.pi / (2 * (2 * m - 1)))
        delta0 = (m - 1) / (2 * m - 1)
        return KernelConstants(family, m, alpha, d0, b0, delta0, 1.0 / math.pi)
    if family.kind == "dispersion3":
        d0 = 2.0 * math.sqrt(3.0) / 9.0
        return KernelConstants(family, None, 1.5, d0, d0, 0.25, 1.0)
    # beam: pure oscillation cos(y^2/4 + pi/4) under the algebraic decay y^-2
    return KernelConstants(beam4(), None, 2.0, 0.0, 0.25, 2.0, 1.0)


# far-field amplitudes (C1, C2) in closed form: F(y) = s Ai(-s y), s = 3^(-1/3),
# has C1 = C2 = s^(3/4) / sqrt(2 pi) on the right (DLMF 9.7.9), and the beam
# kernel F ~ sqrt(2/pi) (cos(y^2/4) - sin(y^2/4)) / y^2 (DLMF 7.12)
_FAR_AMPLITUDES = {
    "dispersion3": (3.0 ** -0.25 / math.sqrt(2.0 * math.pi),) * 2,
    "beam4": (-math.sqrt(2.0 / math.pi), math.sqrt(2.0 / math.pi)),
}


# ---------------------------------------------------------------------------
# kernel evaluators


def _s_cutoff(m, order=0):
    # point where exp(-s^(2m)) * s^order drops below 1e-20, far under
    # machine precision because polynomial weights in the
    # bi-orthogonality integrals amplify any truncation tail
    s = (math.log(1e20)) ** (1.0 / (2 * m))
    for _ in range(4):
        s = (math.log(1e20) + order * math.log(max(s, 1.0))) ** (1.0 / (2 * m))
    return s


@lru_cache(maxsize=32)
def _gl_nodes(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=64)
def _gl_rule(m, nn, order):
    """Nodes s and weights of the nn-point rule for int_0^smax exp(-s^(2m)) s^order g(s) ds.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = _gl_nodes(nn)
    smax = _s_cutoff(m, order)
    s = 0.5 * smax * (x + 1.0)
    ws = 0.5 * smax * w * np.exp(-s ** (2 * m)) * s**order
    s.flags.writeable = ws.flags.writeable = False
    return s, ws


@lru_cache(maxsize=16)
def _saddle_nodes(m):
    """Nodes on [0, 2] and weights of the saddle-line rules: the drop past the
    saddle steepens with m, and 64 m nodes, checked against 128 m, meet the
    check to ~1e-14 up to m = 12."""
    (x1, w1), (x2, w2) = _gl_nodes(64 * m), _gl_nodes(128 * m)
    x = np.concatenate([x1, x2]) + 1.0
    x.flags.writeable = False
    return x, w1, w2


# The evaluators are shared per family (``get_kernel``), also between a
# caller's threads; their lazy state is filled under one re-entrant lock (a
# fill may run another one: the switch point needs the fit, the fit needs
# the evaluator), and read without it once set.
_FILL_LOCK = threading.RLock()


def _fill_once(owner, name, compute):
    """``owner.<name>``, set to ``compute()`` by the first caller that finds it None or unset."""
    value = getattr(owner, name, None)
    if value is None:
        with _FILL_LOCK:
            value = getattr(owner, name, None)
            if value is None:
                value = compute()
                setattr(owner, name, value)
    return value


def _orders(family, order, highest=math.inf):
    """``order``, an int or a tuple of them, as a non-empty tuple of orders in 0..highest."""
    orders = order if isinstance(order, tuple) else (order,)
    if not orders or not all(0 <= k <= highest for k in orders):
        raise ValueError(f"{family} kernel: derivative order {order} is outside 0..{highest}")
    return orders


def _one_or_all(order, values):
    """The values of a read, one per order: a tuple for a tuple ``order``, else the one value."""
    return tuple(values) if isinstance(order, tuple) else values[0]


def _gaussian_deriv(y, order):
    """D^k F for the m = 1 kernel F = exp(-y^2/4) / (2 sqrt(pi)), in closed form:
    (-1)^k 2^(-k/2) He_k(y/sqrt 2) F, He_k by its three-term recurrence."""
    # past |y| = 64 the Gaussian is 0.0 in double precision; the clip keeps He_k finite
    y = np.clip(y, -64.0, 64.0)
    x = y / math.sqrt(2.0)
    he_prev, he = np.zeros_like(x), np.ones_like(x)
    for n in range(order):
        he_prev, he = he, x * he - n * he_prev
    return (-1) ** order * 2.0 ** (-0.5 * order) * he * np.exp(-0.25 * y * y) \
        / (2.0 * math.sqrt(math.pi))


def _clenshaw(coef, t):
    """sum_k coef[k] T_k(t) by Clenshaw's recurrence, element by element.

    ``coef`` has one row per degree and one column per point, so no step
    mixes points and a point's value never depends on its batch; for one
    float t it may be the list of that point's coefficients, and the same
    additions and products then run on floats.
    """
    b1, b2 = coef[-1], 0.0
    t2 = 2.0 * t
    for c in coef[-2:0:-1]:
        b1, b2 = t2 * b1 - b2 + c, b1
    return t * b1 - b2 + coef[0]


class _ParabolicKernel:
    """Evaluator for the order-2m kernel F and its derivatives.

    F(y) = (1/pi) * int_0^inf exp(-s^(2m)) cos(s y) ds, normalized so that
    the kernel integrates to one over the line.  For m = 1 this is the
    Gaussian, evaluated in closed form.  For m >= 2 a point with |y| <= 12
    reads a piecewise-Chebyshev table of D^order F, built once from
    quadrature and certified against it, and every point farther out takes
    quadrature on the saddle line, one pass for all the orders it is asked.
    """

    def __init__(self, m):
        self.m = m
        self.constants = kernel_constants(parabolic(m))
        self._fit = None
        self._switch = None

    _FAR_Y = 12.0  # beyond this, plain node sums hit their cancellation floor
    _NODES = 128  # near-field rule size; checked against twice as many nodes
    _BLOCK = 128  # points per block of quadrature sums
    _PANEL = 0.25  # width of a table panel on [0, _FAR_Y]
    _DEGREE = 12  # Chebyshev degree on each panel
    _TABLE_TOL = 1e-14  # certified table error, scaled by the bound on |D^order F| where above 1
    _DROP = 46.0  # the saddle line ends where its integrand is e^-_DROP below its peak

    def deriv(self, y, order=0, tol=1e-10):
        """(d/dy)^order F(y) for scalar or array y, point by point.

        A tuple of orders gives a tuple of values, one per order, each equal
        bit for bit to its single-order read.  For m >= 2 a scalar y takes
        the scalar lane: the route and the route function its element of an
        array read takes, without the masks, the de-duplication and the
        blocks, so its value is that element's, bit for bit.
        """
        orders = _orders(self.constants.family, order)
        if self.m > 1 and np.isscalar(y):
            return _one_or_all(order, self._deriv_point(float(y), orders, tol))
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if self.m == 1:
            out = [_gaussian_deriv(y_arr, k) for k in orders]
        else:
            out = [np.empty_like(y_arr) for _ in orders]
            near = np.abs(y_arr) <= self._FAR_Y
            if near.any():
                for k, o in zip(orders, out):
                    o[near] = self._tabulated(y_arr[near], k)
            if not near.all():
                for o, v in zip(out, self._quad(y_arr[~near], tol, orders)):
                    o[~near] = v
        return _one_or_all(order, [float(o[0]) for o in out] if np.isscalar(y) else out)

    def _deriv_point(self, y, orders, tol):
        """``deriv`` at one float y, m >= 2, as a list with one value per order."""
        if abs(y) <= self._FAR_Y:
            return [float(self._tabulated(y, k)) for k in orders]
        # a far point runs as a one-element array: numpy's scalar arithmetic
        # can round differently from its array loops
        vals = self._doubled(self._saddle_line, np.array([abs(y)]), orders, tol)
        return [-float(v[0]) if k % 2 and y < 0 else float(v[0]) for k, v in zip(orders, vals)]

    def _tabulated(self, y, order):
        """D^order F at |y| <= 12 from the certified table of that order, y a float or an array."""
        coef = _fill_once(self, f"_table{order}", lambda: self._build_table(order))
        ay = abs(y)
        if isinstance(y, float):
            panel = min(int(ay / self._PANEL), coef.shape[1] - 1)
            column = coef[:, panel].tolist()
        else:
            panel = np.minimum((ay / self._PANEL).astype(np.intp), coef.shape[1] - 1)
            column = coef[:, panel]
        t = (ay - (panel + 0.5) * self._PANEL) * (2.0 / self._PANEL)
        out = _clenshaw(column, t)
        # odd orders flip sign with y and vanish at 0, exactly
        return np.sign(y) * out if order % 2 else out

    def _build_table(self, order):
        """Chebyshev coefficients (degree, panel) of D^order F on [0, 12].

        Each panel interpolates ``_quad`` at the Chebyshev points of the
        first kind and is certified against ``_quad`` at the Chebyshev-
        Lobatto points, which lie between those nodes and include the panel
        joints; a panel off by more than ``_TABLE_TOL`` raises
        ``QuadratureError``.  Panel by panel, no temporary array is large.
        """
        n = self._DEGREE + 1
        theta = math.pi * (np.arange(n) + 0.5) / n
        to_coef = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
        to_coef[0] *= 0.5
        nodes, checks = np.cos(theta), np.cos(math.pi * np.arange(n + 1) / n)
        # the weights' mass bounds |D^order F|
        scale = max(1.0, float(_gl_rule(self.m, 2 * self._NODES, order)[1].sum()) / math.pi)
        half = 0.5 * self._PANEL
        coef = np.empty((n, round(self._FAR_Y / self._PANEL)))
        for j in range(coef.shape[1]):
            mid = (j + 0.5) * self._PANEL
            coef[:, j] = (to_coef * self._quad(mid + half * nodes, 1e-13, order)).sum(axis=1)
            ref = self._quad(mid + half * checks, 1e-13, order)
            err = np.abs(_clenshaw(coef[:, [j] * checks.size], checks) - ref)
            if err.max() > self._TABLE_TOL * scale:
                raise QuadratureError(
                    f"{self.constants.family} kernel table of order {order} failed its "
                    f"certification on [{mid - half}, {mid + half}]",
                    float(ref[err.argmax()]), float(err.max()))
        coef.flags.writeable = False
        return coef

    def _quad(self, y, tol=1e-10, order=0):
        """D^order F by quadrature alone, for scalar or array y and an order or a tuple of them.

        D^order F(y) = (1/pi) Re int_0^inf (is)^order exp(-s^(2m) + i s |y|) ds
        for y >= 0, and y < 0 follows from parity.  Up to |y| = 12 the
        integral is a fixed Gauss-Legendre sum on the real axis; farther
        out, where such a sum would cancel down to its ~1e-15 floor, it is
        taken on the line through the dominant saddle (``_saddle_line``),
        where the integrand has no cancellation.  Each rule runs at two
        node counts, n and 2n, and a gap above max(tol, 1e-13) between the
        two raises ``QuadratureError``.  The sums run once per distinct |y|,
        row by row (a point's value never depends on its batch), and in
        blocks of ``_BLOCK`` points, so no temporary grows with the batch.
        """
        orders = _orders(self.constants.family, order)
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        yu, inverse = np.unique(np.abs(y_arr), return_inverse=True)
        outs = [np.empty_like(yu) for _ in orders]
        near = yu <= self._FAR_Y
        for part, rule in ((near, self._real_line), (~near, self._saddle_line)):
            idx = np.flatnonzero(part)
            for block in (idx[i:i + self._BLOCK] for i in range(0, idx.size, self._BLOCK)):
                for out, v in zip(outs, self._doubled(rule, yu[block], orders, tol)):
                    out[block] = v
        sign = np.where(y_arr < 0, -1.0, 1.0)
        outs = [o[inverse] * sign if k % 2 else o[inverse] for k, o in zip(orders, outs)]
        return _one_or_all(order, [float(o[0]) for o in outs] if np.isscalar(y) else outs)

    @staticmethod
    def _doubled(rule, ay, orders, tol):
        """The finer of ``rule``'s two sums at the |y| values ``ay``, one array per
        order; a gap above max(tol, 1e-13) between the two raises ``QuadratureError``."""
        out = []
        for v1, v2 in rule(ay, orders):
            gap = np.abs(v1 - v2)
            if gap.max() > max(tol, 1e-13):
                raise QuadratureError("kernel quadrature failed the doubling check",
                                      float(v2[gap.argmax()]), float(gap.max()))
            out.append(v2)
        return out

    def _real_line(self, y, orders):
        """The 128- and 256-node sums for each D^order F on the real axis, 0 <= y <= 12."""
        out = []
        for order in orders:
            sums = []
            for nn in (self._NODES, 2 * self._NODES):
                s, ws = _gl_rule(self.m, nn, order)
                phase = np.multiply.outer(y, s)
                if order:
                    phase += 0.5 * math.pi * order
                # a row-wise sum, unlike a BLAS matrix-vector product, gives
                # each row the same value whatever other rows the batch holds
                terms = np.cos(phase, out=phase)
                terms *= ws
                sums.append(terms.sum(axis=1) / math.pi)
            out.append(sums)
        return out

    def _saddle_line(self, y, orders):
        """The 64m- and 128m-node sums for each D^order F on a line through the saddle, y > 12.

        The phase -s^(2m) + i s y has its dominant saddle at s* = r e^(i theta),
        r = (y/2m)^(1/(2m-1)), theta = pi/(2(2m-1)).  The contour runs up the
        imaginary axis to i c, c = r sin(theta), then along s = t + i c;
        on the first leg the integrand times ds is imaginary, so only the
        line, t in [0, T], adds to the real part.  Along the line the
        integrand peaks at s*, at the size of the result.  The drop from
        that peak, D(t) = Re (t + i c)^(2m) - Re s*^(2m), is increasing and
        convex for t past Re s*, so one Newton step on D(T) = L from any
        start past Re s* lands at or beyond the root: at T the integrand is
        at least e^-L below its peak, L = ``_DROP``.  The line, its nodes
        and exp(i s y - s^(2m)) serve every order in ``orders``; since L is
        the same for all of them, each order's sums are those of its
        single-order pass, bit for bit.
        """
        m, kc = self.m, self.constants
        # past this |y| every node term is below e^-1000, so 0.0, as is
        # D^order F; the clip keeps s^(2m) finite for any y
        y = np.minimum(y, (1000.0 / kc.d0) ** (1.0 / kc.alpha))
        theta = math.pi / (2 * (2 * m - 1))
        r = (y / (2 * m)) ** (1.0 / (2 * m - 1))
        c = r * math.sin(theta)
        peak = r ** (2 * m) * math.cos(2 * m * theta)  # Re s*^(2m)
        t_end = ((r * math.cos(theta)) ** (2 * m) + self._DROP) ** (1.0 / (2 * m))
        s = (t_end + 1j * c) ** (2 * m - 1)
        t_end -= (np.real(s * (t_end + 1j * c)) - peak - self._DROP) / (2 * m * s.real)
        x, w1, w2 = _saddle_nodes(m)
        half = 0.5 * t_end
        s = np.multiply.outer(half, x) + 1j * c[:, None]
        g = np.exp(1j * y[:, None] * s - s ** (2 * m))
        scale = half / math.pi
        out = []
        for order in orders:
            re = (g * (1j * s) ** order).real if order else g.real
            out.append(((re[:, :w1.size] * w1).sum(axis=1) * scale,
                        (re[:, w1.size:] * w2).sum(axis=1) * scale))
        return out

    def ensure_fit(self):
        window = {1: (3.0, 6.0), 2: (5.0, 9.0)}.get(self.m, (4.0, 9.0))
        return _fill_once(self, "_fit", lambda: kernel_asymptotics_fit(parabolic(self.m), window))

    def switch_point(self):
        """First grid point from which on quadrature and the fitted form agree within 1e-6;
        it measures the reach of the fit and routes no read."""
        def find():
            fit = self.ensure_fit()
            ys = np.arange(3.0, 30.0, 0.25)
            ok = np.abs(self._quad(ys) - fit(ys)) < 1e-6
            idx = next((i for i in range(len(ys)) if ok[i:].all()), len(ys) - 1)
            return float(ys[idx])

        return _fill_once(self, "_switch", find)


class _DispersionKernel:
    """Airy-type kernel of u_t = u_xxx: F'' + (y/3) F = 0, int F = 1."""

    scale = 3.0 ** (-1.0 / 3.0)

    def __init__(self):
        self.constants = kernel_constants(dispersion3())
        self._fit = None

    def deriv(self, y, order=0, tol=None):
        orders = _orders(self.constants.family, order, 1)
        y = np.asarray(y, dtype=float)
        ai, aip = scipy.special.airy(-self.scale * y)[:2]
        out = [self.scale * ai if k == 0 else -self.scale**2 * aip for k in orders]
        return _one_or_all(order, [float(o) if o.ndim == 0 else o for o in out])

    def ensure_fit(self):
        return _fill_once(self, "_fit", lambda: kernel_asymptotics_fit(dispersion3(), (5.0, 12.0)))


class _BeamKernel:
    """Kernel of the beam equation: F(y) = (1/pi) int_0^inf sin(w^2) cos(w y) / w^2 dw.

    Two y-derivatives give a Fresnel integral (DLMF 7.2), so with
    z = |y|/sqrt(2 pi) and t = y^2/4

        F(y) = -(|y|/2) (C(z) - S(z)) + (sin t + cos t) / sqrt(2 pi).

    The two terms cancel to O(y^-2), and past |y| = 12 the phases that
    ``scipy.special.fresnel`` and t carry part by rounding (4.7e-12 at
    |y| = 1e3); there F = -(P (sin t + cos t) + Q (sin t - cos t)) / sqrt(2 pi)
    instead, with P + iQ = sum_{k>=1} (1/2)_k (i/t)^k the asymptotic series
    of the auxiliary functions (DLMF 7.12.2-3).  Its terms fall while
    k < t, so 36 of them stop at e^-36 at t = 36.
    """

    def __init__(self):
        self.constants = kernel_constants(beam4())
        self._fit = None

    def deriv(self, y, order=0, tol=None):
        _orders(self.constants.family, order, 0)
        ay = np.abs(np.asarray(y, dtype=float))
        t = 0.25 * ay * ay
        sin_t, cos_t = np.sin(t), np.cos(t)
        fs, fc = scipy.special.fresnel(ay / math.sqrt(2.0 * math.pi))
        i_over_t = 1j / np.maximum(t, 36.0)
        term, series = np.ones_like(i_over_t), 0.0
        for k in range(1, 37):
            term = term * (k - 0.5) * i_over_t
            series = series + term
        out = np.where(t <= 36.0, (sin_t + cos_t) - math.sqrt(0.5 * math.pi) * ay * (fc - fs),
                       -(series.real * (sin_t + cos_t) + series.imag * (sin_t - cos_t)))
        out = out / math.sqrt(2.0 * math.pi)
        return _one_or_all(order, [float(out) if out.ndim == 0 else out])

    def ensure_fit(self):
        return _fill_once(self, "_fit", lambda: kernel_asymptotics_fit(beam4(), (6.0, 14.0)))


_KERNELS: dict[EquationFamily, object] = {}


def get_kernel(family):
    """Cached kernel evaluator for the family."""
    kern = _KERNELS.get(family)
    if kern is None:
        with _FILL_LOCK:
            kern = _KERNELS.get(family)
            if kern is None:
                if family.kind == "parabolic":
                    kern = _ParabolicKernel(family.m)
                elif family.kind == "dispersion3":
                    kern = _DispersionKernel()
                else:
                    kern = _BeamKernel()
                _KERNELS[family] = kern
    return kern


def eval_kernel(family, y, tol=1e-10, order=0):
    """Rescaled kernel F(y), or its derivative of order ``order``, with absolute
    error below ``tol``; a tuple of orders reads them all in one pass and
    gives one value per order."""
    check_positive("tol", tol)
    return get_kernel(family).deriv(y, order, tol)


# ---------------------------------------------------------------------------
# asymptotic fit


@dataclass(frozen=True)
class AsymptoticFit:
    """Amplitudes of the double-scale large-y form, with its misfit on a window.

    One model for every family: ``y**-exponent * exp(-decay * y**alpha)
    * (c1 sin(rate * y**alpha) + c2 cos(rate * y**alpha))``.
    """

    family: EquationFamily
    window: tuple[float, float]
    c1: float
    c2: float
    residual: float
    exponent: float  # algebraic decay exponent of the model
    decay: float
    rate: float
    alpha: float

    def __call__(self, y):
        """The form at y.

        Even kernels extend it by parity; the dispersion form is the
        right-hand oscillation alone and gives nan for y < 0.
        """
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        u = ay**self.alpha
        env = ay ** (-self.exponent) * np.exp(-self.decay * u)
        out = env * (self.c1 * np.sin(self.rate * u) + self.c2 * np.cos(self.rate * u))
        if self.family.kind == "dispersion3":
            out = np.where(y < 0, np.nan, out)
        return out


def kernel_asymptotics_fit(family, window):
    """The large-argument form of the kernel, measured at 48 even points of ``window``.

    Returns the sin/cos amplitudes and the RMS misfit of the form against
    direct kernel values, both divided by the envelope, so the decay
    across the window does not dominate.  The dispersion and beam
    amplitudes are closed-form, and the window only measures their misfit.
    The parabolic ones are least-squares fits to the Gaussian for heat
    (which the form matches exactly; the sin amplitude is zero) and to
    quadrature alone for higher orders.  A window outside
    0 <= lo < hi < inf, or a parabolic one under a half oscillation,
    raises ``ValueError``.

    The fit is returned, never cached: only the evaluator's ``ensure_fit``
    stores the fit on its default window, so a custom window cannot change
    later kernel values.
    """
    lo, hi = window
    if not 0 <= lo < hi < math.inf:
        raise ValueError(f"window must satisfy 0 <= lo < hi < inf, got {window!r}")
    ys = np.linspace(lo, hi, 48)
    kern = get_kernel(family)
    k = kern.constants
    if family.kind == "parabolic":
        if k.b0 != 0.0 and k.b0 * (hi**k.alpha - lo**k.alpha) < math.pi:
            raise ValueError("window samples less than a half oscillation; widen it")
        fs = kern.deriv(ys) if family.m == 1 else kern._quad(ys, 1e-12)
        decay = k.d0
    else:
        fs = kern.deriv(ys)
        decay = 0.0  # the oscillating side
    u = ys**k.alpha
    basis = np.column_stack([np.sin(k.b0 * u), np.cos(k.b0 * u)])
    fn = fs / (ys ** (-k.delta0) * np.exp(-decay * u))
    if family.kind != "parabolic":
        coef = np.array(_FAR_AMPLITUDES[family.kind])
    elif k.b0 == 0.0:
        # the sin column vanishes and least squares is the mean, without the
        # few ulps an SVD would add to an exact form
        coef = np.array([0.0, np.mean(fn)])
    else:
        coef, *_ = np.linalg.lstsq(basis, fn, rcond=None)
    resid = float(np.sqrt(np.mean((fn - basis @ coef) ** 2)))
    return AsymptoticFit(family, (lo, hi), float(coef[0]), float(coef[1]), resid,
                         k.delta0, decay, k.b0, k.alpha)


# ---------------------------------------------------------------------------
# Hermite eigenfunction pairs


def _exact_psi_star_poly(m, k):
    """Adjoint eigenfunction polynomial (unnormalized, exact rationals).

    sum_{j=0}^{floor(k/2m)} (-1)^(m j) / j! * D^(2mj) y^k
    """
    poly = Polynomial.monomial(k)
    out = Polynomial([0])
    for j in range(k // (2 * m) + 1):
        term = poly.derivative(2 * m * j) * Fraction((-1) ** (m * j), math.factorial(j))
        out = out + term
    return out


def b_star_apply(poly, m):
    """Apply B* = (-1)^(m+1) D^(2m) - (1/2m) y D to an exact polynomial."""
    lead = poly.derivative(2 * m) * Fraction((-1) ** (m + 1))
    drift = poly.derivative(1).shift_degree(1) * Fraction(-1, 2 * m)
    return lead + drift


@dataclass(frozen=True)
class HermitePair:
    """Eigenvalue with its kernel-derivative and polynomial eigenfunctions.

    ``psi(y)`` evaluates (-1)^k D^k F / sqrt(k!); ``psi_star(y)`` evaluates
    the degree-k adjoint polynomial (normalized by 1/sqrt(k!)); the exact
    unnormalized polynomial and the squared normalization are kept for
    rational-arithmetic identities.
    """

    m: int
    k: int
    lam: Fraction
    psi_star_poly: Polynomial
    norm_sq: int

    @property
    def eigenvalue(self):
        return float(self.lam)

    def psi_star(self, y):
        return self.psi_star_poly(y) / math.sqrt(self.norm_sq)

    def psi(self, y, tol=1e-11):
        kern = get_kernel(parabolic(self.m))
        val = kern.deriv(y, self.k, tol)
        return val * ((-1) ** self.k) / math.sqrt(self.norm_sq)


def hermite_pair(family, k):
    """k-th eigenpair of the adjoint operator pair for a parabolic family."""
    if family.kind != "parabolic":
        raise ValueError("Hermite pairs are defined for the parabolic family")
    if k < 0:
        raise ValueError("index k must be nonnegative")
    m = family.m
    return HermitePair(
        m=m,
        k=k,
        lam=Fraction(-k, 2 * m),
        psi_star_poly=_exact_psi_star_poly(m, k),
        norm_sq=math.factorial(k),
    )


@dataclass(frozen=True)
class OrthonormalityResult:
    matrix: np.ndarray
    max_deviation: float


def orthonormality_matrix(family, k_max, tol=1e-8):
    """Gram matrix G[k,l] = <psi_k, psi*_l> over the line, by quadrature.

    Entries with odd k+l vanish by parity and are set to zero exactly;
    even entries are computed as 2 * int_0^Y with Y chosen so the kernel
    envelope times the polynomial growth is below ``tol/100``.
    """
    if family.kind != "parabolic":
        raise ValueError("orthonormality matrix is defined for the parabolic family")
    m = family.m
    kc = kernel_constants(family)
    pairs = [hermite_pair(family, k) for k in range(k_max + 1)]

    env = lambda y: y ** (k_max + 1) * math.exp(-kc.d0 * y**kc.alpha)
    y_hi = 5.0
    while env(y_hi) > tol / 100.0 and y_hi < 200.0:
        y_hi += 1.0

    n_panels, n_nodes = 24, 32
    edges = np.linspace(0.0, y_hi, n_panels + 1)
    gx, gw = np.polynomial.legendre.leggauss(n_nodes)
    ys, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ys.append(0.5 * (a + b) + 0.5 * (b - a) * gx)
        ws.append(0.5 * (b - a) * gw)
    ys, ws = np.concatenate(ys), np.concatenate(ws)

    # the reference quadrature the tables are certified against; ``deriv``
    # gives the same matrix to ~3e-13 but builds a table per order (0.13 s
    # against 0.08 s at m = 2, k_max = 6)
    kern = get_kernel(family)
    psi_vals = np.stack([
        kern._quad(ys, tol * 1e-2, p.k) * ((-1) ** p.k) / math.sqrt(p.norm_sq)
        for p in pairs
    ])
    star_vals = np.stack([p.psi_star_poly(ys) / math.sqrt(p.norm_sq) for p in pairs])

    size = k_max + 1
    g = np.zeros((size, size))
    for k in range(size):
        for l in range(size):
            if (k + l) % 2 == 0:
                g[k, l] = 2.0 * np.dot(ws, psi_vals[k] * star_vals[l])
    dev = float(np.max(np.abs(g - np.eye(size))))
    return OrthonormalityResult(matrix=g, max_deviation=dev)


# ---------------------------------------------------------------------------
# hyperbolic pencil


def _pencil_psi_star_poly(k, shifted=False):
    """Polynomial eigenfunction of the beam pencil, exact rationals.

    For the principal eigenvalue series (-k/2) the correction weights are
    (-1)^j / (2j)!; for the shifted series (-k/2 - 1) they are
    (-1)^j / (2j+1)!.  Both follow from the degree-descending recursion of
    the pencil equation and are verified there term by term; the low-order
    cases correspond to classical polynomial solutions of the beam
    equation such as x^4 - 12 t^2.
    """
    mono = Polynomial.monomial(k)
    out = mono
    for j in range(1, k // 4 + 1):
        w = math.factorial(2 * j + 1) if shifted else math.factorial(2 * j)
        out = out + mono.derivative(4 * j) * Fraction((-1) ** j, w)
    return out


def beam_pencil_apply(poly, lam):
    """C*(lam) p = B* p - (lam^2 + lam) p - lam y p' for the beam pencil.

    B* = -D^4 - (1/4) y^2 D^2 - (3/4) y D, applied with exact rationals.
    """
    lam = Fraction(lam)
    b_star = (
        poly.derivative(4) * Fraction(-1)
        + poly.derivative(2).shift_degree(2) * Fraction(-1, 4)
        + poly.derivative(1).shift_degree(1) * Fraction(-3, 4)
    )
    return b_star - poly * (lam * lam + lam) - poly.derivative(1).shift_degree(1) * lam


@dataclass(frozen=True)
class PencilPair:
    """Eigenvalue pair of the beam-equation quadratic pencil.

    ``psi_star_poly`` belongs to the principal series (eigenvalue -k/2),
    ``psi_star_poly_shifted`` to the series shifted by -1.
    """

    k: int
    lam_plus: Fraction
    lam_minus: Fraction
    psi_star_poly: Polynomial
    psi_star_poly_shifted: Polynomial
    norm_sq: int

    def psi_star(self, y):
        return self.psi_star_poly(y) / math.sqrt(self.norm_sq)


def pencil_pair(k):
    """Exact eigenvalue pair and adjoint polynomials of the beam pencil.

    The eigenvalues are the exact roots of
    lam^2 + (k+1) lam + k(k-1)/4 + 3k/4 = 0, i.e. -k/2 and -k/2 - 1.
    """
    if k < 0:
        raise ValueError("index k must be nonnegative")
    return PencilPair(
        k=k,
        lam_plus=Fraction(-k, 2),
        lam_minus=Fraction(-k, 2) - 1,
        psi_star_poly=_pencil_psi_star_poly(k),
        psi_star_poly_shifted=_pencil_psi_star_poly(k, shifted=True),
        norm_sq=math.factorial(k),
    )


# ---------------------------------------------------------------------------
# majorant deficiency (L1 norm of the oscillatory kernel)


@dataclass(frozen=True)
class MajorantResult:
    """L1 norm of F with the sign-change points used for the splitting."""

    family: EquationFamily
    d_star: float
    zeros: tuple[float, ...]
    tail_bound: float

    def majorant(self, y):
        """Normalized positive majorant kernel |F| / D*."""
        return np.abs(eval_kernel(self.family, y)) / self.d_star


def majorant_deficiency(family, tol=1e-8):
    """D* = int |F| over the line, by quadrature with zero-splitting.

    Equals 1 exactly when the kernel is positive (order 2, i.e. m=1) and
    exceeds 1 for every oscillatory kernel.  The sign changes of F on a
    grid of [0, y_hi] are refined together by one ``find_roots`` call
    (xtol 1e-12); each arc between them is integrated by ``quad``.  The
    composite Gauss-Legendre rule (``numcore.gauss_legendre_windows``)
    passes its order doubling on these arcs too, but took 0.086 s against
    0.02 s at m = 2.  ``tol`` must be positive and finite (``ValueError``).
    """
    check_positive("tol", tol)
    if family.kind != "parabolic":
        raise ValueError("majorant deficiency is computed for the parabolic family")
    kern = get_kernel(family)
    kc = kern.constants
    env = lambda y: y ** (-kc.delta0 if y > 1 else 0.0) * math.exp(-kc.d0 * y**kc.alpha)
    y_hi = 5.0
    while env(y_hi) > tol / 100.0 and y_hi < 120.0:
        y_hi += 1.0

    grid = np.linspace(0.0, y_hi, max(400, int(40 * y_hi)))
    vals = kern.deriv(grid, 0, tol * 1e-2)
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    roots = find_roots(lambda y, idx: kern.deriv(y, 0, tol * 1e-2), grid[i], grid[i + 1],
                       (vals[i], vals[i + 1]), tol=1e-12)
    zeros = np.sort(np.concatenate([grid[:-1][vals[:-1] == 0.0], roots])).tolist()

    pts = [0.0] + zeros + [y_hi]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, _ = scipy.integrate.quad(lambda y: kern.deriv(float(y), 0, tol * 1e-2), lo, hi,
                                    epsabs=tol / (4 * len(pts)), limit=200)
        total += abs(v)
    tail = abs(scipy.integrate.quad(lambda y: env(y), y_hi, y_hi + 40.0, epsabs=tol / 10,
                                    limit=100)[0])
    return MajorantResult(family=family, d_star=2.0 * total, zeros=tuple(zeros), tail_bound=tail)
