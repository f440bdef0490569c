"""Petrovskii-type boundary regularity criteria for the shrinking vertex.

Boundary families phi(tau) (tau = -ln(-t)), each one formula in log-time
u = ln(tau); the oscillatory cut-off transform that keeps the criterion
integrand's trigonometric factor nonpositive; analytic classification
and the numeric dyadic-window tail of the criterion integrals for every
equation family; and the first-Fourier-coefficient ODE traces that carry
the same information dynamically.

Verdict semantics: ``regular`` needs the log-derivative integral to
diverge to -infinity (with cut-off where the kernel oscillates);
``irregular`` (non-singular or singular) needs a convergent tail or a
positive spectral mode; anything else is ``indeterminate``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy

from reglab import blayer, kernels, numcore

TAU0 = math.e  # boundary families live on tau >= e so ln(tau) >= 1


# ---------------------------------------------------------------------------
# boundary-function families


class BoundaryFunction:
    """Base for lateral-boundary profiles phi on [tau_min, tau_max].

    A subclass gives one array formula, ``_phi_u(u)``, in log-time
    u = ln(tau) (and ``_dphi(tau)`` for the derivative in tau); both map a
    float array of at least one dimension to an array of the same shape.
    ``phi(tau)`` evaluates the formula at ln(tau) and ``at_logtime(u)`` at u
    itself, so log-times far beyond float tau stay finite.  Both return a
    float for scalar input, an array otherwise.  A boundary that is not
    smooth in u names its joints through ``breakpoints``.

    ``closed_form`` states the shape once: ``("log", C, gamma)`` for
    C (ln tau)^gamma, ``("tau", C, gamma)`` for C tau^gamma, or None.
    gamma = 0 is the constant, which is of both kinds.  A closed form needs
    a positive finite C and a finite gamma (``ValueError``).
    """

    cutoff = False  # True once the oscillatory cut-off has been applied
    tau_min = TAU0
    tau_max = math.inf
    closed_form = None

    def __post_init__(self):
        if self.closed_form:
            _, c, gamma = self.closed_form
            if not (math.isfinite(c) and c > 0 and math.isfinite(gamma)):
                raise ValueError(f"boundary constant must be positive and finite and gamma "
                                 f"finite, got C={c!r}, gamma={gamma!r}")

    @property
    def monotone(self):
        """Nondecreasing in tau; a cut-off needs a monotone base."""
        return self.closed_form is None or self.closed_form[2] >= 0.0

    def _phi_u(self, u):
        raise NotImplementedError

    def _dphi(self, tau):
        raise NotImplementedError

    @staticmethod
    def _evaluate(formula, x):
        # a scalar runs as a one-element array: numpy's scalar arithmetic
        # (np.float64 ** x) can round differently from its array loops, and a
        # scalar call must equal the matching element of an array call
        x = np.asarray(x, dtype=float)
        return formula(x) if x.shape else float(formula(x.reshape(1))[0])

    def __call__(self, tau):
        with np.errstate(divide="ignore"):  # ln 0 = -inf: Constant is valid at tau = 0
            u = np.log(tau)
        return self.at_logtime(u)

    def at_logtime(self, u):
        """phi(exp(u)), read straight from the log-time formula."""
        return self._evaluate(self._phi_u, u)

    def derivative(self, tau):
        return self._evaluate(self._dphi, tau)

    def _central_difference(self, tau, h):
        return (self(tau + h) - self(tau - h)) / (2.0 * h)

    def breakpoints(self, u_lo, u_hi):
        """Log-times in (u_lo, u_hi) where phi is not smooth; none by default."""
        return np.empty(0)

    @property
    def uncut(self):
        """The boundary before any oscillatory cut-off."""
        return self

    def describe(self):
        return type(self).__name__


@dataclass(frozen=True)
class Constant(BoundaryFunction):
    """phi(tau) = l: the backward fundamental parabola of half-width l > 0."""

    l: float

    tau_min = 0.0

    @property
    def closed_form(self):
        return "log", self.l, 0.0

    def at_logtime(self, u):
        # a float (np.float64 too, as __call__ passes on) reads l as a float:
        # np.full_like writes exactly l for every u, nan and +-inf included,
        # so this is the element an array read gives, without its array
        if isinstance(u, float):
            return float(self.l)
        return super().at_logtime(u)

    def _phi_u(self, u):
        return np.full_like(u, self.l)

    def _dphi(self, tau):
        return np.zeros_like(tau)

    def describe(self):
        return f"Constant(l={self.l})"


@dataclass(frozen=True)
class PowerLog(BoundaryFunction):
    """phi(tau) = C (ln tau)^gamma, the slow log-power family (C > 0)."""

    c: float
    gamma: float

    @property
    def closed_form(self):
        return "log", self.c, self.gamma

    def _phi_u(self, u):
        return self.c * u**self.gamma

    def _dphi(self, tau):
        return self.c * self.gamma * np.log(tau) ** (self.gamma - 1.0) / tau

    def describe(self):
        return f"PowerLog(C={self.c}, gamma={self.gamma})"


@dataclass(frozen=True)
class PetrovskiiSqrtLog(BoundaryFunction):
    """phi(tau) = C sqrt(ln tau): the classic sqrt(log) family (C > 0)."""

    c: float

    @property
    def closed_form(self):
        return "log", self.c, 0.5

    def _phi_u(self, u):
        return self.c * np.sqrt(u)

    def _dphi(self, tau):
        return 0.5 * self.c / (np.sqrt(np.log(tau)) * tau)

    def describe(self):
        return f"PetrovskiiSqrtLog(C={self.c})"


@dataclass(frozen=True)
class PowerOfTau(BoundaryFunction):
    """phi(tau) = C tau^gamma: a single logarithm in the original time.

    In original variables this boundary reads
    R(t) = C (-t)^(scaling) |ln(-t)|^gamma; it is the natural family for
    the dispersion equation's right boundary, where the criterion keeps
    no log-log factor.  Its growth is a power, not slow, which is
    intentional.  C must be positive.
    """

    c: float
    gamma: float

    @property
    def closed_form(self):
        return "tau", self.c, self.gamma

    def _phi_u(self, u):
        return self.c * np.exp(self.gamma * u)

    def _dphi(self, tau):
        return self.c * self.gamma * tau ** (self.gamma - 1.0)

    def describe(self):
        return f"PowerOfTau(C={self.c}, gamma={self.gamma})"


@dataclass(frozen=True)
class Tabulated(BoundaryFunction):
    """Boundary sampled on a grid, log-log interpolated; one value is that constant."""

    tau_grid: tuple
    values: tuple

    def __post_init__(self):
        t = np.asarray(self.tau_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("tau_grid and values must be finite")
        if t.ndim != 1 or t.size < 4 or np.any(np.diff(t) <= 0):
            raise ValueError("tau_grid must be increasing with at least 4 points")
        if np.any(v <= 0):
            raise ValueError("boundary values must be positive")
        object.__setattr__(self, "tau_grid", tuple(float(x) for x in t))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @property
    def tau_max(self):
        return self.tau_grid[-1]

    @property
    def monotone(self):
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    @cached_property
    def closed_form(self):
        return ("log", self.values[0], 0.0) if len(set(self.values)) == 1 else None

    @cached_property
    def _log_grid(self):
        # (ln tau_grid, ln values, ln tau_grid behind a nan sentinel,
        # values), made once and shared by every call
        t, v = np.log(np.asarray(self.tau_grid)), np.asarray(self.values)
        arrays = t, np.log(v), np.append(t, np.nan), v
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def _phi_u(self, u):
        if self.closed_form:  # exactly the value, also between the nodes
            return np.full_like(u, self.values[0])
        t, v, nodes, values = self._log_grid
        out = np.exp(np.interp(u, t, v))
        # values[k] itself at u = ln tau_k (tau_k read through np.log), where
        # exp(ln v) misses v by an ulp for about 37 % of v (3, 5 and 7 among them)
        k = np.searchsorted(nodes, u)
        hit = nodes[k] == u
        if hit.any():
            out[hit] = values[k[hit]]
        return out

    def _dphi(self, tau):
        return self._central_difference(tau, 1e-4 * tau)

    def breakpoints(self, u_lo, u_hi):
        t = self._log_grid[0]
        return t[(t > u_lo) & (t < u_hi)]

    def describe(self):
        return f"Tabulated(n={len(self.tau_grid)}, tau<= {self.tau_max:g})"


# ---------------------------------------------------------------------------
# oscillation structure of the criterion integrand


@dataclass(frozen=True)
class OscillationSpec:
    """Canonical envelope/oscillation data of the log-derivative integrand.

    The integrand behaves like
    amplitude * phi^power * exp(-env_rate * phi^exponent)
              * cos(osc_rate * phi^exponent + phase).
    ``osc_rate = 0`` marks a non-oscillatory (positive-kernel) family.
    """

    amplitude: float
    power: float
    env_rate: float
    osc_rate: float
    exponent: float
    phase: float


def _parabolic_oscillation(m):
    fam = kernels.parabolic(m)
    kc = kernels.kernel_constants(fam)
    if m == 1:
        g1, _ = blayer.wall_constants(blayer.heat_profile())
        amp = g1 / (2.0 * math.sqrt(math.pi))
        return OscillationSpec(amplitude=-amp, power=1.0, env_rate=0.25,
                               osc_rate=0.0, exponent=2.0, phase=0.0)
    fit = kernels.get_kernel(fam).ensure_fit()
    # the fourth-order layer curvatures; for higher orders they only shape
    # the amplitude/phase, never the thresholds (those depend on d0, alpha)
    g1, g2 = blayer.wall_constants(blayer.biharmonic_profile())
    w = complex(fit.c2, -fit.c1) * complex(g2 - g1 * kc.alpha * kc.d0, g1 * kc.alpha * kc.b0)
    return OscillationSpec(amplitude=abs(w), power=1.0 - kc.delta0, env_rate=kc.d0,
                           osc_rate=kc.b0, exponent=kc.alpha, phase=cmath.phase(w))


def _dispersion_right_oscillation():
    fam = kernels.dispersion3()
    kc = kernels.kernel_constants(fam)
    fit = kernels.get_kernel(fam).ensure_fit()
    g1, g2 = blayer.wall_constants(blayer.dispersion_profile())
    w = complex(fit.c2, -fit.c1) * complex(g2, g1 * 1.5 * kc.d0)
    return OscillationSpec(amplitude=abs(w), power=0.75, env_rate=0.0,
                           osc_rate=kc.d0, exponent=1.5, phase=cmath.phase(w))


def _beam_oscillation():
    fit = kernels.get_kernel(kernels.beam4()).ensure_fit()
    return OscillationSpec(amplitude=math.hypot(fit.c1, fit.c2), power=28.0 / 13.0,
                           env_rate=0.0, osc_rate=0.25, exponent=2.0,
                           phase=math.atan2(-fit.c1, fit.c2))


def oscillation_spec(family, side="right"):
    """Envelope/oscillation constants of the criterion integrand."""
    if family.kind == "parabolic":
        return _parabolic_oscillation(family.m)
    if family.kind == "dispersion3":
        if side == "right":
            return _dispersion_right_oscillation()
        kc = kernels.kernel_constants(family)
        return OscillationSpec(amplitude=1.0, power=0.75, env_rate=kc.d0,
                               osc_rate=0.0, exponent=1.5, phase=0.0)
    return _beam_oscillation()


# ---------------------------------------------------------------------------
# oscillatory cut-off


def _hermite(t, p0, m0, p1, m1):
    # the cubic on [0, 1] with values p0, p1 and slopes m0, m1 at its ends
    return (p0 * ((1.0 + 2.0 * t) * (1.0 - t) ** 2) + m0 * (t * (1.0 - t) ** 2)
            + p1 * (t * t * (3.0 - 2.0 * t)) + m1 * (t * t * (t - 1.0)))


@dataclass(frozen=True)
class CutoffBoundary(BoundaryFunction):
    """Boundary modified so the criterion integrand stays nonpositive.

    The phase theta = osc_rate * phi^exponent + phase is pushed through a
    monotone C^1 map that traverses each positive-cosine arc within a
    phase window of width ``eps_s`` and then holds just inside the
    nonpositive arc until the base phase catches up.  The wrapped
    boundary is nondecreasing when the base is, never falls below the
    base, and keeps the trigonometric factor positive only on an
    asymptotically negligible fraction of the time axis.
    """

    base: BoundaryFunction
    spec: OscillationSpec
    eps_s: float = math.pi / 20.0

    cutoff = True

    def __post_init__(self):
        if self.spec.osc_rate <= 0:
            raise ValueError("cut-off needs an oscillatory family (osc_rate > 0); "
                             "non-oscillatory boundaries pass through unchanged")
        if not self.base.monotone:
            raise ValueError("cut-off requires a nondecreasing base boundary")
        numcore.check_positive("cut-off window eps_s", self.eps_s)

    # ramp shape: monotone piecewise-cubic from (0, slope delta) through
    # (S_BREAK, R_BREAK) to (1, slope 0); the early crossing keeps the
    # positive-phase dwell short.  The hold ends HOLD_MARGIN inside the
    # nonpositive arc.
    _S_BREAK = 0.35
    _R_BREAK = 0.97
    _HOLD_MARGIN = 0.3
    _MAX_ARCS = 10_000  # more arcs than this in one call are beyond the panel rule

    def _ramp(self, s, delta):
        s = np.asarray(s, dtype=float)
        sb, rb = self._S_BREAK, self._R_BREAK
        slope_b = 2.99 * (1.0 - rb) / (1.0 - sb)
        out = np.empty_like(s)
        left = s <= sb
        out[left] = _hermite(s[left] / sb, 0.0, delta * sb, rb, slope_b * sb)
        out[~left] = _hermite((s[~left] - sb) / (1.0 - sb), rb, slope_b * (1.0 - sb), 1.0, 0.0)
        return out

    def _phase_map(self, theta):
        """Monotone C^1 map g with g >= theta and cos(g) <= 0 off the ramps."""
        theta = np.asarray(theta, dtype=float)
        span = math.pi + self._HOLD_MARGIN + self.eps_s
        delta = self.eps_s / span
        k = np.floor((theta + 0.5 * math.pi) / (2.0 * math.pi))
        a = 2.0 * math.pi * k - 0.5 * math.pi  # entry of the positive-cosine arc
        hold = a + self.eps_s + math.pi + self._HOLD_MARGIN
        rel = theta - a
        # identity before the arc; ramp across it; hold just inside the
        # nonpositive arc until the base phase catches up
        in_ramp = (rel > 0.0) & (rel <= self.eps_s)
        in_hold = (rel > self.eps_s) & (theta < hold)
        ramp_val = a + self._ramp(np.clip(rel / self.eps_s, 0.0, 1.0), delta) * span
        return np.where(in_hold, hold, np.where(in_ramp, ramp_val, theta))

    def _phase(self, base_value):
        sp = self.spec
        return sp.osc_rate * base_value**sp.exponent + sp.phase

    @property
    def uncut(self):
        return self.base

    @property
    def tau_max(self):
        return self.base.tau_max

    def _phi_u(self, u):
        sp = self.spec
        g = self._phase_map(self._phase(self.base._phi_u(u)))
        return np.maximum((g - sp.phase) / sp.osc_rate, 0.0) ** (1.0 / sp.exponent)

    def _dphi(self, tau):
        return self._central_difference(tau, 1e-5 * np.maximum(tau, 1.0))

    def breakpoints(self, u_lo, u_hi):
        """The base's breakpoints and the log-times where the base phase
        crosses a joint of the phase map, located on the monotone base."""
        theta_lo, theta_hi = self._phase(self.base._phi_u(np.array([u_lo, u_hi])))
        if not (theta_hi - theta_lo) / (2 * math.pi) <= self._MAX_ARCS:
            raise numcore.NumericsError(f"too many cut-off arcs on u in [{u_lo:g}, {u_hi:g}]")
        k = np.arange(math.floor(theta_lo / (2 * math.pi)), math.ceil(theta_hi / (2 * math.pi)) + 1)
        # where the map changes formula: arc entry, ramp break, ramp end, hold end
        offsets = [0.0, self._S_BREAK * self.eps_s, self.eps_s,
                   self.eps_s + math.pi + self._HOLD_MARGIN]
        targets = np.add.outer(2.0 * math.pi * k - 0.5 * math.pi, offsets).ravel()
        targets = targets[(targets > theta_lo) & (targets < theta_hi)]
        joints = numcore.find_roots(
            lambda u, idx: self._phase(self.base._phi_u(u)) - targets[idx],
            np.full(targets.size, u_lo), np.full(targets.size, u_hi),
            (theta_lo - targets, theta_hi - targets))
        return np.concatenate([self.base.breakpoints(u_lo, u_hi), joints])

    def describe(self):
        return f"Cutoff({self.base.describe()}, eps_s={self.eps_s:.4g})"


def apply_cutoff(phi, family_or_spec, eps_s=math.pi / 20.0):
    """Wrap a nondecreasing boundary with the oscillatory cut-off.

    ``family_or_spec`` is an :class:`~reglab.kernels.EquationFamily`
    (whose fitted oscillation constants are used) or an explicit
    :class:`OscillationSpec`.  Non-oscillatory families
    (zero oscillation rate) return the boundary unchanged.  ``eps_s`` must
    be positive and finite either way (``ValueError``).
    """
    numcore.check_positive("cut-off window eps_s", eps_s)
    spec = family_or_spec if isinstance(family_or_spec, OscillationSpec) \
        else oscillation_spec(family_or_spec)
    if spec.osc_rate == 0.0:
        return phi
    return CutoffBoundary(base=phi, spec=spec, eps_s=eps_s)


# ---------------------------------------------------------------------------
# verdicts


REGULAR = "regular"
IRREGULAR_NONSINGULAR = "irregular-nonsingular"
IRREGULAR_SINGULAR = "irregular-singular"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CriterionVerdict:
    verdict: str
    rationale: str  # analytic-family | numeric-tail | delegated-spectral
    diagnostics: dict = field(default_factory=dict)

    def __str__(self):
        return f"{self.verdict} [{self.rationale}]"


def criterion_integrand_logtime(spec, phi):
    """d ln a0 / du against u = ln(tau), overflow-safe at extreme log-times.

    Returns ``(f, exponent)``, array functions of u: ``f(u)`` is the window
    integrand (measure included) and ``exponent(u)`` its log-magnitude,
    used to stop the window sweep before the divergent side overflows.
    Under a decaying envelope a phi or phi^exponent past the float range
    reads as the largest float, so ``f`` is exactly 0 there, never nan.
    """
    cap = np.finfo(float).max if spec.env_rate else np.inf

    def exponent(u, v):
        v = np.minimum(np.maximum(v, 1e-300), cap)
        env = spec.env_rate * v**spec.exponent if spec.env_rate else 0.0
        return u - env + spec.power * np.log(v)

    def f(u):
        v = phi.at_logtime(u)
        osc = np.cos(np.minimum(spec.osc_rate * v**spec.exponent, cap) + spec.phase) \
            if spec.osc_rate else 1.0
        return spec.amplitude * np.exp(exponent(u, v)) * osc

    return f, lambda u: exponent(u, phi.at_logtime(u))


# dyadic windows in the log-time variable: geometric in u = ln(tau), so the
# near-threshold envelopes tau^(-p) produce decisively geometric window sums
_WINDOW_EXPONENTS = [2.0**j for j in range(0, 11)]
_MAX_EXPONENT = 600.0  # the sweep stops before a window reaches this log-magnitude
_SUM_FLOOR = 1e-250  # ... and after the first window sum below this
_MIN_WINDOWS = 6  # ratios of the last this-many windows fit the tail


@dataclass(frozen=True)
class TailDiagnosis:
    kind: str  # convergent | divergent | divergent-oscillatory | inconclusive
    window_sums: tuple
    fitted_ratio: float | None
    tail_exponent: float | None


def diagnose_tail(spec, phi, u_max=None):
    """Classify the improper criterion integral from dyadic window sums.

    Windows are geometric in ln(tau) ([exp(2^j), exp(2^(j+1))]).  Their
    sums come from :func:`reglab.numcore.gauss_legendre_windows` with
    panels split at ``phi.breakpoints``, which raises ``QuadratureError``
    for a sum it cannot certify.  Sums that decay geometrically (fitted
    ratio < 0.9) mark convergence; growing one-signed sums mark genuine
    divergence; growing or stagnating sums of alternating sign mark
    oscillatory divergence.  ``u_max`` (None or +inf: no cap) must not be
    nan (``ValueError``).
    """
    if u_max is not None and math.isnan(u_max):
        raise ValueError(f"u_max must be a number or None, got {u_max!r}")
    f, exponent = criterion_integrand_logtime(spec, phi)
    edges = np.array([u for u in _WINDOW_EXPONENTS if u_max is None or u <= u_max])
    with np.errstate(over="ignore", invalid="ignore"):  # phi past the float range
        mids = 0.5 * (edges[:-1] + edges[1:])
        peak = np.maximum.reduce([exponent(edges[:-1]), exponent(edges[1:]), exponent(mids)])
        over = np.flatnonzero(peak > _MAX_EXPONENT)
        edges = edges[: over[0] + 1] if over.size else edges
        sums = numcore.gauss_legendre_windows(f, edges, phi.breakpoints(edges[0], edges[-1])) \
            if edges.size > 1 else np.empty(0)
    below = np.flatnonzero(np.abs(sums) < _SUM_FLOOR)  # kept up to the first one below
    sums = tuple(sums[: below[0] + 1 if below.size else None].tolist())
    if len(sums) < 3:
        return TailDiagnosis("inconclusive", sums, None, None)
    mags = np.abs(sums)
    nz = mags > 0
    if not nz[-1] and np.count_nonzero(nz) >= 2:
        # underflowed to zero: the envelope collapsed superpolynomially
        return TailDiagnosis("convergent", sums, 0.0, None)
    take = min(_MIN_WINDOWS, len(sums) - 1)
    ratios = mags[-take:] / np.maximum(mags[-take - 1:-1], 1e-300)
    fitted = float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))
    us = np.array(_WINDOW_EXPONENTS[: len(sums) + 1])
    widths = np.diff(us)[-take:]
    # |sum_j| ~ exp((1-p) * u_j): recover the tail exponent p per octave
    p_est = 1.0 - float(np.mean(np.log(np.maximum(ratios, 1e-300)) / widths))
    signs = np.sign(sums[-take - 1:])
    alternating = bool(np.any(signs[1:] * signs[:-1] < 0))
    if fitted < 0.9:
        return TailDiagnosis("convergent", sums, fitted, p_est)
    if not alternating and fitted > 1.02:
        return TailDiagnosis("divergent", sums, fitted, p_est)
    if alternating:
        return TailDiagnosis("divergent-oscillatory", sums, fitted, p_est)
    return TailDiagnosis("inconclusive", sums, fitted, p_est)


def _numeric_verdict(spec, phi, note=""):
    """Dyadic-tail route shared by all families."""
    diag = diagnose_tail(spec, phi, u_max=math.log(phi.tau_max))
    base = {"window_sums": diag.window_sums, "fitted_ratio": diag.fitted_ratio,
            "tail_exponent": diag.tail_exponent, "note": note}
    if diag.kind == "convergent":
        return CriterionVerdict(IRREGULAR_NONSINGULAR, "numeric-tail", base)
    if diag.kind == "divergent":
        if spec.osc_rate == 0.0 or phi.cutoff:
            return CriterionVerdict(REGULAR, "numeric-tail", base)
        return CriterionVerdict(INDETERMINATE, "numeric-tail",
                                base | {"note": "one-signed divergence without cut-off " + note})
    if diag.kind == "divergent-oscillatory":
        return CriterionVerdict(INDETERMINATE, "numeric-tail",
                                base | {"note": "oscillatory divergence; regularity needs a cut-off"})
    return CriterionVerdict(INDETERMINATE, "numeric-tail", base)


def _threshold(spec):
    # the envelope's critical amplitude, or the single-log critical gamma
    # where the kernel only oscillates
    if spec.env_rate:
        return spec.env_rate ** (-1.0 / spec.exponent)
    return 1.0 / (spec.exponent - spec.power)


def _analytic_powerlog_verdict(spec, c, gamma, cutoff):
    """Threshold logic for phi = C (ln tau)^gamma under an envelope family.

    The envelope factor exp(-env_rate * phi^exponent) turns into
    tau^(-p (ln tau)^(gamma*exponent - 1)) with p = env_rate * C^exponent:
    convergence is decided by gamma*exponent against 1 and, on the
    critical line, by p against 1.
    """
    ge = gamma * spec.exponent
    p = spec.env_rate * c**spec.exponent
    info = {"envelope_exponent": p, "gamma_times_exponent": ge, "critical_c": _threshold(spec)}
    oscillatory = spec.osc_rate > 0.0
    if ge > 1.0:
        return CriterionVerdict(IRREGULAR_NONSINGULAR, "analytic-family",
                                info | {"note": "superlogarithmic envelope decay; tail converges"})
    if ge < 1.0:
        if not oscillatory or cutoff:
            return CriterionVerdict(REGULAR, "analytic-family",
                                    info | {"note": "sublogarithmic envelope; integral diverges"})
        return CriterionVerdict(INDETERMINATE, "analytic-family",
                                info | {"note": "divergent but oscillatory; cut-off required "
                                               "for a regular verdict"})
    if p > 1.0:
        return CriterionVerdict(IRREGULAR_NONSINGULAR, "analytic-family",
                                info | {"note": "critical line, envelope exponent beyond one"})
    if not oscillatory or cutoff:
        return CriterionVerdict(REGULAR, "analytic-family",
                                info | {"note": "critical line, envelope exponent at most one"})
    return CriterionVerdict(INDETERMINATE, "analytic-family",
                            info | {"note": "critical line below threshold; cut-off required"})


# |lambda_0| below this reads as a branch root of the fourth-order interval
# spectrum: a finite nonzero vertex limit rather than decay or blow-up
TOL_ZERO = 5e-4


def _spectral_verdict(family, l):
    """Constant boundary: the sign of the top interval eigenvalue decides."""
    from reglab import spectral

    if family.m == 1:
        # v'' - (y/2) v' = lam v is Sturm-Liouville with weight w = e^(-y^2/4),
        # so lam0 = -int w v'^2 / int w v^2 < 0 for every l; the pencil's lam0,
        # below rounding past l ~ 14, is kept as a diagnostic only
        prob = spectral.IntervalEigenProblem(l, family=family, method="collocation",
                                             grid_size=64)
        top = spectral.interval_spectrum(prob, 1)[0]
        return CriterionVerdict(REGULAR, "delegated-spectral", {
            "lambda0": top.lam.real, "residual": top.residual, "l": l,
            "note": "sign from the weighted energy identity lambda0 = "
                    "-int w v'^2 / int w v^2, w = exp(-y^2/4)"})
    if family.m != 2:
        raise ValueError("spectral delegation is wired for the fourth-order case")
    lam, band = spectral.top_eigenvalue(l), TOL_ZERO
    info = {"lambda0": lam, "l": l}
    if lam < -band:
        return CriterionVerdict(REGULAR, "delegated-spectral", info)
    if lam > band:
        return CriterionVerdict(IRREGULAR_SINGULAR, "delegated-spectral", info)
    return CriterionVerdict(IRREGULAR_NONSINGULAR, "delegated-spectral",
                            info | {"note": "top eigenvalue at a branch root; "
                                           "finite nonzero vertex limit"})


def _single_log_verdict(spec, gamma, cutoff):
    """Stationary-phase rule for phi = C tau^gamma under a non-decaying kernel.

    The tail converges iff gamma exceeds the threshold, for every C.
    """
    critical = _threshold(spec)
    info = {"gamma": gamma, "critical_gamma": critical,
            "note": "single-log boundary tau^gamma; threshold is C-independent"}
    if gamma > critical:
        return CriterionVerdict(IRREGULAR_NONSINGULAR, "analytic-family",
                                info | {"note": "stationary-phase tail converges"})
    if cutoff:
        return CriterionVerdict(REGULAR, "analytic-family", info)
    return CriterionVerdict(INDETERMINATE, "analytic-family",
                            info | {"note": "oscillatory divergence; cut-off required"})


def _check_family(family, side):
    if not isinstance(family, kernels.EquationFamily):
        raise ValueError(f"family must be a kernels.EquationFamily, got {family!r}")
    if family.kind == "beam4":
        raise ValueError(f"no regularity criterion for {family}: its kernel has no "
                         "exponential envelope or single-log rule")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def threshold(family, side="right"):
    """Critical constant of the family's criterion at the given side.

    C* = env_rate^(-1/exponent) of the oscillation spec where the kernel
    decays (d0^(-1/alpha) for order 2m, 2 for heat, (3 sqrt(3)/2)^(2/3)
    on the dispersion left side); 1/(exponent - power) where it only
    oscillates, the critical gamma 4/3 of the dispersion right side.
    """
    _check_family(family, side)
    return _threshold(oscillation_spec(family, side))


def classify(family, phi, side="right"):
    """Vertex classification of boundary ``phi`` for an equation family.

    ``family`` is a parabolic family of order 2m or the dispersion
    equation, whose two lateral boundaries differ (``side``).  The route
    is read from ``phi.uncut.closed_form``, so every spelling of one shape
    takes the same route:

    * a constant (gamma = 0, in any spelling) on a parabolic family (order
      2 and 4) delegates to the interval spectrum at the value phi takes;
    * C tau^gamma, or a constant, where the kernel oscillates without
      decay (the dispersion right side) takes the single-log rule: the
      tail converges iff gamma > 4/3, for every C;
    * C (ln tau)^gamma, or a constant, under a decaying envelope is
      classified analytically by the envelope exponent env_rate C^exponent,
      flipping at C* = :func:`threshold` on the critical line
      gamma = 1/exponent (C (ln tau)^((2m-1)/2m) for order 2m, sqrt(log)
      with C* = 2 for heat, (ln tau)^(2/3) on the dispersion left side);
    * C tau^gamma with gamma > 0 on a parabolic family converges
      analytically;
    * anything else goes through the dyadic-tail diagnosis, except a
      tabulated order >= 4 boundary too short for the tail windows.

    Where the kernel oscillates, regular verdicts need the oscillatory
    cut-off; the same inputs without it stay indeterminate.
    """
    _check_family(family, side)
    spec = oscillation_spec(family, side)
    kind, c, gamma = phi.uncut.closed_form or (None, None, None)
    constant = gamma == 0.0
    parabolic = family.kind == "parabolic"
    single_log = spec.env_rate == 0.0  # the kernel oscillates without decay
    if parabolic and constant:
        return _spectral_verdict(family, phi(TAU0))
    if single_log and (kind == "tau" or constant):
        return _single_log_verdict(spec, gamma, phi.cutoff)
    if not single_log and (kind == "log" or constant):
        return _analytic_powerlog_verdict(spec, c, gamma, phi.cutoff)
    if parabolic and kind == "tau" and gamma > 0.0:
        note = ("Gaussian envelope of a power boundary converges" if family.m == 1
                else "power growth in the log-time: envelope decays superpolynomially")
        return CriterionVerdict(IRREGULAR_NONSINGULAR, "analytic-family", {"note": note})
    if parabolic and family.m >= 2 and math.log(phi.tau_max) < _WINDOW_EXPONENTS[4]:
        return CriterionVerdict(INDETERMINATE, "numeric-tail",
                                {"note": "tabulated range too short for the tail windows"})
    return _numeric_verdict(spec, phi, note="" if parabolic else f"dispersion {side} boundary")


# fixed-family spellings of classify
def classify_heat(phi):
    return classify(kernels.heat(), phi)


def classify_biharmonic(phi):
    return classify(kernels.biharmonic(), phi)


def classify_dispersion(side, phi):
    return classify(kernels.dispersion3(), phi, side)


# ---------------------------------------------------------------------------
# first-Fourier-coefficient ODE traces


@dataclass(frozen=True)
class A0Trace:
    """Trace of the first expansion coefficient along the boundary flow.

    Stored against u = ln(tau) with the coefficient kept in log form:
    the interesting asymptotics only emerge at log-times far beyond
    floating-point tau, and oscillatory families can swing the log
    coefficient beyond what an exponential can represent.
    """

    ln_tau: np.ndarray
    log_a0: np.ndarray
    hit_zero: bool
    family: str
    rhs_calls: int  # right-hand-side evaluations the solver made

    def fit_log_power(self, lntau_window):
        """Fit a0 ~ A (ln tau)^p on the ln(tau) window ``(lo, hi)``; returns (p, A)."""
        lo, hi = lntau_window
        mask = (self.ln_tau >= lo) & (self.ln_tau <= hi) & np.isfinite(self.log_a0)
        x = np.log(self.ln_tau[mask])
        y = self.log_a0[mask]
        p, intercept = np.polyfit(x, y, 1)
        return float(p), float(math.exp(intercept))


@lru_cache(maxsize=1)
def _pme4_wall_constants():
    """(g1, g2) = (G''(0), G'''(0)) of the pme4 layer, solved through its first
    integral G''' = (G^(1/3) - 1)/4 from the wall, so g2 = -1/4 exactly (g1 is
    within 3e-12 of its converged 0.294268417351); they do not depend on the
    boundary, so the layer is solved once per process."""
    g1, g2 = blayer.wall_constants(blayer.solve_bl_bvp("pme4", 50.0, tol=1e-8))
    return float(g1), float(g2)


_RTOL = 1e-10  # relative tolerance of every coefficient trace
_FLOOR = 1e-12  # a direct coefficient at or below this fraction of a0_init counts as zero


def _a0_direct_rhs(family, phi_u, floor):
    """d a0 / du for the cubic-diffusion models (coefficient inside the kernel),
    with its derivative in a0 where the solver needs one (else None).

    Below ``floor`` > 0 the rate runs linearly from its value at the floor to 0
    at a0 = 0, so a coefficient that reaches the floor decays to zero and
    never passes it.  The rate stays continuous: one that dropped to 0 at the
    floor would jump there wherever the kernel at the floor is not 0, and
    LSODA can stall in front of such a jump with steps of 1e-15.
    """
    if family == "pme4":
        kern = kernels.get_kernel(kernels.biharmonic())
        g1, g2 = _pme4_wall_constants()
        flux = blayer.wall_flux(g1, g2)

        def rate(u, a0):
            return flux(phi_u(u), a0) * math.exp(min(u, 700.0))

        def slope(u, a0):
            # d arg / d a0 = -arg / (2 a0); F, F' and F'' at the one argument.
            # Once a0 sits on the root of the layer flux the rhs is e^u times
            # rounding noise: a finite-difference Jacobian of it would make
            # LSODA's step count, or its failure, hinge on the last bits of F
            v = phi_u(u)
            arg = v / math.sqrt(a0)
            f0, f1, f2 = kern.deriv(arg, (0, 1, 2))
            d_density = (0.5 * g2 * v / math.sqrt(a0) * (f0 - arg * f1)
                         + g1 * v ** (2.0 / 3.0) * a0 ** (-1.0 / 3.0)
                         * (2.0 / 3.0 * f1 - 0.5 * arg * f2))
            return d_density * math.exp(min(u, 700.0))
    elif family == "pme4-reduced":
        kc = kernels.kernel_constants(kernels.biharmonic())
        slope = None

        def rate(u, a0):
            ex = u - kc.d0 * (phi_u(u) / math.sqrt(a0)) ** (4.0 / 3.0)
            return -math.exp(ex) if ex < 700.0 else -math.inf
    else:
        raise ValueError(f"no first-coefficient ODE for family {family!r}")

    def rhs(u, a0):
        if a0 < floor:
            return rate(u, floor) * (a0 / floor) if a0 > 0 else 0.0
        return rate(u, a0)

    def jac(u, a0):
        if a0 < floor:
            return rate(u, floor) / floor if a0 > 0 else 0.0
        return slope(u, a0)

    return rhs, (None if slope is None else jac)


def _lsoda_first_step(f0, y0, t0, t1, atol):
    """LSODA's first step for one equation y' = f, y(t0) = y0, f(t0, y0) = f0,
    asked for y(t1) at rtol ``_RTOL`` (Hindmarsh, ODEPACK, 1983; 0 < t0 < t1):
    h0^-2 = 1/(rtol t1^2) + rtol (|f0| / ewt)^2 with ewt = rtol |y0| + atol,
    and h0 <= t1 - t0, rounded as the Fortran rounds it (an rtol inside
    [100 eps, 1e-3] enters unclipped)."""
    norm = abs(f0) * (1.0 / (_RTOL * abs(y0) + atol))
    return min(1.0 / math.sqrt(1.0 / (_RTOL * t1 * t1) + _RTOL * norm**2), t1 - t0)


def integrate_a0(family, phi, *, lntau_span, a0_init=1.0, n_out=400):
    """Integrate the first-coefficient ODE of the named family.

    ``family`` is ``heat``, ``biharmonic``, ``beam4``, ``pme4`` (full,
    with the coefficient inside the kernel argument) or ``pme4-reduced``
    (the envelope-only model).  The integration runs in u = ln(tau) over
    ``lntau_span``, so it reaches the extremely late log-times where the
    slow asymptotics settle.  One Fortran LSODA loop (``odeint``, rtol
    1e-10) steps to the end of the span, never past it, and reads the
    ``n_out`` outputs off its interpolant; ``rhs_calls`` is its count of
    right-hand sides.  The full model hands LSODA its analytic Jacobian.
    For the cubic-diffusion models a coefficient that falls to 1e-12
    a0_init counts as zero: the trace stops at the last output above that
    floor and sets ``hit_zero``.  An ``a0_init`` that is not positive and
    finite, a span that does not increase from ln tau >= 1, or
    ``n_out < 2`` raises ``ValueError``.  A solver failure raises
    ``numcore.OdeError`` naming the family, the ln(tau) reached and the
    solver's message, instead of returning a truncated trace.
    """
    if not 1.0 <= lntau_span[0] < lntau_span[1] < math.inf:
        raise ValueError(f"ln tau span must increase from at least 1 to a finite end, "
                         f"got {tuple(lntau_span)!r}")
    if n_out < 2:
        raise ValueError(f"n_out must be at least 2, got {n_out!r}")
    numcore.check_positive("a0_init", a0_init)
    phi_u = phi.at_logtime
    u_eval = np.linspace(lntau_span[0], lntau_span[1], n_out)

    if family in ("heat", "biharmonic", "beam4"):
        # linear in a0: ln a0 is an explicit integral of the slope, which for
        # heat and beam4 is their criterion integrand
        if family == "biharmonic":
            flux = blayer.wall_flux(*blayer.wall_constants(blayer.biharmonic_profile()))

            def slope(u):
                return flux(phi_u(u)) * math.exp(min(u, 700.0))
        else:
            fam = kernels.heat() if family == "heat" else kernels.beam4()
            slope = criterion_integrand_logtime(oscillation_spec(fam), phi)[0]

        def rhs_u(u, y):
            return slope(u)

        y0, atol, jac_u, floor = math.log(a0_init), 1e-12, None, None
    else:
        floor = _FLOOR * a0_init
        rhs, jac = _a0_direct_rhs(family, phi_u, floor)

        def rhs_u(u, y):
            return rhs(u, y[0])

        jac_u = None if jac is None else (lambda u, y: jac(u, y[0]))
        y0, atol = float(a0_init), 1e-14 * a0_init

    # odeint's LSODA would size its first step by the first output; sized by the
    # whole span, as a one-step LSODA run sizes it, the steps do not depend on n_out
    h0 = _lsoda_first_step(rhs_u(u_eval[0], [y0]), y0, u_eval[0], u_eval[-1], atol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # tcrit: LSODA never steps past the end of the span; mxstep: no cap on
        # the steps between two outputs
        y, info = scipy.integrate.odeint(rhs_u, [y0], u_eval, Dfun=jac_u, tfirst=True,
                                         tcrit=[u_eval[-1]], h0=h0, rtol=_RTOL, atol=atol,
                                         mxstep=2**31 - 1, full_output=True)
    if info["message"] != "Integration successful.":
        # tcur holds where each output's call stopped; the failed call is the
        # first that stopped short of its output, and the rows after it are unset
        tcur = info["tcur"]
        reached = float(tcur[np.flatnonzero(tcur < u_eval[1:])[0]])
        raise numcore.OdeError(f"integrate_a0({family!r}) stopped at ln tau = {reached:.6g} "
                               f"of {u_eval[-1]:.6g}: {info['message']}", reached)
    y, calls = y[:, 0], int(info["nfe"][-1])
    if floor is None:
        return A0Trace(ln_tau=u_eval, log_a0=y, hit_zero=False, family=family, rhs_calls=calls)
    below = np.flatnonzero(y <= floor)
    end = below[0] if below.size else n_out
    return A0Trace(ln_tau=u_eval[:end], log_a0=np.log(y[:end]), hit_zero=bool(below.size),
                   family=family, rhs_calls=calls)


@dataclass(frozen=True)
class Pme4Critical:
    """Critical boundary description of the cubic diffusion model."""

    gamma: float
    scale_invariant: bool
    verdicts: dict

    @property
    def description(self):
        return ("R(t) = C (-t)^(1/4) [ln|ln(-t)|]^(3/4); the constant C is "
                "immaterial because u -> A u, x -> sqrt(A) x rescales it away")


def pme4_coefficient_fate(phi):
    """Reduced-model fate of the coefficient: ``decaying`` to zero or ``frozen``.

    The reduced model runs from a0 = 1 at u = ln(tau) = 1 to u = 400.
    Freezing is detected by the late-time ratio a0(400) / a0(200):
    once the envelope exponent locks above one the coefficient stops
    moving entirely, whereas on the decaying side it keeps shrinking on
    every doubling of the log-time.
    """
    trace = integrate_a0("pme4-reduced", phi, lntau_span=(1.0, 400.0), n_out=600)
    if trace.hit_zero or not np.isfinite(trace.log_a0[-1]):
        return "decaying", trace
    mid = np.searchsorted(trace.ln_tau, 0.5 * trace.ln_tau[-1])
    ratio = math.exp(trace.log_a0[-1] - trace.log_a0[mid])
    return ("frozen" if ratio > 0.99 else "decaying"), trace


def pme4_critical():
    """Critical boundary family of the cubic diffusion equation.

    The critical description is R(t) = C (-t)^(1/4) [ln|ln(-t)|]^(3/4)
    with immaterial C.  Verified by integrating the reduced coefficient
    model under C and 2C at the critical log-power 3/4 (identical
    classification, both frozen above zero) and at a steeper power.
    """
    verdicts = {
        "C=1, gamma=3/4": pme4_coefficient_fate(PowerLog(1.0, 0.75))[0],
        "C=2, gamma=3/4": pme4_coefficient_fate(PowerLog(2.0, 0.75))[0],
        "C=1, gamma=0.9": pme4_coefficient_fate(PowerLog(1.0, 0.9))[0],
    }
    return Pme4Critical(
        gamma=0.75,
        scale_invariant=(verdicts["C=1, gamma=3/4"] == verdicts["C=2, gamma=3/4"]),
        verdicts=verdicts,
    )
