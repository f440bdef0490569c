"""Direct solver for the rescaled evolution in the frozen-domain variables.

After mapping the shrinking domain to z in [-1, 1] the equation reads

    w_tau = -(1/phi^4) w_zzzz + (phi'/phi - 1/4) z w_z     (fourth order)
    w_tau =  (1/phi^2) w_zz   + (phi'/phi - 1/2) z w_z     (heat)

with clamped (w = w_z = 0) or Dirichlet (w = 0) walls.  The stiff
spatial operator is advanced implicitly by backward Euler on the full
operator.  The pentadiagonal/tridiagonal step matrix is built straight
into the LAPACK band layout.  A constant wall gives one fixed step matrix,
so its banded LU factors are computed once.  Up to 256 interior
unknowns the run then moves from one recorded state to the next by one
dense product with the precomputed propagator (I - dt A)^-r, r the record
stride; past it each step is a pair of O(n) triangular band solves.  A
moving wall rebuilds the matrix on every step and factors and solves it
with one direct LAPACK call (``gbsv``, or ``gtsv`` for the tridiagonal
heat matrix).  The recorded sup-norm and first-coefficient traces provide
the empirical decay and growth rates that cross-check the interval
spectrum."""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs, dgtsv

from reglab import blayer, criteria, kernels

# Largest interior size at which a constant wall advances by the dense
# propagator.  Measured on 2 vCPU, one band solve against one product with
# (I - dt A)^-5: 6.8 against 4.3 us at m = 125, 12.7 against 11.1 us at
# m = 253, 18.1 against 22.2 us at m = 381.  At 256 the matrix takes 0.5 MB.
_DENSE_MAX = 256
# Recorded constant-wall states are checked and reduced in blocks of at most
# this many rows and values, so a run at any n holds O(n) memory.
_BLOCK_ROWS = 256
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One rescaled-PDE run.

    ``n`` is an even integer of at least 64, ``tau_span`` finite and
    increasing, and ``dt`` positive and finite, or None for the automatic step.
    """

    family: str  # heat | biharmonic
    phi: object  # criteria.BoundaryFunction
    n: int = 128
    dt: float | None = None
    tau_span: tuple = (0.0, 100.0)
    initial: str = "bump"  # bump | poly | random-smooth
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("heat", "biharmonic"):
            raise ValueError("family must be heat or biharmonic")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 64 or self.n % 2:
            raise ValueError("grid size n must be even and at least 64")
        if not all(math.isfinite(t) for t in self.tau_span):
            raise ValueError(f"tau_span must be finite, got {tuple(self.tau_span)!r}")
        if self.tau_span[1] <= self.tau_span[0]:
            raise ValueError("tau span must be increasing")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"time step dt must be positive and finite, got {self.dt!r}")


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    tau: np.ndarray
    sup_norm: np.ndarray
    a0: np.ndarray
    z: np.ndarray
    snapshots_tau: np.ndarray
    snapshots: np.ndarray  # rows match snapshots_tau

    def snapshot_near(self, tau_star):
        idx = int(np.argmin(np.abs(self.snapshots_tau - tau_star)))
        return self.snapshots_tau[idx], self.snapshots[idx]


def _initial_data(cfg, z):
    clamp = (1.0 - z * z) ** (2 if cfg.family == "biharmonic" else 1)
    if cfg.initial == "poly":
        return clamp
    if cfg.initial == "bump":
        with np.errstate(divide="ignore", over="ignore"):
            core = np.where(np.abs(z) < 1.0, np.exp(-1.0 / np.maximum(1.0 - z * z, 1e-12)), 0.0)
        return core / core.max()
    if cfg.initial == "random-smooth":
        rng = np.random.default_rng(cfg.seed)
        modes = np.arange(1, 9)
        coef = rng.standard_normal(modes.size) / (1.0 + modes**2)
        series = sum(c * np.sin(0.5 * k * math.pi * (z + 1.0)) for k, c in zip(modes, coef))
        data = clamp * series
        peak = np.max(np.abs(data))
        return data / peak if peak else clamp
    raise ValueError(f"unknown initial data {cfg.initial!r}")


def _biharmonic_operator(n, h, phi_val, phi_slope):
    """Banded interior operator with clamped walls folded in.

    Unknowns are w[2..n-2]; the wall rows use w0 = wn = 0 and the
    second-order one-sided slope conditions w1 = w2/4, w(n-1) = w(n-2)/4.
    Returns the (7, m) LAPACK band layout of ``gbtrf``/``gbsv``: two zero
    rows for the pivoting fill-in, then two upper diagonals, the main one
    and two lower ones (rows 2: are the ``solve_banded`` layout).
    """
    m = n - 3
    idx = np.arange(2, n - 1)
    zc = -1.0 + idx * h
    c4 = -1.0 / phi_val**4 / h**4
    drift = (phi_slope / phi_val - 0.25) * zc / (2.0 * h)

    ab = np.zeros((7, m))
    off2_up, off1_up, main, off1_lo, off2_lo = ab[2:]
    off2_up[2:] = 1.0 * c4
    off1_up[1:] = -4.0 * c4 + drift[:-1]
    main[:] = 6.0 * c4
    off1_lo[:-1] = -4.0 * c4 - drift[1:]
    off2_lo[:-2] = 1.0 * c4

    # fold in w1 = w2/4 at the left (row i=2 sees w1 and w0; row i=3 sees w1)
    main[0] += 0.25 * (-4.0 * c4) + 0.25 * (-drift[0])
    off1_lo[0] += 0.25 * c4
    main[-1] += 0.25 * (-4.0 * c4) + 0.25 * drift[-1]
    off1_up[-1] += 0.25 * c4
    return ab


def _heat_operator(n, h, phi_val, phi_slope):
    """Banded interior operator with Dirichlet walls; unknowns w[1..n-1].

    Returns the (4, m) LAPACK band layout: one zero fill-in row, then the
    upper, main and lower diagonals (rows 1: are the ``solve_banded`` layout).
    """
    m = n - 1
    idx = np.arange(1, n)
    zc = -1.0 + idx * h
    c2 = 1.0 / phi_val**2 / h**2
    drift = (phi_slope / phi_val - 0.5) * zc / (2.0 * h)

    ab = np.zeros((4, m))
    off_up, main, off_lo = ab[1:]
    off_up[1:] = c2 + drift[:-1]
    main[:] = -2.0 * c2
    off_lo[:-1] = c2 - drift[1:]
    return ab


def _full_state(family, x, n):
    w = np.zeros(n + 1)
    if family == "biharmonic":
        w[2:n - 1] = x
        w[1] = 0.25 * x[0]
        w[n - 1] = 0.25 * x[-1]
    else:
        w[1:n] = x
    return w


def _auto_dt(family, l_scale):
    if family == "heat":
        lam = (math.pi / (2.0 * l_scale)) ** 2 + 0.25
    else:
        lam = 31.2852 / l_scale**4 + 0.05
    return float(min(0.02, 0.1 / (1.0 + lam) ** 2))


def _band_solve(ab, kl, x):
    """Solve one step system given in LAPACK band layout (``kl = ku``).

    A tridiagonal system goes to ``gtsv`` and a wider band to ``gbsv``,
    the routines ``scipy.linalg.solve_banded`` calls, without its copies
    and its finiteness pass over the matrix.  ``ab`` is overwritten.
    """
    if kl == 1:
        *_, x, info = dgtsv(ab[3, :-1], ab[2], ab[1, 1:], x, 1, 1, 1)
    else:
        *_, x, info = dgbsv(kl, kl, ab, x, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def simulate(cfg):
    """Advance the rescaled equation and record norm/coefficient traces.

    The full operator (stiff term and drift) is advanced by backward
    Euler; the step is unconditionally stable and the default step is
    chosen so the first-order bias stays below the per-case rate
    tolerances.  Clamped (or Dirichlet) rows are imposed exactly through
    the banded stencils.  The state is recorded after the first step,
    every r = max(1, steps // 4000) steps after that and after the last
    step, and 60 evenly spaced snapshots are taken.

    For a ``criteria.Constant`` wall the step matrix I - dt A is LU-factored
    once in band form (LAPACK ``gbtrf``).  When the interior size m (n - 3,
    or n - 1 for heat) is at most 256, r solves with those factors
    (``gbtrs``) applied to the identity give the propagator (I - dt A)^-r,
    and each stride between records is one dense product with it; larger m
    take r band solves per stride, in O(n) memory.  The first record, the
    remainder before the last one and each snapshot are reached by band
    solves from the record before them.  Records are kept in blocks of at
    most 256 rows, and each block is checked for finiteness and reduced to
    its sup norms and a0 at once.  A block that is not finite is replayed by
    single band steps from the record before its first non-finite one, and
    the ``FloatingPointError`` names the first replayed step whose state is
    not finite: for nan data the step the band loop names.  An overflow
    shows later than in the band loop, whose triangular solves overflow
    before the state does (data of size 1e305 at l = 5: tau = 2.76 by band
    solves, 154.9 by the propagator, 155.6 where the state passes 1.8e308).

    Any other wall rebuilds the band from phi and phi' on every step and
    factors and solves it in one LAPACK call (``gbsv``; ``gtsv`` for the
    heat family), the routines ``scipy.linalg.solve_banded`` would call, so
    the results are the same without its per-step copies and matrix scan.
    Instead a non-finite phi or phi' raises ``ValueError`` (naming tau)
    before the step, and a singular step matrix raises ``LinAlgError``.
    This path checks finiteness after every step.  The recorded a0 weighs
    the state with the kernel at the wall, evaluated once for a constant
    wall and at every record (and kept no longer) for a moving one.
    """
    n = cfg.n
    h = 2.0 / n
    z = -1.0 + h * np.arange(n + 1)
    family = cfg.family
    fam_kernel = kernels.heat() if family == "heat" else kernels.biharmonic()

    phi = cfg.phi
    if not isinstance(phi, criteria.BoundaryFunction):
        raise TypeError("cfg.phi must be a criteria.BoundaryFunction")

    tau0, tau1 = cfg.tau_span
    if tau0 < phi.tau_min or tau1 > phi.tau_max:
        raise ValueError(f"tau span ({tau0:g}, {tau1:g}) leaves the boundary's range "
                         f"[{phi.tau_min:g}, {phi.tau_max:g}]")

    phi0 = phi(tau0)
    dt = cfg.dt if cfg.dt is not None else _auto_dt(family, phi0)
    steps = int(math.ceil((tau1 - tau0) / dt))

    w_full = _initial_data(cfg, z)
    if family == "biharmonic":
        x = w_full[2:n - 1].copy()
    else:
        x = w_full[1:n].copy()

    build = _biharmonic_operator if family == "biharmonic" else _heat_operator
    kl = 2 if family == "biharmonic" else 1  # as many upper as lower bands

    def step_matrix(tau, pv, ps):
        # I - dt A for the wall (pv, ps) at tau, in the LAPACK band layout
        if not (math.isfinite(pv) and math.isfinite(ps)):
            raise ValueError(f"boundary is not finite at tau={tau:.6g}: "
                             f"phi={pv!r}, phi'={ps!r}")
        ab = build(n, h, pv, ps)
        ab[kl:] *= -dt
        ab[2 * kl] += 1.0
        return ab

    snap_taus = np.linspace(tau0, tau1, 60)
    if isinstance(phi, criteria.Constant):
        lu, piv, info = dgbtrf(step_matrix(tau0, phi0, 0.0), kl, kl)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        weights = _a0_weights(family, z, kernels.eval_kernel(fam_kernel, phi0 * z) * phi0)
        taus, sups, a0s, snaps_t, snaps = _constant_wall(
            x, (lu, piv, kl), weights, snap_taus, tau0, dt, steps, family, n)
        return SimResult(config=cfg, tau=taus, sup_norm=sups, a0=a0s, z=z,
                         snapshots_tau=snaps_t, snapshots=snaps)

    def a0_of(x_now, pv_now):
        w = _full_state(family, x_now, n)
        fk = kernels.eval_kernel(fam_kernel, pv_now * z)
        integrand = w * fk * pv_now
        return float(np.trapezoid(integrand, z))

    record_every = max(1, steps // 4000)
    taus, sups, a0s = [], [], []
    snap_idx = 0
    snaps_t, snaps = [], []

    tau = tau0
    for k in range(steps):
        tau_next = tau0 + (k + 1) * dt
        pv = float(phi(tau_next))
        ab = step_matrix(tau_next, pv, float(phi.derivative(tau_next)))
        x = _band_solve(ab, kl, x)
        tau = tau_next
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"solution lost finiteness at tau={tau:.3f}")
        if k % record_every == 0 or k == steps - 1:
            taus.append(tau)
            sups.append(float(np.max(np.abs(x))))
            a0s.append(a0_of(x, pv))
        while snap_idx < len(snap_taus) and tau >= snap_taus[snap_idx] - 0.5 * dt:
            snaps_t.append(tau)
            snaps.append(_full_state(family, x, n))
            snap_idx += 1

    return SimResult(
        config=cfg,
        tau=np.asarray(taus),
        sup_norm=np.asarray(sups),
        a0=np.asarray(a0s),
        z=z,
        snapshots_tau=np.asarray(snaps_t),
        snapshots=np.asarray(snaps),
    )


def _a0_weights(family, z, kernel_row):
    """Interior weights c with a0 = c . x for a constant wall.

    ``kernel_row`` is phi F(phi z) on the grid; it is multiplied by the
    trapezoid weights, and the wall values w1 = x0/4 and w(n-1) = x(-1)/4
    of the clamped family are folded into the first and last interior
    weight.
    """
    n = z.size - 1
    half = 0.5 * np.diff(z)
    g = np.zeros(n + 1)
    g[:-1] += half
    g[1:] += half
    g *= kernel_row
    if family == "heat":
        return g[1:n].copy()
    c = g[2:n - 1].copy()
    c[0] += 0.25 * g[1]
    c[-1] += 0.25 * g[n - 1]
    return c


def _constant_wall(x, factors, weights, snap_taus, tau0, dt, steps, family, n):
    """(tau, sup_norm, a0, snapshots_tau, snapshots) of a constant-wall run.

    ``x`` is the initial interior state, ``factors`` the band LU
    ``(lu, piv, kl)`` of the step matrix and ``weights`` the a0 weights of
    ``_a0_weights``; ``simulate`` describes the schedule and the checks.
    """
    lu, piv, kl = factors
    r, m = max(1, steps // 4000), x.size

    def tau(s):  # bit for bit the tau of step s in the moving-wall loop
        return tau0 + s * dt

    def band(x, count):
        for _ in range(count):
            x, _ = dgbtrs(lu, kl, kl, x, piv)
        return x

    def lost_finiteness(x, s_from, s_to):
        # single band steps from step s_from; raise at the first state that
        # is not finite, at s_to at the latest
        for s in range(s_from + 1, s_to + 1):
            x = band(x, 1)
            if not np.all(np.isfinite(x)):
                break
        raise FloatingPointError(f"solution lost finiteness at tau={tau(s):.3f}")

    rec = list(range(1, steps + 1, r))
    if rec[-1] != steps:
        rec.append(steps)
    # each snapshot is taken at the first step with tau >= its time - dt/2
    snap_steps = []
    for t in snap_taus:
        due = t - 0.5 * dt
        s = max(1, math.ceil((due - tau0) / dt))
        while s > 1 and tau(s - 1) >= due:
            s -= 1
        while s <= steps and tau(s) < due:
            s += 1
        if s > steps:
            break
        snap_steps.append(s)

    prop = band(np.eye(m, order="F"), r) if m <= _DENSE_MAX else None
    snaps = np.empty((len(snap_steps), n + 1))
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // m))
    sups, a0s = [], []
    s_prev = snap_idx = 0
    for b in range(0, len(rec), rows):
        block_steps = rec[b:b + rows]
        block = np.empty((len(block_steps), m))
        x_start, s_start = x, s_prev

        def before(s):
            # (state, step) of the last record at or before step s, from this
            # block or the one before it
            j = bisect.bisect_right(block_steps, s) - 1
            return (block[j], block_steps[j]) if j >= 0 else (x_start, s_start)

        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            for i, s in enumerate(block_steps):
                if prop is not None and s - s_prev == r:
                    np.dot(prop, x, out=block[i])
                else:
                    block[i] = band(x, s - s_prev)
                x, s_prev = block[i], s
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            s_lost = block_steps[int(np.argmin(finite))]
            lost_finiteness(*before(s_lost - 1), s_lost)
        sups.append(np.abs(block).max(axis=1))
        # row-wise sums: one matrix-vector product over the block would give
        # different bits at different BLAS thread counts
        a0s.append((block * weights).sum(axis=1))
        while snap_idx < len(snap_steps) and snap_steps[snap_idx] <= s_prev:
            s = snap_steps[snap_idx]
            x_base, s_base = before(s)
            snaps[snap_idx] = _full_state(family, band(x_base, s - s_base), n)
            snap_idx += 1
    return (np.array([tau(s) for s in rec]), np.concatenate(sups), np.concatenate(a0s),
            np.array([tau(s) for s in snap_steps]), snaps)


def fit_rate(result, window):
    """Least-squares exponential rate of the sup-norm over a tau window.

    If the log trace is visibly non-monotone (oscillatory decay), the
    fit falls back to the envelope of local maxima.
    """
    lo, hi = window
    mask = (result.tau >= lo) & (result.tau <= hi) & (result.sup_norm > 0)
    if mask.sum() < 4:
        raise ValueError("window holds too few recorded samples")
    t = result.tau[mask]
    y = np.log(result.sup_norm[mask])
    wiggles = np.sum(np.diff(np.sign(np.diff(y))) != 0)
    if wiggles > 0.5 * len(y):
        peaks = [i for i in range(1, len(y) - 1) if y[i] >= y[i - 1] and y[i] >= y[i + 1]]
        if len(peaks) >= 4:
            t, y = t[peaks], y[peaks]
    slope, _ = np.polyfit(t, y, 1)
    return float(slope)


def bl_snapshot_check(result, tau_star):
    """Deviation of the late-time wall region from the layer prediction.

    Rescales the snapshot nearest ``tau_star`` into the wall variable
    xi = phi^(4/3) (1 - z) (or phi^2 (1 - z) for the heat family) and
    compares with a0 * g0(xi) on 0 <= xi <= 10; returns the maximum
    deviation relative to the plateau.  Requires first-coefficient dominance
    |a0| >= 0.9 sup-norm, else the check is inconclusive.
    """
    cfg = result.config
    t_snap, w = result.snapshot_near(tau_star)
    i = int(np.argmin(np.abs(result.tau - t_snap)))
    a0, sup = result.a0[i], result.sup_norm[i]
    if abs(a0) < 0.9 * sup:
        return {"conclusive": False, "dominance": abs(a0) / sup, "deviation": math.inf}

    phi_val = cfg.phi(t_snap)
    # layer width in z is phi^(-alpha): 4/3 for the fourth-order family, 2 for heat
    stretch = phi_val ** (4.0 / 3.0) if cfg.family == "biharmonic" else phi_val**2
    xi = stretch * (1.0 - result.z)
    sel = (xi >= 0.0) & (xi <= 10.0)
    profile = blayer.biharmonic_profile() if cfg.family == "biharmonic" else blayer.heat_profile()
    predicted = a0 * profile(xi[sel])
    deviation = float(np.max(np.abs(w[sel] - predicted)) / abs(a0))
    return {"conclusive": True, "dominance": abs(a0) / sup, "deviation": deviation,
            "tau": t_snap}


@dataclass(frozen=True)
class P2Report:
    """Decay/growth verification for the two benchmark half-widths."""

    rates: dict
    all_decay_at_4: bool
    all_grow_at_5: bool

    @property
    def passed(self):
        return self.all_decay_at_4 and self.all_grow_at_5


def verify_P2(seeds=(1, 2, 3), tau_end=400.0, n=128):
    """Run the fixed two-case suite: decay at l = 4, growth at l = 5.

    Three independent random-smooth initial data per case; the report
    carries the fitted rates and fails if any run contradicts the
    expected sign.
    """
    rates = {}
    for l in (4.0, 5.0):
        for seed in seeds:
            cfg = SimConfig(family="biharmonic", phi=criteria.Constant(l), n=n,
                            dt=0.02, tau_span=(0.0, tau_end),
                            initial="random-smooth", seed=seed)
            res = simulate(cfg)
            rates[(l, seed)] = fit_rate(res, (0.25 * tau_end, tau_end))
    return P2Report(
        rates=rates,
        all_decay_at_4=all(r < 0 for (l, _), r in rates.items() if l == 4.0),
        all_grow_at_5=all(r > 0 for (l, _), r in rates.items() if l == 5.0),
    )
