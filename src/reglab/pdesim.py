"""Direct solver for the rescaled evolution in the frozen-domain variables.

After mapping the shrinking domain to z in [-1, 1] the equation reads

    w_tau = -(1/phi^4) w_zzzz + (phi'/phi - 1/4) z w_z     (fourth order)
    w_tau =  (1/phi^2) w_zz   + (phi'/phi - 1/2) z w_z     (heat)

with clamped (w = w_z = 0) or Dirichlet (w = 0) walls.  The stiff
spatial operator is advanced implicitly by backward Euler on the full
operator.  A constant wall gives one fixed pentadiagonal/tridiagonal
step matrix, so its banded LU factors are computed once and each step is
a pair of O(n) triangular band solves; a moving wall rebuilds the banded
system and factors and solves it on every step.  The recorded sup-norm and
first-coefficient traces provide the empirical decay and growth rates
that cross-check the interval spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from reglab import criteria, kernels


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one rescaled-PDE run."""

    family: str  # heat | biharmonic
    phi: object  # BoundaryFunction or CutoffBoundary
    n: int = 128
    dt: float | None = None
    tau_span: tuple = (0.0, 100.0)
    initial: str = "bump"  # bump | poly | random-smooth
    seed: int = 0
    n_snapshots: int = 60

    def __post_init__(self):
        if self.family not in ("heat", "biharmonic"):
            raise ValueError("family must be heat or biharmonic")
        if self.n < 64 or self.n % 2:
            raise ValueError("grid size n must be even and at least 64")
        if self.tau_span[1] <= self.tau_span[0]:
            raise ValueError("tau span must be increasing")


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
    Returns the (5, m) banded form (two upper, two lower diagonals).
    """
    m = n - 3
    idx = np.arange(2, n - 1)
    zc = -1.0 + idx * h
    c4 = -1.0 / phi_val**4 / h**4
    drift = (phi_slope / phi_val - 0.25) * zc / (2.0 * h)

    main = np.full(m, 6.0 * c4)
    off1_up = np.full(m - 1, -4.0 * c4) + drift[:-1]
    off1_lo = np.full(m - 1, -4.0 * c4) - drift[1:]
    off2_up = np.full(m - 2, 1.0 * c4)
    off2_lo = np.full(m - 2, 1.0 * c4)

    # fold in w1 = w2/4 at the left (row i=2 sees w1 and w0; row i=3 sees w1)
    main[0] += 0.25 * (-4.0 * c4) + 0.25 * (-drift[0])
    off1_lo[0] += 0.25 * c4
    main[-1] += 0.25 * (-4.0 * c4) + 0.25 * drift[-1]
    off1_up[-1] += 0.25 * c4

    ab = np.zeros((5, m))
    ab[0, 2:] = off2_up
    ab[1, 1:] = off1_up
    ab[2, :] = main
    ab[3, :-1] = off1_lo
    ab[4, :-2] = off2_lo
    return ab


def _heat_operator(n, h, phi_val, phi_slope):
    """Banded interior operator with Dirichlet walls; unknowns w[1..n-1]."""
    m = n - 1
    idx = np.arange(1, n)
    zc = -1.0 + idx * h
    c2 = 1.0 / phi_val**2 / h**2
    drift = (phi_slope / phi_val - 0.5) * zc / (2.0 * h)

    main = np.full(m, -2.0 * c2)
    off_up = np.full(m - 1, c2) + drift[:-1]
    off_lo = np.full(m - 1, c2) - drift[1:]

    ab = np.zeros((3, m))
    ab[0, 1:] = off_up
    ab[1, :] = main
    ab[2, :-1] = off_lo
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


def _band_lu(ab, kl, ku):
    """LU factors of a banded matrix given in ``solve_banded`` layout.

    LAPACK ``gbtrf`` needs ``kl`` spare rows above the bands for the
    fill-in of partial pivoting.  Returns ``(lu, piv)`` for ``gbtrs``.
    """
    work = np.zeros((2 * kl + ku + 1, ab.shape[1]))
    work[kl:] = ab
    lu, piv, info = dgbtrf(work, kl, ku)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lu, piv


def simulate(cfg):
    """Advance the rescaled equation and record norm/coefficient traces.

    The full operator (stiff term and drift) is advanced by backward
    Euler; the step is unconditionally stable and the default step is
    chosen so the first-order bias stays below the per-case rate
    tolerances.  Clamped (or Dirichlet) rows are imposed exactly through
    the banded stencils.  For a ``criteria.Constant`` wall the step matrix
    I - dt A is LU-factored once in band form (LAPACK ``gbtrf``) and each
    step reuses the factors (``gbtrs``); any other wall rebuilds the banded
    matrix and solves it per step.  Both paths cost O(n) per step, check
    finiteness after every step and record traces and snapshots on the
    same schedule.
    """
    n = cfg.n
    h = 2.0 / n
    z = -1.0 + h * np.arange(n + 1)
    family = cfg.family
    fam_kernel = kernels.heat() if family == "heat" else kernels.biharmonic()

    phi = cfg.phi
    phi_of = phi if callable(phi) else None
    if phi_of is None:
        raise TypeError("cfg.phi must be a boundary-function callable")
    static_phi = isinstance(phi, criteria.Constant)

    tau0, tau1 = cfg.tau_span
    # boundary families live on tau >= e; constant boundaries are free to
    # start at zero
    if not static_phi and tau0 < criteria.TAU0:
        raise ValueError("non-constant boundaries need tau_span inside [e, inf)")

    phi0 = float(phi(max(tau0, criteria.TAU0 if not static_phi else tau0)))
    dt = cfg.dt if cfg.dt is not None else _auto_dt(family, phi0)
    steps = int(math.ceil((tau1 - tau0) / dt))

    w_full = _initial_data(cfg, z)
    if family == "biharmonic":
        x = w_full[2:n - 1].copy()
    else:
        x = w_full[1:n].copy()

    build = _biharmonic_operator if family == "biharmonic" else _heat_operator
    lu_bands = (2, 2) if family == "biharmonic" else (1, 1)

    def implicit_matrix(tau):
        if static_phi:
            pv, ps = phi0, 0.0
        else:
            pv = float(phi(tau))
            ps = float(phi.derivative(tau))
        ab = build(n, h, pv, ps)
        ab = -dt * ab
        ab[lu_bands[0], :] += 1.0
        return ab, pv

    ab, pv = implicit_matrix(tau0 + dt)
    if static_phi:
        lu, piv = _band_lu(ab, *lu_bands)
    kernel_cache = {}

    def a0_of(x_now, pv_now):
        w = _full_state(family, x_now, n)
        key = round(pv_now, 12)
        if key not in kernel_cache:
            kernel_cache[key] = kernels.eval_kernel(fam_kernel, pv_now * z)
        fk = kernel_cache[key]
        integrand = w * fk * pv_now
        return float(np.trapezoid(integrand, z))

    record_every = max(1, steps // 4000)
    taus, sups, a0s = [], [], []
    snap_taus = np.linspace(tau0, tau1, cfg.n_snapshots)
    snap_idx = 0
    snaps_t, snaps = [], []

    tau = tau0
    for k in range(steps):
        tau_next = tau0 + (k + 1) * dt
        if static_phi:
            x, _ = dgbtrs(lu, *lu_bands, x, piv)
        else:
            ab, pv = implicit_matrix(tau_next)
            x = solve_banded(lu_bands, ab, x)
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


def bl_snapshot_check(result, tau_star, xi_max=10.0):
    """Deviation of the late-time wall region from the layer prediction.

    Rescales the snapshot nearest ``tau_star`` into the wall variable
    xi = phi^(4/3) (1 - z) (or phi (1 - z) for the heat family) and
    compares with a0 * g0(xi); returns the maximum deviation relative to
    the plateau.  Requires first-coefficient dominance
    |a0| >= 0.9 sup-norm, else the check is inconclusive.
    """
    cfg = result.config
    t_snap, w = result.snapshot_near(tau_star)
    i = int(np.argmin(np.abs(result.tau - t_snap)))
    a0, sup = result.a0[i], result.sup_norm[i]
    if abs(a0) < 0.9 * sup:
        return {"conclusive": False, "dominance": abs(a0) / sup, "deviation": math.inf}

    phi_val = float(cfg.phi(t_snap)) if not isinstance(cfg.phi, criteria.Constant) \
        else cfg.phi.l
    # layer width in z is phi^(-alpha): 4/3 for the fourth-order family, 2 for heat
    stretch = phi_val ** (4.0 / 3.0) if cfg.family == "biharmonic" else phi_val**2
    xi = stretch * (1.0 - result.z)
    sel = (xi >= 0.0) & (xi <= xi_max)
    profile = blayer_profile_for(cfg.family)
    predicted = a0 * profile(xi[sel])
    deviation = float(np.max(np.abs(w[sel] - predicted)) / abs(a0))
    return {"conclusive": True, "dominance": abs(a0) / sup, "deviation": deviation,
            "tau": t_snap}


def blayer_profile_for(family):
    from reglab import blayer

    return blayer.biharmonic_profile() if family == "biharmonic" else blayer.heat_profile()


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
