"""Direct solver for the rescaled evolution in the frozen-domain variables.

After mapping the shrinking domain to z in [-1, 1] the equation reads

    w_tau = -(1/phi^4) w_zzzz + (phi'/phi - 1/4) z w_z     (fourth order)
    w_tau =  (1/phi^2) w_zz   + (phi'/phi - 1/2) z w_z     (heat)

with clamped (w = w_z = 0) or Dirichlet (w = 0) walls.  A family enters
only as its half-order m (heat 1, biharmonic 2), looked up once from its
name: m sets the band count, the interior unknowns w[m..n-m], the clamp
(1 - z^2)^m of the initial data and the kernel ``parabolic(m)``, and for
m = 2 the one-sided wall slope w1 = w2/4 is folded into the first and
last rows.  The stiff spatial operator is advanced implicitly by backward
Euler on the full operator.  One builder, made once per run from the
wall-free pieces of the band, gives the step matrix of either order
straight in the LAPACK band layout.  Every wall runs through one
driver, which records the state on one schedule, checks it for finiteness
and reduces it to sup norms and a0 in blocks, and takes snapshots.  Walls
differ only in how a state advances between two steps: a constant wall, in
any spelling, reuses one banded LU, and on a long enough run over at most
256 interior unknowns the precomputed propagator (I - dt A)^-r, r the
record stride; a moving wall reads phi, phi' and the kernel once per block
of records, forms the matrix on every step and factors and solves it with
one LAPACK call (``gbsv``, or ``gtsv`` for the tridiagonal heat matrix).
The recorded sup-norm and first-coefficient traces provide the empirical
decay and growth rates that cross-check the interval spectrum."""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from reglab import criteria, kernels
from reglab.numcore import check_positive

# Largest interior size at which a constant wall advances by the dense
# propagator.  Measured on 2 vCPU, one band solve against one product with
# (I - dt A)^-5: 6.8 against 4.3 us at m = 125, 12.7 against 11.1 us at
# m = 253, 18.1 against 22.2 us at m = 381.  At 256 the matrix takes 0.5 MB.
_DENSE_MAX = 256
# Recorded states are checked and reduced in blocks of at most this many
# rows and values, so a run at any n holds O(n) memory; a block spans at
# most _BLOCK_VALUES steps, so a moving wall's reads for it stay as small.
_BLOCK_ROWS = 256
_BLOCK_VALUES = 1 << 16
# half the spatial order m of each family: the equation has 2m derivatives
# and the walls m conditions (Dirichlet for heat, clamped for biharmonic)
_HALF_ORDER = {"heat": 1, "biharmonic": 2}


@dataclass(frozen=True)
class SimConfig:
    """One rescaled-PDE run.

    ``n`` is an even integer of at least 64, ``tau_span`` finite and
    increasing, ``dt`` positive and finite, or None for the automatic step,
    and ``seed`` a non-negative integer (not a bool).
    """

    family: str  # heat | biharmonic
    phi: object  # criteria.BoundaryFunction
    n: int = 128
    dt: float | None = None
    tau_span: tuple = (0.0, 100.0)
    initial: str = "bump"  # bump | poly | random-smooth
    seed: int = 0

    def __post_init__(self):
        if self.family not in _HALF_ORDER:
            raise ValueError("family must be heat or biharmonic")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 64 or self.n % 2:
            raise ValueError("grid size n must be even and at least 64")
        span = self.tau_span
        if not (isinstance(span, (tuple, list, np.ndarray)) and len(span) == 2
                and all(isinstance(t, numbers.Real) and math.isfinite(t) for t in span)):
            raise ValueError(f"tau_span must be two finite numbers, got {span!r}")
        if span[1] <= span[0]:
            raise ValueError("tau span must be increasing")
        if self.dt is not None:
            check_positive("time step dt", self.dt)
        if self.initial not in ("bump", "poly", "random-smooth"):
            raise ValueError(f"initial must be bump, poly or random-smooth, "
                             f"got {self.initial!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral)
                                               and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    tau: np.ndarray
    sup_norm: np.ndarray
    a0: np.ndarray
    z: np.ndarray
    snapshots_tau: np.ndarray
    snapshots: np.ndarray  # rows match snapshots_tau


def _initial_data(cfg, z):
    clamp = (1.0 - z * z) ** _HALF_ORDER[cfg.family]
    if cfg.initial == "poly":
        return clamp
    if cfg.initial == "bump":
        with np.errstate(divide="ignore", over="ignore"):
            core = np.where(np.abs(z) < 1.0, np.exp(-1.0 / np.maximum(1.0 - z * z, 1e-12)), 0.0)
        return core / core.max()
    rng = np.random.default_rng(cfg.seed)  # random-smooth
    modes = np.arange(1, 9)
    coef = rng.standard_normal(modes.size) / (1.0 + modes**2)
    series = sum(c * np.sin(0.5 * k * math.pi * (z + 1.0)) for k, c in zip(modes, coef))
    data = clamp * series
    peak = np.max(np.abs(data))
    return data / peak if peak else clamp


@lru_cache(maxsize=8)
def _stencil(m, size):
    """Weights (-1)^(m+k) C(2m, m+k) of the central difference D^(2m) on
    ``size`` interior unknowns, in the (3m+1, size) LAPACK band layout."""
    w = np.zeros((3 * m + 1, size))
    for k in range(-m, m + 1):
        w[2 * m - k, max(k, 0):size + min(k, 0)] = (-1) ** (m + k) * math.comb(2 * m, m + k)
    return w


def _operator(m, n, h):
    """Builder of the banded interior operator
    -(-D^2)^m / phi^(2m) + (phi'/phi - 1/(2m)) z D of the half-order m, with
    the walls folded in: ``band(phi_val, phi_slope)`` gives it for one wall.

    Unknowns are w[m..n-m]; the walls are w = 0 and, for m = 2, the
    second-order one-sided slope conditions w1 = w2/4, w(n-1) = w(n-2)/4.
    A band is the (3m+1, n+1-2m) LAPACK band layout of ``gbtrf``/``gbsv``: m
    zero rows for the pivoting fill-in, then the m upper diagonals, the
    main one and the m lower ones (rows m: are the ``solve_banded`` layout).
    The wall-free pieces (stencil S, the nodes z of the drift's two
    diagonals, z at the ends for the folds) are made here once; a band is
    S c, plus (coef z) / (2h) on the drift's diagonals, plus the folds.
    """
    zc = -1.0 + np.arange(m, n + 1 - m) * h
    stencil = _stencil(m, zc.size)
    drift_z = np.stack([zc[:-1], -zc[1:]])  # the upper drift diagonal, and minus the lower
    z_first, z_last = float(zc[0]), float(zc[-1])
    sign, h_2m, two_h = -(-1) ** m, h ** (2 * m), 2.0 * h

    def band(phi_val, phi_slope):
        c = sign / phi_val ** (2 * m) / h_2m
        coef = phi_slope / phi_val - 1 / (2 * m)
        drift = coef * drift_z / two_h
        ab = stencil * c
        ab[2 * m - 1, 1:] += drift[0]
        ab[2 * m + 1, :-1] += drift[1]
        if m == 2:
            # fold in w1 = w2/4 at the left (row i=2 sees w1 and w0; row i=3 sees w1)
            ab[4, 0] += 0.25 * (-4.0 * c) + 0.25 * (-(coef * z_first / two_h))
            ab[5, 0] += 0.25 * c
            ab[4, -1] += 0.25 * (-4.0 * c) + 0.25 * (coef * z_last / two_h)
            ab[3, -1] += 0.25 * c
        return ab

    return band


def _full_state(m, x, n):
    # the interior w[m:n+1-m], zero walls and, for m = 2, w1 = x0/4, w(n-1) = x(-1)/4
    w = np.zeros(n + 1)
    w[m:n + 1 - m] = x
    if m == 2:
        w[1] = 0.25 * x[0]
        w[n - 1] = 0.25 * x[-1]
    return w


def _auto_dt(m, l_scale):
    if m == 1:
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
        *_, x, info = scipy.linalg.lapack.dgtsv(ab[3, :-1], ab[2], ab[1, 1:], x, 1, 1, 1)
    else:
        *_, x, info = scipy.linalg.lapack.dgbsv(kl, kl, ab, x, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def simulate(cfg):
    """Advance the rescaled equation and record norm/coefficient traces.

    The full operator (stiff term and drift) is advanced by backward Euler;
    the step is unconditionally stable and the default step keeps the
    first-order bias below the per-case rate tolerances.  Clamped (or
    Dirichlet) rows are imposed exactly through the banded stencils.  The
    state is recorded after step 1, every r = max(1, steps // 4000) steps
    and after the last step; each of 60 evenly spaced snapshot times t is
    taken at the first step with tau >= t - dt/2, from the record before it.
    Records are checked for finiteness and reduced to sup norms and a0 (the
    state weighed with the kernel at the wall) in blocks of at most 256.  A
    block with a state that is not finite, or that ends in an error, is
    replayed by single steps from the record before, and the first of a
    non-finite state (``FloatingPointError``) and the error is raised.

    Walls differ only in how a state advances.  A wall constant in tau in any
    spelling (``phi.uncut.closed_form`` has gamma = 0) runs as
    ``Constant(phi(tau0))``: it LU-factors I - dt A once in band form
    (``gbtrf``) and steps by ``gbtrs``.
    When the interior size m (n - 3, or n - 1 for heat) is at most 256 and
    the run has enough full strides to repay it, r such solves on the
    identity give the propagator (I - dt A)^-r, and a full stride is one
    product with it; its overflow shows later than that of band solves
    (data of size 1e305 at l = 5: tau = 154.9 against 2.76).  Any other wall
    forms the band from phi and phi' on every step, by scaling the run's
    wall-free pieces with the operations, in their order, of a band formed
    from scratch (so bit for bit), and solves it by ``gbsv`` (``gtsv`` for
    heat), as ``solve_banded`` would; a non-finite phi or phi' raises
    ``ValueError``, a singular matrix ``LinAlgError``.
    It reads phi and phi' for all the steps of a block of records by one
    array read each, and the kernel for the block's records by one read on
    the (rows, n + 1) grid: the values of a read per step and per record,
    bit for bit.  A wall read that raises is narrowed down to the step that
    raises, so the error surfaces after the steps before it, as it would
    step by step.  With n = 128 and dt = 0.02 from tau = e to 20 a
    PowerLog(3, 3/4) biharmonic run takes 41 against 85 ms, and a
    PetrovskiiSqrtLog(2) heat run 18 against 47 ms when read point by point
    (2 vCPU, five alternating processes of 9 runs, median of the medians).
    """
    n = cfg.n
    h = 2.0 / n
    z = -1.0 + h * np.arange(n + 1)
    kl = _HALF_ORDER[cfg.family]  # the half-order m: as many upper as lower bands
    fam_kernel = kernels.parabolic(kl)

    phi = cfg.phi
    if not isinstance(phi, criteria.BoundaryFunction):
        raise TypeError("cfg.phi must be a criteria.BoundaryFunction")

    tau0, tau1 = cfg.tau_span
    if tau0 < phi.tau_min or tau1 > phi.tau_max:
        raise ValueError(f"tau span ({tau0:g}, {tau1:g}) leaves the boundary's range "
                         f"[{phi.tau_min:g}, {phi.tau_max:g}]")

    phi0 = phi(tau0)
    dt = cfg.dt if cfg.dt is not None else _auto_dt(kl, phi0)
    steps = int(math.ceil((tau1 - tau0) / dt))
    r = max(1, steps // 4000)

    x = _initial_data(cfg, z)[kl:n + 1 - kl].copy()
    m = x.size

    band = _operator(kl, n, h)

    def step_matrix(tau, pv, ps):
        # I - dt A for the wall (pv, ps) at tau, in the LAPACK band layout
        if not (math.isfinite(pv) and math.isfinite(ps)):
            raise ValueError(f"boundary is not finite at tau={tau:.6g}: "
                             f"phi={pv!r}, phi'={ps!r}")
        ab = band(pv, ps)
        ab[kl:] *= -dt
        ab[2 * kl] += 1.0
        return ab

    def weights_at(pv):
        # a0 weights of the wall pv, a float, or of each of an array of walls
        pv = np.asarray(pv)[..., None]
        return _a0_weights(kl, z, kernels.eval_kernel(fam_kernel, pv * z) * pv)

    _, _, gamma = phi.uncut.closed_form or (None, None, None)
    if gamma == 0.0:  # constant in tau, in any spelling, cut off or not
        lu, piv, info = scipy.linalg.lapack.dgbtrf(step_matrix(tau0, phi0, 0.0), kl, kl)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        weights, prop = weights_at(phi0), None

        def advance(x, s_from, s_to, s_end):
            if prop is not None and s_to - s_from == r:
                return np.dot(prop, x)
            for _ in range(s_to - s_from):
                x, _ = scipy.linalg.lapack.dgbtrs(lu, kl, kl, x, piv)
            return x

        def a0_weights(record_steps):
            return weights

        # Forming P^r takes r solves on m columns, about 0.4 r m single band
        # solves; each full stride then saves r band solves less one product,
        # which costs about m / 200 of them.  Measured break-even, 2 vCPU:
        # 25-27 strides at m = 61 (r = 1), 90-160 at m = 125 (r = 1), 250 at
        # m = 253 with r = 2; at m = 253 and r = 1 the product is no cheaper.
        if m <= _DENSE_MAX and (r - m / 200) * (steps // r) >= 0.4 * r * m:
            prop = advance(np.eye(m, order="F"), 0, r, r)
    else:
        def read_wall(s, s_end):
            # phi and phi' of steps s..s_end by one array read each; a read
            # that raises is narrowed to its first half, down to the one step
            # that raises, so the steps before that step run first
            t = tau0 + np.arange(s, s_end + 1) * dt  # bit for bit the tau of each step
            try:
                return phi(t).tolist(), phi.derivative(t).tolist()
            except Exception:
                if s == s_end:
                    raise
                return read_wall(s, (s + s_end) // 2)

        first, pvs, pss = 0, [], []  # phi and phi' of the steps read last, from step first on

        def wall_at(s, s_end):
            nonlocal first, pvs, pss
            if not 0 <= s - first < len(pvs):
                first, (pvs, pss) = s, read_wall(s, s_end)
            return pvs[s - first], pss[s - first]

        def advance(x, s_from, s_to, s_end):
            for s in range(s_from + 1, s_to + 1):
                x = _band_solve(step_matrix(tau0 + s * dt, *wall_at(s, s_end)), kl, x)
            return x

        def a0_weights(record_steps):
            return weights_at(np.array([wall_at(s, record_steps[-1])[0] for s in record_steps]))

    taus, sups, a0s, snaps_t, snaps = _record_run(
        x, advance, a0_weights, r, np.linspace(tau0, tau1, 60), tau0, dt, steps, kl, n)
    return SimResult(config=cfg, tau=taus, sup_norm=sups, a0=a0s, z=z,
                     snapshots_tau=snaps_t, snapshots=snaps)


def _a0_weights(m, z, kernel_rows):
    """Interior weights c with a0 = c . x for the wall at one step, or one
    row of them for each step.

    ``kernel_rows`` is phi F(phi z) on the grid, one row per step or one
    vector; it is multiplied by the trapezoid weights, and for the
    half-order m = 2 the wall values w1 = x0/4 and w(n-1) = x(-1)/4 are
    folded into the first and last interior weight.
    """
    n = z.size - 1
    half = 0.5 * np.diff(z)
    g = np.zeros(n + 1)
    g[:-1] += half
    g[1:] += half
    g = g * kernel_rows
    c = g[..., m:n + 1 - m].copy()
    if m == 2:
        c[..., 0] += 0.25 * g[..., 1]
        c[..., -1] += 0.25 * g[..., n - 1]
    return c


def _record_run(x, advance, a0_weights, r, snap_taus, tau0, dt, steps, half_order, n):
    """(tau, sup_norm, a0, snapshots_tau, snapshots) of one run from state x.

    Records run in blocks.  ``advance(x, s_from, s_to, s_end)`` steps x
    from s_from to s_to, both in the block that ends at step s_end, so a
    moving wall reads phi and phi' for a whole block at once; and
    ``a0_weights(steps)`` gives ``_a0_weights`` for the records of one
    block, one vector for all or one row each, which a moving wall takes
    from one kernel read.  ``simulate`` describes the schedule.
    """
    m = x.size

    def tau(s):
        return tau0 + s * dt

    def lost_finiteness(x, s_from, s_to, s_end):
        # single steps from s_from to the first non-finite state or to s_to
        for s in range(s_from + 1, s_to + 1):
            x = advance(x, s - 1, s, s_end)
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

    snaps = np.empty((len(snap_steps), n + 1))
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // m, _BLOCK_VALUES // r))
    sups, a0s = [], []
    s_prev = snap_idx = 0
    for b in range(0, len(rec), rows):
        block_steps, states = rec[b:b + rows], []
        x_start, s_start, s_end = x, s_prev, block_steps[-1]

        def before(s):
            # (state, step) of the last record at or before step s, from this
            # block or the one before it
            j = bisect.bisect_right(block_steps, s) - 1
            return (states[j], block_steps[j]) if j >= 0 else (x_start, s_start)

        with np.errstate(over="ignore", invalid="ignore"):  # checked here
            try:
                for s in block_steps:
                    x, s_prev = advance(x, s_prev, s, s_end), s
                    states.append(x)
            except ValueError:  # a bad wall or step matrix: the replay raises it again
                pass
            block = np.array(states).reshape(-1, m)
            finite = np.isfinite(block).all(axis=1)
            if len(states) < len(block_steps) or not finite.all():
                # a state lost before the failing step is named first
                s_lost = block_steps[len(states) if finite.all() else int(np.argmin(finite))]
                lost_finiteness(*before(s_lost - 1), s_lost, s_end)
        sups.append(np.abs(block).max(axis=1))
        # row-wise sums: one matrix-vector product over the block would give
        # different bits at different BLAS thread counts
        a0s.append((block * a0_weights(block_steps)).sum(axis=1))
        while snap_idx < len(snap_steps) and snap_steps[snap_idx] <= s_prev:
            s = snap_steps[snap_idx]
            x_base, s_base = before(s)
            snaps[snap_idx] = _full_state(half_order, advance(x_base, s_base, s, s_end), n)
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


@dataclass(frozen=True)
class P2Report:
    """Decay/growth verification for the two benchmark half-widths."""

    rates: dict
    all_decay_at_4: bool
    all_grow_at_5: bool

    @property
    def passed(self):
        return self.all_decay_at_4 and self.all_grow_at_5


def verify_P2(seeds=(1, 2, 3)):
    """Run the fixed two-case suite: decay at l = 4, growth at l = 5.

    Three independent random-smooth initial data per case; the report
    carries the fitted rates and fails if any run contradicts the
    expected sign.
    """
    if not seeds:
        raise ValueError("verify_P2 needs at least one seed")
    rates = {}
    for l in (4.0, 5.0):
        for seed in seeds:
            cfg = SimConfig(family="biharmonic", phi=criteria.Constant(l), n=128,
                            dt=0.02, tau_span=(0.0, 400.0),
                            initial="random-smooth", seed=seed)
            res = simulate(cfg)
            rates[(l, seed)] = fit_rate(res, (100.0, 400.0))
    return P2Report(
        rates=rates,
        all_decay_at_4=all(r < 0 for (l, _), r in rates.items() if l == 4.0),
        all_grow_at_5=all(r > 0 for (l, _), r in rates.items() if l == 5.0),
    )
