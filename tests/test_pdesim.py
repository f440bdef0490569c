import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

from reglab import cli, criteria, kernels, pdesim, spectral


def run(family, l, tau_end, n=160, dt=None, initial="bump", seed=0, tau0=0.0):
    cfg = pdesim.SimConfig(family=family, phi=criteria.Constant(l), n=n, dt=dt,
                           tau_span=(tau0, tau_end), initial=initial, seed=seed)
    return pdesim.simulate(cfg)


@pytest.fixture
def spoil_initial_data(monkeypatch):
    initial = pdesim._initial_data

    def spoil(change):
        monkeypatch.setattr(pdesim, "_initial_data", lambda cfg, z: change(initial(cfg, z)))

    return spoil


class TestOperator:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n,phi_val,phi_slope", [(64, 1.0, 0.0), (96, 3.7, 0.2),
                                                     (128, 0.4, -1.3)])
    def test_band_matches_dense_operator(self, m, n, phi_val, phi_slope):
        # dense -(-D2)^m / phi^(2m) + (phi'/phi - 1/(2m)) z D1 on the full grid,
        # with D2 and D1 the central differences at the nodes 1..n-1, taken on
        # the interior rows through the embedding of the unknowns w[m..n-m]
        # (w = 0 at the walls and, for m = 2, w1 = w2/4 and w(n-1) = w(n-2)/4)
        h = 2.0 / n
        z = -1.0 + h * np.arange(n + 1)
        d2, d1 = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
        for i in range(1, n):
            d2[i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / h**2
            d1[i, [i - 1, i + 1]] = np.array([-1.0, 1.0]) / (2.0 * h)
        full = (-(np.linalg.matrix_power(-d2, m)) / phi_val ** (2 * m)
                + (phi_slope / phi_val - 1.0 / (2 * m)) * z[:, None] * d1)
        size = n + 1 - 2 * m
        embed = np.zeros((n + 1, size))
        embed[m:n + 1 - m] = np.eye(size)
        if m == 2:
            embed[1, 0] = embed[n - 1, -1] = 0.25
        dense = (full @ embed)[m:n + 1 - m]

        ab = pdesim._operator(m, n, h)(phi_val, phi_slope)
        assert ab.shape == (3 * m + 1, size)
        assert not ab[:m].any()  # the fill-in rows
        band = np.zeros((size, size))
        for i in range(size):
            for j in range(max(0, i - m), min(size, i + m + 1)):
                band[i, j] = ab[2 * m + i - j, j]
        scale = np.max(np.abs(dense))
        np.testing.assert_allclose(band, dense, rtol=0.0, atol=1e-13 * scale)
        assert np.array_equal(band != 0.0, dense != 0.0)

    @staticmethod
    def direct_band(m, n, h, phi_val, phi_slope):
        # the band formed from scratch for one wall: the stencil scaled by c,
        # the drift vector added to the upper and taken from the lower
        # diagonal, then the m = 2 wall folds
        zc = -1.0 + np.arange(m, n + 1 - m) * h
        c = -(-1) ** m / phi_val ** (2 * m) / h ** (2 * m)
        drift = (phi_slope / phi_val - 1 / (2 * m)) * zc / (2.0 * h)
        ab = pdesim._stencil(m, zc.size) * c
        ab[2 * m - 1, 1:] += drift[:-1]
        ab[2 * m + 1, :-1] -= drift[1:]
        if m == 2:
            ab[4, 0] += 0.25 * (-4.0 * c) + 0.25 * (-drift[0])
            ab[5, 0] += 0.25 * c
            ab[4, -1] += 0.25 * (-4.0 * c) + 0.25 * drift[-1]
            ab[3, -1] += 0.25 * c
        return ab

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_per_run_band_equals_direct_formula_bit_for_bit(self, m, n):
        # one builder per run serves every step: at random walls (phi, phi'),
        # signs of phi' and edge walls included, its band has the bits (signed
        # zeros too) of the band formed from scratch
        h = 2.0 / n
        band = pdesim._operator(m, n, h)
        rng = np.random.default_rng(29 + 10 * m + n)
        walls = np.column_stack([np.exp(rng.uniform(-3.0, 4.0, 200)),
                                 rng.normal(0.0, 3.0, 200)]).tolist()
        # (2, 1/m) has no drift: its drift diagonals hold signed zeros
        walls += [(1.0, 0.0), (2.0, -0.0), (2.0, 1.0 / m), (1e-3, 1e3), (1e3, -1e-3)]
        for pv, ps in walls:
            ab = band(pv, ps)
            assert ab.tobytes() == self.direct_band(m, n, h, pv, ps).tobytes(), (pv, ps)
            assert ab.tobytes() == band(pv, ps).tobytes()  # no state kept between steps


class TestFitRate:
    def test_synthetic_exponential(self):
        tau = np.linspace(0.0, 10.0, 400)
        res = pdesim.SimResult(config=None, tau=tau, sup_norm=np.exp(-0.5 * tau),
                               a0=np.zeros_like(tau), z=np.zeros(3),
                               snapshots_tau=np.array([0.0]), snapshots=np.zeros((1, 3)))
        assert pdesim.fit_rate(res, (1.0, 9.0)) == pytest.approx(-0.5, abs=1e-6)

    def test_window_needs_samples(self):
        tau = np.linspace(0.0, 1.0, 50)
        res = pdesim.SimResult(config=None, tau=tau, sup_norm=np.exp(-tau),
                               a0=np.zeros_like(tau), z=np.zeros(3),
                               snapshots_tau=np.array([0.0]), snapshots=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            pdesim.fit_rate(res, (2.0, 3.0))


class TestConstantWallFactors:
    @pytest.mark.parametrize("family,n,l,tau_end,dt", [
        ("biharmonic", 96, 2.0, 2.0, 0.01),
        ("heat", 96, 1.0, 1.0, 0.005),
        ("biharmonic", 2048, 2.0, 0.2, 0.01),
        # 8004 steps: record stride 2 and a remainder step before the last record
        ("biharmonic", 128, 4.0, 8.0035, 0.001),
        ("heat", 128, 1.0, 8.0035, 0.001),
        # interior size 381 > 256: band solves between records, stride 2
        ("biharmonic", 384, 3.0, 8.0035, 0.001),
    ])
    def test_matches_banded_reference_loop(self, family, n, l, tau_end, dt):
        cfg = pdesim.SimConfig(family=family, phi=criteria.Constant(l), n=n, dt=dt,
                               tau_span=(0.0, tau_end), initial="bump")
        res = pdesim.simulate(cfg)

        # reference: one banded backward-Euler solve per step, recorded and
        # snapshotted on the schedule of the moving-wall loop
        h, z = 2.0 / n, res.z
        if family == "biharmonic":
            ab, bands, inner = pdesim._operator(2, n, h)(l, 0.0)[2:], (2, 2), slice(2, n - 1)
            fk = kernels.eval_kernel(kernels.biharmonic(), l * z)
        else:
            ab, bands, inner = pdesim._operator(1, n, h)(l, 0.0)[1:], (1, 1), slice(1, n)
            fk = kernels.eval_kernel(kernels.heat(), l * z)
        ab = -dt * ab
        ab[bands[0], :] += 1.0
        x = pdesim._initial_data(cfg, z)[inner]
        steps = math.ceil(tau_end / dt)
        every = max(1, steps // 4000)
        snap_taus = np.linspace(0.0, tau_end, 60)
        taus, sups, a0s, snaps_t, snaps = [], [], [], [], []
        for k in range(steps):
            x = solve_banded(bands, ab, x)
            tau = (k + 1) * dt
            w = pdesim._full_state(bands[0], x, n)
            if k % every == 0 or k == steps - 1:
                taus.append(tau)
                sups.append(np.max(np.abs(x)))
                a0s.append(np.trapezoid(w * fk * l, z))
            while len(snaps_t) < 60 and tau >= snap_taus[len(snaps_t)] - 0.5 * dt:
                snaps_t.append(tau)
                snaps.append(w)

        if every > 1:
            assert (steps - 1) % every  # the last record is a remainder
        assert np.array_equal(res.tau, taus)
        np.testing.assert_allclose(res.sup_norm, sups, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(res.a0, a0s, rtol=1e-9, atol=0.0)
        assert np.array_equal(res.snapshots_tau, snaps_t)
        np.testing.assert_allclose(res.snapshots, snaps, rtol=1e-9, atol=1e-9 * np.max(sups))

    @pytest.mark.parametrize("family,l", [("biharmonic", 5.0), ("heat", 3.0)])
    def test_every_spelling_of_a_constant_wall_runs_as_constant(self, family, l):
        # C (ln tau)^0, C tau^0 and a table of one value used to take the
        # moving-wall path, 1e-12 off the constant run; a cut-off constant
        # runs as the constant it is cut to
        def run_on(phi):
            return pdesim.simulate(pdesim.SimConfig(family=family, phi=phi, n=128,
                                                    tau_span=(criteria.TAU0, 200.0)))

        table = criteria.Tabulated(tuple(np.geomspace(criteria.TAU0, 1e3, 8)), (l,) * 8)
        cut = criteria.apply_cutoff(criteria.Constant(l), kernels.biharmonic())
        for phi, wall in [(criteria.PowerLog(l, 0.0), l), (criteria.PowerOfTau(l, 0.0), l),
                          (table, l), (cut, cut(criteria.TAU0))]:
            got, want = run_on(phi), run_on(criteria.Constant(wall))
            for key in ("tau", "sup_norm", "a0", "snapshots_tau", "snapshots"):
                assert np.array_equal(getattr(got, key), getattr(want, key)), (phi, key)

    def test_short_run_steps_by_band_solves(self):
        # 50 steps at m = 253 do not repay the propagator: the run is the
        # gbtrf/gbtrs loop bit for bit
        n, dt, l = 256, 0.02, 3.0
        cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(l), n=n, dt=dt,
                               tau_span=(0.0, 1.0))
        res = pdesim.simulate(cfg)
        ab = pdesim._operator(2, n, 2.0 / n)(l, 0.0)
        ab[2:] *= -dt
        ab[4] += 1.0
        lu, piv, _ = dgbtrf(ab, 2, 2)
        x, states = pdesim._initial_data(cfg, res.z)[2:n - 1], []
        for _ in range(50):
            x, _ = dgbtrs(lu, 2, 2, x, piv)
            states.append(x)
        states = np.array(states)
        weights = pdesim._a0_weights(
            2, res.z, kernels.eval_kernel(kernels.biharmonic(), l * res.z) * l)
        steps_of_snapshots = np.rint(res.snapshots_tau / dt).astype(int) - 1
        assert np.array_equal(res.tau, dt * np.arange(1, 51))
        assert np.array_equal(res.sup_norm, np.abs(states).max(axis=1))
        assert np.array_equal(res.a0, (states * weights).sum(axis=1))
        assert np.array_equal(res.snapshots, [pdesim._full_state(2, states[k], n)
                                              for k in steps_of_snapshots])

    @pytest.mark.parametrize("family,n", [("biharmonic", 128), ("heat", 128),
                                          ("biharmonic", 384)])
    def test_nan_state_names_the_step_of_the_banded_loop(self, spoil_initial_data, family, n):
        # the banded loop loses finiteness at its first step; the dense path
        # (m <= 256) and the band path (m = 381) name that step too
        def with_nan(w):
            w[n // 2] = math.nan
            return w

        spoil_initial_data(with_nan)
        cfg = pdesim.SimConfig(family=family, phi=criteria.Constant(2.0), n=n, dt=0.02,
                               tau_span=(1.0, 300.0))
        with pytest.raises(FloatingPointError, match=r"tau=1\.020$"):
            pdesim.simulate(cfg)

    def test_overflow_is_named_where_the_state_overflows(self, spoil_initial_data):
        # data of size 1e305 growing at l = 5: the banded loop's triangular
        # solves overflow at tau = 2.76, long before the state does; the dense
        # products do not, and the block replay names a step shortly before
        # the first record whose scaled sup norm passes the float range
        cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(5.0), n=128,
                               dt=0.02, tau_span=(0.0, 300.0))
        res = pdesim.simulate(cfg)
        over = res.tau[np.argmax(res.sup_norm > np.finfo(float).max / 1e305)]
        spoil_initial_data(lambda w: 1e305 * w)
        with pytest.raises(FloatingPointError) as lost:
            pdesim.simulate(cfg)
        named = float(str(lost.value).rsplit("=", 1)[1])
        assert over - 2.0 < named <= over

    def test_large_grid_holds_linear_memory(self):
        # n = 20 000 takes band solves between records and keeps a few records
        # at a time: the dense propagator alone would hold 3.2 GB, and 256-row
        # record blocks 580 state vectors at this length
        n = 20000
        cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0), n=n,
                               dt=1e-5, tau_span=(0.0, 3e-3))
        tracemalloc.start()
        try:
            res = pdesim.simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.tau) == 300 and np.all(np.isfinite(res.sup_norm))
        assert peak < 150 * 8 * (n + 1)  # 84 state vectors measured


class TestMovingWallDirectSolves:
    @pytest.mark.parametrize("family,phi,dt,length", [
        ("biharmonic", criteria.PowerLog(2.0, 0.75), 0.02, 3.0),
        ("heat", criteria.PetrovskiiSqrtLog(2.0), 0.02, 3.0),
        # 8004 steps: record stride 2, a remainder step before the last
        # record, and snapshots between records
        ("biharmonic", criteria.PowerLog(2.0, 0.75), 0.001, 8.0035),
    ], ids=["biharmonic-phi0", "heat-phi1", "biharmonic-stride2"])
    def test_matches_solve_banded_reference_loop(self, family, phi, dt, length):
        n, tau0 = 128, criteria.TAU0
        tau1 = tau0 + length
        cfg = pdesim.SimConfig(family=family, phi=phi, n=n, dt=dt,
                               tau_span=(tau0, tau1), initial="bump")
        res = pdesim.simulate(cfg)

        # reference: rebuild the banded matrix from phi and phi' and call
        # solve_banded on every step, recorded and snapshotted on the schedule
        h, z = 2.0 / n, res.z
        if family == "biharmonic":
            bands, inner, fam = (2, 2), slice(2, n - 1), kernels.biharmonic()
        else:
            bands, inner, fam = (1, 1), slice(1, n), kernels.heat()
        x = pdesim._initial_data(cfg, z)[inner]
        steps = math.ceil((tau1 - tau0) / dt)
        every = max(1, steps // 4000)
        snap_taus = np.linspace(tau0, tau1, 60)
        taus, sups, a0s, snaps_t, snaps = [], [], [], [], []
        for k in range(steps):
            tau = tau0 + (k + 1) * dt
            pv, ps = phi(tau), phi.derivative(tau)
            ab = -dt * pdesim._operator(bands[0], n, h)(pv, ps)[bands[0]:]
            ab[bands[0], :] += 1.0
            x = solve_banded(bands, ab, x)
            w = pdesim._full_state(bands[0], x, n)
            if k % every == 0 or k == steps - 1:
                taus.append(tau)
                sups.append(np.max(np.abs(x)))
                a0s.append(np.trapezoid(w * kernels.eval_kernel(fam, pv * z) * pv, z))
            while len(snaps_t) < 60 and tau >= snap_taus[len(snaps_t)] - 0.5 * dt:
                snaps_t.append(tau)
                snaps.append(w)

        if length > 5.0:
            assert every == 2 and (steps - 1) % every
        assert np.array_equal(res.tau, taus)
        np.testing.assert_allclose(res.sup_norm, sups, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.a0, a0s, rtol=1e-12, atol=0.0)
        assert np.array_equal(res.snapshots_tau, snaps_t)
        np.testing.assert_allclose(res.snapshots, snaps, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    def test_non_finite_boundary_is_rejected(self, family):
        class BreaksDown(criteria.BoundaryFunction):
            # finite up to tau = 3.5, nan after
            def _phi_u(self, u):
                return np.where(u > math.log(3.5), np.nan, 2.0 + 0.0 * u)

            def _dphi(self, tau):
                return np.zeros_like(tau)

        cfg = pdesim.SimConfig(family=family, phi=BreaksDown(), n=64, dt=0.02,
                               tau_span=(criteria.TAU0, 5.0))
        with pytest.raises(ValueError, match="boundary is not finite at tau=3.5"):
            pdesim.simulate(cfg)

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    def test_state_lost_before_the_boundary_breaks_is_named(self, spoil_initial_data,
                                                            family):
        # the state is nan from the first step on and the wall from tau = 3.5,
        # both within the first block of records: the state's step is named
        class BreaksLater(criteria.BoundaryFunction):
            def _phi_u(self, u):
                return np.where(u > math.log(3.5), np.nan, 2.0 + 0.0 * u)

            def _dphi(self, tau):
                return np.zeros_like(tau)

        def with_nan(w):
            w[32] = math.nan
            return w

        spoil_initial_data(with_nan)
        cfg = pdesim.SimConfig(family=family, phi=BreaksLater(), n=64, dt=0.02,
                               tau_span=(criteria.TAU0, 5.0))
        with pytest.raises(FloatingPointError, match=f"tau={criteria.TAU0 + 0.02:.3f}$"):
            pdesim.simulate(cfg)

    @pytest.mark.parametrize("kl", [1, 2])
    def test_singular_step_matrix_is_rejected(self, kl):
        ab = np.zeros((3 * kl + 1, 8))  # LAPACK band layout of the zero matrix
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            pdesim._band_solve(ab, kl, np.ones(8))


def per_record_oracle(cfg):
    """``simulate`` on a moving wall read point by point: phi and phi' read
    as scalars on every step and the kernel once per record."""
    n, m, (tau0, tau1), phi = cfg.n, pdesim._HALF_ORDER[cfg.family], cfg.tau_span, cfg.phi
    h = 2.0 / n
    z = -1.0 + h * np.arange(n + 1)
    dt = cfg.dt if cfg.dt is not None else pdesim._auto_dt(m, phi(tau0))
    steps = math.ceil((tau1 - tau0) / dt)

    def advance(x, s_from, s_to, s_end):
        for s in range(s_from + 1, s_to + 1):
            t = tau0 + s * dt
            pv, ps = float(phi(t)), float(phi.derivative(t))
            if not (math.isfinite(pv) and math.isfinite(ps)):
                raise ValueError(f"boundary is not finite at tau={t:.6g}: phi={pv!r}, phi'={ps!r}")
            ab = pdesim._operator(m, n, h)(pv, ps)
            ab[m:] *= -dt
            ab[2 * m] += 1.0
            x = pdesim._band_solve(ab, m, x)
        return x

    def a0_weights(record_steps):
        walls = [float(phi(tau0 + s * dt)) for s in record_steps]
        return np.array([pdesim._a0_weights(m, z, kernels.eval_kernel(
            kernels.parabolic(m), pv * z) * pv) for pv in walls])

    x = pdesim._initial_data(cfg, z)[m:n + 1 - m].copy()
    out = pdesim._record_run(x, advance, a0_weights, max(1, steps // 4000),
                             np.linspace(tau0, tau1, 60), tau0, dt, steps, m, n)
    return dict(zip(["tau", "sup_norm", "a0", "snapshots_tau", "snapshots"], out), z=z)


def outcome(cfg, run):
    """Every field of a run, or the type and message of the error it raises."""
    try:
        res = run(cfg)
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return res if isinstance(res, dict) else {
        f: getattr(res, f) for f in ("tau", "sup_norm", "a0", "z", "snapshots_tau", "snapshots")}


def assert_same_run(cfg):
    got, want = outcome(cfg, pdesim.simulate), outcome(cfg, per_record_oracle)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.keys() == want.keys()
        for field, value in want.items():
            assert np.array_equal(got[field], value), field


MOVING_WALLS = [("biharmonic", criteria.PowerLog(2.0, 0.75)),
                ("heat", criteria.PetrovskiiSqrtLog(2.0))]


class TestBlockReads:
    """A moving wall reads phi, phi' and the kernel once per block of records,
    bit for bit as it read them point by point."""

    @pytest.mark.parametrize("family,phi", MOVING_WALLS)
    def test_blocks_match_point_reads_across_block_edges(self, family, phi):
        # 750 records, blocks of 256: two block edges and a short last block
        assert_same_run(pdesim.SimConfig(family=family, phi=phi, n=64, dt=0.02,
                                         tau_span=(criteria.TAU0, criteria.TAU0 + 15.0)))

    @pytest.mark.parametrize("family,phi", MOVING_WALLS)
    def test_blocks_match_point_reads_at_stride_two(self, family, phi):
        # 8004 steps: records every second step, so each block of records
        # spans 512 steps, with snapshots between records
        cfg = pdesim.SimConfig(family=family, phi=phi, n=64, dt=0.001,
                               tau_span=(criteria.TAU0, criteria.TAU0 + 8.0035))
        assert_same_run(cfg)

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    def test_blocks_match_point_reads_on_the_cli_run(self, family):
        # simulate --phi powerlog:C=3,g=0.75 --tau-end 20, automatic step
        phi = cli._parse_phi("powerlog:C=3,g=0.75")
        assert_same_run(pdesim.SimConfig(family=family, phi=phi,
                                         tau_span=(phi.tau_min, 20.0)))

    @staticmethod
    def wall(nan_after=math.inf, raise_after=math.inf, steep=(math.inf, math.inf)):
        """A wall 2.0 that turns nan past tau = ``nan_after``, whose reads raise
        once they hold a tau past ``raise_after``, and whose phi' is 1e308,
        so that the state is lost, on the tau interval ``steep``."""
        class Breaks(criteria.BoundaryFunction):
            def _phi_u(self, u):
                if np.any(u > math.log(raise_after)):
                    raise ValueError("no wall past the end of its table")
                return np.where(u > math.log(nan_after), np.nan, 2.0 + 0.0 * u)

            def _dphi(self, tau):
                return np.where((tau > steep[0]) & (tau < steep[1]), 1e308, 0.0)

        return Breaks()

    @pytest.mark.parametrize("family", ["biharmonic", "heat"])
    @pytest.mark.parametrize("breaks", [
        # the wall is nan from a step in the third block of records on
        dict(nan_after=14.0),
        # the state is lost in the second block, the wall is nan in the third
        dict(nan_after=14.0, steep=(9.0, 9.5)),
        # a read holding a tau past 11.0 raises, late in the second block
        dict(raise_after=11.0),
        # the state is lost in the second block, before the read that raises
        dict(raise_after=11.0, steep=(9.0, 9.5)),
        # ... and in the block before
        dict(raise_after=11.0, steep=(7.0, 7.5)),
    ], ids=["nan-wall", "lost-then-nan", "raises", "lost-then-raises", "lost-block-before"])
    def test_errors_name_the_step_of_the_point_reads(self, family, breaks):
        cfg = pdesim.SimConfig(family=family, phi=self.wall(**breaks), n=64, dt=0.02,
                               tau_span=(criteria.TAU0, 16.0))
        got = outcome(cfg, pdesim.simulate)
        assert got == outcome(cfg, per_record_oracle)
        if "steep" in breaks:
            assert got[0] is FloatingPointError
        else:
            assert got[0] is ValueError
            assert got[1].startswith("boundary is not finite at tau=14.0" if "nan_after"
                                     in breaks else "no wall past")


class TestKernelEvaluations:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls, original = [], kernels.eval_kernel

        def counted(family, y):
            calls.append(np.size(y))
            return original(family, y)

        monkeypatch.setattr(kernels, "eval_kernel", counted)
        return calls

    def test_constant_wall_evaluates_once(self, kernel_calls):
        res = run("biharmonic", 2.0, 1.0, n=64, dt=0.01)
        assert len(res.tau) == 100
        assert kernel_calls == [65]

    @pytest.mark.parametrize("family,phi", [("biharmonic", criteria.PowerLog(2.0, 0.75)),
                                            ("heat", criteria.PetrovskiiSqrtLog(2.0))])
    def test_moving_wall_reads_once_per_block(self, kernel_calls, family, phi):
        # 600 records: blocks of 256, 256 and 88, each one read of phi, one
        # of phi' and one of the kernel on its rows x (n + 1) grid
        reads = []

        class Counted(type(phi)):
            def _phi_u(self, u):
                reads.append(("phi", u.size))
                return super()._phi_u(u)

            def _dphi(self, tau):
                reads.append(("dphi", tau.size))
                return super()._dphi(tau)

        cfg = pdesim.SimConfig(family=family, phi=Counted(*dataclasses.astuple(phi)), n=64,
                               dt=0.02, tau_span=(criteria.TAU0, criteria.TAU0 + 12.0))
        res = pdesim.simulate(cfg)
        assert len(res.tau) == 600
        assert kernel_calls == [256 * 65, 256 * 65, 88 * 65]
        assert reads == [("phi", 1)] + [(f, rows) for rows in (256, 256, 88)
                                        for f in ("phi", "dphi")]


class TestRateSpectrumAgreement:
    def test_fast_decay_small_interval(self):
        res = run("biharmonic", 1.0, 0.45)
        assert pdesim.fit_rate(res, (0.1, 0.45)) == pytest.approx(-31.16, abs=0.1)

    def test_moderate_interval(self):
        res = run("biharmonic", 2.0, 6.0)
        assert pdesim.fit_rate(res, (2.0, 6.0)) == pytest.approx(-1.83, abs=0.04)

    def test_near_neutral_interval(self):
        res = run("biharmonic", 4.0, 400.0, n=128, dt=0.02)
        assert pdesim.fit_rate(res, (50.0, 400.0)) == pytest.approx(-0.008152, abs=2e-3)

    def test_growth_interval(self):
        res = run("biharmonic", 5.0, 300.0, n=128, dt=0.02)
        assert pdesim.fit_rate(res, (50.0, 300.0)) == pytest.approx(0.0483, abs=4e-3)

    def test_grid_convergence(self):
        r1 = pdesim.fit_rate(run("biharmonic", 2.0, 6.0, n=96), (2.0, 6.0))
        r2 = pdesim.fit_rate(run("biharmonic", 2.0, 6.0, n=192), (2.0, 6.0))
        assert abs(r2 - r1) < 0.1 * abs(r2) + 1e-3

    def test_heat_rate_matches_collocation(self):
        res = run("heat", 1.0, 3.0, n=128)
        rate = pdesim.fit_rate(res, (0.8, 3.0))
        prob = spectral.IntervalEigenProblem(1.0, family=kernels.heat(),
                                             method="collocation", grid_size=64)
        lam = spectral.interval_spectrum(prob, 1)[0].lam.real
        assert rate == pytest.approx(lam, abs=0.02)


class TestHeatPositivity:
    def test_nonnegative_data_stays_nonnegative(self):
        res = run("heat", 1.0, 2.0, n=128, initial="bump")
        assert np.all(res.snapshots >= -1e-12)


class TestInitialData:
    def test_clamped_conditions(self):
        for initial in ("bump", "poly", "random-smooth"):
            cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0),
                                   n=64, tau_span=(0.0, 1.0), initial=initial, seed=3)
            z = -1.0 + (2.0 / cfg.n) * np.arange(cfg.n + 1)
            w = pdesim._initial_data(cfg, z)
            assert w[0] == 0.0 and w[-1] == 0.0
            h = z[1] - z[0]
            # the analytic wall slope is zero; the one-sided difference is O(h)
            assert abs(w[1] - w[0]) / h < 5.0 * h

    def test_seed_reproducibility(self):
        cfg = pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0),
                               n=64, tau_span=(0.0, 1.0), initial="random-smooth", seed=5)
        z = np.linspace(-1, 1, 65)
        w1 = pdesim._initial_data(cfg, z)
        w2 = pdesim._initial_data(cfg, z)
        assert np.array_equal(w1, w2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(1.0), n=63,
                             tau_span=(0.0, 1.0))
        with pytest.raises(ValueError):
            pdesim.SimConfig(family="wave", phi=criteria.Constant(1.0),
                             tau_span=(0.0, 1.0))

    @pytest.mark.parametrize("n", [128.0, True, "128"])
    def test_grid_size_must_be_an_integer(self, n):
        # n = 128.0 used to end in "slice indices must be integers"
        with pytest.raises(ValueError, match="grid size n"):
            pdesim.SimConfig(family="biharmonic", phi=criteria.Constant(2.0), n=n,
                             tau_span=(0.0, 1.0))

    @pytest.mark.parametrize("span", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                      (-math.inf, 1.0), (0.0, 1.0, 2.0), (1.0,), "01",
                                      (0.0, "1"), 1.0, None])
    def test_tau_span_must_be_finite(self, span):
        # (0, nan) used to fail converting nan to an integer, (0, inf) overflow,
        # and (0, 1, 2) to unpack inside simulate
        with pytest.raises(ValueError, match="tau_span"):
            pdesim.SimConfig(family="heat", phi=criteria.Constant(2.0), tau_span=span)

    @pytest.mark.parametrize("initial", ["gauss", "", None])
    def test_initial_data_must_be_known(self, initial):
        with pytest.raises(ValueError, match="initial"):
            pdesim.SimConfig(family="heat", phi=criteria.Constant(2.0), tau_span=(0.0, 1.0),
                             initial=initial)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, dt):
        # dt = -0.1 used to give an empty trace, and dt = nan an int conversion error
        with pytest.raises(ValueError, match="dt"):
            pdesim.SimConfig(family="heat", phi=criteria.Constant(2.0), dt=dt,
                             tau_span=(0.0, 1.0))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -1 used to fail inside numpy without naming the field, 1.5 to raise
        # TypeError inside simulate, and True to run as seed 1
        with pytest.raises(ValueError, match="seed"):
            pdesim.SimConfig(family="heat", phi=criteria.Constant(2.0), tau_span=(0.0, 1.0),
                             initial="random-smooth", seed=seed)

    def test_numpy_integer_seed_accepted(self):
        cfg = pdesim.SimConfig(family="heat", phi=criteria.Constant(2.0), tau_span=(0.0, 1.0),
                               initial="random-smooth", seed=np.int64(7))
        z = np.linspace(-1, 1, 65)
        assert np.array_equal(pdesim._initial_data(cfg, z),
                              pdesim._initial_data(dataclasses.replace(cfg, seed=7), z))


class TestBoundaryRange:
    def test_span_must_start_inside_the_boundary_range(self):
        cfg = pdesim.SimConfig(family="heat", phi=criteria.PetrovskiiSqrtLog(2.0),
                               n=64, dt=0.01, tau_span=(1.0, 5.0))
        with pytest.raises(ValueError, match="range"):
            pdesim.simulate(cfg)

    def test_span_must_end_inside_a_tabulated_range(self):
        taus = np.geomspace(criteria.TAU0, 10.0, 8)
        phi = criteria.Tabulated(tuple(taus), tuple(2.0 * np.sqrt(np.log(taus))))
        cfg = pdesim.SimConfig(family="heat", phi=phi, n=64, dt=0.01,
                               tau_span=(criteria.TAU0, 12.0))
        with pytest.raises(ValueError, match="range"):
            pdesim.simulate(cfg)
        short = pdesim.SimConfig(family="heat", phi=phi, n=64, dt=0.01,
                                 tau_span=(criteria.TAU0, 10.0))
        assert np.all(np.isfinite(pdesim.simulate(short).sup_norm))

    def test_phi_must_be_a_boundary_function(self):
        cfg = pdesim.SimConfig(family="heat", phi=lambda tau: 2.0, n=64, dt=0.01,
                               tau_span=(0.0, 1.0))
        with pytest.raises(TypeError):
            pdesim.simulate(cfg)


class TestExpansionConsistency:
    def test_interior_reconstruction_from_low_modes(self):
        # at late times the interior field is captured by the adjoint
        # polynomial expansion paired against the kernel derivatives; the
        # zero-extension makes pointwise convergence geometric but slow,
        # so seven modes reach ~12 percent at l = 3 and fifteen reach 5
        l = 3.0
        res = run("biharmonic", l, 40.0, n=160)
        w = res.snapshots[-1]
        z = res.z
        fam = kernels.biharmonic()
        sel = np.abs(z) <= 0.5
        scale = np.max(np.abs(w[sel]))

        def reconstruction_error(k_max):
            recon = np.zeros_like(z)
            for k in range(k_max + 1):
                pair = kernels.hermite_pair(fam, k)
                a_k = np.trapezoid(w * pair.psi(l * z) * l, z)
                recon = recon + a_k * pair.psi_star(l * z)
            return np.max(np.abs(recon[sel] - w[sel])) / scale

        err7 = reconstruction_error(6)
        err15 = reconstruction_error(14)
        assert err7 < 0.15
        assert err15 < 0.05
        assert err15 < err7

    def test_coefficient_dominance(self):
        # the first coefficient carries the late-time solution (the gap to
        # one is the wall overshoot riding on the sup-norm)
        res = run("biharmonic", 3.0, 40.0, n=160)
        i = len(res.tau) - 1
        assert abs(res.a0[i]) > 0.7 * res.sup_norm[i]


class TestVerifyP2:
    def test_fixed_two_case_suite(self):
        report = pdesim.verify_P2(seeds=(1, 2, 3))
        assert report.passed
        assert report.all_decay_at_4 and report.all_grow_at_5
        growth = [r for (l, _), r in report.rates.items() if l == 5.0]
        assert all(abs(g - 0.0483) < 0.015 for g in growth)

    def test_no_seeds_rejected(self):
        # seeds=() used to report passed=True after running nothing
        with pytest.raises(ValueError, match="seed"):
            pdesim.verify_P2(seeds=())
