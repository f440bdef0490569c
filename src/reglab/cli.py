"""Command-line front end: table/curve artifacts, classification queries, sweeps.

Table commands (kernel, spectrum, branch, blayer, simulate, reproduce
table1) write a CSV whose first line is a ``#``-prefixed JSON header
carrying the constants and the configuration, so a single file is
self-describing for plot scripts and tests alike; ``--json`` switches
them to one JSON object holding header, columns and rows.  Record
commands (criterion, simulate --verify-P2 and the other reproduce
targets) always write one JSON object, with or without ``--json``.
Exit code 0 means the computation completed (an indeterminate verdict is
still a result); flag errors and numerical failures (``NumericsError``)
exit 2 with a one-line reason.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from reglab import blayer, criteria, kernels, pdesim, spectral
from reglab.numcore import NumericsError, check_tolerance

# reference eigenvalues of the fundamental-parabola benchmark (half-width -> rate)
BENCHMARK_LAMBDA0 = {
    1.0: -31.16, 2.0: -1.83, 3.0: -0.2647, 4.0: -0.008152, 4.0775: 0.0000113,
    5.0: 0.0483, 6.0: 0.046, 7.25: 0.00167, 7.5: -0.0097, 8.0: -0.027,
}


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(args, header, rows=None, columns=()):
    """Write a record, or a table as CSV under a JSON header line.

    A record (no ``rows``) is always one JSON object; ``--json`` turns a
    table into one JSON object holding header, columns and rows.
    """
    if rows is not None and args.json:
        header, rows = {"header": header, "columns": columns, "rows": rows}, None
    text = json.dumps(header, sort_keys=True, indent=2 if rows is None else None,
                      default=_fmt) + "\n"
    if rows is not None:
        text = "# " + text + "\n".join([",".join(columns)]
                                       + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _threads():
    env = os.environ.get("REG_LAB_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError("range needs stop >= start and step > 0")
    return start, stop, step


def _parse_phi(text):
    """Boundary spec: const:4 | powerlog:C=2.95,g=0.75 | sqrtlog:C=2 | powertau:C=1,g=1.5."""
    kind, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            if "=" in item:
                key, _, val = item.partition("=")
                params[key.strip().lower()] = float(val)
    try:
        if kind == "const":
            return criteria.Constant(params.get("l", float(rest)))
        if kind == "powerlog":
            return criteria.PowerLog(params["c"], params["g"])
        if kind == "sqrtlog":
            return criteria.PetrovskiiSqrtLog(params["c"])
        if kind == "powertau":
            return criteria.PowerOfTau(params["c"], params["g"])
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad boundary spec {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown boundary family {kind!r}")


_FAMILIES = {"heat": kernels.heat, "biharmonic": kernels.biharmonic,
             "dispersion3": kernels.dispersion3, "beam4": kernels.beam4}


def _family_from(args):
    """``--family`` (with ``--m`` for parabolic/polyharmonic) as an EquationFamily."""
    if args.family in ("parabolic", "polyharmonic"):
        return kernels.parabolic(args.m)
    if args.family not in _FAMILIES:
        raise argparse.ArgumentTypeError(f"unknown family {args.family!r}")
    return _FAMILIES[args.family]()


def _constants_header(family):
    kc = kernels.kernel_constants(family)
    head = {"family": str(family), "alpha": kc.alpha, "d0": kc.d0, "b0": kc.b0,
            "delta0": kc.delta0, "alpha0": kc.alpha0}
    kern = kernels.get_kernel(family)
    if kern._fit is not None:
        head |= {"c1": kern._fit.c1, "c2": kern._fit.c2,
                 "fit_residual": kern._fit.residual, "fit_exponent": kern._fit.exponent}
    return head


# ---------------------------------------------------------------------------
# commands


def cmd_kernel(args):
    check_tolerance(args.tol)
    family = _family_from(args)
    lo, hi, step = args.range
    ys = np.arange(lo, hi + 0.5 * step, step)
    vals = kernels.eval_kernel(family, ys, args.tol)
    kern = kernels.get_kernel(family)
    fit = kern.ensure_fit()
    kc = kernels.kernel_constants(family)
    safe = np.maximum(np.abs(ys), 1e-9)
    if family.kind == "parabolic":
        asym = kern.asymptotic_value(safe, fit.c1, fit.c2)
    elif family.kind == "dispersion3":
        u = safe**1.5
        asym = safe ** (-0.25) * (fit.c1 * np.sin(kc.d0 * u) + fit.c2 * np.cos(kc.d0 * u))
    else:
        u = safe**2
        asym = safe ** (-fit.exponent) * (fit.c1 * np.sin(0.25 * u) + fit.c2 * np.cos(0.25 * u))
    asym = np.where(np.abs(ys) >= 1.0, asym, np.nan)  # the large-argument form only
    rows = [(y, v, a, abs(v - a)) for y, v, a in zip(ys, vals, asym)]
    _emit(args, _constants_header(family) | {"command": "kernel", "tol": args.tol},
          rows, ["y", "F", "asymptotic", "abs_diff"])
    return 0


def _lambda_row(l, method, grid_size):
    if method == "collocation":
        prob = spectral.IntervalEigenProblem(l, method="collocation", grid_size=grid_size)
        pair = spectral.interval_spectrum(prob, 1)[0]
        return (l, pair.lam.real, pair.lam.imag, pair.residual, method)
    lam = spectral.top_eigenvalue(l)
    return (l, lam, 0.0, 1e-13, method)


def cmd_spectrum(args):
    header = {"command": "spectrum", "method": args.method}
    if args.reproduce == "table1":
        ls = sorted(BENCHMARK_LAMBDA0)
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            rows = list(pool.map(lambda l: _lambda_row(l, args.method, args.grid_size), ls))
        rows = [r + (BENCHMARK_LAMBDA0[r[0]],) for r in rows]
        _emit(args, header | {"reproduce": "table1"}, rows,
              ["l", "re_lambda0", "im_lambda0", "residual", "method", "reference"])
        return 0
    if args.branch:
        lo, hi, step = args.branch
        br = spectral.branch_trace((lo, hi), step)
        # the branch is always traced by shooting, whatever --method says
        hdr = header | {"method": "shooting", "branch": list(args.branch),
                        "roots": list(br.roots)}
        _emit(args, hdr, list(br.samples), ["l", "lambda0"])
        return 0
    ls = [args.l] if args.l is not None else []
    if args.l_range:
        lo, hi, step = args.l_range
        ls = list(np.arange(lo, hi + 0.5 * step, step))
    if not ls:
        print("spectrum: need --l, --l-range, --branch or --reproduce table1", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        rows = list(pool.map(lambda l: _lambda_row(float(l), args.method, args.grid_size), ls))
    _emit(args, header, rows, ["l", "re_lambda0", "im_lambda0", "residual", "method"])
    return 0


def cmd_branch(args):
    args.branch = args.range
    args.method = args.l = args.l_range = args.reproduce = None
    return cmd_spectrum(args)


def cmd_blayer(args):
    if args.solver == "closed":
        prof = {"biharmonic": blayer.biharmonic_profile,
                "dispersion3": blayer.dispersion_profile,
                "heat": blayer.heat_profile}.get(args.family)
        if prof is None:
            print(f"blayer: no closed form for {args.family}; use --solver bvp", file=sys.stderr)
            return 2
        profile = prof(xi_max=args.length)
    else:
        profile = blayer.solve_bl_bvp(args.family, args.length, tol=args.tol)
    rows = list(zip(profile.xi, profile.values))
    header = {"command": "blayer", "family": args.family,
              "provenance": profile.provenance,
              "wall_derivatives": list(profile.wall_derivatives),
              "far_value": profile.far_value}
    _emit(args, header, rows, ["xi", "g0"])
    return 0


def cmd_criterion(args):
    phi = _parse_phi(args.phi)
    family = _family_from(args)
    if args.cutoff:
        phi = criteria.apply_cutoff(phi, criteria.oscillation_spec(family, args.side), args.eps_s)
    verdict = criteria.classify(family, phi, args.side)
    _emit(args, {
        "command": "criterion", "family": args.family, "side": args.side,
        "boundary": phi.describe(), "cutoff": phi.cutoff,
        "verdict": verdict.verdict, "rationale": verdict.rationale,
        "threshold_constant": criteria.threshold(family, args.side),
        "diagnostics": verdict.diagnostics,
    })
    return 0


def cmd_simulate(args):
    if args.verify_P2:
        report = pdesim.verify_P2()
        _emit(args, {"command": "simulate", "verify_P2": report.passed,
                     "rates": {f"l={l} seed={s}": r for (l, s), r in report.rates.items()}})
        print("PASS" if report.passed else "FAIL", file=sys.stderr)
        return 0 if report.passed else 1
    phi = _parse_phi(args.phi)
    tau0 = phi.tau_min if args.tau_start is None else args.tau_start
    cfg = pdesim.SimConfig(family=args.family, phi=phi, n=args.n, dt=args.dt,
                           tau_span=(tau0, args.tau_end), initial=args.initial,
                           seed=args.seed)
    res = pdesim.simulate(cfg)
    window = (0.5 * (tau0 + args.tau_end), args.tau_end)
    sigma = pdesim.fit_rate(res, window)
    rows = list(zip(res.tau, res.sup_norm, res.a0))
    header = {"command": "simulate", "family": args.family, "phi": phi.describe(),
              "n": args.n, "dt": cfg.dt, "seed": args.seed, "initial": args.initial,
              "sigma_fit": sigma, "fit_window": list(window)}
    _emit(args, header, rows, ["tau", "sup_norm", "a0"])
    return 0


def cmd_reproduce(args):
    if args.target == "table1":
        args.reproduce = "table1"
        args.branch = None
        args.l = None
        args.l_range = None
        args.method = "shooting"
        args.grid_size = 96
        return cmd_spectrum(args)
    if args.target == "branch-roots":
        br1 = spectral.branch_trace((3.9, 4.3), 0.05)
        br2 = spectral.branch_trace((7.0, 7.5), 0.05)
        payload = {"command": "reproduce", "target": "branch-roots",
                   "l1": br1.roots[0] if br1.roots else None,
                   "l2": br2.roots[0] if br2.roots else None}
    elif args.target == "petrovskii-heat":
        heat = kernels.heat()
        sweep = {f"C={c}": criteria.classify(heat, criteria.PetrovskiiSqrtLog(c)).verdict
                 for c in (1.6, 1.8, 2.0, 2.2, 2.4)}
        payload = {"command": "reproduce", "target": "petrovskii-heat",
                   "threshold": criteria.threshold(heat), "sweep": sweep}
    elif args.target == "critical-constants":
        payload = {
            "command": "reproduce", "target": "critical-constants",
            "biharmonic_c_star": criteria.threshold(kernels.biharmonic()),
            "closed_form_identity": 3.0 ** (-0.75) * 2.0 ** 2.75,
            "order6_c_star": criteria.threshold(kernels.parabolic(3)),
            "dispersion_left_c_star": (1.5 * math.sqrt(3.0)) ** (2.0 / 3.0),
            "dispersion_d0": kernels.kernel_constants(kernels.dispersion3()).d0,
            "heat_threshold": criteria.threshold(kernels.heat()),
        }
    else:
        print(f"reproduce: unknown target {args.target}", file=sys.stderr)
        return 2
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


_CONFIG_KEYS = {
    "kernel": {"family", "m", "range", "tol", "out", "json"},
    "spectrum": {"l", "l_range", "branch", "method", "grid_size", "reproduce", "out", "json"},
    "branch": {"range", "out", "json"},
    "blayer": {"family", "length", "solver", "tol", "out", "json"},
    "criterion": {"family", "m", "side", "phi", "cutoff", "eps_s", "out", "json"},
    "simulate": {"family", "phi", "n", "dt", "tau_start", "tau_end", "initial", "seed",
                 "verify_P2", "out", "json"},
    "reproduce": {"target", "out", "json"},
}


def _apply_config(args, parser):
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    allowed = _CONFIG_KEYS.get(args.command, set())
    for key, value in data.items():
        if key == "command":
            if value != args.command:
                parser.error(f"config command {value!r} does not match {args.command!r}")
            continue
        if key not in allowed:
            parser.error(f"unknown config key {key!r} for command {args.command!r}")
        if key in ("range", "l_range", "branch") and isinstance(value, str):
            value = _parse_range(value)
        setattr(args, key, value)
    return args


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reglab",
        description="Boundary-point regularity lab for higher-order evolution equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--json", action="store_true", help="emit a JSON artifact")
        p.add_argument("--config", help="JSON config file overriding flags")

    p = sub.add_parser("kernel", help="kernel values against the fitted asymptotic")
    p.add_argument("--family", default="parabolic",
                   choices=["parabolic", "heat", "biharmonic", "dispersion3", "beam4"])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI:STEP")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("spectrum", help="interval eigenvalues and the lambda_0 branch")
    p.add_argument("--l", type=float)
    p.add_argument("--l-range", dest="l_range", type=_parse_range, metavar="LO:HI:STEP")
    p.add_argument("--branch", type=_parse_range, metavar="LO:HI:STEP")
    p.add_argument("--method", default="shooting", choices=["shooting", "collocation"])
    p.add_argument("--grid-size", dest="grid_size", type=int, default=96)
    p.add_argument("--reproduce", choices=["table1"])
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("branch", help="alias of spectrum --branch")
    p.add_argument("--range", type=_parse_range, required=True, metavar="LO:HI:STEP")
    common(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("blayer", help="boundary-layer profiles")
    p.add_argument("--family", default="biharmonic",
                   choices=["biharmonic", "dispersion3", "heat", "pme4"])
    p.add_argument("--length", type=float, default=30.0)
    p.add_argument("--solver", default="closed", choices=["closed", "bvp"])
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_blayer)

    p = sub.add_parser("criterion", help="regularity verdict for a boundary family")
    p.add_argument("--family", required=True,
                   choices=["biharmonic", "heat", "dispersion3", "polyharmonic"])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--side", default="right", choices=["left", "right"])
    p.add_argument("--phi", required=True,
                   help="const:L | powerlog:C=..,g=.. | sqrtlog:C=.. | powertau:C=..,g=..")
    p.add_argument("--cutoff", action="store_true")
    p.add_argument("--eps-s", dest="eps_s", type=float, default=math.pi / 20.0)
    common(p)
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("simulate", help="direct rescaled-PDE run")
    p.add_argument("--family", default="biharmonic", choices=["biharmonic", "heat"])
    p.add_argument("--phi", default="const:4")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--dt", type=float)
    p.add_argument("--tau-start", dest="tau_start", type=float)
    p.add_argument("--tau-end", dest="tau_end", type=float, default=100.0)
    p.add_argument("--initial", default="bump", choices=["bump", "poly", "random-smooth"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify-P2", dest="verify_P2", action="store_true")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="bundled benchmark artifacts")
    p.add_argument("target", choices=["table1", "branch-roots", "petrovskii-heat",
                                      "critical-constants"])
    common(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except (argparse.ArgumentTypeError, ValueError, OSError, NumericsError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
