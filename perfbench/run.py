"""reglab benchmark.

Run from the root of a reglab checkout (the directory that holds ``src/``)::

    python3 perfbench/run.py --workload fixed-boundary --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics.  The speed of a shared host
for the same work drifts by up to a factor of two over minutes, so both
end-to-end times are given at a fixed reference speed: every timed piece is
divided by the time of the benchmark's own reference computation
(``workloads.reference_seconds``, a mix of numerical work that the program
never runs), timed right before it in the same process, and multiplied by
``REF_S``, the reference time on the host the baseline was measured on.  A
change to reglab moves the timed piece and not the reference.

``wall_s`` is the time of one pass in a warmed process: the pass is repeated
for ``--seconds`` (at least ``MIN_PASSES`` times) and each task's median
scaled time over the passes is summed.  ``setup_s`` is the median scaled
fresh-interpreter set-up (``import reglab.cli`` plus the warm-up calls) over
``SETUP_PROBES`` interpreters, and ``peak_rss_mb`` the peak resident memory
of the process that ran the passes.  The unscaled times are printed too.

``--trace 1`` alternates untraced and traced passes.  It prints the per-layer
metrics of one traced warm-up plus one traced pass (counts exact, self times
median over the traced passes) and the tracing overhead, the traced minus the
untraced pass time, both scaled like ``wall_s``.  The spans of the traced
warm-up and of the last traced pass go to
``.perfbench_out/spans-<workload>.json``.

Every task checks its own result.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
MIN_PASSES = 3
REF_S = 0.0215  # median reference_seconds() on the 2-vCPU host of the baseline
WORKLOADS = ("fixed-boundary", "moving-wall")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="reglab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap the BLAS pools of this process and its children at the usable cores."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    return int(cores)


def setup_seconds(workloads):
    """Fresh-interpreter set-up, one probe per ``SETUP_PROBES`` interpreters.

    Returns the unscaled set-up times and those scaled to ``REF_S``.  Each
    probe is scaled by the median of five reference runs made here just
    before it started and five made in the probe just after its set-up.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        refs = [workloads.reference_seconds() for _ in range(5)]
        done = subprocess.run([sys.executable, probe, SRC], capture_output=True, text=True,
                              timeout=120, check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(sample["setup_s"])
        scaled.append(sample["setup_s"] / statistics.median(refs + sample["ref_s"]) * REF_S)
    return raw, scaled


def import_program():
    sys.path.insert(0, SRC)
    import reglab.cli  # noqa: F401  (imports every layer, as each CLI call does)

    if not os.path.abspath(reglab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported reglab from {reglab.__file__}, not from {SRC}")


def pass_seconds(passes):
    """Time of one pass at ``REF_S``: the sum over tasks of each task's median
    time over the passes, each time divided by the reference run before it."""
    return REF_S * sum(statistics.median(p[i].seconds / p[i].ref_seconds for p in passes)
                       for i in range(len(passes[0])))


def time_left(start, seconds, pass_times):
    """Whether one more pass of the median length still ends by ``seconds``."""
    if not pass_times:
        return True
    return time.perf_counter() - start + statistics.median(pass_times) <= seconds


def run_untraced(workloads, workload, inputs, seconds):
    workloads.warm_up()
    passes, pass_times = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time_left(start, seconds, pass_times):
        t0 = time.perf_counter()
        passes.append(workloads.run_pass(workloads.tasks(workload, inputs)))
        pass_times.append(time.perf_counter() - t0)
    return passes


def run_traced(workloads, tracing, workload, inputs, seconds):
    with tracing.Tracer() as setup_rec:
        workloads.warm_up()
    plain, traced, recs, pair_times = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES - 1 or time_left(start, seconds, pair_times):
        t0 = time.perf_counter()
        plain.append(workloads.run_pass(workloads.tasks(workload, inputs)))
        task_list = workloads.tasks(workload, inputs)
        with tracing.Tracer() as rec:
            traced.append(workloads.run_pass(task_list))
        recs.append(rec)
        pair_times.append(time.perf_counter() - t0)

    per_pass = [tracing.layer_metrics(tracing.merged(setup_rec, rec)) for rec in recs]
    # counts repeat exactly from pass to pass; times take the median
    metrics = {name: (statistics.median if tracing.unit(name) == "s" else statistics.median_low)(
        [m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["trace.wall_s"] = pass_seconds(traced)
    metrics["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(plain)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"spans-{workload}.json")
    with open(spans_file, "w") as fh:
        json.dump({"workload": workload, "fields": ["id", "name", "start", "end", "parent"],
                   "setup": setup_rec.dump(), "pass": recs[-1].dump()}, fh)
    print(f"traced passes {len(traced)}, untraced passes {len(plain)}, spans in {spans_file}")
    return metrics, plain + traced


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reglab", "__init__.py")):
        print(f"no reglab sources under {SRC}; run from the root of a reglab checkout",
              file=sys.stderr)
        return 2
    cores = cap_blas_threads()
    import_program()
    import tracing
    import workloads

    setup_raw, setup_scaled = setup_seconds(workloads)

    inputs = workloads.make_inputs(args.workload, args.seed)
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, inputs {json.dumps(inputs)}")
    print(f"{cores} cores, BLAS threads capped at {cores}, one caller, closed loop")

    if args.trace:
        metrics, passes = run_traced(workloads, tracing, args.workload, inputs, args.seconds)
        out = {name: {"value": value, "unit": tracing.unit(name)}
               for name, value in metrics.items()}
    else:
        passes = run_untraced(workloads, args.workload, inputs, args.seconds)
        values = {"wall_s": pass_seconds(passes), "setup_s": statistics.median(setup_scaled),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        out = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        print(f"{len(passes)} passes, unscaled " + ", ".join(
            f"{sum(r.seconds for r in p):.4f}" for p in passes) + " s, reference median "
            f"{statistics.median(r.ref_seconds for p in passes for r in p) * 1e3:.3f} ms"
            f" (REF_S {REF_S * 1e3:g} ms)")
        print("setup_s unscaled " + ", ".join(f"{s:.4f}" for s in setup_raw)
              + ", scaled " + ", ".join(f"{s:.4f}" for s in setup_scaled))

    results = [r for p in passes for r in p]
    failed = [r for r in results if not r.ok]
    for r in passes[0]:
        print(f"  {'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    for r in failed:
        print(f"FAIL {r.name}: {r.detail}")
    print(f"fail_frac {len(failed)}/{len(results)} = {len(failed) / len(results):.4g}")
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
