"""Span recording around the public layer functions of reglab, from outside.

The benchmark never edits the program.  Instead, :class:`Tracer` replaces
each traced layer function by a wrapper under every name its callers look
it up by (``spectral.find_root`` as well as ``numcore.find_root``), records
one span per call and restores the originals on exit.  A span holds its
name, start, end and parent; spans stay in memory and are written out once
at the end of a run.

A layer's self time is its span's duration minus the time its direct child
spans cover.  A call to a layer from inside a span of the same layer (for
example ``classify_biharmonic`` delegating to ``classify_polyharmonic``) is
one call of that layer, not two.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

# kernel arguments beyond this take the adaptive far-field quadrature or the
# fitted asymptotic instead of the vectorized Gauss-Legendre sum
FAR_Y = 12.0


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "child_s")

    def __init__(self, ident, name, start, parent):
        self.ident, self.name, self.start, self.parent = ident, name, start, parent
        self.end = start
        self.child_s = 0.0


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.counts = {}

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def layer_totals(self):
        """Self seconds per span name."""
        totals = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - s.child_s
        return totals

    def dump(self):
        """Spans as ``[id, name, start, end, parent]`` rows, seconds since creation."""
        return [[s.ident, s.name, s.start - self.t0, s.end - self.t0, s.parent]
                for s in self.spans]


def _traced(rec, name, fn, on_call=None, on_return=None, name_of=None):
    """Wrap ``fn`` so that each call records a span and its counters.

    ``on_call(rec, args, kwargs)`` may count the arguments and returns the
    arguments to pass on; ``on_return(rec, span_name, result)`` may count the
    result; ``name_of(args, kwargs)`` picks the span name per call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name_of(args, kwargs) if name_of else name
        parent = rec.stack[-1] if rec.stack else None
        if on_call is not None:
            args, kwargs = on_call(rec, args, kwargs)
        if parent is None or parent.name != span_name:
            rec.add(span_name + ".calls")
        span = Span(len(rec.spans), span_name, time.perf_counter(),
                    parent.ident if parent else None)
        rec.spans.append(span)
        rec.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            rec.stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start
        if on_return is not None:
            on_return(rec, span_name, result)
        return result

    return wrapper


def _count_root_evals(rec, args, kwargs):
    f = args[0] if args else kwargs["f"]

    def counted(x):
        rec.add("numcore.find_root.evals")
        return f(x)

    if args:
        return (counted,) + args[1:], kwargs
    return args, dict(kwargs, f=counted)


def _count_kernel_points(rec, args, kwargs):
    y = np.asarray(args[1] if len(args) > 1 else kwargs["y"], dtype=float)
    rec.add("kernels.eval.points", int(y.size))
    rec.add("kernels.eval.points_far", int(np.count_nonzero(np.abs(y) > FAR_Y)))
    return args, kwargs


def _count_steps(rec, args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    if cfg.dt is not None:
        rec.add("pdesim.steps", int(math.ceil((cfg.tau_span[1] - cfg.tau_span[0]) / cfg.dt)))
    return args, kwargs


def _count_eigenvalue(rec, span_name, result):
    rec.add("spectral.eigenvalues")


def _count_shot_eigenvalues(rec, span_name, result):
    # collocation spectra need no determinant calls, so only shooting counts
    if span_name == "spectral.interval_spectrum":
        rec.add("spectral.eigenvalues", len(result))


def _interval_spectrum_name(args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    return "spectral.collocation" if problem.method == "collocation" \
        else "spectral.interval_spectrum"


class Tracer:
    """Context manager that installs the layer wrappers for one pass."""

    def __init__(self):
        from reglab import blayer, criteria, kernels, numcore, pdesim, spectral

        # (span name, owners that expose the function, attribute, extras)
        self.targets = [
            ("numcore.find_root", (numcore, spectral), "find_root",
             {"on_call": _count_root_evals}),
            ("numcore.dense_eigenvalues", (numcore, spectral), "dense_eigenvalues", {}),
            ("kernels.eval", (kernels,), "eval_kernel", {"on_call": _count_kernel_points}),
            ("kernels.eval", (kernels,), "eval_kernel_derivative",
             {"on_call": _count_kernel_points}),
            ("kernels.fit", (kernels,), "kernel_asymptotics_fit", {}),
            ("spectral.det", (spectral.ClampedEndDeterminant,), "__call__", {}),
            ("spectral.top_eigenvalue", (spectral,), "top_eigenvalue",
             {"on_return": _count_eigenvalue}),
            ("spectral.branch_trace", (spectral,), "branch_trace", {}),
            ("spectral.interval_spectrum", (spectral,), "interval_spectrum",
             {"name_of": _interval_spectrum_name, "on_return": _count_shot_eigenvalues}),
            ("blayer.bvp", (blayer,), "solve_bl_bvp", {}),
            ("blayer.closed", (blayer,), "biharmonic_profile", {}),
            ("blayer.closed", (blayer,), "heat_profile", {}),
            ("blayer.closed", (blayer,), "dispersion_profile", {}),
            ("criteria.classify", (criteria,), "classify", {}),
            ("criteria.classify", (criteria,), "classify_biharmonic", {}),
            ("criteria.classify", (criteria,), "classify_polyharmonic", {}),
            ("criteria.classify", (criteria,), "classify_heat", {}),
            ("criteria.classify", (criteria,), "classify_dispersion", {}),
            ("criteria.diagnose_tail", (criteria,), "diagnose_tail", {}),
            ("criteria.integrate_a0", (criteria,), "integrate_a0", {}),
            ("pdesim.simulate", (pdesim,), "simulate", {"on_call": _count_steps}),
            ("pdesim.fit_rate", (pdesim,), "fit_rate", {}),
        ]
        self._saved = []

    def __enter__(self):
        rec = Recorder()
        try:
            for name, owners, attr, extras in self.targets:
                # a name the program does not define (yet) is skipped
                owners = [o for o in owners if attr in o.__dict__]
                if not owners:
                    continue
                fn = owners[0].__dict__[attr]
                wrapped = _traced(rec, name, fn, **extras)
                for owner in owners:
                    if owner.__dict__[attr] is not fn:
                        raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self.__exit__()
            raise
        return rec

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


def merged(*recorders):
    """One recorder holding the spans and counts of all of ``recorders``."""
    out = Recorder()
    for rec in recorders:
        out.spans.extend(rec.spans)
        for key, amount in rec.counts.items():
            out.add(key, amount)
    return out


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_point", "us_per_step")):
        return "us"
    if name.endswith("per_eigenvalue"):
        return "ratio"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """Per-layer metrics of one traced pass, keyed by their benchmark names."""
    c = rec.counts.get
    s = rec.layer_totals().get
    return {
        "numcore.find_root.calls": c("numcore.find_root.calls", 0),
        "numcore.find_root.evals": c("numcore.find_root.evals", 0),
        "numcore.find_root.self_s": s("numcore.find_root", 0.0),
        "numcore.dense_eigenvalues.calls": c("numcore.dense_eigenvalues.calls", 0),
        "numcore.dense_eigenvalues.self_s": s("numcore.dense_eigenvalues", 0.0),
        "kernels.eval.calls": c("kernels.eval.calls", 0),
        "kernels.eval.points": c("kernels.eval.points", 0),
        "kernels.eval.points_far": c("kernels.eval.points_far", 0),
        "kernels.eval.self_s": s("kernels.eval", 0.0),
        "kernels.eval.us_per_point": 1e6 * _ratio(s("kernels.eval", 0.0),
                                                  c("kernels.eval.points", 0)),
        "kernels.fit.calls": c("kernels.fit.calls", 0),
        "kernels.fit.self_s": s("kernels.fit", 0.0),
        "spectral.det.calls": c("spectral.det.calls", 0),
        "spectral.det.self_s": s("spectral.det", 0.0),
        "spectral.det.per_eigenvalue": _ratio(c("spectral.det.calls", 0),
                                              c("spectral.eigenvalues", 0)),
        "spectral.top_eigenvalue.calls": c("spectral.top_eigenvalue.calls", 0),
        "spectral.top_eigenvalue.self_s": s("spectral.top_eigenvalue", 0.0),
        "spectral.branch_trace.self_s": s("spectral.branch_trace", 0.0),
        "spectral.collocation.calls": c("spectral.collocation.calls", 0),
        "spectral.collocation.self_s": s("spectral.collocation", 0.0),
        "blayer.bvp.calls": c("blayer.bvp.calls", 0),
        "blayer.bvp.self_s": s("blayer.bvp", 0.0),
        "blayer.closed.calls": c("blayer.closed.calls", 0),
        "blayer.closed.self_s": s("blayer.closed", 0.0),
        "criteria.classify.calls": c("criteria.classify.calls", 0),
        "criteria.classify.self_s": s("criteria.classify", 0.0),
        "criteria.diagnose_tail.calls": c("criteria.diagnose_tail.calls", 0),
        "criteria.diagnose_tail.self_s": s("criteria.diagnose_tail", 0.0),
        "criteria.integrate_a0.calls": c("criteria.integrate_a0.calls", 0),
        "criteria.integrate_a0.self_s": s("criteria.integrate_a0", 0.0),
        "pdesim.simulate.calls": c("pdesim.simulate.calls", 0),
        "pdesim.steps": c("pdesim.steps", 0),
        "pdesim.simulate.self_s": s("pdesim.simulate", 0.0),
        "pdesim.us_per_step": 1e6 * _ratio(s("pdesim.simulate", 0.0), c("pdesim.steps", 0)),
        "pdesim.fit_rate.self_s": s("pdesim.fit_rate", 0.0),
    }
