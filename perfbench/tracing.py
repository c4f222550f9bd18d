"""Span tracing of kummer's layers from outside the package.

`Tracer.install` rebinds every public function of the layer modules,
except the per-element helpers in UNTRACED, to a wrapper that records
one span per call: name, start, end, parent span and op id.  Callers reach kummer's functions through module attributes
(`quantum.eigen_spectrum`, and module globals for calls inside a
module), so rebinding the attribute also catches internal calls.  Spans
stay in memory; `write` stores them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
from time import perf_counter

LAYERS = ("cli", "quantum", "meanfield", "semiclassics", "serialize", "svgplot")

# Per-element helpers called inside other functions' loops (once per
# basis state or per root probe).  A wrapper costs about as much as their
# body, so tracing them would inflate their callers' spans; they are
# left unwrapped and their time counts towards the caller.
UNTRACED = {"meanfield.radius", "meanfield.radius_coefficient",
            "quantum.ladder_strength", "semiclassics.band_polynomial"}


def _steps(args, kwargs):
    t_end = kwargs.get("t_end", args[2] if len(args) > 2 else None)
    dt = kwargs.get("dt", args[3] if len(args) > 3 else None)
    return int(round(t_end / dt))


# Per-call quantities read from a call's arguments once it returns.
EXTRAS = {
    "quantum.eigen_spectrum": lambda args, kwargs: args[0].dim,
    "semiclassics.semiclassical_spectrum": lambda args, kwargs: args[0].dim,
    "meanfield.integrate_trajectory": _steps,
    "serialize.write_csv": lambda args, kwargs: os.path.getsize(args[0]),
    "serialize.write_json": lambda args, kwargs: os.path.getsize(args[0]),
}

NAME, START, END, PARENT, OP, FAILED, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id, failed, extra]
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self, package):
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs)
            return result

        return traced

    def write(self, path, header):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, failed_ops):
    """Per-layer counts and times named in BENCHMARK.json's per_layer list.

    `failed_ops` holds the ids of the ops that failed (non-zero exit or
    oracle miss).  WKB errors and the levels behind
    turning_points.per_level follow those op outcomes, not whether an
    exception reached a wrapper: kummer's CLI catches some errors
    itself.  Calls and busy times count failed ops too.
    """
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d
    self_time = [d - c for d, c in zip(duration, child_time)]

    def matches(pred):
        return [i for i, s in enumerate(spans) if pred(s[NAME])]

    def outermost(pred):
        """Spans matching pred with no matching ancestor: busy time counts once."""
        out = []
        for i in matches(pred):
            p = spans[i][PARENT]
            while p >= 0 and not pred(spans[p][NAME]):
                p = spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def named(name):
        return lambda n: n == name

    def calls(name):
        return len(matches(named(name)))

    def busy(pred):
        return sum(duration[i] for i in outermost(pred))

    def self_s(pred):
        return sum(self_time[i] for i in matches(pred))

    def extra_sum(pred):
        return sum(spans[i][EXTRA] for i in matches(pred))

    wkb = named("semiclassics.semiclassical_spectrum")
    wkb_top = outermost(wkb)
    wkb_ok = {i for i in wkb_top if spans[i][OP] not in failed_ops}
    levels = sum(spans[i][EXTRA] for i in wkb_ok)

    def under_ok_wkb(i):
        """Whether span i runs inside a semiclassical_spectrum call of a passing op."""
        top, p = -1, spans[i][PARENT]
        while p >= 0:
            if wkb(spans[p][NAME]):
                top = p
            p = spans[p][PARENT]
        return top in wkb_ok

    level_calls = sum(map(under_ok_wkb, matches(named("semiclassics.turning_points"))))
    out = {
        "quantum.eigen_spectrum.calls": calls("quantum.eigen_spectrum"),
        "quantum.eigen_spectrum.busy_s": busy(named("quantum.eigen_spectrum")),
        "quantum.eigen_spectrum.dim_sum": extra_sum(named("quantum.eigen_spectrum")),
        "quantum.build_operators.busy_s": busy(named("quantum.build_operators")),
        "quantum.dos_histogram.busy_s": busy(named("quantum.dos_histogram")),
        "quantum.sweep_epsilon.self_s": self_s(named("quantum.sweep_epsilon")),
        "meanfield.find_fixed_points.calls": calls("meanfield.find_fixed_points"),
        "meanfield.find_fixed_points.busy_s": busy(named("meanfield.find_fixed_points")),
        "meanfield.integrate_trajectory.busy_s": busy(named("meanfield.integrate_trajectory")),
        "meanfield.integrate_trajectory.steps": extra_sum(named("meanfield.integrate_trajectory")),
        "semiclassics.semiclassical_spectrum.calls": len(wkb_top),
        "semiclassics.semiclassical_spectrum.busy_s": busy(wkb),
        "semiclassics.semiclassical_spectrum.retries": len(matches(wkb)) - len(wkb_top),
        "semiclassics.semiclassical_spectrum.errors":
            sum(spans[i][OP] in failed_ops for i in wkb_top),
        "semiclassics.turning_points.calls": calls("semiclassics.turning_points"),
        "semiclassics.turning_points.busy_s": busy(named("semiclassics.turning_points")),
        "semiclassics.turning_points.per_level": level_calls / levels if levels else 0.0,
        "semiclassics.barrier_actions.calls": calls("semiclassics.barrier_actions"),
        "semiclassics.barrier_actions.busy_s": busy(named("semiclassics.barrier_actions")),
        "semiclassics.orbit_period.calls": calls("semiclassics.orbit_period"),
        "semiclassics.orbit_period.busy_s": busy(named("semiclassics.orbit_period")),
        "semiclassics.dos_semiclassical.busy_s": busy(named("semiclassics.dos_semiclassical")),
        "serialize.write.busy_s": busy(lambda n: n.startswith("serialize.write")),
        "serialize.write.bytes": extra_sum(lambda n: n.startswith("serialize.write")),
        "svgplot.plot.busy_s": busy(lambda n: n.startswith("svgplot.plot")),
        "cli.main.self_s": self_s(lambda n: n.startswith("cli.")),
    }
    return out
