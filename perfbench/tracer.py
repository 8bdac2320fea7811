"""Counters and spans recorded by wrapping nldyn's module attributes from outside.

``RateCounter`` counts the calls of the model's g made inside
``dynamics.integrate`` and the simulated time those integrations cover;
it is installed in every run, since ``rate_evals_per_t`` is an
end-to-end metric. ``Tracer`` is installed only in traced runs: it opens
a span around each call of the wrapped public functions and counts work
at the same boundaries.

A span records its name, start, end and the span open when it began.
Its self time is its duration minus that of its child spans. The span
stack is shared by all threads: the harness runs sweeps with
NLDYN_WORKERS=1, so one thread runs nldyn code at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); several attributes may share one name
SPANS = (
    ("nldyn.cli", "main", "cli.main"),
    ("nldyn.cli", "load_config", "cli.load_config"),
    ("nldyn.exprparse", "build_model", "exprparse.build_model"),
    ("nldyn.model", "validate_pair", "model.validate_pair"),
    ("nldyn.dynamics", "integrate", "dynamics.integrate"),
    ("nldyn.dynamics", "verify_trajectory", "dynamics.verify_trajectory"),
    ("nldyn.dynamics.Trajectory", "to_csv", "dynamics.to_csv"),
    ("nldyn.field", "distribution", "field.distribution"),
    ("nldyn.field", "rearrange", "field.rearrange"),
    ("nldyn.field", "integral_of", "field.integral_of"),
    ("nldyn.field", "profile_l1_distance", "field.profile_l1_distance"),
    ("nldyn.quad", "adaptive_simpson", "quad.adaptive_simpson"),
    ("nldyn.energy", "energy_limit", "energy.energy_limit"),
    ("nldyn.omega", "predict_h1", "omega.predict"),
    ("nldyn.omega", "predict_h3", "omega.predict"),
    ("nldyn.omega", "extract_limit", "omega.extract_limit"),
    ("nldyn.omega", "consistency_check", "omega.consistency_check"),
)


class _Patches:
    """Replaces an object wherever nldyn's modules (or one class) hold it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        new = make(orig)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, name)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "nldyn" or mod_name.startswith("nldyn."))
                for name, value in list(vars(mod).items())
                if value is orig
            ]
        for holder, name in holders:
            self._undo.append((holder, name, getattr(holder, name)))
            setattr(holder, name, new)
        return new

    def undo(self):
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()


def _resolve(path: str):
    """Module or class object for a dotted path such as nldyn.dynamics.Trajectory."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, cls = path.rpartition(".")
    return getattr(sys.modules[module], cls)


class RateCounter:
    """Counts g calls inside ``dynamics.integrate`` and the time it simulates."""

    def __init__(self):
        self.g_calls = 0
        self.g_atoms = 0
        self.records = 0
        self.simulated_t = 0.0
        self._depth = 0
        self._patches = _Patches()

    def install(self):
        self._patches.replace(_resolve("nldyn.dynamics"), "integrate", self._wrap_integrate)

    def uninstall(self):
        self._patches.undo()

    def _wrap_integrate(self, integrate):
        counter = self

        @functools.wraps(integrate)
        def counted_integrate(u0, pair, *args, **kwargs):
            g = pair.g

            def counted_g(values):
                if counter._depth:
                    counter.g_calls += 1
                    counter.g_atoms += getattr(values, "size", 1)
                return g(values)

            counter._depth += 1
            try:
                tr = integrate(u0, dataclasses.replace(pair, g=counted_g), *args, **kwargs)
            finally:
                counter._depth -= 1
            counter.records += len(tr.times)
            counter.simulated_t += float(tr.times[-1] - tr.times[0])
            return tr

        return counted_integrate

    def take(self) -> dict[str, float]:
        """Counts since the last take, then reset."""
        out = {"model.g.calls": self.g_calls, "model.g.atoms": self.g_atoms,
               "dynamics.records": self.records, "dynamics.simulated_t": self.simulated_t}
        self.g_calls = self.g_atoms = self.records = 0
        self.simulated_t = 0.0
        return out


class Tracer:
    """Spans around nldyn's public functions, with counts at the same boundaries."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.keep_spans = True
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patches = _Patches()

    def install(self):
        for path, attr, name in SPANS:
            make = functools.partial(self._span, name)
            if name == "quad.adaptive_simpson":
                make = lambda fn, name=name: self._span(name, self._count_integrand(fn))
            self._patches.replace(_resolve(path), attr, make)
        field = _resolve("nldyn.field.AtomField")
        self._patches.replace(field, "__init__", self._count_inits)

    def uninstall(self):
        self._patches.undo()

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, name, start, end))

        return traced

    def _count_integrand(self, simpson):
        counts = self.counts

        @functools.wraps(simpson)
        def counting_simpson(f, *args, **kwargs):
            if not getattr(f, "_perfbench_counted", False):
                inner = f

                def f(x):
                    counts["quad.integrand_evals"] += 1
                    return inner(x)

                f._perfbench_counted = True
            return simpson(f, *args, **kwargs)

        return counting_simpson

    def _count_inits(self, init):
        counts = self.counts

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            counts["field.AtomField.inits"] += 1
            return init(obj, *args, **kwargs)

        return counting_init

    def take(self) -> dict[str, float]:
        """Self times, call counts and counters since the last take, then reset."""
        out: dict[str, float] = {f"{k}.self_s": v for k, v in self.self_s.items()}
        out.update({f"{k}.calls": v for k, v in self.calls.items()})
        out.update(self.counts)
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return out
