"""Span tracing from outside the program: wrap public functions where callers bind them.

A traced call records its name, its parent span (the traced call it ran
inside), its duration and whether it raised.  Spans are aggregated in memory
by (parent, name) edge as call count, total time, self time (duration minus
the time of its traced children) and failures, and written out when the run
ends.  Nothing under ``src/`` is touched: the wrappers replace module
attributes for the duration of a traced round and are removed afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name).  Each entry is the name a caller looks up at
# call time, so wrapping it there catches every call that caller makes.
CALL_SITES = (
    ("uwbnav.cli", "run_scenario", "sim.run_scenario"),
    ("uwbnav.cli", "load_dataset", "replay.load_dataset"),
    ("uwbnav.cli", "run_replay", "replay.run_replay"),
    ("uwbnav.cli", "write_metrics_csv", "replay.write_metrics_csv"),
    ("uwbnav.cli", "write_summary_json", "replay.write_summary_json"),
    ("uwbnav.sim", "step", "observer.step"),
    ("uwbnav.sim", "error_metrics", "observer.error_metrics"),
    ("uwbnav.sim", "propagate_truth", "sim.propagate_truth"),
    ("uwbnav.sim", "synthesize_imu", "sim.synthesize_imu"),
    ("uwbnav.sim", "synthesize_tdoa", "tdoa.synthesize_tdoa"),
    ("uwbnav.sim", "solve_frame", "tdoa.solve_frame"),
    ("uwbnav.sim", "se23_exp", "liegroup.se23_exp"),
    ("uwbnav.replay", "step", "observer.step"),
    ("uwbnav.observer", "step", "observer.step"),
    ("uwbnav.replay", "solve_frame", "tdoa.solve_frame"),
    ("uwbnav.observer", "se23_exp", "liegroup.se23_exp"),
    ("uwbnav.observer", "build_triads", "sensors.build_triads"),
    ("uwbnav.observer", "solve_frame", "tdoa.solve_frame"),
    # Every Rotation(...) runs __post_init__, the SO(3) validation.
    ("uwbnav.liegroup:Rotation", "__post_init__", "liegroup.Rotation"),
)


class Tracer:
    """Collects spans; ``wrap`` returns a traced stand-in for a function."""

    def __init__(self):
        self.edges = {}  # (parent, name) -> [calls, total_ns, self_ns, failures]
        self._stack = []  # open spans: [name, ns spent in traced children]
        self.observers = {}  # span name -> callable(args, result)

    def wrap(self, name, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter_ns
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            failed = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = edges.get((parent, name))
                if record is None:
                    record = edges[(parent, name)] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                record[3] += failed
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per span name: calls, total_ns, self_ns, failures (summed over parents)."""
        out = {}
        for (_, name), (calls, total, self_ns, failures) in self.edges.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
            acc[3] += failures
        return out

    def dump(self, path, extra: dict):
        edges = [
            {"parent": parent, "name": name, "calls": c, "total_ns": t, "self_ns": s, "failures": f}
            for (parent, name), (c, t, s, f) in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        ]
        with open(path, "w") as fh:
            json.dump({"edges": edges, **extra}, fh, indent=1)
            fh.write("\n")


def _owner(spec):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def installed(tracer: Tracer):
    """Context manager that routes every call site in CALL_SITES through ``tracer``."""
    replacements = []
    for owner_name, attr, span in CALL_SITES:
        owner = _owner(owner_name)
        replacements.append((owner, attr, tracer.wrap(span, owner.__dict__[attr])))
    return patched(replacements)
