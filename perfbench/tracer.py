"""Spans around the public functions of ``gwgauss``, installed from outside.

:func:`install` replaces every name that binds one of the traced functions
(its defining module, each ``gwgauss`` module that imported it by name, and
the package itself) with a wrapper that records a span.  Calls between
layers therefore nest as child spans.  Spans stay in memory until the run
ends; :meth:`Tracer.layer_metrics` turns them into per-layer counts and self
times, where self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# module -> traced public functions
TRACED = {
    "gaussmodel": ("gaussian_mi",),
    "cvf": ("decompose",),
    "wyner": ("common_information", "in_state_family", "mi_given_state"),
    "realize": ("optimal_state", "family_realization", "test_channel", "sample", "sqrt_psd"),
    "rdf": ("marginal_rdf", "conditional_rdf", "joint_rdf", "gray_lower_bound"),
    "graywyner": ("pangloss_triple", "region_sweep"),
    "mc_oracle": ("validate_realization", "validate_distortion"),
}

CLI_COMMANDS = ("demo-random", "cvf", "common-info", "realize", "simulate", "rdf", "region")


def _joint_path(result) -> str:
    # both the restricted solve and its "infeasible-region" tag come from
    # the numerical path; only the closed form skips it
    return "closed_form" if result.regime == "closed-form-DW" else "numerical"


def _sample_mbytes(block) -> float:
    # computed from the returned array shapes, not measured
    arrays = [getattr(block, k) for k in ("y1", "y2", "w", "z1", "z2", "v", "yhat1", "yhat2")]
    return sum(a.size * a.itemsize for a in arrays if a is not None) / 1e6


# span name suffix chosen from the result, and a number recorded from it
SUFFIX = {"rdf.joint_rdf": _joint_path}
PAYLOAD = {"realize.sample": _sample_mbytes, "graywyner.region_sweep": len}


class Tracer:
    """Records one span per traced call: name, start, end, parent, payload."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float]] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()

    def wrap(self, name: str, fn):
        suffix = SUFFIX.get(name)
        payload = PAYLOAD.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            stack.append(slot)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                t1 = time.perf_counter()
            except BaseException:
                spans[slot] = (f"{name}.raised", t0, time.perf_counter(), parent, 0.0)
                raise
            finally:
                stack.pop()
            label = f"{name}.{suffix(out)}" if suffix else name
            spans[slot] = (label, t0, t1, parent, payload(out) if payload else 0.0)
            return out

        traced.__wrapped_by_perfbench__ = True
        return traced

    def add_span(self, name: str, t0: float, t1: float, payload: float = 0.0) -> None:
        """Record a top-level span measured outside any wrapper."""
        self.spans.append((name, t0, t1, -1, payload))

    def install(self) -> None:
        """Wrap every traced function at every name that binds it."""
        modules = {k: m for k, m in sys.modules.items()
                   if k == "gwgauss" or k.startswith("gwgauss.")}
        for mod, names in TRACED.items():
            home = modules[f"gwgauss.{mod}"]
            for fname in names:
                orig = getattr(home, fname)
                if getattr(orig, "__wrapped_by_perfbench__", False):
                    continue
                wrapped = self.wrap(f"{mod}.{fname}", orig)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapped)

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def load(self, path) -> None:
        """Append spans written by :meth:`dump` in another process."""
        base = len(self.spans)
        with open(path) as fh:
            for line in fh:
                name, t0, t1, parent, payload = json.loads(line)
                self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, payload))

    def layer_metrics(self) -> dict[str, float]:
        """Per-name call counts, self times and the derived sweep/sample figures."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        payload: dict[str, float] = {}
        for i, (name, t0, t1, parent, load) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (t1 - t0 - child_time[i])
            payload[name] = payload.get(name, 0.0) + load
        # mi_given_state calls whose ancestors include a sweep span
        in_sweep = [False] * len(self.spans)
        evals = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                in_sweep[i] = in_sweep[parent] or self.spans[parent][0] == "graywyner.region_sweep"
            if in_sweep[i] and name == "wyner.mi_given_state":
                evals += 1
        out: dict[str, float] = {}
        for mod, names in TRACED.items():
            for fname in names:
                key = f"{mod}.{fname}"
                labels = ([f"{key}.closed_form", f"{key}.numerical"]
                          if key in SUFFIX else [key])
                for label in labels:
                    out[f"{label}.calls"] = calls.get(label, 0)
                    out[f"{label}.self_ms"] = self_ms.get(label, 0.0)
        points = payload.get("graywyner.region_sweep", 0.0)
        out["graywyner.region_sweep.evals_per_point"] = evals / points if points else 0.0
        out["realize.sample.mbytes"] = payload.get("realize.sample", 0.0)
        for cmd in CLI_COMMANDS:
            for part in ("import", "work"):
                durations = [t1 - t0 for name, t0, t1, _, _ in self.spans
                             if name == f"cli.{cmd}.{part}"]
                out[f"cli.{cmd}.{part}_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        return out
