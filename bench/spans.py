"""In-memory spans around the package's public functions, for the traced run.

A span records its name, start, end and the index of the span that was open
when it started. Spans stay in memory and are written out once, when the
repetition ends. Counters are taken at the same boundaries, from the
arguments and results of the wrapped call.

Wrappers go on the defining module and on every module that bound the same
object by name (the package namespace, and report_cli, which imports its
solvers with `from .x import name`), so calls made inside the package are
seen as well as the benchmark's own.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time

# module -> public functions wrapped, in the order the layer table lists them
TARGETS = {
    "hjbvi": ("howard_solve", "residual_check"),
    "first_best": ("principal_value_fb", "solve_lagrange", "reservation_integral",
                   "continuation_boundary"),
    "simulate": ("mc_principal_value", "simulate_paths"),
    "report_cli": ("cli_dispatch", "write_csv", "value_of_information", "sigma_sweep"),
}

# counters read off a call: span name -> (counter name, f(args, result))
_COUNTERS = {
    "hjbvi.howard_solve": ("hjbvi.sweeps", lambda args, out: out.iterations),
    "simulate.mc_principal_value": ("simulate.paths", lambda args, out: out.n_paths),
    "simulate.simulate_paths": ("simulate.path_steps",
                                lambda args, out: sum(b.w_increments.size for b in out)),
    "report_cli.write_csv": ("report_cli.csv_bytes",
                             lambda args, out: os.path.getsize(args[0])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever the package bound it by name."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in TARGETS}
        for layer, names in TARGETS.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for mod in (package, *modules.values()):
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover.

        Spans come from one thread, so children of one parent never overlap
        and are listed in start order; the union is their summed length.
        """
        covered = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(len(self.names))]

    def summary(self) -> dict:
        """Inclusive time and calls per span name, self time per layer, counters."""
        total = collections.defaultdict(float)
        calls = collections.Counter()
        layer_self = collections.defaultdict(float)
        for name, t0, t1, own in zip(self.names, self.starts, self.ends, self.self_times()):
            total[name] += t1 - t0
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
        return {"time_s": dict(total), "calls": dict(calls),
                "self_s": dict(layer_self), "counts": dict(self.counts)}

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index, self time."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, own in enumerate(self.self_times()):
                fh.write(json.dumps({"i": i, "name": self.names[i],
                                     "start": self.starts[i] - origin,
                                     "end": self.ends[i] - origin,
                                     "parent": self.parents[i], "self": own}) + "\n")
