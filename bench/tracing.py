"""Span tracing around the public functions of rsmaxwell's modules.

The tracer replaces each traced function with a wrapper that records a span
(name, start, end, parent span) and charges the span's self time, its
duration minus the time covered by its child spans, to the layer's name.
Module functions are replaced wherever a rsmaxwell module holds a reference
to them (``from .squaring import formal_solutions`` binds a second name);
methods are replaced on their class.  Spans stay in memory until
``write_spans`` is called.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

#: Layer name -> (module, attribute path) of every traced callable.
TARGETS = {
    "seeds.gradient": [("rsmaxwell.seeds", c + ".gradient")
                       for c in ("RealPlaneSeed", "ComplexPlaneSeed", "CylindricalSeed")],
    "seeds.hessian": [("rsmaxwell.seeds", c + ".hessian")
                      for c in ("RealPlaneSeed", "ComplexPlaneSeed", "CylindricalSeed")],
    "squaring.formal_solutions": [("rsmaxwell.squaring", "formal_solutions")],
    "squaring.combine": [("rsmaxwell.squaring", "combine")],
    "config.grid_points": [("rsmaxwell.config", "GridSpec.points")],
    "cli.sample": [("rsmaxwell.cli", "cmd_sample")],
    "cli.dual": [("rsmaxwell.cli", "cmd_dual")],
    "cli.read_table": [("rsmaxwell.cli", "read_field_table")],
    "cli.verify": [("rsmaxwell.cli", "cmd_verify")],
    "cli.solve": [("rsmaxwell.cli", "cmd_solve")],
    "dual.transform": [("rsmaxwell.dual", "dual_transform"),
                       ("rsmaxwell.dual", "phase_transform")],
    "verify.residual": [("rsmaxwell.verify", "maxwell_residual")],
    "verify.convergence": [("rsmaxwell.verify", "convergence_order")],
    "physicality.sample_points": [("rsmaxwell.physicality", "default_sample_points")],
    "physicality.assemble": [("rsmaxwell.physicality", "assemble_constraints")],
    "physicality.solve": [("rsmaxwell.physicality", "solve_null_space")],
}


class Tracer:
    """Installs span wrappers; collects per-layer self time and counts."""

    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[list] = []  # [span index, child time]
        self._patches: list[tuple[object, str, object]] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.field_calls = 0
        self.peak_bytes = 0

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[index] = (name_id, t0, t1, parent)
                if stack:
                    stack[-1][1] += t1 - t0
                self_s[name] += (t1 - t0) - frame[1]
                calls[name] += 1

        return traced

    def _measure_memory(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _count_field_calls(self, em_field):
        def counted_em_field(*args, **kwargs):
            field_fn = em_field(*args, **kwargs)

            def counted(p):
                self.field_calls += 1
                return field_fn(p)

            return counted

        return counted_em_field

    def install(self) -> None:
        """Wrap every traced callable in a span; ``uninstall`` restores them."""
        for name, places in TARGETS.items():
            for module_name, path in places:
                self._replace(module_name, path, lambda fn, n=name: self._wrap(n, fn))
        self._replace("rsmaxwell.squaring", "em_field", self._count_field_calls)

    def install_memory(self) -> None:
        """Record the peak traced allocation of each ``solve_null_space`` call.

        Kept apart from the spans because tracemalloc slows every allocation
        made inside, which would inflate the self times of nested layers.
        """
        self._replace("rsmaxwell.physicality", "solve_null_space", self._measure_memory)

    def _replace(self, module_name: str, path: str, wrap) -> None:
        """Replace a method on its class, or a function in every module that holds it."""
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = wrap(original)
        if outer:
            self._patch(owner, attr, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if name.startswith("rsmaxwell") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path: str) -> int:
        """Write every recorded span as ``name,start,end,parent`` lines."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name_id, t0, t1, parent in self.spans:
                fh.write(f"{self.names[name_id]},{t0:.9f},{t1:.9f},{parent}\n")
        return len(self.spans)
