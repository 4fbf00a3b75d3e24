"""Spans around calls into tanglie's public functions, for the traced run.

The library has no spans of its own, so :func:`install` wraps each
function listed in ``TARGETS`` and rebinds every reference to it inside
the ``tanglie`` package.  Calls between library modules (``build_tangent``
calling ``change_basis_constants``, ``run_command`` calling a command)
are therefore timed as nested spans.  A span's self time is its duration
minus the durations of its direct children.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

TARGETS = {
    "lie_core": ("change_basis_constants", "jacobi_defect", "is_automorphism"),
    "tangent_lift": (
        "compute_phi",
        "build_tangent",
        "lifted_connection_closed_form",
        "lifted_connection_structure_constants",
        "lifted_curvature",
        "curvature_block_deviations",
        "lifted_sectional",
        "lifted_sectional_closed_forms",
    ),
    "metric_geometry": (
        "levi_civita",
        "curvature",
        "curvature_invariant_defects",
        "sectional",
        "equivariance_defect",
        "classify_field",
    ),
    "symplectic_lift": ("lift_symplectic", "verify_closedness_identities", "is_symplectic"),
    "cli_io": ("run_command", "resolve_problem"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op, name, start_ns, end_ns)
        self.stack: list[list] = []  # [span id, time spent in direct children]
        self.self_s: dict[str, list[float]] = {}
        self.next_id = 0
        self.op = -1
        self.ops = 0
        self.recording = False

    def begin_op(self) -> None:
        self.op += 1
        self.ops += 1

    def start(self) -> None:
        """Drop what set-up recorded and record from the next operation on."""
        self.spans.clear()
        self.self_s = {name: [] for name in self.self_s}
        self.op, self.ops, self.recording = -1, 0, True

    def wrap(self, name: str, fn):
        self.self_s[name] = []
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self.next_id, 0]
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append(frame)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += end - begin
                if self.recording:
                    self.spans.append((frame[0], parent, self.op, name, begin, end))
                    self.self_s[name].append((end - begin - frame[1]) * 1e-9)

        return traced

    def install(self) -> None:
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"tanglie.{module}")
            for fname in names:
                original = getattr(mod, fname)
                wrapped = self.wrap(f"{module}.{fname}", original)
                for pkg_name, pkg in list(sys.modules.items()):
                    if pkg_name != "tanglie" and not pkg_name.startswith("tanglie."):
                        continue
                    for attr, value in list(vars(pkg).items()):
                        if value is original:
                            setattr(pkg, attr, wrapped)

    def metrics(self) -> dict:
        """Median self time per call and calls per operation, per function."""
        out = {}
        for name, times in self.self_s.items():
            out[f"{name}.self_ms"] = {
                "value": statistics.median(times) * 1e3 if times else 0.0,
                "unit": "ms",
            }
            out[f"{name}.calls"] = {"value": len(times) / max(self.ops, 1), "unit": "count"}
        return out

    def write(self, path: str) -> None:
        ordered = sorted(self.spans, key=lambda s: s[4])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                       "spans": ordered}, fh)
