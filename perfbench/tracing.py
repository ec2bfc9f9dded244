"""In-memory span tracing of the library's layers, from outside the program.

Each traced public function is replaced, in every ``sonophoton`` module
that binds it, by a wrapper that records a span (group, start, end,
parent, work).  ``restore`` puts every original back and verifies it,
so a traced pass leaves the library exactly as it found it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# (defining module, attribute, span group).  A group may hold several
# functions; homogeneous.closed_form covers the three closed forms.
TARGETS = (
    ("sonophoton.cli", "main", "cli.main"),
    ("sonophoton.bubble", "totals_finite", "bubble.totals_finite"),
    ("sonophoton.bubble", "spectrum_finite", "bubble.spectrum_finite"),
    ("sonophoton.specfun", "sph_jn_table", "specfun.sph_jn_table"),
    ("sonophoton.homogeneous", "spectrum_infinite", "homogeneous.spectrum_infinite"),
    ("sonophoton.homogeneous", "totals_closed_form", "homogeneous.closed_form"),
    ("sonophoton.homogeneous", "total_photons_closed_form", "homogeneous.closed_form"),
    ("sonophoton.homogeneous", "photons_from_count_formula", "homogeneous.closed_form"),
    ("sonophoton.inverse", "solve_n_in", "inverse.solve_n_in"),
    ("sonophoton.inverse", "sweep_figure1", "inverse.sweep_figure1"),
)


class TraceError(RuntimeError):
    """The tracer could not wrap or restore a name, or a traced run broke
    the expected call pattern."""


def _work(group: str, args: tuple, result) -> tuple[int, int]:
    """Work recorded with a span: (lmax, points) for a Bessel table and
    (output points, 0) for a spectrum."""
    if group == "specfun.sph_jn_table":
        return int(args[0]), int(np.asarray(args[1]).size)
    if group == "bubble.spectrum_finite" and result is not None:
        return len(result.values), 0
    return 0, 0


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sonophoton" or name.startswith("sonophoton."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, tuple[int, int]]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, group: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, parent, _work(group, args, result))

        traced.span_group = group
        return traced

    def install(self) -> None:
        modules = _library_modules()
        for module_name, attr, group in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None or hasattr(original, "span_group"):
                self.restore()
                raise TraceError(f"cannot wrap {module_name}.{attr}")
            wrapper = self._wrap(group, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        leftover = [f"{module.__name__}.{name}" for module in _library_modules()
                    for name, value in vars(module).items() if hasattr(value, "span_group")]
        if leftover:
            raise TraceError(f"names not restored: {leftover}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans) -> dict[str, float]:
    """Per-group totals of one traced pass.

    busy_s is the time covered by a group's outermost spans, self_s the
    sum over its spans of duration minus direct children.
    """
    child = [0.0] * len(spans)
    for group, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    def inside(idx: int, group: str) -> bool:
        idx = spans[idx][3]
        while idx >= 0:
            if spans[idx][0] == group:
                return True
            idx = spans[idx][3]
        return False

    for i, (group, start, end, parent, (work_a, work_b)) in enumerate(spans):
        dur = end - start
        add(f"{group}.calls", 1)
        add(f"{group}.self_s", dur - child[i])
        if not inside(i, group):
            add(f"{group}.busy_s", dur)
        if group == "specfun.sph_jn_table":
            add("specfun.sph_jn_table.evals", (work_a + 1) * work_b)
            out["specfun.sph_jn_table.lmax_max"] = max(
                out.get("specfun.sph_jn_table.lmax_max", 0), work_a)
            if inside(i, "bubble.spectrum_finite"):
                add("bubble.table_calls", 1)
                add("bubble.table_nodes", work_b)
        elif group == "bubble.spectrum_finite":
            add("bubble.output_points", work_a)
    return out
