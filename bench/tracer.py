"""Span tracer that wraps artinlink's public functions from outside.

Modules import one another's functions by name (``girth`` is bound in
``cycles``, ``curvature``, ``smallcancel``, ``batteries`` and the
package root), so wrapping one attribute would miss most calls.  The
tracer replaces every binding of each traced function in every loaded
``artinlink`` module, and restores them all on ``uninstall``.

Each call becomes a span ``(name, parent, start, end)``, appended to an
in-memory list; parents come from a stack, since the benchmark is
single-threaded.  Self times are computed from the span tree after the
run, and the spans can be dumped as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layers named by ``<module>.<function>``; ``LinkGraph.with_angles`` is a
# method and is patched on its class.
TRACED = (
    "batteries.enumerate_oriented_states",
    "batteries.wildcard_variants",
    "batteries.enumerate_triangle_free_oriented_states",
    "batteries.graph_from_state",
    "batteries.oracle_case",
    "batteries.b2_case",
    "presentations.build_triangular",
    "complex_link.build_complex",
    "complex_link.build_link",
    "forbidden.detect_forbidden",
    "forbidden.search_orientation",
    "cycles.has_short_loop",
    "cycles.girth",
    "cycles.min_angle_cycle",
    "smallcancel.check_conditions",
    "curvature.assign_metric",
    "complex_link.LinkGraph.with_angles",
    "curvature.check_link_condition",
    "curvature.certify",
    "gamma_io.load_gamma",
    "cli.main",
)

PACKAGE = "artinlink"
ROOT = -1  # parent id of a span opened outside any traced call


def _resolve(name: str):
    """(owner object, attribute) holding the original of a traced name."""
    module_name, *path = name.split(".")
    owner = sys.modules[f"{PACKAGE}.{module_name}"]
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


class Tracer:
    """Records one span per call of each name in ``TRACED``.

    ``bindings`` counts the patched bindings of each name;
    ``link_vertices`` and ``link_edges`` sum the sizes of the links
    returned by ``complex_link.build_link``.
    """

    def __init__(self):
        self.names = TRACED
        self.spans: list[tuple[int, int, float, float]] = []
        self.link_vertices = 0
        self.link_edges = 0
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []
        self.bindings = {name: 0 for name in TRACED}

    def _wrap(self, fn, name_id: int):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        is_link = self.names[name_id] == "complex_link.build_link"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name_id, parent, start, end)
            if is_link:
                self.link_vertices += len(result.vertices)
                self.link_edges += len(result.edges)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name_id, name in enumerate(self.names):
            owner, attr = _resolve(name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name_id)
            targets = [owner] + [m for m in modules if m is not owner]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)
                        self.bindings[name] += 1

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls`` and ``self_s``, the summed span time minus
        the time covered by each span's direct children."""
        child_time = [0.0] * len(self.spans)
        for name_id, parent, start, end in self.spans:
            if parent != ROOT:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for span_id, (name_id, _, start, end) in enumerate(self.spans):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[span_id]
        return totals

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as ``[name, parent, start_s, end_s]``, with
        times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": list(self.names),
                    "spans": [
                        [n, p, round(s - origin, 9), round(e - origin, 9)]
                        for n, p, s, e in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
