"""Spans around the package's layers, recorded from outside the package.

Each traced function is replaced, for the duration of a traced run, at the
module attribute its callers look up (``benchpursuit.optimize.index`` rather
than ``benchpursuit.projection_index.index``), so the package itself is not
changed. A span records its name, start, end and parent span; the layer is
the part of the name before the first dot. Counts of work (median
iterations, SDF pairs, Sobol points, bytes) are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _rows(arr) -> int:
    return len(getattr(arr, "points", arr))


class Tracer:
    """In-memory span recorder; spans are written out once the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` tallies its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def install(self) -> None:
        """Wrap every traced layer boundary of the `run` command."""
        import benchpursuit.cli as cli
        import benchpursuit.optimize as optimize
        import benchpursuit.pipeline as pipeline
        import benchpursuit.projection_index as projection_index
        import benchpursuit.spatial as spatial

        def median_work(c, args, res):
            c["spatial.spatial_median.iterations"] += res.iterations
            c["spatial.spatial_median.nonconverged"] += not res.converged

        def sdf_pairs(c, args, res):
            c["spatial.estimate_sdf_batch.pairs"] += _rows(args[0]) * _rows(args[1])

        def csv_bytes(c, args, res):
            with open(args[0], "rb") as fh:
                c["dataio.ingest_csv.bytes"] += fh.seek(0, 2)

        def svg_bytes(c, args, res):
            c["svgplot.emit_svg.bytes"] += len(res)  # ASCII text: one byte per character

        def sobol_points(c, args, res):
            c["sobol.points"] += len(res)

        self.patch(cli, "run", "pipeline.run")
        self.patch(pipeline, "ingest_csv", "dataio.ingest_csv", csv_bytes)
        self.patch(pipeline, "standardize_columns", "dataio.standardize_columns")
        self.patch(pipeline, "build_benchmark", "benchmarks.build_benchmark")
        self.patch(pipeline, "run_search", "optimize.run_search")
        self.patch(pipeline, "refine_index", "projection_index.refine_index")
        self.patch(pipeline, "emit_svg", "svgplot.emit_svg", svg_bytes)
        self.patch(optimize, "index", "projection_index.index")
        self.patch(optimize, "anneal_search", "optimize.anneal_search")
        self.patch(optimize, "geodesic_search", "optimize.geodesic_search")
        self.patch(optimize, "random_frame", "optimize.random_frame")
        self.patch(optimize, "orthonormalize", "frames.orthonormalize")
        # A span of its own, so that pooling and sorting stay out of
        # projection_index.self_s (ball map and projection).
        self.patch(projection_index, "combined_region", "spatial.combined_region")
        self.patch(projection_index, "map_to_ball", "projection_index.map_to_ball")
        self.patch(projection_index, "estimate_sdf_batch", "spatial.estimate_sdf_batch", sdf_pairs)
        self.patch(spatial, "spatial_median", "spatial.spatial_median", median_work)

        base = projection_index.SobolStream
        tracer = self

        class TracedSobolStream(base):
            __init__ = tracer.wrap("sobol.SobolStream", base.__init__)
            take = tracer.wrap("sobol.take", base.take, sobol_points)

        self._restore.append((projection_index, "SobolStream", base))
        projection_index.SobolStream = TracedSobolStream

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, fh) -> None:
        """Write the recorded spans as JSON lines (id, name, start, end, parent)."""
        for sid, (name, parent, start, end) in enumerate(self.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")

    def summary(self) -> dict[str, float]:
        """Calls, inclusive and self time per span name and self time per layer.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it on this single thread.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, parent, start, end) in enumerate(self.spans):
            own = end - start - child[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        out.update(self.counts)
        return out
