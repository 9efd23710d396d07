"""Span tracing of flowmesh's layers from outside the library.

Public functions are wrapped where their callers look them up (module
attributes such as ``flowmesh.deform.sample_grid``), so nothing under
``src/`` changes.  Spans (name, start, end, parent, count) stay in memory;
self time is a span's duration minus the durations of its direct children.
The workflow is single-threaded, so one stack of open spans suffices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


def _rows(points) -> int:
    return len(points) if getattr(points, "ndim", 2) == 2 else 1


# (module, attribute, span name, count function or None).  The count records
# work done by the call: points, queries, faces, cells or a 0/1 flag.
WRAPPED = [
    ("flowmesh.cli", "load_obj", "mesh.load_obj", None),
    ("flowmesh.cli", "store_obj", "mesh.store_obj", None),
    ("flowmesh.cli", "topology_report", "mesh.topology_report", None),
    ("flowmesh.metrics.voxel", "topology_report", "mesh.topology_report", None),
    ("flowmesh.cli", "load_flow", "flow_field.load_flow", None),
    ("flowmesh.cli", "stability_estimate", "flow_field.stability", None),
    ("flowmesh.deform", "stability_estimate", "flow_field.stability", None),
    ("flowmesh.fit", "stability_from_grid", "flow_field.stability", None),
    ("flowmesh.deform", "sample_grid", "flow_field.sample_grid",
     lambda geometry, data64, points: _rows(points)),
    ("flowmesh.fit", "sample_grid", "flow_field.sample_grid",
     lambda geometry, data64, points: _rows(points)),
    ("flowmesh.cli", "apply_chain", "deform.apply_chain", None),
    ("flowmesh.fit", "apply_chain", "deform.apply_chain", None),
    ("flowmesh.deform", "integrate", "deform.integrate", None),
    ("flowmesh.deform", "invert_step", "deform.invert_step",
     lambda field, y, h, *a, **k: _rows(y)),
    ("flowmesh.cli", "fit_pipeline", "fit.pipeline", None),
    ("flowmesh.fit", "forward_loss", "fit.forward_loss",
     lambda params, problem, draw=None: int(draw is not None)),
    ("flowmesh.fit", "backward", "fit.backward", None),
    ("flowmesh.cli", "sample_surface", "metrics.sample_surface",
     lambda mesh, n, seed=0: int(n)),
    ("flowmesh.fit", "sample_surface", "metrics.sample_surface",
     lambda mesh, n, seed=0: int(n)),
    ("flowmesh.metrics.sampling", "draw_surface_samples",
     "metrics.draw_surface_samples", None),
    ("flowmesh.fit", "draw_surface_samples", "metrics.draw_surface_samples", None),
    ("flowmesh.metrics.distances", "nearest_neighbor_indices",
     "metrics.nearest_neighbor_indices", lambda queries, targets: len(queries)),
    ("flowmesh.cli", "chamfer", "metrics.chamfer", None),
    ("flowmesh.cli", "hausdorff", "metrics.hausdorff", None),
    ("flowmesh.cli", "chamfer_normals", "metrics.chamfer_normals", None),
    ("flowmesh.cli", "self_intersecting_faces", "metrics.self_intersecting_faces",
     lambda mesh: mesh.face_count),
    ("flowmesh.metrics.intersection", "triangles_intersect",
     "metrics.triangles_intersect", None),
    ("flowmesh.cli", "voxelize", "metrics.voxelize",
     lambda mesh, geometry, supersample=1: _cell_count(geometry, supersample)),
]


def _cell_count(geometry, supersample) -> int:
    s = int(supersample)
    n = 1
    for dim in geometry.dims:
        n *= (dim - 1) * s
    return n


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counts.append(0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int, count: int = 0) -> None:
        self.ends[index] = time.perf_counter()
        self.counts[index] = count
        self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index, count(*args, **kwargs) if count else 0)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, count in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(
                self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
            )
            duration = self.ends[i] - self.starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[i]
            row["count"] += self.counts[i]
        return out

    def child_count(self, parent_name: str, child_name: str) -> int:
        """Summed counts of `child_name` spans whose parent is `parent_name`."""
        return sum(
            self.counts[i]
            for i in range(len(self.names))
            if self.names[i] == child_name
            and self.parents[i] >= 0
            and self.names[self.parents[i]] == parent_name
        )


# Bytes the trilinear gather reads per sampled point, as computed (not
# measured): 8 corners x 3 components x 8-byte float64.
GATHER_BYTES_PER_POINT = 8 * 3 * 8


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (see perfbench/README.md)."""
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    sg = "flow_field.sample_grid"
    nn = "metrics.nearest_neighbor_indices"
    sif = "metrics.self_intersecting_faces"
    inv = "deform.invert_step"
    inv_points = get(inv, "count")
    iterations = get("fit.backward", "calls")
    candidates = get("fit.forward_loss", "count")
    return {
        "cli.self_s": get("cli.main", "self_s"),
        f"{sg}.self_s": get(sg, "self_s"),
        f"{sg}.calls": get(sg, "calls"),
        f"{sg}.points": get(sg, "count"),
        f"{sg}.points_per_s": rate(get(sg, "count"), get(sg, "self_s")),
        f"{sg}.gather_bytes_computed": get(sg, "count") * GATHER_BYTES_PER_POINT,
        "flow_field.stability.self_s": get("flow_field.stability", "self_s"),
        "flow_field.stability.calls": get("flow_field.stability", "calls"),
        "flow_field.load_flow.self_s": get("flow_field.load_flow", "self_s"),
        "deform.apply_chain.self_s": get("deform.apply_chain", "self_s"),
        "deform.integrate.self_s": get("deform.integrate", "self_s"),
        f"{inv}.self_s": get(inv, "self_s"),
        f"{inv}.calls": get(inv, "calls"),
        f"{inv}.evals_per_point": (
            tracer.child_count(inv, sg) / inv_points if inv_points else 0.0
        ),
        "fit.pipeline.self_s": get("fit.pipeline", "self_s"),
        "fit.forward_loss.self_s": get("fit.forward_loss", "self_s"),
        "fit.forward_loss.calls": get("fit.forward_loss", "calls"),
        "fit.backward.self_s": get("fit.backward", "self_s"),
        "fit.backward.calls": get("fit.backward", "calls"),
        "fit.iterations": iterations,
        "fit.candidate_evals": candidates,
        "fit.gate_rejects": iterations - candidates,
        f"{nn}.self_s": get(nn, "self_s"),
        f"{nn}.calls": get(nn, "calls"),
        f"{nn}.queries": get(nn, "count"),
        f"{nn}.queries_per_s": rate(get(nn, "count"), get(nn, "self_s")),
        f"{sif}.self_s": get(sif, "self_s"),
        f"{sif}.faces_per_s": rate(get(sif, "count"), get(sif, "self_s")),
        "metrics.triangles_intersect.calls": get(
            "metrics.triangles_intersect", "calls"),
        "metrics.voxelize.self_s": get("metrics.voxelize", "self_s"),
        "metrics.voxelize.cells_computed": get("metrics.voxelize", "count"),
        "metrics.sample_surface.self_s": get("metrics.sample_surface", "self_s"),
        "metrics.sample_surface.points": get("metrics.sample_surface", "count"),
        "metrics.draw_surface_samples.self_s": get(
            "metrics.draw_surface_samples", "self_s"),
        "metrics.chamfer.s": get("metrics.chamfer", "total_s"),
        "metrics.hausdorff.s": get("metrics.hausdorff", "total_s"),
        "metrics.chamfer_normals.s": get("metrics.chamfer_normals", "total_s"),
        "mesh.load_obj.self_s": get("mesh.load_obj", "self_s"),
        "mesh.store_obj.self_s": get("mesh.store_obj", "self_s"),
        "mesh.topology_report.self_s": get("mesh.topology_report", "self_s"),
    }


# Every per-layer metric a traced run reports: name -> (unit, better).
# Workloads that make no such calls report 0.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "flow_field.sample_grid.self_s": ("s", "lower"),
    "flow_field.sample_grid.calls": ("count", "lower"),
    "flow_field.sample_grid.points": ("count", "lower"),
    "flow_field.sample_grid.points_per_s": ("1/s", "higher"),
    "flow_field.sample_grid.gather_bytes_computed": ("B", "lower"),
    "flow_field.stability.self_s": ("s", "lower"),
    "flow_field.stability.calls": ("count", "lower"),
    "flow_field.load_flow.self_s": ("s", "lower"),
    "deform.apply_chain.self_s": ("s", "lower"),
    "deform.integrate.self_s": ("s", "lower"),
    "deform.invert_step.self_s": ("s", "lower"),
    "deform.invert_step.calls": ("count", "lower"),
    "deform.invert_step.evals_per_point": ("ratio", "lower"),
    "deform.in_process_round_trip_error": ("length", "lower"),
    "fit.pipeline.self_s": ("s", "lower"),
    "fit.forward_loss.self_s": ("s", "lower"),
    "fit.forward_loss.calls": ("count", "lower"),
    "fit.backward.self_s": ("s", "lower"),
    "fit.backward.calls": ("count", "lower"),
    "fit.iterations": ("count", "lower"),
    "fit.candidate_evals": ("count", "higher"),
    "fit.gate_rejects": ("count", "lower"),
    "fit.fitted_chamfer": ("length", "lower"),
    "metrics.nearest_neighbor_indices.self_s": ("s", "lower"),
    "metrics.nearest_neighbor_indices.calls": ("count", "lower"),
    "metrics.nearest_neighbor_indices.queries": ("count", "lower"),
    "metrics.nearest_neighbor_indices.queries_per_s": ("1/s", "higher"),
    "metrics.self_intersecting_faces.self_s": ("s", "lower"),
    "metrics.self_intersecting_faces.faces_per_s": ("1/s", "higher"),
    "metrics.triangles_intersect.calls": ("count", "lower"),
    "metrics.voxelize.self_s": ("s", "lower"),
    "metrics.voxelize.cells_computed": ("count", "lower"),
    "metrics.sample_surface.self_s": ("s", "lower"),
    "metrics.sample_surface.points": ("count", "lower"),
    "metrics.draw_surface_samples.self_s": ("s", "lower"),
    "metrics.chamfer.s": ("s", "lower"),
    "metrics.hausdorff.s": ("s", "lower"),
    "metrics.chamfer_normals.s": ("s", "lower"),
    "mesh.load_obj.self_s": ("s", "lower"),
    "mesh.store_obj.self_s": ("s", "lower"),
    "mesh.topology_report.self_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
