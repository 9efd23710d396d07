"""The three workloads: inputs made from the workload seed, the CLI calls of
one round, and the checks applied to every round's outputs.

Each workload writes its inputs into a work directory, names the argv of the
``flowmesh`` calls that make up one round (``{round}`` in an argv entry is
replaced by the round index, so rounds never share output files), and checks
the outputs afterwards, outside the timed region.  Checks return a list of
problems; an empty list means the round passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# The ROADMAP guarantee for an in-memory forward-then-inverse round trip.
IN_PROCESS_ROUND_TRIP_TOL = 1e-9
# The CLI round trip passes through two OBJ files written with 9 significant
# digits (relative rounding <= 5e-9 each, so <= 3e-9 per coordinate at
# |x| <= 0.6), and the inverse chain can amplify the first rounding.  It
# measured 8.3e-9; the bound leaves an order of magnitude for amplification.
CLI_ROUND_TRIP_TOL = 1e-7
# Relative rounding of one '%.9g' coordinate, with slack for the parse.
OBJ_RELATIVE_ROUNDING = 5e-9 * (1.0 + 1e-6)

# Cells per axis of the exact-NN oracle's grid (tens of points per cell at 50k).
GRID_CELLS = 16
FIT_CHAMFER_SAMPLES = 20000
FIT_CHAMFER_SEED = 20221


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and 0-based triangle faces of a v/f-only OBJ file.

    Deliberately independent of ``flowmesh.mesh.load_obj``.
    """
    v_rows, f_rows = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                v_rows.append(line[2:])
            elif line.startswith("f "):
                f_rows.append(line[2:])
    verts = np.array(" ".join(v_rows).split(), dtype=np.float64).reshape(-1, 3)
    faces = np.array(" ".join(f_rows).split(), dtype=np.int64).reshape(-1, 3) - 1
    return verts, faces


def gated_field(dims, lower, upper, seed, steps):
    """Random zero-boundary field scaled so that h * L_safe == 0.5.

    Built the same way as ``make_gated_field`` in ``tests/conftest.py``.
    """
    from flowmesh import (
        FlowField, GridGeometry, enforce_zero_boundary, stability_estimate,
    )

    dims = tuple(dims)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    spacing = tuple((upper[a] - lower[a]) / (dims[a] - 1) for a in range(3))
    geometry = GridGeometry(dims, tuple(lower), spacing)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=dims + (3,)).astype(np.float32)
    field = enforce_zero_boundary(FlowField(geometry, data))
    scale = 0.5 * steps / stability_estimate(field).lipschitz_safe
    return FlowField(geometry, field.data * np.float32(scale))


def _min_sq_distances(q: np.ndarray, cand: np.ndarray):
    """Per query: smallest |c|^2 - 2 q.c over candidates, and its error margin."""
    part = cand @ (-2.0 * q.T)
    part += np.einsum("ij,ij->i", cand, cand)[:, None]
    best = part.min(axis=0)
    # rounding error of the expanded form, with a wide safety factor
    margin = 1e-12 * (1.0 + np.einsum("ij,ij->i", q, q) + np.abs(part).max(axis=0))
    return part, best, margin


def exact_nn_distances(queries: np.ndarray, targets: np.ndarray):
    """Exact nearest-target distance of every query, without a k-d tree.

    Points are bucketed into a GRID_CELLS^3 grid.  For each occupied query
    cell, the targets of the neighbouring cells give an upper bound U on the
    nearest distance of every query in the cell; every target within U of
    the cell lies in the cells overlapping the cell's box grown by U, and
    those are searched all-pairs.  Per query, every candidate within a
    rounding margin of the smallest expanded-form distance is then measured
    as ``np.linalg.norm(q - t)`` and the minimum kept, so the result is the
    exact minimum of that expression over all targets.
    """
    cells = GRID_CELLS
    lo = np.minimum(queries.min(axis=0), targets.min(axis=0))
    hi = np.maximum(queries.max(axis=0), targets.max(axis=0))
    size = np.maximum(hi - lo, 1e-12) / cells * (1.0 + 1e-9)

    def cell_of(points):
        return np.minimum(((points - lo) / size).astype(np.int64), cells - 1)

    def flat(c):
        return (c[..., 0] * cells + c[..., 1]) * cells + c[..., 2]

    t_order = np.argsort(flat(cell_of(targets)), kind="stable")
    t_sorted = targets[t_order]
    t_starts = np.searchsorted(flat(cell_of(t_sorted)), np.arange(cells**3 + 1))

    def targets_in(c_lo, c_hi):
        c_lo = np.maximum(c_lo, 0)
        c_hi = np.minimum(c_hi, cells - 1)
        parts = [
            t_sorted[t_starts[(i * cells + j) * cells + c_lo[2]]
                     : t_starts[(i * cells + j) * cells + c_hi[2] + 1]]
            for i in range(c_lo[0], c_hi[0] + 1)
            for j in range(c_lo[1], c_hi[1] + 1)
        ]
        return np.concatenate(parts)

    q_cells = cell_of(queries)
    q_flat = flat(q_cells)
    q_order = np.argsort(q_flat, kind="stable")
    bounds = np.flatnonzero(np.diff(q_flat[q_order])) + 1
    out = np.empty(len(queries))
    for group in np.split(q_order, bounds):
        q = queries[group]
        c = q_cells[group[0]]
        ring = 1
        near = targets_in(c - ring, c + ring)
        while len(near) == 0:
            ring += 1
            near = targets_in(c - ring, c + ring)
        _, best, margin = _min_sq_distances(q, near)
        sq_q = np.einsum("ij,ij->i", q, q)
        upper = np.sqrt(np.maximum(best + sq_q + margin, 0.0).max())
        upper = upper * (1 + 1e-9) + 1e-12
        box_lo = lo + c * size - upper
        box_hi = lo + (c + 1) * size + upper
        cand = targets_in(
            np.floor((box_lo - lo) / size).astype(np.int64),
            np.floor((box_hi - lo) / size).astype(np.int64),
        )
        part, best, margin = _min_sq_distances(q, cand)
        rows, cols = np.nonzero(part <= best + margin)
        d = np.linalg.norm(q[cols] - cand[rows], axis=1)
        exact = np.full(len(q), np.inf)
        np.minimum.at(exact, cols, d)
        out[group] = exact
    return out


def cloud_oracle(a: np.ndarray, b: np.ndarray, cache_dir: Path) -> dict:
    """Exact chamfer and Hausdorff of two clouds, cached by content.

    The oracle is a pure function of the two clouds, so a result cached
    under their hash is valid for any program version.
    """
    key = hashlib.sha256(a.tobytes() + b"|" + b.tobytes()).hexdigest()[:32]
    path = cache_dir / f"oracle-{key}.json"
    if path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            return {k: float.fromhex(v) for k, v in json.load(fh).items()}
    d_ab = exact_nn_distances(a, b)
    d_ba = exact_nn_distances(b, a)
    result = {
        "chamfer": 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba))),
        "hausdorff": max(float(d_ab.max()), float(d_ba.max())),
    }
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({k: v.hex() for k, v in result.items()}, fh)
    tmp.replace(path)
    return result


def _schema_errors(instance, schema_name: str) -> list[str]:
    import jsonschema
    from flowmesh.cli import load_schema

    validator = jsonschema.Draft202012Validator(load_schema(schema_name))
    return [f"{schema_name}: {e.message}" for e in validator.iter_errors(instance)]


class Workload:
    """Base class: subclasses set ``name`` and implement the three hooks."""

    name = ""
    CALL_NAMES: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int, cache_dir: Path):
        self.work = work
        self.seed = seed
        self.cache_dir = cache_dir
        (work / "out").mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        """Write the inputs into the work directory."""
        raise NotImplementedError

    def round_argv(self) -> list[list[str]]:
        """The flowmesh argv of each call in one round, in order."""
        raise NotImplementedError

    def run_checks(self) -> tuple[int, list[str]]:
        """Checks made once per run; returns (operations, problems)."""
        return 0, []

    def check_round(self, index: int, exit_codes: list[int]) -> list[str]:
        raise NotImplementedError

    def working_sets(self) -> dict[str, int]:
        """Computed sizes in bytes of the hot data, for the environment record."""
        return {}

    def quality(self) -> dict[str, float]:
        """Deterministic result-quality figures gathered by the checks."""
        return {}

    def _path(self, name: str) -> str:
        return str(self.work / name)


def _ellipsoid(level: int):
    """Icosphere of the given level scaled by (1, 0.8, 0.65)."""
    from flowmesh import icosphere

    base = icosphere(level)
    return base.with_vertices(base.vertices * np.array([1.0, 0.8, 0.65]))


class FitEllipsoid(Workload):
    """``flowmesh fit`` on the acceptance-criterion-6 sphere-to-ellipsoid task."""

    name = "fit_ellipsoid"
    CALL_NAMES = ("fit_s",)
    STAGES = [
        {"grid_dims": [8, 8, 8], "steps": 8, "iterations": 60, "step_size": 0.3,
         "template_subdivision_level": 0},
        {"grid_dims": [12, 12, 12], "steps": 8, "iterations": 40, "step_size": 0.3,
         "template_subdivision_level": 1},
    ]

    def prepare(self) -> None:
        from flowmesh import icosphere, store_obj

        store_obj(icosphere(3), self._path("template.obj"))
        store_obj(_ellipsoid(4), self._path("target.obj"))
        config = {
            "stages": self.STAGES,
            "loss_weights": {"chamfer": 1.0, "edge": 1.0},
            "sample_count": 2500,
            "seed": self.seed,
        }
        with open(self._path("fit.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self._chamfers: list[float] = []
        self._first_trace: bytes | None = None

    def round_argv(self):
        return [[
            "fit", "--template", self._path("template.obj"),
            "--target", self._path("target.obj"), "--config", self._path("fit.json"),
            "--out-dir", self._path("out/r{round}"),
        ]]

    def _chamfer_to_target(self, mesh) -> float:
        from flowmesh import load_obj
        from flowmesh.metrics import chamfer, sample_surface

        target = load_obj(self._path("target.obj"))
        return chamfer(
            sample_surface(mesh, FIT_CHAMFER_SAMPLES, FIT_CHAMFER_SEED),
            sample_surface(target, FIT_CHAMFER_SAMPLES, FIT_CHAMFER_SEED),
        )

    def run_checks(self):
        from flowmesh import load_obj

        self._initial = self._chamfer_to_target(load_obj(self._path("template.obj")))
        return 0, []

    def check_round(self, index, exit_codes):
        from flowmesh import TriangleMesh, topology_report
        from flowmesh.metrics import self_intersecting_faces

        if exit_codes != [0]:
            return [f"exit codes {exit_codes}"]
        out = self.work / "out" / f"r{index}"
        problems = []
        with open(out / "manifest.json", "r", encoding="utf-8") as fh:
            problems += _schema_errors(json.load(fh), "chain_manifest.schema.json")
        trace_bytes = (out / "trace.jsonl").read_bytes()
        lines = trace_bytes.decode("utf-8").splitlines()
        expected = sum(s["iterations"] for s in self.STAGES)
        if len(lines) != expected:
            problems.append(f"trace has {len(lines)} lines, expected {expected}")
        for line in lines:
            problems += _schema_errors(json.loads(line), "fit_trace_record.schema.json")
        if self._first_trace is None:
            self._first_trace = trace_bytes
        elif trace_bytes != self._first_trace:
            problems.append("trace differs from the first round of the same seed")
        mesh = TriangleMesh(*read_obj(out / "fitted.obj"))
        genus = topology_report(mesh).genus
        if genus != 0:
            problems.append(f"fitted genus {genus}, expected 0")
        sif_count, _ = self_intersecting_faces(mesh)
        if sif_count != 0:
            problems.append(f"fitted mesh has {sif_count} self-intersecting faces")
        fitted = self._chamfer_to_target(mesh)
        self._chamfers.append(fitted)
        if not fitted < 0.25 * self._initial:
            problems.append(
                f"fit chamfer {fitted:.6g} not below a quarter of the initial "
                f"{self._initial:.6g}"
            )
        return problems

    def quality(self):
        return {"fit.fitted_chamfer": self._chamfers[0]} if self._chamfers else {}

    def working_sets(self):
        return {
            f"grid_{n}^3_float64": n**3 * 3 * 8
            for n in (s["grid_dims"][0] for s in self.STAGES)
        }


class Metrics50k(Workload):
    """``flowmesh metrics`` on a level-6 sphere against its ellipsoid."""

    name = "metrics_50k"
    CALL_NAMES = ("metrics_s",)
    SAMPLES = 50000

    def prepare(self) -> None:
        from flowmesh import icosphere, store_obj

        store_obj(icosphere(6), self._path("pred.obj"))
        store_obj(_ellipsoid(6), self._path("gt.obj"))

    def round_argv(self):
        return [[
            "metrics", "--pred", self._path("pred.obj"), "--gt", self._path("gt.obj"),
            "--samples", str(self.SAMPLES), "--seed", str(self.seed),
            "--voxel-dims", "17", "17", "17",
            "--voxel-spacing", "0.15", "0.15", "0.15",
            "--out", self._path("out/r{round}.json"),
        ]]

    def run_checks(self):
        from flowmesh import load_obj
        from flowmesh.metrics import sample_surface

        a = sample_surface(load_obj(self._path("pred.obj")), self.SAMPLES, self.seed)
        b = sample_surface(load_obj(self._path("gt.obj")), self.SAMPLES, self.seed)
        self._oracle = cloud_oracle(a.points, b.points, self.cache_dir)
        return 0, []

    def check_round(self, index, exit_codes):
        if exit_codes != [0]:
            return [f"exit codes {exit_codes}"]
        with open(self.work / "out" / f"r{index}.json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        problems = _schema_errors(report, "metrics_report.schema.json")
        for key, want in self._oracle.items():
            if report.get(key) != want:
                problems.append(f"{key} {report.get(key)!r} != oracle {want!r}")
        if report.get("sif_count") != 0:
            problems.append(f"sif_count {report.get('sif_count')} on a convex sphere")
        for key in ("dice", "volume_similarity"):
            if not isinstance(report.get(key), float) or not 0.0 < report[key] <= 1.0:
                problems.append(f"{key} {report.get(key)!r} not in (0, 1]")
        return problems

    def working_sets(self):
        return {
            "cloud_50k_float64": self.SAMPLES * 3 * 8,
            "faces_81920_corners_float64": 81920 * 9 * 8,
        }


class DeformRoundtrip(Workload):
    """``flowmesh deform`` forward and then ``--inverse`` on its output."""

    name = "deform_roundtrip"
    CALL_NAMES = ("deform_s", "deform_inverse_s")
    STAGES = [(64, 16), (32, 8)]  # (nodes per axis, steps)

    def prepare(self) -> None:
        from flowmesh import icosphere, store_flow, store_obj

        sphere = icosphere(6)
        store_obj(sphere.with_vertices(0.6 * sphere.vertices), self._path("mesh.obj"))
        seeds = np.random.SeedSequence(self.seed).generate_state(len(self.STAGES))
        for i, ((n, steps), field_seed) in enumerate(zip(self.STAGES, seeds)):
            field = gated_field(
                (n, n, n), (-1, -1, -1), (1, 1, 1), int(field_seed), steps
            )
            store_flow(field, self._path(f"stage{i}.dff1"))

    def _chain_args(self):
        args = []
        for i, (_, steps) in enumerate(self.STAGES):
            args += ["--flow", self._path(f"stage{i}.dff1"), "--steps", str(steps)]
        return args

    def round_argv(self):
        return [
            ["deform", "--mesh", self._path("mesh.obj"), *self._chain_args(),
             "--out", self._path("out/fwd{round}.obj")],
            ["deform", "--mesh", self._path("out/fwd{round}.obj"), *self._chain_args(),
             "--inverse", "--out", self._path("out/inv{round}.obj")],
        ]

    def run_checks(self):
        """Forward reference and the in-memory round trip, on the input vertices."""
        from flowmesh import (
            DeformationChain, DeformationStage, TriangleMesh, apply_chain, load_flow,
        )

        self._input = read_obj(self.work / "mesh.obj")
        mesh = TriangleMesh(*self._input)
        chain = DeformationChain(tuple(
            DeformationStage(load_flow(self._path(f"stage{i}.dff1")), steps)
            for i, (_, steps) in enumerate(self.STAGES)
        ))
        forward = apply_chain(chain, mesh)
        self._forward = forward.vertices
        back = apply_chain(chain, forward, inverse=True).vertices
        self._in_process_error = float(np.abs(back - mesh.vertices).max())
        if not self._in_process_error < IN_PROCESS_ROUND_TRIP_TOL:
            return 1, [f"in-process round trip error {self._in_process_error:.3e} "
                       f">= {IN_PROCESS_ROUND_TRIP_TOL:g}"]
        return 1, []

    def check_round(self, index, exit_codes):
        if exit_codes != [0, 0]:
            return [f"exit codes {exit_codes}"]
        verts, faces = self._input
        fwd_v, fwd_f = read_obj(self.work / "out" / f"fwd{index}.obj")
        inv_v, inv_f = read_obj(self.work / "out" / f"inv{index}.obj")
        problems = []
        if not (np.array_equal(fwd_f, faces) and np.array_equal(inv_f, faces)):
            problems.append("faces changed")
            return problems
        off = np.abs(fwd_v - self._forward)
        if not np.all(off <= OBJ_RELATIVE_ROUNDING * np.abs(self._forward)):
            problems.append(
                f"forward output differs from in-process apply_chain by {off.max():.3e}"
            )
        error = float(np.abs(inv_v - verts).max())
        if not error < CLI_ROUND_TRIP_TOL:
            problems.append(
                f"CLI round trip error {error:.3e} >= {CLI_ROUND_TRIP_TOL:g}"
            )
        return problems

    def quality(self):
        return {"deform.in_process_round_trip_error": self._in_process_error}

    def working_sets(self):
        return {f"field_{n}^3_float64": n**3 * 3 * 8 for n, _ in self.STAGES}


WORKLOADS = {w.name: w for w in (FitEllipsoid, Metrics50k, DeformRoundtrip)}
