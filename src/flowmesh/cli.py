"""Command-line workflows: deform, metrics, fit, subdivide, check.

Human-readable diagnostics go to stderr; machine artifacts (meshes, flow
files, JSON reports, traces) go only to the paths given on the command line,
so stdout stays clean for piping.  Exit codes: 0 success, 1 input/parse
error, 2 precondition/gate violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from .deform import (
    DeformationChain,
    DeformationStage,
    GateViolationError,
    InversionError,
    apply_chain,
    suggested_steps,
)
from .fit import FitConfig, FitDivergedError, fit_pipeline
from .flow_field import (
    GridGeometry,
    load_flow,
    stability_estimate,
    store_flow,
)
from .mesh import (
    MAX_ICOSPHERE_LEVEL,
    NonManifoldEdgeError,
    load_obj,
    midpoint_subdivide,
    store_obj,
    topology_report,
)
from .metrics import (
    MetricReport,
    NotWatertightError,
    VoxelizationError,
    chamfer,  # unused here; perfbench/spans.py wraps these three by name
    chamfer_normals,
    hausdorff,
    match_clouds,
    sample_surface,
    self_intersecting_faces,
    dice as dice_score,
    volume_similarity,
    voxelize,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3

# The most supersampled cells `metrics` voxelizes: 512**3, a 128 MiB boolean grid.
_MAX_VOXEL_CELLS = 2**27

# The most surface samples `metrics` draws per mesh: 2**22, 21 times the
# default.  A run peaks at about 256 B per sample, so about 1 GiB here.
_MAX_SAMPLES = 2**22

# The most nodes in a fit grid: 2**22, about 161**3.  params, velocity, grad,
# best_params and the candidate take 5 * 24 = 120 B per node; with the passes'
# temporaries a fit peaks at about 240 B per node, so about 1 GiB here.
_MAX_GRID_NODES = 2**22


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _refuse_samples(count: int) -> bool:
    """Say why and return True when ``count`` samples exceed _MAX_SAMPLES."""
    if count <= _MAX_SAMPLES:
        return False
    _say(f"error: {count} samples exceed {_MAX_SAMPLES} (2**22)")
    return True


def load_schema(name: str) -> dict:
    with resources.files("flowmesh.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def cmd_deform(args) -> int:
    if len(args.flow) != len(args.steps):
        raise ValueError(
            f"got {len(args.flow)} --flow but {len(args.steps)} --steps; "
            "each flow needs a matching step count"
        )
    mesh = load_obj(args.mesh)
    stages = tuple(
        DeformationStage(load_flow(path), steps)
        for path, steps in zip(args.flow, args.steps)
    )
    for i, stage in enumerate(stages):
        s = stage.stability
        _say(f"stage {i}: L={s.lipschitz:.6g} L_safe={s.lipschitz_safe:.6g} "
             f"h={stage.h:.6g} margin={stage.gate_margin:.6g}")
    deformed = apply_chain(
        DeformationChain(stages), mesh, gate=args.gate, inverse=args.inverse
    )
    store_obj(deformed, args.out)
    _say(f"wrote {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    if (args.voxel_dims is None) != (args.voxel_spacing is None):
        raise ValueError("--voxel-dims and --voxel-spacing must be given together")
    if args.voxel_origin is not None and args.voxel_dims is None:
        raise ValueError("--voxel-origin needs --voxel-dims and --voxel-spacing")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if _refuse_samples(args.samples):  # zero and negative counts are refused later, exit 1
        return EXIT_PRECONDITION
    if args.voxel_dims is not None:
        s = max(args.voxel_supersample, 0)  # invalid values are refused later, exit 1
        cells = math.prod(max(n - 1, 0) * s for n in args.voxel_dims)
        if cells > _MAX_VOXEL_CELLS:
            _say(f"error: {cells} supersampled voxel cells exceed {_MAX_VOXEL_CELLS} (512**3)")
            return EXIT_PRECONDITION
    pred = load_obj(args.pred)
    gt = load_obj(args.gt)
    pred_cloud = sample_surface(pred, args.samples, args.seed)
    gt_cloud = sample_surface(gt, args.samples, args.seed)
    sif_count, sif_percent = self_intersecting_faces(pred)
    dice_value = None
    vs_value = None
    if args.voxel_dims is not None:
        origin = args.voxel_origin
        try:
            if origin is None:  # centred on both meshes
                pts = np.vstack([pred.vertices, gt.vertices])
                extent = GridGeometry(args.voxel_dims, (0, 0, 0), args.voxel_spacing).upper
                origin = 0.5 * (pts.min(axis=0) + pts.max(axis=0)) - 0.5 * extent
            geometry = GridGeometry(args.voxel_dims, origin, args.voxel_spacing)
        except ValueError as exc:
            raise ValueError(f"voxel grid: {exc}") from exc
        occ_pred = voxelize(pred, geometry, args.voxel_supersample)
        occ_gt = voxelize(gt, geometry, args.voxel_supersample)
        dice_value = dice_score(occ_pred, occ_gt)
        vs_value = volume_similarity(occ_pred, occ_gt)
    match = match_clouds(pred_cloud, gt_cloud)
    report = MetricReport(
        chamfer=match.chamfer(),
        hausdorff=match.hausdorff(),
        chamfer_normals=match.chamfer_normals(pred_cloud.normals, gt_cloud.normals),
        sif_count=sif_count,
        sif_percent=sif_percent,
        dice=dice_value,
        volume_similarity=vs_value,
        sample_count=args.samples,
        seed=args.seed,
        pred_path=str(args.pred),
        gt_path=str(args.gt),
    )
    report.write_json(args.out)
    _say(f"wrote {args.out}")
    return EXIT_OK


def _write_trace(path, traces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for stage_trace in traces:
            for report in stage_trace:
                fh.write(json.dumps(asdict(report)))
                fh.write("\n")


def cmd_fit(args) -> int:
    try:  # FitConfig validates every field; the CLI adds only the size caps below
        with open(args.config, "r", encoding="utf-8") as fh:
            config = FitConfig.from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if _refuse_samples(config.sample_count):
        return EXIT_PRECONDITION
    nodes = math.prod(config.stages[-1].grid_dims)  # the finest grid: stages go coarse to fine
    if nodes > _MAX_GRID_NODES:
        _say(f"error: {nodes} fit grid nodes exceed {_MAX_GRID_NODES} (2**22)")
        return EXIT_PRECONDITION
    template = load_obj(args.template)
    if _refuse_subdivision(template.face_count, config.stages[-1].template_subdivision_level):
        return EXIT_PRECONDITION
    target = load_obj(args.target)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    try:
        result = fit_pipeline(config, template, target)
    except FitDivergedError as exc:
        _write_trace(trace_path, [exc.trace])
        _say(f"fit diverged; partial trace preserved at {trace_path}")
        raise
    manifest = {"stages": []}
    for i, stage in enumerate(result.chain.stages):
        flow_name = f"stage_{i:03d}.dff1"
        store_flow(stage.field, out_dir / flow_name)
        manifest["stages"].append(
            {
                "flow_file": flow_name,
                "steps": stage.steps,
                "template_subdivision_level": result.template_levels[i],
            }
        )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    _write_trace(trace_path, result.traces)
    store_obj(result.final_mesh, out_dir / "fitted.obj")
    final_trace = result.traces[-1]
    _say(
        f"fit finished: {len(result.chain)} stage(s), "
        f"final total loss {min(r.total for r in final_trace):.6g}"
    )
    _say(f"wrote {out_dir / 'manifest.json'}, {trace_path}, {out_dir / 'fitted.obj'}")
    return EXIT_OK


# The largest output `subdivide` builds: the faces of the largest icosphere.
_MAX_SUBDIVIDED_FACES = 20 * 4**MAX_ICOSPHERE_LEVEL


def _subdivision_fits(face_count: int, levels: int) -> bool:
    """Whether ``face_count * 4**levels`` is at most _MAX_SUBDIVIDED_FACES
    (computed without forming ``4**levels``, whatever ``levels`` is)."""
    return face_count <= _MAX_SUBDIVIDED_FACES >> (2 * levels)


def _refuse_subdivision(face_count: int, levels: int) -> bool:
    """Say why and return True when the subdivided mesh would not fit."""
    if _subdivision_fits(face_count, levels):
        return False
    _say(
        f"error: {face_count} faces subdivided {levels} times exceed "
        f"{_MAX_SUBDIVIDED_FACES} faces (icosphere level {MAX_ICOSPHERE_LEVEL})"
    )
    return True


def cmd_subdivide(args) -> int:
    if args.levels < 0:
        raise ValueError(f"--levels must be non-negative, got {args.levels}")
    mesh = load_obj(args.mesh)
    if _refuse_subdivision(mesh.face_count, args.levels):
        return EXIT_PRECONDITION
    for _ in range(args.levels):
        mesh = midpoint_subdivide(mesh)
    store_obj(mesh, args.out)
    report = topology_report(mesh)
    _say(
        f"wrote {args.out}: V={report.vertex_count} E={report.edge_count} "
        f"F={report.face_count} chi={report.euler_characteristic}"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    field = load_flow(args.flow)
    stability = stability_estimate(field)
    stage = DeformationStage(field, args.steps, stability)
    h = stage.h
    basic_gate = h * stability.lipschitz <= 1.0  # report only
    safe_gate = stage.gate_ok
    _say(f"L={stability.lipschitz:.9g}")
    _say(f"L_safe={stability.lipschitz_safe:.9g}")
    _say(f"M={stability.max_speed:.9g}")
    _say(f"h={h:.9g}")
    _say(f"margin={stage.gate_margin:.9g}")
    _say(f"gate h*L<=1: {'PASS' if basic_gate else 'FAIL'}")
    _say(f"gate h*L_safe<1: {'PASS' if safe_gate else 'FAIL'}")
    if not safe_gate or not basic_gate:
        n = suggested_steps(stability.lipschitz_safe)
        _say(f"suggested steps: n >= {n}" if n else "suggested steps: none satisfies the gate")
    return EXIT_OK if safe_gate else EXIT_PRECONDITION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmesh",
        description="Deform template meshes through gated stationary flow fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deform", help="apply a chain of flow fields to a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--flow", action="append", required=True, metavar="DFF1")
    p.add_argument("--steps", action="append", required=True, type=int)
    p.add_argument("--gate", choices=["strict", "warn", "off"], default="strict",
                   help="gate policy for forward deformation; --inverse needs strict")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("metrics", help="evaluate a predicted mesh against a target")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--voxel-dims", type=int, nargs=3, default=None)
    p.add_argument("--voxel-spacing", type=float, nargs=3, default=None)
    p.add_argument("--voxel-origin", type=float, nargs=3, default=None)
    p.add_argument("--voxel-supersample", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", help="fit a flow chain deforming a template to a target")
    p.add_argument("--template", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("subdivide", help="midpoint-subdivide a mesh k times")
    p.add_argument("--mesh", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("check", help="report stability constants and gates")
    p.add_argument("--flow", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)  # deform, metrics and subdivide: refused before any work
        if out is not None and not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", out)
        return args.func(args)
    except (GateViolationError, NotWatertightError, NonManifoldEdgeError) as exc:
        _say(f"error: {exc}")
        return EXIT_PRECONDITION
    except (InversionError, FitDivergedError, VoxelizationError) as exc:
        _say(f"error: {exc}")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
