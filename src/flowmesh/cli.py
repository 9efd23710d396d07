"""Command-line workflows: deform, metrics, fit, subdivide, check.

Human-readable diagnostics go to stderr; machine artifacts (meshes, flow
files, JSON reports, traces) go only to the paths given on the command line,
so stdout stays clean for piping.  Exit codes: 0 success, 1 input/parse
error, 2 precondition/gate violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import jsonschema
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
    FlowFormatError,
    GridGeometry,
    load_flow,
    stability_estimate,
    store_flow,
)
from .mesh import (
    MeshFormatError,
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
    chamfer,
    chamfer_normals,
    hausdorff,
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


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def load_schema(name: str) -> dict:
    with resources.files("flowmesh.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def _stage_summary(index: int, stage: DeformationStage) -> str:
    s = stage.stability
    return (
        f"stage {index}: L={s.lipschitz:.6g} L_safe={s.lipschitz_safe:.6g} "
        f"h={stage.h:.6g} margin={stage.gate_margin:.6g}"
    )


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
        _say(_stage_summary(i, stage))
    deformed = apply_chain(
        DeformationChain(stages), mesh, gate=args.gate, inverse=args.inverse
    )
    store_obj(deformed, args.out)
    _say(f"wrote {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    if (args.voxel_dims is None) != (args.voxel_spacing is None):
        raise ValueError("--voxel-dims and --voxel-spacing must be given together")
    pred = load_obj(args.pred)
    gt = load_obj(args.gt)
    pred_cloud = sample_surface(pred, args.samples, args.seed)
    gt_cloud = sample_surface(gt, args.samples, args.seed)
    sif_count, sif_percent = self_intersecting_faces(pred)
    dice_value = None
    vs_value = None
    if args.voxel_dims is not None:
        if args.voxel_origin is not None:
            origin = tuple(args.voxel_origin)
        else:
            pts = np.vstack([pred.vertices, gt.vertices])
            center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            dims = np.array(args.voxel_dims, dtype=np.float64)
            spacing = np.array(args.voxel_spacing, dtype=np.float64)
            origin = tuple(center - 0.5 * spacing * (dims - 1))
        geometry = GridGeometry(
            tuple(args.voxel_dims), origin, tuple(args.voxel_spacing)
        )
        occ_pred = voxelize(pred, geometry, args.voxel_supersample)
        occ_gt = voxelize(gt, geometry, args.voxel_supersample)
        dice_value = dice_score(occ_pred, occ_gt)
        vs_value = volume_similarity(occ_pred, occ_gt)
    report = MetricReport(
        chamfer=chamfer(pred_cloud, gt_cloud),
        hausdorff=hausdorff(pred_cloud, gt_cloud),
        chamfer_normals=chamfer_normals(pred_cloud, gt_cloud),
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


def _validated_fit_config(path) -> FitConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    schema = load_schema("fit_config.schema.json")
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        details = "; ".join(
            f"{'/'.join(str(p) for p in err.absolute_path) or '<root>'}: {err.message}"
            for err in errors
        )
        raise ValueError(f"invalid fit config: {details}")
    return FitConfig.from_dict(raw)


def _write_trace(path, traces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for stage_trace in traces:
            for report in stage_trace:
                fh.write(json.dumps(asdict(report)))
                fh.write("\n")


def cmd_fit(args) -> int:
    config = _validated_fit_config(args.config)
    template = load_obj(args.template)
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


def cmd_subdivide(args) -> int:
    if args.levels < 0:
        raise ValueError(f"--levels must be non-negative, got {args.levels}")
    mesh = load_obj(args.mesh)
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
        _say(f"suggested steps: n >= {suggested_steps(stability.lipschitz_safe)}")
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
    p.add_argument("--gate", choices=["strict", "warn", "off"], default="strict")
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
        return args.func(args)
    except GateViolationError as exc:
        _say(f"error: {exc}")
        return EXIT_PRECONDITION
    except (NotWatertightError, NonManifoldEdgeError) as exc:
        _say(f"error: {exc}")
        return EXIT_PRECONDITION
    except (InversionError, FitDivergedError, VoxelizationError) as exc:
        _say(f"error: {exc}")
        return EXIT_NUMERICAL
    except (FlowFormatError, MeshFormatError) as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT
    except FileNotFoundError as exc:
        _say(f"error: missing input file: {exc.filename}")
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
