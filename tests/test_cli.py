import ast
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from flowmesh import icosphere, load_flow, load_obj, store_flow, store_obj, topology_report
from flowmesh.cli import load_schema, main
from flowmesh.deform import GateWarning
from flowmesh.fit import FitConfig
from flowmesh.flow_field import FlowField, GridGeometry

from conftest import make_gated_field


@pytest.fixture()
def sphere_obj(tmp_path):
    path = tmp_path / "sphere.obj"
    store_obj(icosphere(2), path)
    return path


@pytest.fixture()
def gated_flow(tmp_path):
    field = make_gated_field(
        (8, 8, 8), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), seed=1, steps=8
    )
    path = tmp_path / "field.dff1"
    store_flow(field, path)
    return path


def zero_flow(tmp_path, name="zero.dff1"):
    geometry = GridGeometry((4, 4, 4), (-2, -2, -2), (4 / 3, 4 / 3, 4 / 3))
    path = tmp_path / name
    store_flow(FlowField(geometry, np.zeros((4, 4, 4, 3), dtype=np.float32)), path)
    return path


class TestDeform:
    def test_zero_field_is_identity(self, tmp_path, sphere_obj):
        flow = zero_flow(tmp_path)
        out = tmp_path / "out.obj"
        code = main(
            ["deform", "--mesh", str(sphere_obj), "--flow", str(flow),
             "--steps", "4", "--out", str(out)]
        )
        assert code == 0
        result = load_obj(out)
        original = load_obj(sphere_obj)
        assert np.allclose(result.vertices, original.vertices, atol=1e-8)

    def test_strict_gate_exit_2_with_suggestion(self, tmp_path, sphere_obj, gated_flow, capsys):
        out = tmp_path / "out.obj"
        code = main(
            ["deform", "--mesh", str(sphere_obj), "--flow", str(gated_flow),
             "--steps", "1", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "use steps >=" in err

    def test_forward_then_inverse_round_trip(self, tmp_path, sphere_obj, gated_flow):
        fwd = tmp_path / "fwd.obj"
        back = tmp_path / "back.obj"
        assert main(
            ["deform", "--mesh", str(sphere_obj), "--flow", str(gated_flow),
             "--steps", "8", "--out", str(fwd)]
        ) == 0
        assert main(
            ["deform", "--mesh", str(fwd), "--flow", str(gated_flow),
             "--steps", "8", "--inverse", "--out", str(back)]
        ) == 0
        a = load_obj(back).vertices
        b = load_obj(sphere_obj).vertices
        # OBJ writing quantises to 9 significant digits between the two runs
        assert np.abs(a - b).max() < 1e-7

    @pytest.mark.parametrize("inverse", [[], ["--inverse"]], ids=["forward", "inverse"])
    def test_empty_mesh_exit_0(self, tmp_path, gated_flow, inverse):
        mesh, out = tmp_path / "empty.obj", tmp_path / "out.obj"
        mesh.write_text("")
        code = main(["deform", "--mesh", str(mesh), "--flow", str(gated_flow),
                     "--steps", "8", "--out", str(out), *inverse])
        assert code == 0
        result = load_obj(out)
        assert result.vertices.shape == (0, 3) and result.face_count == 0

    @pytest.mark.parametrize("gate", ["off", "warn"])
    def test_inverse_needs_strict_gate_whatever_the_policy(
        self, tmp_path, sphere_obj, gated_flow, gate, capsys
    ):
        out = tmp_path / "back.obj"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["deform", "--mesh", str(sphere_obj), "--flow", str(gated_flow),
                 "--steps", "1", "--gate", gate, "--inverse", "--out", str(out)]
            )
        assert code == 2
        assert "at stage 0" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, GateWarning)]
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        code = main(
            ["deform", "--mesh", str(tmp_path / "nope.obj"),
             "--flow", str(tmp_path / "nope.dff1"), "--steps", "4",
             "--out", str(tmp_path / "o.obj")]
        )
        assert code == 1

    def test_mismatched_flow_steps_exit_1(self, tmp_path, sphere_obj, gated_flow):
        code = main(
            ["deform", "--mesh", str(sphere_obj), "--flow", str(gated_flow),
             "--steps", "4", "--steps", "8", "--out", str(tmp_path / "o.obj")]
        )
        assert code == 1

    def test_prints_stage_constants(self, tmp_path, sphere_obj, gated_flow, capsys):
        out = tmp_path / "out.obj"
        main(["deform", "--mesh", str(sphere_obj), "--flow", str(gated_flow),
              "--steps", "8", "--out", str(out)])
        err = capsys.readouterr().err
        assert "L=" in err and "L_safe=" in err and "h=" in err and "margin=" in err


class TestMetrics:
    def test_identical_meshes(self, tmp_path, sphere_obj):
        report_path = tmp_path / "report.json"
        code = main(
            ["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
             "--samples", "2000", "--seed", "7",
             "--voxel-dims", "9", "9", "9",
             "--voxel-spacing", "0.3", "0.3", "0.3",
             "--voxel-supersample", "2",
             "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, load_schema("metrics_report.schema.json"))
        assert report["chamfer"] == 0.0
        assert report["hausdorff"] == 0.0
        assert report["chamfer_normals"] == 1.0
        assert report["dice"] == 1.0
        assert report["volume_similarity"] == 1.0
        assert report["sif_count"] == 0

    def test_scaled_sphere_chamfer(self, tmp_path):
        inner = tmp_path / "inner.obj"
        outer = tmp_path / "outer.obj"
        mesh = icosphere(3)
        store_obj(mesh, inner)
        store_obj(mesh.with_vertices(mesh.vertices * 1.1), outer)
        report_path = tmp_path / "report.json"
        code = main(
            ["metrics", "--pred", str(inner), "--gt", str(outer),
             "--samples", "20000", "--seed", "0", "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert abs(report["chamfer"] - 0.1) / 0.1 < 0.05
        assert report["dice"] is None and report["volume_similarity"] is None

    def test_tiny_coordinates_exit_0(self, tmp_path):
        # the cross products' squares underflow here, so a plain norm is 0
        mesh, out = tmp_path / "tiny.obj", tmp_path / "r.json"
        base = icosphere(3)
        store_obj(base.with_vertices(base.vertices * 1e-105), mesh)
        code = main(["metrics", "--pred", str(mesh), "--gt", str(mesh),
                     "--samples", "1000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["chamfer"] == 0.0 and report["sif_count"] == 0

    def test_non_watertight_with_voxel_exit_2(self, tmp_path):
        open_mesh = tmp_path / "open.obj"
        open_mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        code = main(
            ["metrics", "--pred", str(open_mesh), "--gt", str(open_mesh),
             "--samples", "100", "--voxel-dims", "4", "4", "4",
             "--voxel-spacing", "1", "1", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_one_correspondence_per_run(self, tmp_path, sphere_obj, monkeypatch):
        import flowmesh.metrics.distances as distances

        calls = []
        original = distances.nearest_neighbor_indices

        def counted(queries, targets):
            calls.append(len(queries))
            return original(queries, targets)

        monkeypatch.setattr(distances, "nearest_neighbor_indices", counted)
        code = main(
            ["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
             "--samples", "300", "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        assert calls == [300, 300]

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(
            ["metrics", "--pred", str(tmp_path / "missing.obj"),
             "--gt", str(tmp_path / "missing.obj"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_voxel_origin_without_grid_exit_1(self, tmp_path, sphere_obj, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
             "--samples", "100", "--voxel-origin", "0", "0", "0", "--out", str(out)]
        )
        assert code == 1
        assert "--voxel-origin" in capsys.readouterr().err
        assert not out.exists()

    def test_voxel_dims_without_spacing_exit_1(self, tmp_path, sphere_obj):
        code = main(
            ["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
             "--samples", "100", "--voxel-dims", "4", "4", "4",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1


class TestSubdivide:
    def test_icosahedron_one_level(self, tmp_path):
        src = tmp_path / "ico.obj"
        store_obj(icosphere(0), src)
        out = tmp_path / "sub.obj"
        assert main(["subdivide", "--mesh", str(src), "--levels", "1", "--out", str(out)]) == 0
        report = topology_report(load_obj(out))
        assert (report.vertex_count, report.face_count) == (42, 80)

    def test_near_the_largest_float_rereads(self, tmp_path):
        src, out = tmp_path / "huge.obj", tmp_path / "sub.obj"
        sphere = icosphere(2)
        store_obj(sphere.with_vertices(sphere.vertices * 1e308), src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["subdivide", "--mesh", str(src), "--levels", "1", "--out", str(out)]) == 0
        mesh = load_obj(out)
        assert mesh.face_count == 1280 and np.abs(mesh.vertices).max() <= 1e308

    def test_non_manifold_exit_2(self, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0 -1 0\nf 1 2 3\nf 1 2 4\nf 1 2 5\n"
        )
        code = main(["subdivide", "--mesh", str(bad), "--levels", "1",
                     "--out", str(tmp_path / "o.obj")])
        assert code == 2


class TestCheck:
    def test_zero_field_passes(self, tmp_path, capsys):
        flow = zero_flow(tmp_path)
        code = main(["check", "--flow", str(flow), "--steps", "4"])
        assert code == 0
        err = capsys.readouterr().err
        assert "L=0" in err
        assert "PASS" in err

    def test_crafted_field_fails_with_suggestion(self, tmp_path, capsys):
        # forward difference of 4 over unit spacing: L = 4
        geometry = GridGeometry((5, 5, 5), (0, 0, 0), (1, 1, 1))
        data = np.zeros((5, 5, 5, 3), dtype=np.float32)
        data[2, 2, 2] = (4.0, 0.0, 0.0)
        path = tmp_path / "sharp.dff1"
        store_flow(FlowField(geometry, data), path)
        code = main(["check", "--flow", str(path), "--steps", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "FAIL" in err
        suggested = int(np.ceil(np.sqrt(3.0) * 4.0)) + 1
        assert f"n >= {suggested}" in err

    def test_basic_gate_boundary_case(self, tmp_path, capsys):
        # L = 4, n = 3: the basic gate h*L = 4/3 > 1 fails; reported as FAIL
        geometry = GridGeometry((5, 5, 5), (0, 0, 0), (1, 1, 1))
        data = np.zeros((5, 5, 5, 3), dtype=np.float32)
        data[2, 2, 2] = (4.0, 0.0, 0.0)
        path = tmp_path / "sharp.dff1"
        store_flow(FlowField(geometry, data), path)
        main(["check", "--flow", str(path), "--steps", "3"])
        err = capsys.readouterr().err
        assert "gate h*L<=1: FAIL" in err

    def test_infinite_lipschitz_exit_2_without_suggestion(self, tmp_path, capsys):
        geometry = GridGeometry((4, 4, 4), (0, 0, 0), (1e-320,) * 3)  # subnormal spacing
        data = np.zeros((4, 4, 4, 3), dtype=np.float32)
        data[1, 1, 1] = (1.0, 0.0, 0.0)
        path = tmp_path / "tiny.dff1"
        store_flow(FlowField(geometry, data), path)
        assert main(["check", "--flow", str(path), "--steps", "4"]) == 2
        err = capsys.readouterr().err
        assert "L_safe=inf" in err and "gate h*L_safe<1: FAIL" in err
        assert err.endswith("suggested steps: none satisfies the gate\n")

    def test_malformed_flow_exit_1(self, tmp_path):
        path = tmp_path / "junk.dff1"
        path.write_bytes(b"JUNKJUNKJUNK")
        assert main(["check", "--flow", str(path), "--steps", "4"]) == 1


class TestFitCommand:
    def write_config(self, tmp_path, **overrides):
        config = {
            "stages": [
                {"grid_dims": [6, 6, 6], "steps": 4, "iterations": 12,
                 "step_size": 0.3, "template_subdivision_level": 0}
            ],
            "sample_count": 300,
            "seed": 0,
        }
        config.update(overrides)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(config))
        return path

    def test_fit_writes_artifacts(self, tmp_path):
        template = tmp_path / "template.obj"
        target = tmp_path / "target.obj"
        store_obj(icosphere(1), template)
        base = icosphere(2)
        store_obj(base.with_vertices(base.vertices * 1.15), target)
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["fit", "--template", str(template), "--target", str(target),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("chain_manifest.schema.json"))
        assert (out_dir / manifest["stages"][0]["flow_file"]).exists()
        trace_schema = load_schema("fit_trace_record.schema.json")
        lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            jsonschema.validate(json.loads(line), trace_schema)
        fitted = load_obj(out_dir / "fitted.obj")
        assert fitted.vertex_count == 42

    def test_final_not_worse_when_target_is_template(self, tmp_path):
        mesh_path = tmp_path / "t.obj"
        store_obj(icosphere(1), mesh_path)
        config = self.write_config(tmp_path, stages=[
            {"grid_dims": [6, 6, 6], "steps": 4, "iterations": 50,
             "step_size": 0.3, "template_subdivision_level": 0}
        ])
        out_dir = tmp_path / "run"
        code = main(["fit", "--template", str(mesh_path), "--target", str(mesh_path),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        lines = [json.loads(l) for l in (out_dir / "trace.jsonl").read_text().splitlines()]
        assert min(rec["total"] for rec in lines) <= lines[0]["total"]

    def test_malformed_config_field_level_error(self, tmp_path, sphere_obj, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"stages": [{"grid_dims": [6, 6], "steps": 4,
                                                  "iterations": 5, "step_size": 0.1}]}))
        code = main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "grid_dims" in err

    @pytest.mark.parametrize("steps, code", [(2.0, 0), (2.7, 1)])
    def test_integral_float_is_an_integer(self, tmp_path, sphere_obj, capsys, steps, code):
        # FitConfig takes 2.0 as the integer 2; the fit must then run with 2 steps
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"stages": [{"grid_dims": [5, 5.0, 5], "steps": steps,
                                                  "iterations": 1.0, "step_size": 0.1}],
                                      "sample_count": 50.0}))
        out_dir = tmp_path / "run"
        assert main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(out_dir)]) == code
        if code:
            assert "steps" in capsys.readouterr().err
            assert not out_dir.exists()
        else:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["stages"][0]["steps"] == 2
            assert len((out_dir / "trace.jsonl").read_text().splitlines()) == 1

    def test_step_size_with_no_gated_step_count_is_rejected(self, tmp_path, sphere_obj):
        # every proposal's L_safe overflows to inf, so the strict gate rejects it
        config = self.write_config(tmp_path, stages=[
            {"grid_dims": [5, 5, 5], "steps": 2, "iterations": 2, "step_size": 1e200}
        ], sample_count=50)
        out_dir = tmp_path / "run"
        code = main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        assert not load_flow(out_dir / "stage_000.dff1").data.any()

    def test_domain_radius_overflowing_the_grid_exits_1(self, tmp_path, sphere_obj, capsys):
        # finite, so FitConfig takes it, but the grid spacing overflows to inf
        config = self.write_config(tmp_path, stages=[
            {"grid_dims": [5, 5, 5], "steps": 2, "iterations": 2, "step_size": 0.1}
        ], sample_count=50, domain_radius=1e308)
        code = main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "domain_radius" in capsys.readouterr().err

    def test_invalid_json_exit_1(self, tmp_path, sphere_obj):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        code = main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert code == 1

    def test_divergence_exit_3_preserves_trace(self, tmp_path, sphere_obj, monkeypatch):
        import flowmesh.cli as cli_module
        from flowmesh import FitDivergedError, LossReport

        partial = [LossReport(0, 1.0, 0.5, 1.5, 0.1, 0.9)]

        def explode(config, template, target):
            raise FitDivergedError(0, partial)

        monkeypatch.setattr(cli_module, "fit_pipeline", explode)
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 3
        lines = (out_dir / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["total"] == 1.5


_STAGE = {"grid_dims": [4, 4, 4], "steps": 1, "iterations": 1, "step_size": 0.1}
_REFUSED_CONFIGS = [  # (config, the field its message names)
    ([1, 2], "fit config"),
    (None, "fit config"),
    ({"stages": [_STAGE], "loss_weights": [1]}, "loss_weights"),
    ({"stages": [_STAGE], "loss_weights": "x"}, "loss_weights"),
    ({"stages": [_STAGE], "loss_weights": None}, "loss_weights"),
    ({"stages": [_STAGE], "gate": "bogus"}, "gate"),
    ({"stages": [_STAGE], "gate": None}, "gate"),
    ({"stages": [dict(_STAGE, step_size=True)]}, "step_size"),
    ({"stages": [_STAGE], "domain_radius": True}, "domain_radius"),
    ({"stages": [_STAGE], "loss_weights": {"chamfer": True}}, "chamfer weight"),
    ({"stages": [_STAGE], "loss_weights": {"edge": False}}, "edge weight"),
    ({"stages": [_STAGE], "loss_weights": {"chamfer": 1, "foo": 1}}, "'loss_weights.foo'"),
    ({"stages": [_STAGE], "chamfer_weight": 2.0}, "chamfer_weight"),
    ({"stages": [_STAGE], "edge_weight": 0.0}, "edge_weight"),
    ({"stages": 5}, "stages"),
    ({"stages": [5]}, "stages[0]"),
    ({"stages": [dict(_STAGE, grid_dims=4)]}, "grid_dims"),
] + [  # non-finite literals, which Python's json reads
    ({"stages": [dict(_STAGE, step_size=v)]}, "step_size") for v in (math.nan, math.inf)
] + [
    ({"stages": [_STAGE], "domain_radius": v}, "domain_radius") for v in (math.nan, math.inf)
] + [
    ({"stages": [_STAGE], "loss_weights": {k: v}}, f"{k} weight")
    for k in ("chamfer", "edge") for v in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("raw, name", _REFUSED_CONFIGS,
                         ids=[json.dumps(raw).replace(json.dumps(_STAGE)[1:-1], "STAGE")
                              for raw, _ in _REFUSED_CONFIGS])
def test_refused_config_exits_1_before_out_dir(tmp_path, sphere_obj, capsys, raw, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        FitConfig.from_dict(raw)  # never a TypeError or an AttributeError
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "run"
    assert main(["fit", "--template", str(sphere_obj), "--target", str(sphere_obj),
                 "--config", str(config), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not out_dir.exists()


def cli_import_output(module):
    """What a fresh interpreter prints for ``module in sys.modules`` after
    importing ``flowmesh.cli``."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys, flowmesh.cli; print({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return run.stdout


def test_cli_import_leaves_out_jsonschema():
    assert cli_import_output("jsonschema") == "False\n"


def test_cli_import_leaves_out_csgraph():
    # csgraph is loaded at the first topology report, which fit, deform and
    # check never make
    assert cli_import_output("scipy.sparse.csgraph") == "False\n"


class TestRefusedInput:
    def test_deform_nan_vertex_exit_1(self, tmp_path, gated_flow, capsys):
        mesh = tmp_path / "nan.obj"
        mesh.write_text("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n")
        out = tmp_path / "out.obj"
        code = main(["deform", "--mesh", str(mesh), "--flow", str(gated_flow),
                     "--steps", "8", "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_subdivide_negative_levels_exit_1(self, tmp_path, sphere_obj, capsys):
        out = tmp_path / "sub.obj"
        code = main(["subdivide", "--mesh", str(sphere_obj), "--levels", "-1",
                     "--out", str(out)])
        assert code == 1
        assert "--levels must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_output_exit_1_before_writing(
        self, tmp_path, sphere_obj, monkeypatch, capsys
    ):
        import flowmesh.cli

        def poisoned(mesh):
            return mesh.with_vertices(np.where(mesh.vertices > 0.9, np.inf, mesh.vertices))

        monkeypatch.setattr(flowmesh.cli, "midpoint_subdivide", poisoned)
        out = tmp_path / "sub.obj"
        code = main(["subdivide", "--mesh", str(sphere_obj), "--levels", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot write non-finite vertex coordinates to OBJ\n")
        assert not out.exists()

    def test_subdivide_too_many_faces_exit_2_before_building(
        self, tmp_path, monkeypatch, capsys
    ):
        import flowmesh.cli

        def refuse(mesh):
            raise AssertionError("subdivision started")

        monkeypatch.setattr(flowmesh.cli, "midpoint_subdivide", refuse)
        src, out = tmp_path / "ico2.obj", tmp_path / "sub.obj"
        store_obj(icosphere(2), src)
        code = main(["subdivide", "--mesh", str(src), "--levels", "12", "--out", str(out)])
        assert code == 2
        assert "320 faces subdivided 12 times exceed 1310720 faces" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_too_many_voxel_cells_exit_2_before_loading(
        self, tmp_path, sphere_obj, monkeypatch, capsys
    ):
        import flowmesh.cli

        def refuse(*args):
            raise AssertionError("mesh loaded or voxelized")

        monkeypatch.setattr(flowmesh.cli, "load_obj", refuse)
        monkeypatch.setattr(flowmesh.cli, "voxelize", refuse)
        out = tmp_path / "r.json"
        code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                     "--voxel-dims", "17", "17", "17",
                     "--voxel-spacing", "0.15", "0.15", "0.15",
                     "--voxel-supersample", "2000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        cells = (16 * 2000) ** 3
        assert f"error: {cells} supersampled voxel cells exceed 134217728 (512**3)" in err
        assert not out.exists()

    def test_metrics_negative_seed_exit_1_before_loading(
        self, tmp_path, sphere_obj, monkeypatch, capsys
    ):
        import flowmesh.cli

        def refuse(*args):
            raise AssertionError("mesh loaded")

        monkeypatch.setattr(flowmesh.cli, "load_obj", refuse)
        out = tmp_path / "r.json"
        code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                     "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "deform", "subdivide"])
    def test_missing_out_directory_exit_1_before_loading(
        self, tmp_path, sphere_obj, gated_flow, monkeypatch, capsys, command
    ):
        import flowmesh.cli

        def refuse(*args):
            raise AssertionError("mesh loaded")

        monkeypatch.setattr(flowmesh.cli, "load_obj", refuse)
        inputs = {
            "metrics": ["--pred", str(sphere_obj), "--gt", str(sphere_obj)],
            "deform": ["--mesh", str(sphere_obj), "--flow", str(gated_flow), "--steps", "8"],
            "subdivide": ["--mesh", str(sphere_obj), "--levels", "1"],
        }[command]
        out = tmp_path / "missing" / "out"
        code = main([command, *inputs, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_missing_input_file_exit_1(self, tmp_path, capsys):
        mesh = tmp_path / "absent.obj"
        code = main(["subdivide", "--mesh", str(mesh), "--levels", "1",
                     "--out", str(tmp_path / "sub.obj")])
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{mesh}'\n"

    @pytest.mark.parametrize("scale, area", [(1e80, "inf"), (1e160, "nan")])
    def test_metrics_huge_coordinates_exit_1(self, tmp_path, capsys, scale, area):
        # the areas overflow (in the norm at 1e80, in the cross product at 1e160)
        mesh, out = tmp_path / "huge.obj", tmp_path / "r.json"
        base = icosphere(2)
        store_obj(base.with_vertices(base.vertices * scale), mesh)
        code = main(["metrics", "--pred", str(mesh), "--gt", str(mesh),
                     "--samples", "1000", "--out", str(out)])
        assert code == 1
        assert f"error: surface area is {area}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, message", [
        # the fit runs in the unit ball; only its output overflows float32
        (1e80, "error: stage 0: coordinate scale 1e+80 takes node vectors past DFF1's "
               "float32 range (|v| <= 3.40282e+38)"),
        # the squared distances from the center overflow float64
        (1e160, "error: coordinate scale 1e+160 is too large to normalise"),
    ], ids=["1e80", "1e160"])
    def test_fit_huge_coordinates_exit_1(self, tmp_path, capsys, scale, message):
        template, target = tmp_path / "template.obj", tmp_path / "target.obj"
        store_obj(icosphere(1).with_vertices(icosphere(1).vertices * scale), template)
        base = icosphere(2)
        store_obj(base.with_vertices(base.vertices * np.array([1.0, 0.8, 0.65]) * scale), target)
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"stages": [{"grid_dims": [6, 6, 6], "steps": 4,
                                                  "iterations": 3, "step_size": 0.3}],
                                      "sample_count": 300}))
        out_dir = tmp_path / "run"
        code = main(["fit", "--template", str(template), "--target", str(target),
                     "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("origin", [["--voxel-origin", "0", "0", "0"], []],
                             ids=["given-origin", "default-origin"])
    def test_metrics_voxel_far_corner_overflow_exit_1(self, tmp_path, sphere_obj, capsys,
                                                      origin):
        # without --voxel-origin, the extent that centres the grid on the meshes overflows
        out = tmp_path / "r.json"
        code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                     "--samples", "100", "--voxel-dims", "5", "5", "5",
                     "--voxel-spacing", "1e308", "1e308", "1e308", *origin, "--out", str(out)])
        assert code == 1
        assert "error: voxel grid: " in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_subnormal_voxel_spacing_exit_3(self, tmp_path, sphere_obj, capsys):
        # the column bounds overflow to inf and clip; every +x ray through
        # these cells grazes the vertex at (1, 0, 0)
        out = tmp_path / "r.json"
        code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                     "--samples", "100", "--voxel-dims", "5", "5", "5",
                     "--voxel-spacing", "1e-310", "1e-310", "1e-310", "--out", str(out)])
        assert code == 3
        assert "stayed degenerate" in capsys.readouterr().err
        assert not out.exists()


def test_subdivision_guard_boundary():
    from flowmesh.cli import _MAX_SUBDIVIDED_FACES, _subdivision_fits

    assert _MAX_SUBDIVIDED_FACES == icosphere(0).face_count * 4**8 == 1_310_720
    for levels in range(13):
        largest = _MAX_SUBDIVIDED_FACES // 4**levels
        assert _subdivision_fits(largest, levels)
        assert largest * 4**levels <= _MAX_SUBDIVIDED_FACES
        assert not _subdivision_fits(largest + 1, levels)
        assert (largest + 1) * 4**levels > _MAX_SUBDIVIDED_FACES
    assert _subdivision_fits(20, 8) and not _subdivision_fits(20, 9)
    assert _subdivision_fits(320, 6) and not _subdivision_fits(320, 7)
    assert _subdivision_fits(1, 10) and not _subdivision_fits(1, 11)
    assert not _subdivision_fits(1, 10**30)
    assert _subdivision_fits(0, 10**30)


def _metrics_voxel_exit(tmp_path, sphere_obj, dims, supersample, capsys):
    """Exit code and stderr of `metrics` on a voxel grid (callers replace
    `voxelize`, so no grid is ever allocated)."""
    out = tmp_path / "r.json"
    code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                 "--samples", "10", "--voxel-dims", *map(str, dims),
                 "--voxel-spacing", "0.1", "0.1", "0.1",
                 "--voxel-supersample", str(supersample), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_voxel_guard_boundary(tmp_path, sphere_obj, monkeypatch, capsys):
    import flowmesh.cli
    from flowmesh.cli import _MAX_VOXEL_CELLS
    from flowmesh.metrics import VoxelizationError

    calls = []

    def stub(mesh, geometry, supersample):
        calls.append((geometry.dims, supersample))
        raise VoxelizationError("voxelize reached")

    monkeypatch.setattr(flowmesh.cli, "voxelize", stub)
    assert _MAX_VOXEL_CELLS == 512**3 == 2**27
    # (largest fitting grid, one step past it): one more node per axis ...
    pairs = [(((512 // s + 1,) * 3, s), ((512 // s + 2,) * 3, s))
             for s in (1, 2, 3, 4, 5, 7, 32, 511, 512)]
    # ... one more supersample step ...
    pairs += [(((d,) * 3, 512 // (d - 1)), ((d,) * 3, 512 // (d - 1) + 1))
              for d in (2, 3, 17, 65, 129, 513)]
    # ... or one more node on the last axis of a flat grid.
    pairs += [(((2, 2, 2**27 + 1), 1), ((2, 2, 2**27 + 2), 1)),
              (((3, 5, 2**21 + 1), 2), ((3, 5, 2**21 + 2), 2))]
    for (dims, s), (bigger, t) in pairs:
        assert math.prod((n - 1) * s for n in dims) <= _MAX_VOXEL_CELLS
        assert _metrics_voxel_exit(tmp_path, sphere_obj, dims, s, capsys) == (
            3, "error: voxelize reached\n"
        )
        assert calls.pop() == (dims, s)
        over = math.prod((n - 1) * t for n in bigger)
        assert over > _MAX_VOXEL_CELLS
        code, err = _metrics_voxel_exit(tmp_path, sphere_obj, bigger, t, capsys)
        assert code == 2
        assert f"error: {over} supersampled voxel cells exceed {_MAX_VOXEL_CELLS}" in err
    assert calls == []


def test_voxel_guard_leaves_invalid_grids_to_their_refusals(
    tmp_path, sphere_obj, monkeypatch, capsys
):
    import flowmesh.cli

    real = flowmesh.cli.voxelize

    def refusing_only(mesh, geometry, supersample):
        assert supersample < 1, "an oversized grid reached voxelize"
        return real(mesh, geometry, supersample)  # raises before allocating

    monkeypatch.setattr(flowmesh.cli, "voxelize", refusing_only)
    for dims, s, message in [
        ((1, 10**9, 10**9), 4, "need at least 2 nodes per axis"),
        ((-10**9, -10**9, 17), 4, "need at least 2 nodes per axis"),
        ((10**9, 10**9, 10**9), 0, "supersample must be a positive integer"),
        ((10**9, 10**9, 10**9), -3, "supersample must be a positive integer"),
    ]:
        code, err = _metrics_voxel_exit(tmp_path, sphere_obj, dims, s, capsys)
        assert code == 1
        assert message in err


def test_samples_guard_boundary(tmp_path, sphere_obj, monkeypatch, capsys):
    import flowmesh.cli
    from flowmesh.cli import _MAX_SAMPLES
    from flowmesh.metrics import VoxelizationError

    loaded, drawn = [], []

    def load_stub(path):
        loaded.append(path)
        return icosphere(0)

    def sample_stub(mesh, n, seed):
        drawn.append(n)
        raise VoxelizationError("sampling reached")

    monkeypatch.setattr(flowmesh.cli, "load_obj", load_stub)
    monkeypatch.setattr(flowmesh.cli, "sample_surface", sample_stub)
    assert _MAX_SAMPLES == 2**22
    out = tmp_path / "r.json"
    for n, code in [(_MAX_SAMPLES, 3), (_MAX_SAMPLES + 1, 2), (10**30, 2)]:
        argv = ["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                "--samples", str(n), "--out", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 2:  # refused before any mesh is read or sampled
            assert err == f"error: {n} samples exceed {_MAX_SAMPLES} (2**22)\n"
            assert loaded == [] and drawn == []
        else:
            assert err == "error: sampling reached\n"
            assert drawn.pop() == n
            loaded.clear()
        assert not out.exists()


def test_fit_guards_exit_2_before_fitting(tmp_path, monkeypatch, capsys):
    import flowmesh.cli
    from flowmesh.cli import _MAX_SAMPLES
    from flowmesh.metrics import VoxelizationError

    fitted = []

    def stub(config, template, target):
        fitted.append((template.face_count, config.sample_count))
        raise VoxelizationError("fit reached")  # no template is ever subdivided

    monkeypatch.setattr(flowmesh.cli, "fit_pipeline", stub)
    stage = {"grid_dims": [6, 6, 6], "steps": 4, "iterations": 1, "step_size": 0.3}
    cases = [  # (template level, stage subdivision levels, sample_count, exit code)
        (0, [8], 300, 3), (0, [9], 300, 2), (0, [0, 9], 300, 2), (0, [10**30], 300, 2),
        (2, [6], 300, 3), (2, [2, 7], 300, 2),
        (0, [0], _MAX_SAMPLES, 3), (0, [0], _MAX_SAMPLES + 1, 2), (0, [0], 10**30, 2),
    ]
    for n, (template_level, levels, samples, code) in enumerate(cases):
        template, config = tmp_path / f"t{n}.obj", tmp_path / f"c{n}.json"
        store_obj(icosphere(template_level), template)
        config.write_text(json.dumps({
            "stages": [dict(stage, template_subdivision_level=k) for k in levels],
            "sample_count": samples,
        }))
        out_dir = tmp_path / f"run{n}"
        assert main(["fit", "--template", str(template), "--target", str(template),
                     "--config", str(config), "--out-dir", str(out_dir)]) == code
        err = capsys.readouterr().err
        faces = icosphere(template_level).face_count
        if code == 3:
            assert err == "error: fit reached\n"
            assert fitted.pop() == (faces, samples)
        elif samples > _MAX_SAMPLES:
            assert err == f"error: {samples} samples exceed {_MAX_SAMPLES} (2**22)\n"
        else:
            assert err == (f"error: {faces} faces subdivided {levels[-1]} times exceed "
                           "1310720 faces (icosphere level 8)\n")
        assert out_dir.exists() == (code == 3)
    assert fitted == []


def test_fit_grid_cap_exits_2_before_fitting(tmp_path, monkeypatch, capsys):
    import flowmesh.cli
    from flowmesh.cli import _MAX_GRID_NODES
    from flowmesh.metrics import VoxelizationError

    fitted = []

    def stub(config, template, target):
        fitted.append(config.stages[-1].grid_dims)
        raise VoxelizationError("fit reached")  # no grid is ever allocated

    monkeypatch.setattr(flowmesh.cli, "fit_pipeline", stub)
    template = tmp_path / "t.obj"
    store_obj(icosphere(0), template)
    assert _MAX_GRID_NODES == 256 * 128 * 128 == 5 * 397 * 2113 - 1
    stage = {"steps": 4, "iterations": 1, "step_size": 0.3}
    cases = [  # (grid_dims of each stage, exit code)
        ([[256, 128, 128]], 3), ([[4, 4, 4], [256, 128, 128]], 3),
        ([[5, 397, 2113]], 2), ([[4, 4, 4], [5, 397, 2113]], 2), ([[10**30] * 3], 2),
    ]
    for n, (grids, code) in enumerate(cases):
        config = tmp_path / f"c{n}.json"
        config.write_text(json.dumps({"stages": [dict(stage, grid_dims=g) for g in grids]}))
        out_dir = tmp_path / f"run{n}"
        assert main(["fit", "--template", str(template), "--target", str(template),
                     "--config", str(config), "--out-dir", str(out_dir)]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert err == "error: fit reached\n"
            assert fitted.pop() == tuple(grids[-1])
        else:
            nodes = math.prod(grids[-1])
            assert err == f"error: {nodes} fit grid nodes exceed {_MAX_GRID_NODES} (2**22)\n"
        assert out_dir.exists() == (code == 3)
    assert fitted == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_nonpositive_samples_are_input_errors(tmp_path, sphere_obj, samples, capsys):
    out = tmp_path / "r.json"
    code = main(["metrics", "--pred", str(sphere_obj), "--gt", str(sphere_obj),
                 "--samples", samples, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_benchmark_span_targets_resolve():
    """Every library attribute the benchmark's span tracer wraps exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_benchmark_count_functions_accept_library_signatures():
    """Each count function of the span tracer accepts every call its library
    function accepts: all parameters positionally, and the defaulted ones by keyword."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    checked = 0
    for module, attr, _, count in spans.WRAPPED:
        if count is None:
            continue
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        required = [p for p in params.values() if p.default is p.empty]
        defaulted = {p.name: p.default for p in params.values() if p.default is not p.empty}
        counted = inspect.signature(count)
        counted.bind(*params)  # TypeError names the mismatch
        counted.bind(*[p.name for p in required], **defaulted)
        checked += 1
    assert checked


def test_unused_library_imports_are_benchmark_span_targets():
    """A name a library module imports but never uses must be one the span
    tracer wraps on that module; otherwise it is a dead import to delete."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", root / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(module, attr) for module, attr, _, _ in spans.WRAPPED}
    unused = []
    for path in sorted((root / "src" / "flowmesh").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(module, name) for name in sorted(imported - used)]
    # today: cli.chamfer, cli.hausdorff, cli.chamfer_normals, fit.sample_grid
    # and fit.sample_surface; a shorter WRAPPED list turns them into failures
    assert unused
    assert [f"{m}.{n}" for m, n in unused if (m, n) not in wrapped] == []
