import json

import jsonschema
import numpy as np
import pytest

from flowmesh import icosphere, load_obj, store_flow, store_obj, topology_report
from flowmesh.cli import load_schema, main
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

    def test_non_watertight_with_voxel_exit_2(self, tmp_path):
        open_mesh = tmp_path / "open.obj"
        open_mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        code = main(
            ["metrics", "--pred", str(open_mesh), "--gt", str(open_mesh),
             "--samples", "100", "--voxel-dims", "4", "4", "4",
             "--voxel-spacing", "1", "1", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(
            ["metrics", "--pred", str(tmp_path / "missing.obj"),
             "--gt", str(tmp_path / "missing.obj"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

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
