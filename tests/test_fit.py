import hashlib
import json
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flowmesh import (
    DeformationChain,
    DeformationStage,
    FitConfig,
    FitDivergedError,
    FlowField,
    GridGeometry,
    StageConfig,
    TriangleMesh,
    apply_chain,
    backward,
    fit_pipeline,
    fit_stage,
    forward_loss,
    icosphere,
    integrate,
    store_obj,
)
from flowmesh import fit as fit_module
from flowmesh.cli import main
from flowmesh.fit import (
    StageProblem,
    derive_seed,
    stage_grid_geometry,
    unit_ball_transform,
)
from flowmesh.flow_field import TrilinearStencil, _boundary_mask
from flowmesh.mesh import unique_edges
from flowmesh.metrics import chamfer, distances, match_clouds, sample_surface
from flowmesh.metrics.distances import CloudMatch, PointTree, mean_squared_edge_length

from conftest import edge_loss, scaled_icosphere, stencil_formulas


def small_problem(seed=0, steps=2, samples=64, w_edge=1.0, grid=(5, 5, 5)):
    template = scaled_icosphere(0, radius=0.5)
    target = scaled_icosphere(0, radius=0.7)
    geometry = stage_grid_geometry(template, target, grid, 1.5)
    target_cloud = sample_surface(target, samples, seed=seed + 1000)
    problem = StageProblem(
        geometry=geometry,
        steps=steps,
        start_vertices=template.vertices,
        faces=template.faces,
        edges=unique_edges(template.faces),
        target=PointTree(target_cloud.points),
        chamfer_weight=1.0,
        edge_weight=w_edge,
        sample_count=samples,
        sample_seed=seed + 2000,
    )
    return template, target, problem


def random_interior_params(geometry, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    params = np.zeros(geometry.dims + (3,))
    interior = ~_boundary_mask(geometry.dims)
    params[interior] = scale * rng.normal(size=(int(interior.sum()), 3))
    return params


class TestForwardLoss:
    def test_zero_params_chamfer_only(self):
        template, target, problem = small_problem(w_edge=0.0)
        terms = forward_loss(np.zeros(problem.geometry.dims + (3,)), problem)
        # current stage is the identity: predicted samples come from the template
        pred_cloud = sample_surface(template, problem.sample_count, problem.sample_seed)
        expected = match_clouds(pred_cloud.points, problem.target.data).chamfer(squared=True)
        assert terms.total == expected
        assert terms.edge_term == edge_loss(template)  # reported even at weight 0

    def test_target_equals_template(self):
        template = icosphere(1)
        geometry = stage_grid_geometry(template, template, (5, 5, 5), 1.5)
        cloud = sample_surface(template, 500, seed=3)
        problem = StageProblem(
            geometry=geometry,
            steps=2,
            start_vertices=template.vertices,
            faces=template.faces,
            edges=unique_edges(template.faces),
            target=PointTree(cloud.points),
            chamfer_weight=1.0,
            edge_weight=1.0,
            sample_count=500,
            sample_seed=3,  # same seed: identical draw, chamfer exactly zero
        )
        terms = forward_loss(np.zeros(geometry.dims + (3,)), problem)
        assert terms.chamfer_term == 0.0
        assert terms.edge_term == edge_loss(template)

    def test_cross_module_consistency(self):
        template, target, problem = small_problem(seed=5, steps=3, samples=200)
        geometry = problem.geometry
        params = random_interior_params(geometry, seed=6)
        params = params.astype(np.float32).astype(np.float64)  # exactly storable
        terms = forward_loss(params, problem)

        stage = DeformationStage(FlowField(geometry, params.astype(np.float32)), 3)
        deformed = apply_chain(DeformationChain((stage,)), template)
        pred_cloud = sample_surface(deformed, problem.sample_count, problem.sample_seed)
        recomputed = problem.chamfer_weight * match_clouds(
            pred_cloud.points, problem.target.data
        ).chamfer(squared=True) + problem.edge_weight * edge_loss(deformed)
        assert terms.total == pytest.approx(recomputed, abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 8])
    def test_deformed_vertices_are_integrate_bit_for_bit(self, steps):
        template, _, problem = small_problem(seed=8, steps=steps)
        params = random_interior_params(problem.geometry, seed=9)
        field = FlowField(problem.geometry, params.astype(np.float32))
        inter = forward_loss(field.data64, problem)
        expected = integrate(DeformationStage(field, steps), template.vertices)
        assert inter.deformed_vertices.tobytes() == expected.tobytes()
        assert len(inter.step_stencils) == steps

    def test_strict_gate_violation_raises(self):
        from flowmesh import GateViolationError

        template, target, problem = small_problem(steps=1)
        params = random_interior_params(problem.geometry, seed=7, scale=50.0)
        with pytest.raises(GateViolationError):
            forward_loss(params, problem)


def pass_bits(fwd):
    """Every array and loss field of a forward pass, as bytes and floats."""
    arrays = (fwd.params, fwd.deformed_vertices, fwd.face_idx, fwd.bary, fwd.pred_points,
              fwd.match.idx_ab, fwd.match.idx_ba)
    return [a.tobytes() for a in arrays] + [fwd.stability, *loss_fields(fwd)]


class TestReuseByIdentity:
    """A pass takes over ``problem.reuse`` only when its params are the very
    array the reused integration was built from."""

    @staticmethod
    def reuse_of(params, fwd):
        return params, fwd.stability, fwd.step_stencils, fwd.deformed_vertices

    @pytest.mark.parametrize("source", ["other params", "an equal copy"])
    def test_reuse_of_another_array_is_not_taken(self, monkeypatch, source):
        _, _, problem = small_problem(seed=3, steps=3)
        params = random_interior_params(problem.geometry, seed=4)
        fresh = forward_loss(params, problem)
        if source == "other params":
            built_from = random_interior_params(problem.geometry, seed=5)
        else:
            built_from = params.copy()
        reuse = self.reuse_of(built_from, forward_loss(built_from, problem))
        stencils = count_calls(monkeypatch, TrilinearStencil, "__init__")
        fwd = forward_loss(params, replace(problem, reuse=reuse))
        assert len(stencils) == problem.steps
        assert pass_bits(fwd) == pass_bits(fresh)

    def test_reuse_of_the_same_array_is_taken(self, monkeypatch):
        _, _, problem = small_problem(seed=3, steps=3)
        params = random_interior_params(problem.geometry, seed=4)
        first = forward_loss(params, problem)
        stencils = count_calls(monkeypatch, TrilinearStencil, "__init__")
        fwd = forward_loss(params, replace(problem, reuse=self.reuse_of(params, first)))
        assert stencils == []
        assert fwd.step_stencils is first.step_stencils
        assert pass_bits(fwd) == pass_bits(first)


class TestBackward:
    def test_closed_form_single_point_one_step(self):
        # One vertex moved by one Euler step toward a single target point:
        # dL/dU_node = 2 h (x - q) * trilinear_weight(node).
        geometry = GridGeometry((4, 4, 4), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        x0 = np.array([1.3, 1.6, 1.2])  # inside the all-interior central cell
        mesh = TriangleMesh(
            np.vstack([x0, x0 + (0.3, 0, 0), x0 + (0, 0.3, 0)]), [[0, 1, 2]]
        )
        q = np.array([[1.9, 1.4, 1.7]])
        problem = StageProblem(
            geometry=geometry,
            steps=1,
            start_vertices=mesh.vertices,
            faces=mesh.faces,
            edges=unique_edges(mesh.faces),
            target=PointTree(q),
            chamfer_weight=1.0,
            edge_weight=0.0,
            sample_count=1,
            sample_seed=0,
        )
        draw = (np.array([0]), np.array([[1.0, 0.0, 0.0]]))  # the vertex itself
        params = np.zeros(geometry.dims + (3,))
        grad = backward(forward_loss(params, problem, draw=draw))
        h = 1.0
        base = np.floor(x0).astype(int)
        t = x0 - base
        expected_dir = 2.0 * h * (x0 - q[0])
        for da in (0, 1):
            for db in (0, 1):
                for dc in (0, 1):
                    w = (
                        (t[0] if da else 1 - t[0])
                        * (t[1] if db else 1 - t[1])
                        * (t[2] if dc else 1 - t[2])
                    )
                    node = (base[0] + da, base[1] + db, base[2] + dc)
                    assert np.allclose(grad[node], w * expected_dir, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        template, target, problem = small_problem(seed=seed, steps=2, samples=64)
        geometry = problem.geometry
        params = random_interior_params(geometry, seed=seed + 50)
        inter0 = forward_loss(params, problem)
        draw = (inter0.face_idx, inter0.bary)
        inter = forward_loss(params, problem, draw=draw)
        grad = backward(inter)
        eps = 1e-6
        interior_nodes = np.argwhere(~_boundary_mask(geometry.dims))
        picks = rng.choice(len(interior_nodes), size=6, replace=False)
        for pick in picks:
            i, j, k = interior_nodes[pick]
            for c in range(3):
                plus = params.copy()
                plus[i, j, k, c] += eps
                minus = params.copy()
                minus[i, j, k, c] -= eps
                lp = forward_loss(plus, problem, draw=draw)
                lm = forward_loss(minus, problem, draw=draw)
                fd = (lp.total - lm.total) / (2 * eps)
                an = grad[i, j, k, c]
                # 1e-4 magnitude floor: smaller components are FD-noise bound
                assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an), 1e-4)

    def test_boundary_gradient_zero(self):
        template, target, problem = small_problem(seed=9)
        params = random_interior_params(problem.geometry, seed=10)
        inter = forward_loss(params, problem)
        grad = backward(inter)
        assert not grad[_boundary_mask(problem.geometry.dims)].any()

    def test_zero_gradient_when_mesh_outside_grid(self):
        template = scaled_icosphere(0, radius=0.5)
        geometry = GridGeometry((4, 4, 4), (100.0, 100.0, 100.0), (1.0, 1.0, 1.0))
        problem = StageProblem(
            geometry=geometry,
            steps=2,
            start_vertices=template.vertices,
            faces=template.faces,
            edges=unique_edges(template.faces),
            target=PointTree(np.array([[200.0, 200.0, 200.0]])),
            chamfer_weight=1.0,
            edge_weight=0.0,
            sample_count=16,
            sample_seed=1,
        )
        params = random_interior_params(geometry, seed=11)
        inter = forward_loss(params, problem)
        assert not backward(inter).any()


def reference_backward(inter):
    """The reverse pass before stencil reuse: ``np.add.at`` scatters, J^T from
    the loop formulas, and a stencil rebuilt at each step from the positions,
    recomputed here."""
    from flowmesh.flow_field import TrilinearStencil, sample_grid

    problem = inter.problem
    geometry = problem.geometry
    h = 1.0 / problem.steps
    step_points = [np.array(problem.start_vertices, dtype=np.float64)]
    for _ in range(problem.steps - 1):
        x = step_points[-1]
        step_points.append(x + h * sample_grid(geometry, inter.params, x))

    w_c, w_e = problem.chamfer_weight, problem.edge_weight
    pred = inter.pred_points
    target = problem.target.data
    idx_ab, idx_ba = inter.match.idx_ab, inter.match.idx_ba
    grad_pred = (w_c / len(pred)) * (pred - target[idx_ab])
    np.add.at(grad_pred, idx_ba, (w_c / len(target)) * (pred[idx_ba] - target))
    grad_v = np.zeros_like(inter.deformed_vertices)
    scatter = inter.bary[:, :, None] * grad_pred[:, None, :]
    np.add.at(grad_v, problem.faces[inter.face_idx].ravel(), scatter.reshape(-1, 3))
    if w_e != 0.0:
        e0, e1 = problem.edges[:, 0], problem.edges[:, 1]
        delta = inter.deformed_vertices[e0] - inter.deformed_vertices[e1]
        coeff = 2.0 * w_e / len(problem.edges)
        np.add.at(grad_v, e0, coeff * delta)
        np.add.at(grad_v, e1, -coeff * delta)
    grad = np.zeros_like(inter.params)
    grad_x = grad_v
    for x in reversed(step_points):
        stencil = TrilinearStencil(geometry, x)
        g_in = grad_x[stencil.inside]
        # weights and their gradients written out rather than taken from the stencil
        weights, grads = stencil_formulas(stencil.local, geometry.spacing)
        np.add.at(
            grad.reshape(-1, 3), stencil.flat, h * weights[:, :, None] * g_in[:, None, :]
        )
        node_dot = np.einsum("npc,nc->np", inter.params.reshape(-1, 3)[stencil.flat], g_in)
        grad_x[stencil.inside] += h * np.einsum("npa,np->na", grads, node_dot)
    grad[_boundary_mask(geometry.dims)] = 0.0
    return grad


class TestBackwardReference:
    """``backward`` reuses the forward stencils and scatters one column at a
    time; its gradient must equal the reference's whole-row ``np.add.at``
    scatters bitwise."""

    @staticmethod
    def problem(steps, edge_weight):
        template = scaled_icosphere(1, radius=0.6)
        geometry = GridGeometry((6, 5, 7), (-0.5, -0.7, -0.45), (0.2, 0.3, 0.15))
        start = template.vertices.copy()
        upper = geometry.upper
        for axis in range(3):  # vertices on each upper face, others past it
            start[axis * 3:(axis + 1) * 3, axis] = upper[axis]
        start[9] = upper
        target = scaled_icosphere(2, radius=0.7)
        return StageProblem(
            geometry=geometry,
            steps=steps,
            start_vertices=start,
            faces=template.faces,
            edges=unique_edges(template.faces),
            target=PointTree(sample_surface(target, 300, seed=4).points),
            chamfer_weight=1.0,
            edge_weight=edge_weight,
            sample_count=200,
            sample_seed=5,
        )

    @pytest.mark.parametrize("steps", [1, 8])
    @pytest.mark.parametrize("edge_weight", [0.0, 1.0])
    def test_equals_reference_bitwise(self, steps, edge_weight):
        problem = self.problem(steps, edge_weight)
        geometry = problem.geometry
        inside = geometry.contains(problem.start_vertices)
        assert 10 <= inside.sum() < len(inside)
        params = random_interior_params(geometry, seed=steps, scale=0.01)
        inter = forward_loss(params, problem)
        assert len(inter.step_stencils) == steps
        expected = reference_backward(inter)
        assert expected.any()
        assert backward(inter).tobytes() == expected.tobytes()


class TestFitStage:
    def config(self, iterations=50, step_size=0.3, grid=(6, 6, 6), steps=4, **kw):
        return FitConfig(
            stages=(StageConfig(grid, steps, iterations, step_size, 0),),
            sample_count=kw.pop("sample_count", 400),
            seed=kw.pop("seed", 0),
            **kw,
        )

    def test_target_equals_template_stays_near_identity(self):
        # With the edge term off, zero parameters minimise the loss up to
        # sampling noise; the fitted surface must stay on the template
        # surface (vertex sliding within the surface is loss-neutral).
        template = icosphere(2)
        cfg = self.config(iterations=50, edge_weight=0.0, sample_count=800)
        stage, trace = fit_stage(cfg, 0, DeformationChain(), template, template)
        assert min(t.total for t in trace) <= trace[0].total
        fitted = apply_chain(DeformationChain((stage,)), template)
        drift = chamfer(
            sample_surface(fitted, 5000, 77).points,
            sample_surface(template, 5000, 77).points,
        )
        assert drift < 0.05
        assert float(np.abs(stage.field.data).max()) < 0.5

    def test_default_weights_total_never_beats_initial_much(self):
        template = icosphere(1)
        cfg = self.config(iterations=30)
        _, trace = fit_stage(cfg, 0, DeformationChain(), template, template)
        assert min(t.total for t in trace) <= trace[0].total

    def test_best_iterate_monotone(self):
        template = icosphere(1)
        base = icosphere(1)
        target = base.with_vertices(base.vertices * 1.2)
        cfg = self.config(iterations=40)
        _, trace = fit_stage(cfg, 0, DeformationChain(), template, target)
        best = np.minimum.accumulate([t.total for t in trace])
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_every_report_has_gate_margin_and_emitted_stage_gated(self):
        template = icosphere(1)
        base = icosphere(1)
        target = base.with_vertices(base.vertices * 1.3)
        cfg = self.config(iterations=30)
        stage, trace = fit_stage(cfg, 0, DeformationChain(), template, target)
        assert all(np.isfinite(t.gate_margin) for t in trace)
        assert all(t.total == pytest.approx(t.chamfer_term + t.edge_term) for t in trace)
        assert stage.gate_ok

    def test_deterministic_traces(self):
        template = icosphere(1)
        base = icosphere(1)
        target = base.with_vertices(base.vertices * np.array([1.2, 0.9, 1.0]))
        cfg = self.config(iterations=25)
        s1, t1 = fit_stage(cfg, 0, DeformationChain(), template, target)
        s2, t2 = fit_stage(cfg, 0, DeformationChain(), template, target)
        assert t1 == t2
        assert np.array_equal(s1.field.data, s2.field.data)

    def test_divergence_aborts_with_trace(self):
        # Every intermediate stays finite, but the weighted total overflows
        # on the first evaluation.
        template = icosphere(0)
        target = scaled_icosphere(0, center=(1e100, 0.0, 0.0))
        cfg = self.config(iterations=5, chamfer_weight=1e120)
        with pytest.raises(FitDivergedError) as err:
            fit_stage(cfg, 0, DeformationChain(), template, target)
        assert err.value.traces == ((),)
        assert err.value.stage_index == 0


class TestFitPipeline:
    def test_single_stage_matches_fit_stage_on_normalized_inputs(self):
        template = icosphere(1)
        base = icosphere(2)
        target = base.with_vertices(base.vertices * np.array([1.0, 0.85, 0.9]))
        cfg = FitConfig(
            stages=(StageConfig((6, 6, 6), 4, 20, 0.3, 0),), sample_count=300, seed=1
        )
        result = fit_pipeline(cfg, template, target)
        center, scale = unit_ball_transform(template.vertices, target.vertices)
        t_norm = template.with_vertices((template.vertices - center) / scale)
        s_norm = target.with_vertices((target.vertices - center) / scale)
        _, trace = fit_stage(cfg, 0, DeformationChain(), t_norm, s_norm)
        assert list(result.traces[0]) == trace
        assert len(result.chain) == 1

    def test_subdivision_levels_applied(self):
        template = icosphere(1)
        base = icosphere(2)
        target = base.with_vertices(base.vertices * 1.1)
        cfg = FitConfig(
            stages=(
                StageConfig((5, 5, 5), 4, 10, 0.3, 0),
                StageConfig((6, 6, 6), 4, 10, 0.3, 1),
            ),
            sample_count=200,
            seed=2,
        )
        result = fit_pipeline(cfg, template, target)
        # final mesh carries the subdivided template's connectivity
        from flowmesh import midpoint_subdivide

        expected_faces = midpoint_subdivide(template).faces
        assert np.array_equal(result.final_mesh.faces, expected_faces)

    def test_repeated_level_subdivides_once(self, monkeypatch):
        fitted_on = []  # face count of the template each stage is fitted on

        def recording_fit_stage(config, index, frozen, template, target):
            fitted_on.append(template.face_count)
            return real_fit_stage(config, index, frozen, template, target)

        real_fit_stage = fit_module.fit_stage
        monkeypatch.setattr(fit_module, "fit_stage", recording_fit_stage)
        template = icosphere(0)
        target = icosphere(1).with_vertices(icosphere(1).vertices * 1.1)
        cfg = FitConfig(
            stages=(
                StageConfig((5, 5, 5), 2, 1, 0.3, 0),
                StageConfig((5, 5, 5), 2, 1, 0.3, 1),
                StageConfig((5, 5, 5), 2, 1, 0.3, 1),
            ),
            sample_count=50,
        )
        result = fit_pipeline(cfg, template, target)
        assert fitted_on == [20, 80, 80]
        from flowmesh import midpoint_subdivide

        expected = apply_chain(result.chain, midpoint_subdivide(template))
        assert np.array_equal(result.final_mesh.faces, expected.faces)
        assert result.final_mesh.vertices.tobytes() == expected.vertices.tobytes()

    def test_three_stages_chamfer_non_increasing(self):
        template = icosphere(2)
        base = icosphere(3)
        target = base.with_vertices(base.vertices * np.array([1.0, 0.85, 0.7]))
        # coarse-to-fine: each stage refines the template, so the edge-loss
        # equilibrium tightens and every added stage can improve the fit
        cfg = FitConfig(
            stages=(
                StageConfig((6, 6, 6), 8, 120, 0.3, 0),
                StageConfig((8, 8, 8), 8, 80, 0.3, 1),
                StageConfig((10, 10, 10), 8, 80, 0.3, 2),
            ),
            sample_count=1500,
            seed=0,
        )
        result = fit_pipeline(cfg, template, target)

        def measure(mesh):
            return chamfer(
                sample_surface(mesh, 30000, 123).points,
                sample_surface(target, 30000, 123).points,
            )

        # chamfer after each stage boundary, measured on that stage's template
        from flowmesh import midpoint_subdivide

        values = []
        for upto in range(1, 4):
            tmpl = template
            for _ in range(cfg.stages[upto - 1].template_subdivision_level):
                tmpl = midpoint_subdivide(tmpl)
            partial = DeformationChain(result.chain.stages[:upto])
            values.append(measure(apply_chain(partial, tmpl)))
        assert values[1] <= values[0]
        assert values[2] <= values[1]

    def test_emitted_chain_lives_in_original_coordinates(self):
        center = np.array([10.0, -4.0, 2.0])
        template = scaled_icosphere(1, radius=3.0, center=center)
        base = scaled_icosphere(2, radius=3.0, center=center)
        target = base.with_vertices((base.vertices - center) * np.array([1.1, 0.9, 1.0]) + center)
        # edge weight off: the 42-vertex template's long edges would otherwise
        # dominate the loss and legitimately contract the mesh
        cfg = FitConfig(
            stages=(StageConfig((6, 6, 6), 4, 30, 0.3, 0),),
            sample_count=300,
            seed=3,
            edge_weight=0.0,
        )
        result = fit_pipeline(cfg, template, target)
        redone = apply_chain(result.chain, template)
        assert np.array_equal(redone.vertices, result.final_mesh.vertices)
        # the fitted mesh should have moved toward the target, in world units
        before = chamfer(
            sample_surface(template, 2000, 11).points,
            sample_surface(target, 2000, 11).points,
        )
        after = chamfer(
            sample_surface(result.final_mesh, 2000, 11).points,
            sample_surface(target, 2000, 11).points,
        )
        assert after < before


class TestFitConfig:
    def test_round_trip_dict(self):
        cfg = FitConfig(
            stages=(StageConfig((8, 8, 8), 8, 100, 0.5, 0),), sample_count=123, seed=9
        )
        again = FitConfig.from_dict(cfg.to_dict())
        assert again == cfg
        every_field = FitConfig(
            stages=(StageConfig((5, 6, 7), 3, 2, 0.25, 1), StageConfig((6, 6, 7), 4, 3, 0.5, 2)),
            chamfer_weight=2.0,
            edge_weight=0.0,
            sample_count=77,
            seed=4,
            domain_radius=2.0,
            gate="warn",
        )
        raw = json.loads(json.dumps(every_field.to_dict()))
        assert raw["loss_weights"] == {"chamfer": 2.0, "edge": 0.0}
        assert FitConfig.from_dict(raw) == every_field

    def test_rejects_fine_to_coarse(self):
        with pytest.raises(ValueError, match="coarse-to-fine"):
            FitConfig(
                stages=(
                    StageConfig((8, 8, 8), 4, 10, 0.1, 0),
                    StageConfig((6, 6, 6), 4, 10, 0.1, 1),
                )
            )

    def test_rejects_decreasing_levels(self):
        with pytest.raises(ValueError, match="not decrease"):
            FitConfig(
                stages=(
                    StageConfig((6, 6, 6), 4, 10, 0.1, 1),
                    StageConfig((8, 8, 8), 4, 10, 0.1, 0),
                )
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="chamfer weight"):
            FitConfig(stages=(StageConfig((4, 4, 4), 1, 1, 0.1, 0),), chamfer_weight=0.0)

    def test_missing_field_message(self):
        with pytest.raises(ValueError, match="stages"):
            FitConfig.from_dict({})

    STAGE = {"grid_dims": [4, 4, 4], "steps": 1, "iterations": 1, "step_size": 0.1}

    @pytest.mark.parametrize(
        "raw, name",
        [
            ({"stages": [dict(STAGE, step_sise=0.2)]}, "step_sise"),
            ({"stages": [STAGE], "samples": 10}, "samples"),
            ({"stages": [STAGE], "loss_weights": {"normal": 1.0}}, "normal"),
            ({"stages": [{k: v for k, v in STAGE.items() if k != "steps"}]}, "steps"),
        ],
        ids=["stage", "top-level", "loss_weights", "missing-stage-field"],
    )
    def test_refuses_unknown_and_missing_keys(self, raw, name):
        with pytest.raises(ValueError, match=name):
            FitConfig.from_dict(raw)

    def test_integral_numbers_are_stored_as_ints(self):
        raw = {"stages": [{"grid_dims": [4.0, 5, 6.0], "steps": 2.0, "iterations": 3.0,
                           "step_size": 0.1, "template_subdivision_level": 1.0}],
               "sample_count": 50.0, "seed": np.int64(7)}
        cfg = FitConfig.from_dict(raw)
        s = cfg.stages[0]
        values = s.grid_dims + (s.steps, s.iterations, s.template_subdivision_level,
                                cfg.sample_count, cfg.seed)
        assert values == (4, 5, 6, 2, 3, 1, 50, 7)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("value", ["3", 2.7, float("nan"), float("inf"), True, -1.0])
    @pytest.mark.parametrize("name", ["grid_dims", "steps", "iterations",
                                      "template_subdivision_level", "sample_count", "seed"])
    def test_refuses_values_that_are_not_integers(self, name, value):
        stage = dict(self.STAGE, template_subdivision_level=0)
        raw = {"stages": [stage]}
        if name == "grid_dims":
            stage[name] = [4, value, 4]
        elif name in stage:
            stage[name] = value
        else:
            raw[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            FitConfig.from_dict(raw)

    @pytest.mark.parametrize("value", ["0.1", True, None, float("nan"), float("inf"),
                                       float("-inf"), -1.0, 10**400])
    @pytest.mark.parametrize("name, label", [("step_size", "step_size"),
                                             ("domain_radius", "domain_radius"),
                                             ("chamfer", "chamfer weight"),
                                             ("edge", "edge weight")])
    def test_refuses_values_that_are_not_finite_numbers(self, name, label, value):
        stage = dict(self.STAGE)
        raw = {"stages": [stage]}
        if name == "step_size":
            stage[name] = value
        elif name == "domain_radius":
            raw[name] = value
        else:
            raw["loss_weights"] = {name: value}
        with pytest.raises(ValueError, match=f"^{label} must be a finite number"):
            FitConfig.from_dict(raw)

    def test_real_numbers_are_stored_as_floats(self):
        raw = {"stages": [dict(self.STAGE, step_size=1)], "domain_radius": np.float32(2),
               "loss_weights": {"chamfer": 3, "edge": 0}}
        cfg = FitConfig.from_dict(raw)
        values = (cfg.stages[0].step_size, cfg.domain_radius, cfg.chamfer_weight, cfg.edge_weight)
        assert values == (1.0, 2.0, 3.0, 0.0)
        assert all(type(v) is float for v in values)

    def test_stages_only_takes_every_dataclass_default(self):
        stage = StageConfig(grid_dims=(4, 4, 4), steps=1, iterations=1, step_size=0.1)
        assert FitConfig.from_dict({"stages": [self.STAGE]}) == FitConfig(stages=(stage,))

        @dataclass(frozen=True)
        class Retuned(FitConfig):  # a default changed on the dataclass reaches from_dict
            sample_count: int = 7
            gate: str = "warn"

        assert Retuned.from_dict({"stages": [self.STAGE]}) == Retuned(stages=(stage,))


def test_derive_seed_varies_by_role_and_iteration():
    seeds = {
        derive_seed(0, s, i, r) for s in range(2) for i in range(3) for r in range(2)
    }
    assert len(seeds) == 12


def ellipsoid(level):
    base = icosphere(level)
    return base.with_vertices(base.vertices * np.array([1.0, 0.8, 0.65]))


def stage(dims, steps, iterations, step_size, level):
    return {"grid_dims": [dims] * 3, "steps": steps, "iterations": iterations,
            "step_size": step_size, "template_subdivision_level": level}


class TestPinnedOutputs:
    """SHA-256 of every output a ``flowmesh fit`` run writes.

    Pinned with numpy 2.4.6 and scipy 1.17.1.  The fitter's forward and
    reverse passes, the integration it reuses and its k-d trees must keep
    these bits; another numpy or scipy build may round differently.
    """

    PINS = {
        # the fit_ellipsoid benchmark workload at seed 0: every proposal accepted
        "fit_ellipsoid": (3, 4, {
            "stages": [stage(8, 8, 60, 0.3, 0), stage(12, 8, 40, 0.3, 1)],
            "loss_weights": {"chamfer": 1.0, "edge": 1.0},
            "sample_count": 2500,
            "seed": 0,
        }, {
            "trace.jsonl": "fe28b720575ee7f6375e840d9ea6a26ce2a998dc570baa09aa7b259b572608af",
            "stage_000.dff1": "5f94b25cca0bb4a44f423609f9d106d899f212a4a250b25cdf1cf63123408d6c",
            "stage_001.dff1": "e3fcb6d5b8b7e2cd02afdb80e2920709677da2f1c4eef545a5cddae05354c44e",
            "fitted.obj": "ded2c414d3e0fb150a1728506ca9d4a508390cbe89706a67e4f7db49e6910cbb",
            "manifest.json": "5757b9c7e19e9b12d273200fde9a16dffdaf2cc0732282b643d4c3e9e5ddfe49",
        }),
        # a step size so large that 9 of the 20 proposals are rejected, 4 by
        # the strict gate and 5 by their loss; so integrations after a
        # rejection are not reused, and those after an acceptance are
        "rejections": (2, 3, {
            "stages": [stage(6, 4, 12, 300, 0), stage(8, 4, 8, 300, 1)],
            "sample_count": 400,
            "seed": 0,
        }, {
            "trace.jsonl": "f95f0ca887b25e824ec02702e88800d1e93c61c80071cc9fe946f29f8c32485f",
            "stage_000.dff1": "f378f973d2b9cf45fd01e535b204a959403f90576b4870d19be3c6bd9480a743",
            "stage_001.dff1": "6241a7b205ae70fbd7ecdbbb16519351d71c1fc3f7d57e68f1b8da0b871f700c",
            "fitted.obj": "92e71950bd62fbb2e27241f5cdfa421defe600c3550601c57a3e897b7b90dd6a",
            "manifest.json": "7f369a27c3c86eb92158d4b0380baa43fd76fb3e9a72659de4e3577a76308352",
        }),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_outputs_keep_their_bits(self, tmp_path, name):
        template_level, target_level, config, pins = self.PINS[name]
        store_obj(icosphere(template_level), tmp_path / "template.obj")
        store_obj(ellipsoid(target_level), tmp_path / "target.obj")
        (tmp_path / "fit.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["fit", "--template", str(tmp_path / "template.obj"),
                     "--target", str(tmp_path / "target.obj"),
                     "--config", str(tmp_path / "fit.json"), "--out-dir", str(out)])
        assert code == 0
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in pins}
        assert digests == pins


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the growing list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestFitWork:
    """What one stage builds: every accepted proposal is integrated once, and
    each cloud gets one k-d tree per iteration."""

    def config(self, iterations):
        # every proposal of this stage is accepted (checked below)
        stages = (StageConfig((6, 6, 6), 4, iterations, 0.3, 0),)
        return FitConfig(stages=stages, sample_count=400)

    def test_each_accepted_proposal_is_integrated_once(self, monkeypatch):
        totals = []
        forward = fit_module.forward_loss

        def recorded(params, problem, draw=None):
            fwd = forward(params, problem, draw)
            totals.append(fwd.total)
            return fwd

        monkeypatch.setattr(fit_module, "forward_loss", recorded)
        stencils = count_calls(monkeypatch, TrilinearStencil, "__init__")
        stabilities = count_calls(monkeypatch, fit_module, "stability_from_grid")
        steps, iterations = 4, 10
        fit_stage(self.config(iterations), 0, DeformationChain(), icosphere(2), ellipsoid(3))
        assert all(cand <= cur for cur, cand in zip(totals[::2], totals[1::2]))
        assert len(totals) == 2 * iterations
        assert len(stencils) == steps * (iterations + 1)
        assert len(stabilities) == iterations + 1  # the reused pass reuses it too

    def test_target_area_table_is_built_once_per_stage(self, monkeypatch):
        tables = count_calls(monkeypatch, fit_module, "_area_table")
        draws = count_calls(monkeypatch, fit_module, "_draw_from_table")
        fit_stage(self.config(10), 0, DeformationChain(), icosphere(2), ellipsoid(3))
        assert (len(tables), len(draws)) == (1, 10)

    def test_match_clouds_builds_one_tree_per_cloud(self, monkeypatch):
        trees = count_calls(monkeypatch, distances.PointTree, "__init__")
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
        match = match_clouds(a, b)
        assert len(trees) == 2
        assert np.array_equal(match.idx_ab, distances.nearest_neighbor_indices(a, b))
        assert np.array_equal(match.idx_ba, distances.nearest_neighbor_indices(b, a))

    @pytest.mark.parametrize("step_size, gate, certified, built", [
        (0.3, "strict", [True], 2),
        (100.0, "off", [False], 3),  # the candidate's loss rises
        (100.0, "strict", [], 2),  # the gate rejects the candidate; no candidate pass
    ], ids=["certified", "loss_rejected", "gate_rejected"])
    def test_one_iteration_builds_two_trees_when_certified(
        self, monkeypatch, step_size, gate, certified, built
    ):
        # The target cloud's tree serves the forward and the candidate pass,
        # and the forward pass builds one over its predicted cloud.  Only a
        # candidate that its frozen-correspondence bound does not certify
        # builds a third.
        trees = count_calls(monkeypatch, distances.PointTree, "__init__")
        seen = []
        certify = fit_module._certified_match

        def recorded(problem, pred, edge_term):
            match = certify(problem, pred, edge_term)
            seen.append(match is not None)
            return match

        monkeypatch.setattr(fit_module, "_certified_match", recorded)
        stages = (StageConfig((6, 6, 6), 4, 1, step_size, 0),)
        config = FitConfig(stages=stages, sample_count=400, gate=gate)
        fit_stage(config, 0, DeformationChain(), icosphere(2), ellipsoid(3))
        assert seen == certified
        assert len(trees) == built

    def test_memory_does_not_grow_with_iterations(self):
        # A reused integration that kept a reference to an earlier problem
        # would chain every iteration's stencils together.
        template, target = icosphere(3), ellipsoid(4)
        peaks = []
        for iterations in (4, 4, 40):  # the first run warms up
            stages = (StageConfig((8, 8, 8), 8, iterations, 0.3, 0),)
            config = FitConfig(stages=stages, sample_count=500)
            tracemalloc.start()
            try:
                fit_stage(config, 0, DeformationChain(), template, target)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one integration's stencils: 8 steps over every template vertex
        geometry = stage_grid_geometry(template, target, (8, 8, 8), 1.5)
        one = TrilinearStencil(geometry, template.vertices)
        slots = (one.inside, one.base, one.local)
        integration = 8 * sum(a.nbytes for a in slots)
        assert peaks[2] - peaks[1] < integration

    def test_reverse_pass_peak_memory(self):
        # 10,242 vertices x 8 steps: the stencils keep 40 B per vertex-step and
        # the reverse pass scatters one column at a time (19.5e6 B at 160 B)
        template, target = icosphere(5), ellipsoid(4)
        geometry = stage_grid_geometry(template, target, (12, 12, 12), 1.5)
        problem = StageProblem(
            geometry=geometry, steps=8, start_vertices=template.vertices,
            faces=template.faces, edges=unique_edges(template.faces),
            target=PointTree(sample_surface(target, 2500, seed=1).points),
            chamfer_weight=1.0, edge_weight=1.0, sample_count=2500, sample_seed=2,
        )
        params = random_interior_params(geometry, seed=3, scale=0.01)
        tracemalloc.start()
        try:
            inter = forward_loss(params, problem)
            assert backward(inter).any()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def frozen_bound(problem, match, fwd):
    """The candidate loss on the frozen partners of ``match``, as the test computes it."""
    frozen = CloudMatch.between(fwd.pred_points, problem.target.data,
                                match.idx_ab, match.idx_ba)
    edge = mean_squared_edge_length(fwd.deformed_vertices, problem.edges)
    return problem.chamfer_weight * frozen.chamfer(squared=True) + problem.edge_weight * edge


def loss_fields(fwd):
    """The four loss fields of a forward pass, which its trace record reports."""
    return fwd.chamfer_term, fwd.edge_term, fwd.total, fwd.gate_margin


class TestCertifiedAccept:
    """A candidate pass is accepted without NN queries only when the forward
    pass's correspondences, frozen, prove that the exact rule accepts."""

    SLACK = fit_module._CERTIFY_SLACK

    @settings(max_examples=200, deadline=None)
    @given(
        level=st.integers(0, 1),
        grid=st.integers(4, 6),
        steps=st.integers(1, 4),
        step_size=st.floats(0.01, 300.0),
        samples=st.integers(10, 400),
        gate=st.sampled_from(["strict", "off"]),
        seed=st.integers(0, 2**16),
    )
    def test_bound_holds_and_decisions_are_exact(
        self, level, grid, steps, step_size, samples, gate, seed
    ):
        forward = fit_module.forward_loss

        def audited(params, problem, draw=None):
            fwd = forward(params, problem, draw)
            if draw is not None:
                match, threshold = problem.certify
                exact = forward(params, replace(problem, certify=None), draw)
                bound = frozen_bound(problem, match, exact)
                assert exact.total <= bound * (1 + self.SLACK)
                assert (fwd.total <= threshold) == (exact.total <= threshold)
                certified = bound * (1 + self.SLACK) <= threshold
                assert certified == (fwd.match.idx_ab is match.idx_ab)
                if not certified:
                    assert loss_fields(fwd) == loss_fields(exact)
                event("certified" if certified else "exact path")
            return fwd

        stages = (StageConfig((grid,) * 3, steps, 3, step_size, 0),)
        config = FitConfig(stages=stages, sample_count=samples, seed=seed, gate=gate)
        fit_module.forward_loss = audited
        try:
            fit_stage(config, 0, DeformationChain(), icosphere(level), ellipsoid(2))
        finally:
            fit_module.forward_loss = forward

    def test_bound_inside_the_slack_takes_the_exact_path(self, monkeypatch):
        _, _, problem = small_problem()
        inter = forward_loss(np.zeros(problem.geometry.dims + (3,)), problem)
        match, draw = inter.match, (inter.face_idx, inter.bary)
        candidate = random_interior_params(problem.geometry, seed=3, scale=0.02)
        exact = forward_loss(candidate, problem, draw=draw)  # no certify: exact
        bound = frozen_bound(problem, match, exact)
        assert exact.total < bound  # some frozen partner is not the nearest
        trees = count_calls(monkeypatch, distances.PointTree, "__init__")
        for threshold, certified in [
            (bound * (1 + self.SLACK), True),
            (bound * (1 + self.SLACK / 2), False),  # the bound is within the slack
            (bound, False),
            (math.nan, False),
        ]:
            trees.clear()
            fwd = forward_loss(candidate, replace(problem, certify=(match, threshold)), draw=draw)
            assert len(trees) == (0 if certified else 1)  # the candidate's predicted cloud
            assert fwd.total == (bound if certified else exact.total)
            assert np.array_equal(fwd.match.idx_ab, (match if certified else exact.match).idx_ab)

    def test_nan_bound_takes_the_exact_path(self, monkeypatch):
        # One vertex off every drawn face sits so far out that its edges'
        # squared lengths overflow; at edge weight 0 both the bound and the
        # exact loss are 0 * inf = NaN, and only the exact pass may say so.
        _, _, problem = small_problem(w_edge=0.0)
        far = int(np.setdiff1d(np.arange(len(problem.start_vertices)), problem.faces[0])[0])
        start = problem.start_vertices.copy()
        start[far] = 1e200
        problem = replace(problem, start_vertices=start)
        rng = np.random.default_rng(4)
        bary = rng.dirichlet(np.ones(3), size=problem.sample_count)
        draw = (np.zeros(problem.sample_count, dtype=np.int64), bary)
        params = np.zeros(problem.geometry.dims + (3,))
        with np.errstate(over="ignore"):
            exact = forward_loss(params, problem, draw=draw)
            assert math.isnan(exact.total)
            trees = count_calls(monkeypatch, distances.PointTree, "__init__")
            again = forward_loss(params, replace(problem, certify=(exact.match, 1.0)), draw=draw)
        assert len(trees) == 1
        assert math.isnan(again.total)
        assert np.array_equal(again.match.idx_ab, exact.match.idx_ab)


def _copied_values():
    """One value of each library type that holds frozen arrays, built on demand."""
    from flowmesh.metrics import voxelize

    mesh = icosphere(1)
    geometry = GridGeometry((5, 5, 5), (-1.5, -1.5, -1.5), (0.75, 0.75, 0.75))
    field = FlowField(geometry, np.where(_boundary_mask((5, 5, 5))[..., None], 0.0,
                                         np.full((5, 5, 5, 3), 0.03125, np.float32)))
    stage = DeformationStage(field, 2)
    config = FitConfig((StageConfig((5, 5, 5), 2, 2, 0.3),), sample_count=50)
    return {
        "TriangleMesh": lambda: mesh,
        "FlowField": lambda: field,
        "DeformationStage": lambda: stage,
        "DeformationChain": lambda: DeformationChain((stage, stage)),
        "FitResult": lambda: fit_pipeline(config, mesh, scaled_icosphere(1, 1.2)),
        "OccupancyGrid": lambda: voxelize(mesh, geometry, 2),
    }


def _arrays(value):
    """Every ndarray reachable through the value's fields, slots and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    names = getattr(value, "__dataclass_fields__", None) or getattr(value, "__slots__", ())
    return [a for name in names for a in _arrays(getattr(value, name))]


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("kind", list(_copied_values()))
def test_copies_and_unpickles_keep_bits_and_stay_frozen(kind, how):
    import copy
    import pickle

    original = _copied_values()[kind]()
    rebuild = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how]
    clone = rebuild(original)
    assert type(clone) is type(original)
    before, after = _arrays(original), _arrays(clone)
    assert before and len(after) == len(before)
    for a, b in zip(before, after):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not b.flags.writeable
