"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured-output section) and asserts both the criterion and its runtime
budget.  The end-to-end fit is computed once and shared.
"""

import math
import time

import numpy as np
import pytest

from flowmesh import (
    DeformationChain,
    DeformationStage,
    FitConfig,
    FlowField,
    GridGeometry,
    StageConfig,
    apply_chain,
    backward,
    fit_pipeline,
    forward_loss,
    icosphere,
    integrate,
    integrate_inverse,
    load_flow,
    load_obj,
    stability_estimate,
    store_flow,
    store_obj,
    topology_report,
)
from flowmesh.fit import StageProblem, stage_grid_geometry
from flowmesh.flow_field import _boundary_mask, sample_grid
from flowmesh.mesh import unique_edges
from flowmesh.metrics import (
    chamfer,
    chamfer_normals,
    dice,
    hausdorff,
    sample_surface,
    self_intersecting_faces,
    volume_similarity,
    voxelize,
    OccupancyGrid,
)

from conftest import (
    brute_force_nn_stats,
    expm_oracle,
    linear_field,
    make_gated_field,
    stability_oracle,
)
from test_metrics import crossing_fixture, folded_strip_fixture


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} ({name}): {status}  {detail}")
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def ellipsoid_fit(ellipsoid_task):
    template, target, measure = ellipsoid_task
    config = FitConfig(
        stages=(
            StageConfig((8, 8, 8), 8, 300, 0.3, 0),
            StageConfig((12, 12, 12), 8, 200, 0.3, 1),
        ),
        sample_count=2500,
        seed=0,
    )
    start = time.perf_counter()
    result = fit_pipeline(config, template, target)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_euler_convergence_order():
    start = time.perf_counter()
    matrix = np.diag([0.5, -0.3, 0.2])
    # 17 nodes per axis: trilinear interpolation reproduces the linear field
    # exactly on interior cells, and the zero-boundary jump stays within the
    # strict gate at n = 16 (the jump's Lipschitz ratio grows with node count)
    field = linear_field(matrix, np.zeros(3), (17, 17, 17), (-2, -2, -2), (2, 2, 2))
    rng = np.random.default_rng(0)
    starts = rng.uniform(-0.3, 0.3, size=(50, 3))
    exact = starts @ expm_oracle(matrix).T
    errors = {}
    for n in (16, 32, 64, 128):
        approx = integrate(DeformationStage(field, n), starts)
        errors[n] = float(np.linalg.norm(approx - exact, axis=1).max())
    orders = [
        math.log2(errors[n] / errors[2 * n]) for n in (16, 32, 64)
    ]
    elapsed = time.perf_counter() - start
    ok = all(0.8 <= o <= 1.2 for o in orders) and elapsed < 5.0
    report(
        1,
        "euler convergence order",
        ok,
        f"orders={[round(o, 3) for o in orders]} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_injectivity_margin():
    start = time.perf_counter()
    violations = 0
    worst = math.inf
    for seed in range(10):
        steps = 8
        field = make_gated_field(
            (10, 10, 10), (-1, -1, -1), (1, 1, 1), seed=seed, steps=steps, margin=0.6
        )
        stage = DeformationStage(field, steps)
        h = stage.h
        bound = 1.0 - h * stage.stability.lipschitz_safe
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(-1.2, 1.2, size=(10000, 3))
        y = rng.uniform(-1.2, 1.2, size=(10000, 3))
        fx = x + h * sample_grid(field.geometry, field.data64, x)
        fy = y + h * sample_grid(field.geometry, field.data64, y)
        lhs = np.linalg.norm(fx - fy, axis=1)
        rhs = bound * np.linalg.norm(x - y, axis=1) - 1e-12
        violations += int(np.sum(lhs < rhs))
        worst = min(worst, float((lhs - rhs).min()))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(
        2,
        "injectivity margin",
        ok,
        f"violations={violations} worst_slack={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_3_round_trip_inversion():
    start = time.perf_counter()
    field = make_gated_field(
        (16, 16, 16), (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6), seed=42, steps=16
    )
    stage = DeformationStage(field, 16)
    mesh = icosphere(4)
    forward = integrate(stage, mesh.vertices)
    back = integrate_inverse(stage, forward)
    error = float(np.linalg.norm(back - mesh.vertices, axis=1).max())
    elapsed = time.perf_counter() - start
    ok = error < 1e-9 and elapsed < 5.0
    report(
        3,
        "round-trip inversion",
        ok,
        f"vertices={mesh.vertex_count} max_error={error:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_4_lipschitz_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        dims = tuple(int(n) for n in rng.integers(4, 9, size=3))
        spacing = tuple(float(s) for s in rng.uniform(0.2, 2.5, size=3))
        geometry = GridGeometry(dims, (0.0, 0.0, 0.0), spacing)
        data = rng.normal(size=dims + (3,)).astype(np.float32)
        field = FlowField(geometry, data)
        estimate = stability_estimate(field)
        per_axis, lipschitz, max_speed = stability_oracle(geometry, field.data64)
        same = (
            estimate.per_axis_lipschitz == tuple(per_axis)
            and estimate.lipschitz == lipschitz
            and estimate.max_speed == max_speed
        )
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 2.0
    report(
        4,
        "lipschitz oracle equivalence",
        ok,
        f"grids=20 mismatches={mismatches} elapsed={elapsed:.2f}s",
    )


def test_criterion_5_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        rng = np.random.default_rng(3000 + instance)
        template = icosphere(0, radius=float(rng.uniform(0.4, 0.7)))
        target = icosphere(0, radius=float(rng.uniform(0.5, 0.9)))
        dims = (int(rng.integers(4, 7)),) * 3
        steps = int(rng.integers(1, 4))
        geometry = stage_grid_geometry(template, target, dims, 1.5)
        target_cloud = sample_surface(target, 64, seed=instance)
        problem = StageProblem(
            geometry=geometry,
            steps=steps,
            start_vertices=template.vertices,
            faces=template.faces,
            edges=unique_edges(template.faces),
            target_points=target_cloud.points,
            chamfer_weight=1.0,
            edge_weight=float(rng.uniform(0.0, 1.0)),
            sample_count=64,
            sample_seed=instance + 500,
        )
        params = np.zeros(geometry.dims + (3,))
        interior = ~_boundary_mask(geometry.dims)
        params[interior] = 0.05 * rng.normal(size=(int(interior.sum()), 3))
        _, seed_inter = forward_loss(params, problem)
        draw = (seed_inter.face_idx, seed_inter.bary)
        _, inter = forward_loss(params, problem, draw=draw)
        grad = backward(inter)
        eps = 1e-6
        nodes = np.argwhere(interior)
        for pick in rng.choice(len(nodes), size=4, replace=False):
            i, j, k = nodes[pick]
            for c in range(3):
                plus = params.copy()
                plus[i, j, k, c] += eps
                minus = params.copy()
                minus[i, j, k, c] -= eps
                lp, _ = forward_loss(plus, problem, draw=draw)
                lm, _ = forward_loss(minus, problem, draw=draw)
                fd = (lp.total - lm.total) / (2.0 * eps)
                an = float(grad[i, j, k, c])
                # magnitude floor 1e-4: below it the central difference at
                # eps=1e-6 is dominated by float roundoff of the O(0.1) loss
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 30.0
    report(
        5,
        "gradient correctness",
        ok,
        f"instances=20 max_rel_error={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_6_end_to_end_fit(ellipsoid_task, ellipsoid_fit):
    template, target, measure = ellipsoid_task
    result, fit_elapsed = ellipsoid_fit
    start = time.perf_counter()
    initial = measure(template, target)
    stage1_mesh = apply_chain(DeformationChain((result.chain.stages[0],)), template)
    after_stage1 = measure(stage1_mesh, target)
    after_stage2 = measure(result.final_mesh, target)
    sif_count, sif_percent = self_intersecting_faces(result.final_mesh)
    genus = topology_report(result.final_mesh).genus
    elapsed = fit_elapsed + (time.perf_counter() - start)
    ok = (
        after_stage1 < 0.25 * initial
        and after_stage2 < after_stage1
        and sif_count == 0
        and genus == 0
        and elapsed < 300.0
    )
    report(
        6,
        "end-to-end ellipsoid fit",
        ok,
        f"CH initial={initial:.4f} stage1={after_stage1:.4f} "
        f"stage2={after_stage2:.4f} sif={sif_percent:.2f}% genus={genus} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_7_metric_oracles():
    start = time.perf_counter()
    problems = []

    rng = np.random.default_rng(11)
    a_pts = rng.normal(size=(500, 3))
    b_pts = rng.normal(size=(500, 3))
    d_ab, d_ba = brute_force_nn_stats(a_pts, b_pts)
    if chamfer(a_pts, b_pts) != 0.5 * (d_ab.mean() + d_ba.mean()):
        problems.append("chamfer != brute force")
    if hausdorff(a_pts, b_pts) != max(d_ab.max(), d_ba.max()):
        problems.append("hausdorff != brute force")

    mesh_a = icosphere(3)
    mesh_b = icosphere(3, radius=1.05)
    cloud_a = sample_surface(mesh_a, 500, seed=1)
    cloud_b = sample_surface(mesh_b, 500, seed=2)
    d = np.linalg.norm(
        cloud_a.points[:, None, :] - cloud_b.points[None, :, :], axis=2
    )
    expected_chn = 0.5 * (
        np.abs(
            np.einsum("nc,nc->n", cloud_a.normals, cloud_b.normals[d.argmin(axis=1)])
        ).mean()
        + np.abs(
            np.einsum("nc,nc->n", cloud_b.normals, cloud_a.normals[d.argmin(axis=0)])
        ).mean()
    )
    if chamfer_normals(cloud_a, cloud_b) != expected_chn:
        problems.append("chamfer_normals != brute force")

    if self_intersecting_faces(icosphere(3)) != (0, 0.0):
        problems.append("icosphere SIF nonzero")
    if self_intersecting_faces(crossing_fixture()) != (2, 50.0):
        problems.append("crossing fixture count wrong")
    folded_count, _ = self_intersecting_faces(folded_strip_fixture())
    if folded_count < 2:
        problems.append("folded strip count < 2")

    geometry = GridGeometry((17, 17, 17), (-1.2, -1.2, -1.2), (0.15, 0.15, 0.15))
    grid = voxelize(icosphere(4), geometry, supersample=4)
    analytic = 4.0 / 3.0 * math.pi
    vol_err = abs(grid.occupied_volume - analytic) / analytic
    if vol_err >= 0.05:
        problems.append(f"voxel volume error {vol_err:.3f}")

    g = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
    occ_a = np.zeros((2, 2, 2), bool)
    occ_b = np.zeros((2, 2, 2), bool)
    occ_a[0, 0, 0] = True
    occ_b[0, 0, 0] = occ_b[0, 0, 1] = True
    ga, gb = OccupancyGrid(g, 1, occ_a), OccupancyGrid(g, 1, occ_b)
    if dice(ga, ga) != 1.0 or volume_similarity(ga, ga) != 1.0:
        problems.append("identical grids not exact")
    # compare against the defining formulas evaluated the same way
    if dice(ga, gb) != 2.0 * 1 / (1 + 2) or volume_similarity(ga, gb) != 1.0 - abs(1 - 2) / (1 + 2):
        problems.append("subset case not exact")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    report(
        7,
        "metric oracles",
        ok,
        f"problems={problems or 'none'} voxel_vol_err={vol_err:.3%} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_8_topology_conservation():
    start = time.perf_counter()
    mesh = icosphere(3)
    before = topology_report(mesh)
    failures = []
    for seed in range(10):
        stages = tuple(
            DeformationStage(
                make_gated_field(
                    (8, 8, 8), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5),
                    seed=seed * 2 + offset, steps=8,
                ),
                8,
            )
            for offset in (0, 1)
        )
        out = apply_chain(DeformationChain(stages), mesh)
        if not np.array_equal(out.faces, mesh.faces):
            failures.append(f"chain {seed}: faces changed")
        after = topology_report(out)
        if after.euler_characteristic != before.euler_characteristic:
            failures.append(f"chain {seed}: chi changed")
        if after.genus != before.genus:
            failures.append(f"chain {seed}: genus changed")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(
        8,
        "connectivity and topology conservation",
        ok,
        f"chains=10 failures={failures or 'none'} elapsed={elapsed:.2f}s",
    )


def test_criterion_9_integration_throughput():
    field = make_gated_field((64, 64, 64), (-1, -1, -1), (1, 1, 1), seed=7, steps=16)
    stage = DeformationStage(field, 16)
    rng = np.random.default_rng(8)
    points = rng.uniform(-1, 1, size=(100000, 3))
    start = time.perf_counter()
    integrate(stage, points)
    elapsed = time.perf_counter() - start
    throughput = 100000 * 16 / elapsed
    # soft target: report only, never blocks
    report(
        9,
        "integration throughput (soft)",
        True,
        f"100k vertices x 16 steps through 64^3 field in {elapsed:.2f}s "
        f"({throughput:,.0f} point-steps/s; soft target < 1 s)",
    )


def test_criterion_10_format_round_trips(tmp_path):
    start = time.perf_counter()
    field = make_gated_field((9, 7, 5), (-2, 0, 1), (1, 3, 4), seed=12, steps=4)
    flow_path = tmp_path / "f.dff1"
    store_flow(field, flow_path)
    reloaded = load_flow(flow_path)
    flow_ok = (
        np.array_equal(reloaded.data, field.data)
        and reloaded.geometry == field.geometry
    )
    mesh = icosphere(2, radius=1.23, center=(0.1, -0.4, 2.0))
    obj_path = tmp_path / "m.obj"
    store_obj(mesh, obj_path)
    remesh = load_obj(obj_path)
    mesh_ok = np.array_equal(remesh.faces, mesh.faces) and np.allclose(
        remesh.vertices, mesh.vertices, atol=1e-8
    )
    elapsed = time.perf_counter() - start
    ok = flow_ok and mesh_ok
    report(
        10,
        "format round trips",
        ok,
        f"dff1_bitwise={flow_ok} obj_connectivity_and_1e-8={mesh_ok} "
        f"elapsed={elapsed:.2f}s",
    )
