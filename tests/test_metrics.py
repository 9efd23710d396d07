import collections
import functools
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowmesh import (
    DeformationChain,
    DeformationStage,
    FlowField,
    GridGeometry,
    TriangleMesh,
    apply_chain,
    icosphere,
    topology_report,
)
from flowmesh.metrics import (
    NotWatertightError,
    OccupancyGrid,
    SampledCloud,
    VoxelizationError,
    chamfer,
    chamfer_normals,
    dice,
    draw_surface_samples,
    hausdorff,
    match_clouds,
    nearest_neighbor_indices,
    points_from_draw,
    sample_surface,
    self_intersecting_faces,
    triangle_areas,
    triangles_intersect,
    volume_similarity,
    voxelize,
)

from flowmesh.metrics import distances, intersection, sampling, voxel

from conftest import brute_force_nn_stats, edge_loss, make_gated_field, scaled_icosphere


def unit_normals(vertices, faces):
    """Each face's unit normal as sample_surface divides it out of _face_cross."""
    cross, norm, _ = sampling._face_cross(vertices, faces)
    return cross / norm[:, None]


def cloud_from_points(points, normals=None):
    points = np.asarray(points, dtype=np.float64)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return SampledCloud(points=points, normals=np.asarray(normals, dtype=np.float64))


def moller_tri_tri(t1, t2):
    """Independent float tri-tri overlap oracle (interval method).

    Valid for the generic-position fixtures used in these tests.
    """
    t1 = np.asarray(t1, float)
    t2 = np.asarray(t2, float)

    def plane(tri):
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        return n, -np.dot(n, tri[0])

    n1, d1 = plane(t1)
    dist2 = t2 @ n1 + d1
    if np.all(dist2 > 1e-12) or np.all(dist2 < -1e-12):
        return False
    n2, d2 = plane(t2)
    dist1 = t1 @ n2 + d2
    if np.all(dist1 > 1e-12) or np.all(dist1 < -1e-12):
        return False
    direction = np.cross(n1, n2)
    axis = np.argmax(np.abs(direction))

    def interval(tri, dist):
        # order so that vertex 0 is on one side alone
        signs = dist > 0
        alone = 0
        for i in range(3):
            if signs[i] != signs[(i + 1) % 3] and signs[i] != signs[(i + 2) % 3]:
                alone = i
        order = [alone, (alone + 1) % 3, (alone + 2) % 3]
        p = tri[order][:, axis]
        d = dist[order]
        t_a = p[0] + (p[1] - p[0]) * d[0] / (d[0] - d[1])
        t_b = p[0] + (p[2] - p[0]) * d[0] / (d[0] - d[2])
        return min(t_a, t_b), max(t_a, t_b)

    lo1, hi1 = interval(t1, dist1)
    lo2, hi2 = interval(t2, dist2)
    return max(lo1, lo2) <= min(hi1, hi2)


class TestSampling:
    def test_area_proportional(self):
        # triangle areas 1 and 3: the larger face gets 75% +- 1% at n = 1e5
        mesh = TriangleMesh(
            [[0, 0, 0], [2, 0, 0], [0, 1, 0], [10, 0, 0], [16, 0, 0], [10, 1, 0]],
            [[0, 1, 2], [3, 4, 5]],
        )
        face_idx, _ = draw_surface_samples(mesh, 100000, seed=0)
        frac = np.mean(face_idx == 1)
        assert abs(frac - 0.75) < 0.01

    def test_deterministic(self):
        mesh = icosphere(2)
        a = sample_surface(mesh, 1000, seed=42)
        b = sample_surface(mesh, 1000, seed=42)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    def test_per_face_frequencies_within_3_sigma(self):
        mesh = icosphere(0)  # 20 equal-area faces
        n = 100000
        face_idx, _ = draw_surface_samples(mesh, n, seed=6)
        counts = np.bincount(face_idx, minlength=20)
        p = 1.0 / 20.0
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3.0 * sigma)

    def test_single_point_inside_triangle(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        cloud = sample_surface(mesh, 1, seed=3)
        x, y, z = cloud.points[0]
        assert z == 0.0 and x >= 0 and y >= 0 and x + y <= 1

    def test_normals_unit_and_points_on_plane(self):
        mesh = scaled_icosphere(2, radius=1.3)
        cloud = sample_surface(mesh, 5000, seed=4)
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)
        face_idx, _ = draw_surface_samples(mesh, 5000, seed=4)  # the faces the cloud drew
        corners = mesh.triangle_corners()[face_idx]
        plane_dist = np.abs(
            np.einsum("nc,nc->n", cloud.points - corners[:, 0], cloud.normals)
        )
        diameter = np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
        assert np.all(plane_dist <= 1e-9 * np.maximum(diameter, 1.0))

    def test_areas_below_the_squares_underflow_are_exact(self):
        sphere = icosphere(3)
        areas = triangle_areas(sphere.vertices, sphere.faces)
        tiny = triangle_areas(sphere.vertices * 2.0**-450, sphere.faces)
        assert np.array_equal(tiny, areas * 2.0**-900)

    @pytest.mark.parametrize("exponent", [-450, -520, -530, -600, -900])
    def test_unit_normals_at_tiny_scales_are_exact(self, exponent):
        # the cross products of these faces underflow; their rescaled ones must
        # be divided by their norms at the working scale, not back in the subnormals
        sphere = icosphere(3)
        normals = unit_normals(sphere.vertices, sphere.faces)
        tiny = unit_normals(sphere.vertices * 2.0**exponent, sphere.faces)
        assert tiny.tobytes() == normals.tobytes()

    def test_tiny_scale_draws_the_same_faces(self):
        sphere = icosphere(3)
        tiny = TriangleMesh(sphere.vertices * 2.0**-266, sphere.faces)
        expected = draw_surface_samples(sphere, 2000, seed=4)[0]
        assert np.array_equal(draw_surface_samples(tiny, 2000, seed=4)[0], expected)

    @pytest.mark.parametrize("level", [0, 2, 4])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-500, 1e70])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_points_are_those_of_the_draw(self, level, scale, seed):
        mesh = scaled_icosphere(level, radius=scale)
        draw = draw_surface_samples(mesh, 1000, seed)
        expected = points_from_draw(mesh.vertices, mesh.faces, *draw)
        assert sample_surface(mesh, 1000, seed).points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 17, 50_000])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_table_draw_is_the_generator_choice_draw(self, seed, n):
        # the draw rng.choice(p=areas / total) took, on icosphere and ellipsoid
        # areas at three scales and on areas with zero-area faces among them
        rng = np.random.default_rng(seed + 100)
        holes = rng.random(999)
        holes[::3] = 0.0
        area_sets = [holes]
        for level in (0, 4):
            base = icosphere(level).vertices
            for stretch in ((1.0, 1.0, 1.0), (1.0, 0.8, 0.65)):
                for scale in (2.0**-300, 1.0, 1e70):
                    vertices = base * np.array(stretch) * scale
                    area_sets.append(triangle_areas(vertices, icosphere(level).faces))
        for areas in area_sets:
            face_idx, bary = sampling._draw_from_table(sampling._area_table(areas), n, seed)
            choice = np.random.default_rng(seed)
            expected = choice.choice(len(areas), size=n, p=areas / areas.sum())
            su, v = np.sqrt(choice.random(n)), choice.random(n)
            assert face_idx.tobytes() == expected.tobytes()
            assert bary.tobytes() == np.stack([1.0 - su, su * (1.0 - v), su * v], 1).tobytes()

    def test_degenerate_mesh_rejected(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
        with pytest.raises(ValueError, match="positive area"):
            sample_surface(mesh, 10, seed=0)


class TestCloudMetrics:
    def test_identical_clouds(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 3))
        normals = rng.normal(size=(100, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = cloud_from_points(pts, normals)
        assert chamfer(cloud, cloud) == 0.0
        assert hausdorff(cloud, cloud) == 0.0
        assert chamfer_normals(cloud, cloud) == 1.0

    def test_single_points_distance(self):
        a = cloud_from_points([[0, 0, 0]])
        b = cloud_from_points([[3, 4, 0]])
        assert chamfer(a, b) == 5.0
        assert hausdorff(a, b) == 5.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(100, 3))
        b = rng.normal(size=(120, 3))
        d_ab, d_ba = brute_force_nn_stats(a, b)
        assert chamfer(a, b) == 0.5 * (d_ab.mean() + d_ba.mean())
        assert hausdorff(a, b) == max(d_ab.max(), d_ba.max())
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        match = match_clouds(a, b)
        assert match.chamfer(squared=True) == 0.5 * ((d_ab**2).mean() + (d_ba**2).mean())
        assert np.array_equal(match.idx_ab, d.argmin(axis=1))
        assert np.array_equal(match.idx_ba, d.argmin(axis=0))
        assert np.array_equal(match.d_ab, d_ab)
        assert np.array_equal(match.d_ba, d_ba)

    def test_tied_targets_give_the_minimum_distance(self):
        """On lattices, many queries are equally near to 2, 4 or 8 targets.
        Which of the tied targets nearest_neighbor_indices returns is
        unspecified; its distance must equal the all-pairs minimum."""
        axis = np.arange(8.0)
        targets = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        half = np.arange(-0.5, 8.0, 0.5)
        queries = np.stack(np.meshgrid(half, half, half, indexing="ij"), -1).reshape(-1, 3)
        for q, t in ((queries, targets), (targets, queries)):
            idx = nearest_neighbor_indices(q, t)
            d = np.linalg.norm(q - t[idx], axis=1)
            d_all = np.linalg.norm(q[:, None, :] - t[None, :, :], axis=2)
            assert np.array_equal(d, d_all.min(axis=1))
        d_all = np.linalg.norm(queries[:, None, :] - targets[None, :, :], axis=2)
        ties = (d_all == d_all.min(axis=1, keepdims=True)).sum(axis=1)
        assert set(ties.tolist()) == {1, 2, 4, 8}

    def test_chamfer_normals_brute_force(self):
        rng = np.random.default_rng(7)
        na = rng.normal(size=(80, 3))
        nb = rng.normal(size=(90, 3))
        na /= np.linalg.norm(na, axis=1, keepdims=True)
        nb /= np.linalg.norm(nb, axis=1, keepdims=True)
        pa = rng.normal(size=(80, 3))
        pb = rng.normal(size=(90, 3))
        a = cloud_from_points(pa, na)
        b = cloud_from_points(pb, nb)
        d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        idx_ab = d.argmin(axis=1)
        idx_ba = d.argmin(axis=0)
        expected = 0.5 * (
            np.abs(np.einsum("nc,nc->n", na, nb[idx_ab])).mean()
            + np.abs(np.einsum("nc,nc->n", nb, na[idx_ba])).mean()
        )
        assert chamfer_normals(a, b) == expected

    def test_orthogonal_normals_give_zero(self):
        pts = np.random.default_rng(8).normal(size=(50, 3))
        a = cloud_from_points(pts, np.tile([1.0, 0.0, 0.0], (50, 1)))
        b = cloud_from_points(pts, np.tile([0.0, 1.0, 0.0], (50, 1)))
        assert chamfer_normals(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(75, 3))
        assert chamfer(a, b) == chamfer(b, a)
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            chamfer(np.zeros((0, 3)), np.ones((5, 3)))


def blockwise_argmin(queries, targets, block=256):
    """All-pairs nearest target of each query, a block of queries at a time,
    by the squared distance summed over x, y, z as the k-d tree sums it."""
    out = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), block):
        diff = queries[start:start + block, None, :] - targets[None, :, :]
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
        out[start:start + block] = d2.argmin(axis=1)
    return out


class TestNearestNeighboursAtTreeScale:
    """Clouds of many leaves, where the bucket size and the leaf-order
    queries can make a difference."""

    @pytest.fixture(scope="class")
    def far_clouds(self):
        sphere = icosphere(3)
        ellipsoid = sphere.with_vertices(sphere.vertices * np.array([1.0, 0.8, 0.65]))
        a = sample_surface(sphere, 3000, seed=0).points
        b = sample_surface(ellipsoid, 3200, seed=1).points
        assert min(len(a), len(b)) > 40 * distances._LEAF_SIZE
        return a, b

    def test_match_clouds_equals_blockwise_all_pairs(self, far_clouds):
        a, b = far_clouds
        match = match_clouds(a, b)
        assert np.array_equal(match.idx_ab, blockwise_argmin(a, b))
        assert np.array_equal(match.idx_ba, blockwise_argmin(b, a))

    def test_query_order_does_not_change_the_indices(self, far_clouds):
        a, b = far_clouds
        for q, t in ((a, b), (b, a)):
            p = np.random.default_rng(3).permutation(len(q))
            assert np.array_equal(
                nearest_neighbor_indices(q[p], t), nearest_neighbor_indices(q, t)[p]
            )

    def test_one_target(self, far_clouds):
        a, b = far_clouds
        assert np.array_equal(nearest_neighbor_indices(a, b[:1]), np.zeros(len(a), np.int64))
        assert np.array_equal(nearest_neighbor_indices(a[:1], b), blockwise_argmin(a[:1], b))

    def test_fewer_points_than_a_leaf(self, far_clouds):
        a, b = far_clouds
        n = distances._LEAF_SIZE - 1
        for q, t in ((a[:n], b[:n - 5]), (a[:n], b), (a, b[:n])):
            assert np.array_equal(nearest_neighbor_indices(q, t), blockwise_argmin(q, t))

    def test_queries_identical_to_the_targets(self, far_clouds):
        for cloud in far_clouds:
            idx = nearest_neighbor_indices(cloud, cloud)
            assert idx.dtype == np.int64
            assert np.array_equal(idx, np.arange(len(cloud)))


class TestEdgeLoss:
    def test_unit_tetrahedron(self):
        # regular tetrahedron with unit edges
        verts = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
        ) / math.sqrt(8.0)
        mesh = TriangleMesh(verts, [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
        assert edge_loss(mesh) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_quadratic(self):
        mesh = icosphere(1)
        base = edge_loss(mesh)
        scaled = edge_loss(mesh.with_vertices(mesh.vertices * 3.0))
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_icosahedron_matches_enumeration_and_closed_form(self):
        mesh = icosphere(0)
        seen = set()
        total = 0.0
        for face in mesh.faces:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted((face[a], face[b])))
                if key in seen:
                    continue
                seen.add(key)
                delta = mesh.vertices[key[0]] - mesh.vertices[key[1]]
                total += float(delta @ delta)
        enumeration = total / len(seen)
        assert len(seen) == 30
        assert edge_loss(mesh) == pytest.approx(enumeration, rel=1e-14)
        closed_form = 16.0 / (10.0 + 2.0 * math.sqrt(5.0))
        assert edge_loss(mesh) == pytest.approx(closed_form, rel=1e-12)


def crossing_fixture():
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.2, 0.4, 0.5],
            [10, 0, 0], [11, 0, 0], [10, 1, 0],
            [20, 0, 0], [21, 0, 0], [20, 1, 0],
        ],
        dtype=np.float64,
    )
    faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
    return TriangleMesh(verts, faces)


def folded_strip_fixture():
    """Three-quad strip whose far quad is folded back and one vertex pushed
    through the first quad, creating crossings between vertex-disjoint faces.
    The middle quad is tilted slightly so every tested pair is in generic
    position (keeps the float interval oracle valid)."""
    verts = np.array(
        [
            [0.0, 0.0, 0.0],  # v0   quad 1
            [1.0, 0.0, 0.0],  # v1
            [0.0, 1.0, 0.0],  # v2
            [1.0, 1.0, 0.0],  # v3
            [0.0, 2.0, 0.02],  # v4   quad 2 (near flat)
            [1.0, 2.0, 0.02],  # v5
            [0.3, 0.4, -0.3],  # v6  quad 3, folded under and pushed through
            [0.7, 0.5, 0.3],  # v7
        ]
    )
    faces = np.array(
        [
            [0, 1, 2], [2, 1, 3],  # quad 1
            [2, 3, 4], [4, 3, 5],  # quad 2
            [4, 5, 6], [6, 5, 7],  # quad 3
        ]
    )
    return TriangleMesh(verts, faces)


class TestSelfIntersection:
    def test_icosphere_clean(self):
        assert self_intersecting_faces(icosphere(3)) == (0, 0.0)

    def test_crossing_pair_counts_both(self):
        count, percent = self_intersecting_faces(crossing_fixture())
        assert count == 2
        assert percent == 50.0

    def test_folded_strip_matches_brute_force(self):
        mesh = folded_strip_fixture()
        corners = mesh.triangle_corners()
        flagged = np.zeros(mesh.face_count, dtype=bool)
        for i in range(mesh.face_count):
            for j in range(i + 1, mesh.face_count):
                if set(mesh.faces[i]) & set(mesh.faces[j]):
                    continue
                if moller_tri_tri(corners[i], corners[j]):
                    flagged[i] = flagged[j] = True
        expected = int(flagged.sum())
        count, percent = self_intersecting_faces(mesh)
        assert expected >= 2
        assert count == expected
        assert percent == pytest.approx(100.0 * expected / mesh.face_count)

    def test_small_gated_deformation_stays_clean(self):
        mesh = icosphere(2)
        field = make_gated_field(
            (8, 8, 8), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), seed=13, steps=8, margin=0.2
        )
        # shrink the field well below the edge length
        small = FlowField(field.geometry, field.data * np.float32(0.05))
        out = apply_chain(DeformationChain((DeformationStage(small, 8),)), mesh)
        assert self_intersecting_faces(out) == (0, 0.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e-105, 1e200])
    def test_census_at_extreme_scales(self, scale):
        # the plane-side prefilter's products underflow or overflow here
        sphere = icosphere(2)
        vertices = sphere.vertices.copy()
        vertices[vertices[:, 2] > 0.7, 2] -= 1.6
        expected = self_intersecting_faces(TriangleMesh(vertices, sphere.faces))
        assert expected[0] > 0
        assert self_intersecting_faces(TriangleMesh(vertices * scale, sphere.faces)) == expected

    @pytest.mark.parametrize("lift", [False, True], ids=["z=0", "z=x+y"])
    def test_zero_area_face_beside_a_coplanar_face(self, lift):
        # the zero-area face's line crosses the other face, but the face does not
        corners = np.array(
            [[(3, -2, 0), (3, -3, 0), (3, -2.5, 0)], [(3, 0, 0), (0, -2, 0), (-3, 2, 0)]]
        )
        if lift:
            corners[..., 2] = corners[..., 0] + corners[..., 1]
        assert self_intersecting_faces(soup_mesh(corners)) == (0, 0.0)


class TestTriangleIntersectPrimitive:
    def test_disjoint(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(5, 5, 5), (6, 5, 5), (5, 6, 5)]
        assert not triangles_intersect(t1, t2)

    def test_piercing(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(0.2, 0.2, -1), (0.3, 0.2, 1), (0.2, 0.3, 1)]
        assert triangles_intersect(t1, t2)

    def test_exact_point_touch(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(0.25, 0.25, 0.0), (1, 1, 1), (2, 1, 1)]
        assert triangles_intersect(t1, t2)

    def test_parallel_close_planes(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(0, 0, 1e-14), (1, 0, 1e-14), (0, 1, 1e-14)]
        assert not triangles_intersect(t1, t2)

    def test_coplanar_overlap(self):
        t1 = [(0, 0, 0), (2, 0, 0), (0, 2, 0)]
        t2 = [(0.5, 0.5, 0), (3, 0.5, 0), (0.5, 3, 0)]
        assert triangles_intersect(t1, t2)

    def test_coplanar_containment(self):
        t1 = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
        t2 = [(0.5, 0.5, 0), (1, 0.5, 0), (0.5, 1, 0)]
        assert triangles_intersect(t1, t2)
        assert triangles_intersect(t2, t1)

    def test_coplanar_disjoint(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(5, 5, 0), (6, 5, 0), (5, 6, 0)]
        assert not triangles_intersect(t1, t2)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e300])
    def test_coplanar_pairs_at_extreme_scales(self, scale):
        # a float normal of the triangles underflows or overflows here
        t1 = np.array([(0, 0, 0), (2, 0, 0), (0, 2, 0)]) * scale
        overlapping = np.array([(0.5, 0.5, 0), (3, 0.5, 0), (0.5, 3, 0)]) * scale
        assert triangles_intersect(t1, overlapping)
        assert not triangles_intersect(t1, overlapping + (2 * scale, 2 * scale, 0))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_census_refuses(self, bad):
        sphere = icosphere(3)
        vertices = sphere.vertices.copy()
        vertices[5, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            self_intersecting_faces(TriangleMesh(vertices, sphere.faces))

    def test_primitive_refuses_infinite_corner(self):
        t1 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        t2 = [(0.2, 0.2, -1), (0.3, 0.2, np.inf), (0.2, 0.3, 1)]
        with pytest.raises(ValueError, match="finite"):
            triangles_intersect(t1, t2)


def zero_area_2d(tri):
    (ax, ay), (bx, by), (cx, cy) = tri
    return (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)


def separated_2d(p, q):
    """Whether closed integer 2D triangles p and q, zero-area ones included,
    are disjoint: some axis strictly separates their projections.  The axes
    are both triangles' edge directions and normals and the differences of
    their vertices, which covers every shape of their Minkowski difference."""
    edges = [(b[0] - a[0], b[1] - a[1]) for t in (p, q) for a, b in zip(t, t[1:] + t[:1])]
    diffs = [(b[0] - a[0], b[1] - a[1]) for a in p for b in q]
    for ax, ay in edges + [(-y, x) for x, y in edges] + diffs:
        sp = [ax * x + ay * y for x, y in p]
        sq = [ax * x + ay * y for x, y in q]
        if max(sp) < min(sq) or max(sq) < min(sp):
            return True
    return False


@functools.cache
def coplanar_draw(count=4000, seed=23):
    """Random pairs of small-integer 2D triangles, each pair also embedded in
    an integer plane z = a x + b y + c with its axes permuted: for each pair,
    (the 2D pair, the 3D pair, how many of the two have zero area)."""
    rng = np.random.default_rng(seed)
    flat = rng.integers(-3, 4, (count, 2, 3, 2))
    a, b, c = rng.integers(-3, 4, (3, count, 1, 1, 1))
    lifted = np.concatenate([flat, a * flat[..., :1] + b * flat[..., 1:] + c], axis=-1)
    axes = rng.permuted(np.tile([0, 1, 2], (count, 1)), axis=1)
    lifted = np.take_along_axis(lifted, axes[:, None, None, :], axis=-1)
    draw = []
    for (p, q), t in zip(flat.tolist(), lifted):
        p, q = [tuple(v) for v in p], [tuple(v) for v in q]
        draw.append(((p, q), t, zero_area_2d(p) + zero_area_2d(q)))
    return draw


def coplanar_mismatches(zero_areas):
    """The drawn pairs with that many zero-area triangles where
    triangles_intersect disagrees with the separating-axis oracle."""
    return [
        pair
        for pair, (t1, t2), zeros in coplanar_draw()
        if zeros in zero_areas and triangles_intersect(t1, t2) == separated_2d(*pair)
    ]


class TestCoplanarOracle:
    def test_matches_separating_axes_unless_both_have_zero_area(self):
        counts = collections.Counter(zeros for _, _, zeros in coplanar_draw())
        assert counts[1] > 100 and counts[2] > 0
        assert coplanar_mismatches({0, 1}) == []

    def test_overlapping_zero_area_pairs(self):
        assert coplanar_mismatches({2}) == []


def _sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def _dot(p, q):
    return sum(x * y for x, y in zip(p, q))


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def segments_meet_3d(a, b, c, d):
    """Whether closed integer 3D segments (a,b) and (c,d) meet, either of them
    possibly a point: Cramer's rule for non-parallel segments, interval overlap
    along the line for collinear ones."""
    u, v, w = _sub(b, a), _sub(d, c), _sub(c, a)
    if u == (0, 0, 0) and v == (0, 0, 0):
        return a == c
    if u == (0, 0, 0):
        return segments_meet_3d(c, d, a, b)
    if v == (0, 0, 0):  # the point c on the segment (a, b)
        return _cross(u, w) == (0, 0, 0) and 0 <= _dot(w, u) <= _dot(u, u)
    n = _cross(u, v)
    if n != (0, 0, 0):
        # a + s u = c + t v with s, t in [0, 1], solved in the segments' plane
        nn = _dot(n, n)
        return (
            _dot(w, n) == 0
            and 0 <= _dot(_cross(w, v), n) <= nn
            and 0 <= _dot(_cross(w, u), n) <= nn
        )
    if _cross(u, w) != (0, 0, 0):
        return False  # parallel lines
    tc, td = _dot(w, u), _dot(_sub(d, a), u)
    return max(min(tc, td), 0) <= min(max(tc, td), _dot(u, u))


def hull_segment(tri):
    """The two farthest-apart corners of a zero-area triangle: its whole extent."""
    return max(
        ((p, q) for p in tri for q in tri), key=lambda pq: _dot(_sub(*pq), _sub(*pq))
    )


class TestZeroAreaPairsIn3D:
    def test_matches_segment_oracle(self):
        # collinear integer corners p + t d; for half the pairs the second's p
        # lies on the first's line, so that many of them meet
        rng = np.random.default_rng(41)
        count = 3000
        base = rng.integers(-2, 3, (2, count, 1, 3))
        direction = rng.integers(-1, 2, (2, count, 1, 3))
        steps = rng.integers(-2, 3, (2, count, 3, 1))
        on_line = rng.random(count) < 0.5
        shift = rng.integers(-2, 3, (on_line.sum(), 1, 1))
        base[1, on_line] = base[0, on_line] + shift * direction[0, on_line]
        tris = (base + steps * direction).tolist()
        segments = [[hull_segment([tuple(p) for p in t]) for t in side] for side in tris]
        expected = [segments_meet_3d(*s1, *s2) for s1, s2 in zip(*segments)]
        skew = [
            _dot(_cross(_sub(b, a), _sub(d, c)), _sub(c, a)) != 0 for (a, b), (c, d) in zip(*segments)
        ]
        assert 100 < sum(expected) < count - 100
        assert sum(skew) > 100
        assert [triangles_intersect(t1, t2) for t1, t2 in zip(*tris)] == expected


def fraction_orient3d(a, b, c, d):
    ad, bd, cd = ([Fraction(x) - Fraction(y) for x, y in zip(p, d)] for p in (a, b, c))
    det = (
        ad[0] * (bd[1] * cd[2] - bd[2] * cd[1])
        + ad[1] * (bd[2] * cd[0] - bd[0] * cd[2])
        + ad[2] * (bd[0] * cd[1] - bd[1] * cd[0])
    )
    return (det > 0) - (det < 0)


def fraction_orient2d(a, b, c):
    ac, bc = ([Fraction(x) - Fraction(y) for x, y in zip(p, c)] for p in (a, b))
    det = ac[0] * bc[1] - ac[1] * bc[0]
    return (det > 0) - (det < 0)


def scaled_near_planes(rng, count, dims, dense):
    """(count, dims + 1, dims) points at scales 10**e, e from -320 to 300 for
    half of them and across ``dense`` for the rest: ``dims`` random points,
    then a rounded affine combination of them, moved off their plane (or
    line) by a random amount for half of the cases."""
    half = count // 2
    e = np.concatenate([rng.uniform(-320, 300, half), rng.uniform(*dense, count - half)])
    scale = 10.0 ** e[:, None, None]
    base = rng.uniform(-1, 1, (count, dims, dims)) * scale
    w = rng.uniform(-1, 2, (count, dims - 1, 1))
    near = base[:, :1] + (w * (base[:, 1:] - base[:, :1])).sum(axis=1, keepdims=True)
    shift = 10.0 ** rng.uniform(-330, e)[:, None, None] * rng.uniform(-1, 1, (count, 1, dims))
    near = near + shift * (rng.random((count, 1, 1)) < 0.5)
    return np.concatenate([base, near], axis=1)


class TestExactSignsAtEveryScale:
    """The float filters certify a sign only where it is exact, from the
    subnormal range to 1e300: products that underflow are allowed for."""

    def test_orient3d_matches_fractions(self):
        points = scaled_near_planes(np.random.default_rng(31), 4000, 3, (-112, -100))
        wrong = [p for p in points.tolist() if intersection.orient3d(*p) != fraction_orient3d(*p)]
        assert wrong == []

    def test_orient2d_matches_fractions(self):
        points = scaled_near_planes(np.random.default_rng(32), 4000, 2, (-170, -150))
        wrong = [p for p in points.tolist() if intersection.orient2d(*p) != fraction_orient2d(*p)]
        assert wrong == []

    def test_prefilter_drops_only_separated_pairs(self):
        # t2 is the near point plus t1's own edge vectors: up to rounding, it lies
        # in t1's plane or, for the moved half, in a parallel one
        rng = np.random.default_rng(33)
        count = 4000
        near = scaled_near_planes(rng, count, 3, (-112, -100))
        t1, on = near[:, :3], near[:, 3:]
        t2 = np.concatenate([on, on + (near[:, :2] - near[:, 2:3])[:, ::-1]], axis=1)
        kept, _ = intersection._plane_side_prefilter(
            np.concatenate([t1, t2]), np.arange(count), np.arange(count) + count
        )
        dropped = np.setdiff1d(np.arange(count), kept)
        assert 0 < len(dropped) < count

        def separates(tri, other):
            signs = {fraction_orient3d(*tri, p) for p in other}
            return signs in ({1}, {-1})

        wrong = [k for k in dropped if not (separates(t1[k], t2[k]) or separates(t2[k], t1[k]))]
        assert wrong == []


def sweep_pairs_reference(corners, faces):
    """The per-face sweep-and-prune broad phase the cell pass replaced."""
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    order = np.argsort(lo[:, 0], kind="stable")
    lo_s, hi_s = lo[order], hi[order]
    faces_s = faces[order]
    out = []
    starts = np.searchsorted(lo_s[:, 0], hi_s[:, 0], side="right")
    for i in range(len(order)):
        j0, j1 = i + 1, starts[i]
        if j1 <= j0:
            continue
        overlap = (
            (lo_s[j0:j1, 1] <= hi_s[i, 1])
            & (hi_s[j0:j1, 1] >= lo_s[i, 1])
            & (lo_s[j0:j1, 2] <= hi_s[i, 2])
            & (hi_s[j0:j1, 2] >= lo_s[i, 2])
        )
        if not overlap.any():
            continue
        js = j0 + np.nonzero(overlap)[0]
        shared = np.zeros(len(js), dtype=bool)
        for a in range(3):
            for b in range(3):
                shared |= faces_s[js, a] == faces_s[i, b]
        js = js[~shared]
        if len(js):
            out.append(np.stack([np.full(len(js), i), js], axis=1))
    if not out:
        return np.zeros((0, 2), dtype=np.int64)
    return order[np.concatenate(out)]


def soup_mesh(corners):
    """One face per (3, 3) corner block, no vertex shared between faces."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
    n = len(corners)
    return TriangleMesh(corners.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


def coincident_copies(n):
    return soup_mesh(np.tile([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], (n, 1, 1)))


def with_spanning_face(mesh):
    """``mesh`` plus one face spanning its bounding box."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    v = len(mesh.vertices)
    return TriangleMesh(
        np.vstack([mesh.vertices, lo, hi, [lo[0], hi[1], lo[2]]]),
        np.vstack([mesh.faces, [[v, v + 1, v + 2]]]),
    )


def touching_lattice():
    """Triangles on an integer lattice whose boxes meet exactly on faces,
    edges and corners (closed intervals)."""
    axis = np.arange(3.0)
    origins = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    return soup_mesh(origins.reshape(-1, 1, 3) + [[0, 0, 0], [1, 0, 0], [0, 1, 1]])


def degenerate_faces():
    """Zero-area segments and zero-extent points, each point on a segment end."""
    rng = np.random.default_rng(5)
    points = rng.uniform(-1, 1, (40, 1, 3))
    segments = points + rng.uniform(-0.3, 0.3, (40, 1, 3)) * [[0.0], [0.5], [1.0]]
    return soup_mesh(np.concatenate([segments, np.repeat(points, 3, axis=1)]))


def tall_column():
    """Slanted faces stacked along z, each box overlapping its neighbours'
    across many cells of one column."""
    z = np.arange(0.0, 60.0, 0.25)[:, None, None]
    return soup_mesh(z * [0, 0, 1] + [[0, 0, 0], [1, 0, 1], [0, 1, 0.5]])


def one_cell_slab():
    """Random faces spread over x and y whose lower corners all lie in one
    layer of cells."""
    rng = np.random.default_rng(7)
    base = rng.uniform(0, 8, (300, 1, 3)) * [1, 1, 0]
    return soup_mesh(base + rng.uniform(0, 1, (300, 3, 3)))


def on_cell_boundaries():
    """Boxes of extent e at negative coordinates, their lower or upper corners
    exactly on the boundaries of the cells of edge e * (1 + 2**-20), so that
    boxes touch exactly across each boundary."""
    e = 0.25
    edge = e * (1 + 2.0**-20)
    axis = -4.0 + np.concatenate([np.arange(4) * edge, np.arange(1, 4) * edge - e])
    origins = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    return soup_mesh(origins.reshape(-1, 1, 3) + [[0, 0, 0], [e, 0, 0], [0, e, e]])


def unordered_rows(pairs):
    """The (n, 2) pairs as sorted rows of (smaller, larger) face index."""
    rows = np.sort(pairs, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def assert_matches_sweep(mesh):
    """The streamed chunks hold each pair of the sweep exactly once, in any
    order and either orientation."""
    expected = sweep_pairs_reference(mesh.triangle_corners(), mesh.faces)
    chunks = [np.stack(c, axis=1) for c in intersection._candidate_pairs(mesh.vertices, mesh.faces)]
    pairs = np.concatenate([np.zeros((0, 2), dtype=np.int64), *chunks])
    assert pairs.dtype == expected.dtype
    assert np.array_equal(unordered_rows(pairs), unordered_rows(expected))
    return expected


def brute_force_census(mesh):
    """(count, percent) from ``triangles_intersect`` on every vertex-disjoint pair."""
    corners = mesh.triangle_corners()
    flagged = np.zeros(mesh.face_count, dtype=bool)
    for i in range(mesh.face_count):
        for j in range(i + 1, mesh.face_count):
            if set(mesh.faces[i]) & set(mesh.faces[j]):
                continue
            if triangles_intersect(corners[i], corners[j]):
                flagged[i] = flagged[j] = True
    count = int(flagged.sum())
    return count, 100.0 * count / mesh.face_count


_COORDS = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 2.0),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def pooled_meshes(draw):
    """Small meshes whose faces draw from a shared vertex pool."""
    count = draw(st.integers(3, 20))
    vertices = draw(arrays(np.float64, (count, 3), elements=_COORDS))
    corner = st.integers(0, count - 1)
    faces = draw(
        st.lists(st.lists(corner, min_size=3, max_size=3, unique=True), min_size=1, max_size=40)
    )
    return TriangleMesh(vertices, faces)


class TestBroadPhase:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3), st.just(3)), elements=_COORDS))
    def test_random_soup_matches_sweep(self, corners):
        assert_matches_sweep(soup_mesh(corners))

    @settings(max_examples=60, deadline=None)
    @given(pooled_meshes())
    def test_shared_vertex_meshes_match_sweep(self, mesh):
        assert_matches_sweep(mesh)

    @pytest.mark.parametrize(
        "make",
        [
            touching_lattice,
            degenerate_faces,
            lambda: coincident_copies(2000),
            lambda: with_spanning_face(icosphere(4)),
            lambda: TriangleMesh(icosphere(4).vertices * [1.0, 0.8, 0.65], icosphere(4).faces),
            tall_column,
            one_cell_slab,
            on_cell_boundaries,
            lambda: TriangleMesh(icosphere(5).vertices * [1.0, 0.8, 0.65], icosphere(5).faces),
        ],
        ids=[
            "touching", "degenerate", "coincident", "spanning_face", "ellipsoid",
            "tall_column", "slab", "cell_boundaries", "ellipsoid_5",
        ],
    )
    def test_matches_sweep(self, make):
        assert len(assert_matches_sweep(make())) > 0

    def test_candidates_per_face_are_capped(self, monkeypatch):
        # 14.29 per face when pinned: the box test's work stays near the
        # neighbourhood of each face
        mesh = icosphere(5)
        examined = []
        overlaps = intersection._disjoint_overlaps

        def counting(lo, hi, faces_t, i, j):
            examined.append(len(j))
            return overlaps(lo, hi, faces_t, i, j)

        monkeypatch.setattr(intersection, "_disjoint_overlaps", counting)
        for _ in intersection._candidate_pairs(mesh.vertices, mesh.faces):
            pass
        assert sum(examined) <= 15.7 * mesh.face_count

    def test_outsized_face_does_not_set_cell_size(self, monkeypatch):
        # A cell edge set by the spanning face would put every face in one
        # cell and examine about F**2 / 2 pairs.
        mesh = with_spanning_face(icosphere(4))
        examined = []
        overlaps = intersection._disjoint_overlaps

        def counting(lo, hi, faces_t, i, j):
            examined.append(len(j))
            return overlaps(lo, hi, faces_t, i, j)

        monkeypatch.setattr(intersection, "_disjoint_overlaps", counting)
        for _ in intersection._candidate_pairs(mesh.vertices, mesh.faces):
            pass
        assert examined and sum(examined) <= 64 * mesh.face_count

    @pytest.mark.parametrize(
        "make", [lambda: coincident_copies(2000), lambda: with_spanning_face(icosphere(4))],
        ids=["coincident", "spanning_face"],
    )
    def test_ordinary_chunks_are_bounded(self, make):
        mesh = make()
        spanning = mesh.face_count - 1  # the outsized face of with_spanning_face
        sizes = [
            len(i)
            for i, j in intersection._candidate_pairs(mesh.vertices, mesh.faces)
            if not (i == spanning).all()
        ]
        assert 0 < max(sizes) <= intersection._CHUNK

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_small_chunks_match_sweep(self, monkeypatch, chunk):
        monkeypatch.setattr(intersection, "_CHUNK", chunk)
        mesh = with_spanning_face(icosphere(2))
        assert len(assert_matches_sweep(mesh)) > 0
        for i, j in intersection._candidate_pairs(mesh.vertices, mesh.faces):
            assert len(i) <= chunk or (i == mesh.face_count - 1).all()

    @settings(max_examples=100, deadline=None)
    @given(pooled_meshes())
    def test_census_matches_brute_force_on_pooled_meshes(self, mesh):
        assert self_intersecting_faces(mesh) == brute_force_census(mesh)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3), st.just(3)), elements=_COORDS))
    def test_census_matches_brute_force_on_random_soups(self, corners):
        mesh = soup_mesh(corners)
        assert self_intersecting_faces(mesh) == brute_force_census(mesh)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: coincident_copies(400),
            lambda: coincident_copies(1000),
            lambda: with_spanning_face(icosphere(4)),
        ],
        ids=["coincident", "coincident_1000", "spanning_face"],
    )
    def test_census_memory_is_bounded(self, make):
        mesh = make()
        tracemalloc.start()
        try:
            self_intersecting_faces(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_pushed_cap_census_is_pinned(self, monkeypatch):
        # Count recorded from the sweep-and-prune broad phase (941 narrow-phase
        # calls there); the call count is that of the streamed pair order,
        # which fixes which calls the flagged short-cut skips.
        sphere = icosphere(4)
        vertices = sphere.vertices.copy()
        vertices[vertices[:, 2] > 0.7, 2] -= 1.6
        calls = []
        exact = intersection.triangles_intersect

        def counting(t1, t2):
            calls.append(1)
            return exact(t1, t2)

        monkeypatch.setattr(intersection, "triangles_intersect", counting)
        assert self_intersecting_faces(TriangleMesh(vertices, sphere.faces)) == (480, 9.375)
        assert len(calls) == 571


class TestBlockPairs:
    """The one chunked enumerator under the broad phase and the voxel rows."""

    @pytest.mark.parametrize("chunk", [1, 7, "total"])
    def test_matches_nested_loops(self, monkeypatch, chunk):
        rows = np.array([2, 0, 3, 1, 4, 0, 2])
        cols = np.array([3, 5, 0, 1, 2, 2, 1])
        expected = [
            (k, r, c) for k in range(len(rows)) for r in range(rows[k]) for c in range(cols[k])
        ]
        monkeypatch.setattr(intersection, "_CHUNK", len(expected) if chunk == "total" else chunk)
        chunks = list(intersection.block_pairs(rows, cols))
        assert all(0 < len(block) <= intersection._CHUNK for block, _, _ in chunks)
        pairs = [tuple(map(int, t)) for block, r, c in chunks for t in zip(block, r, c)]
        assert pairs == expected

    @pytest.mark.parametrize("rows, cols", [([], []), ([0, 3], [4, 0])])
    def test_zero_size_blocks_yield_nothing(self, rows, cols):
        rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        assert list(intersection.block_pairs(rows, cols)) == []


class TestVoxelize:
    def test_sphere_volume(self):
        mesh = icosphere(4)
        geometry = GridGeometry((17, 17, 17), (-1.2, -1.2, -1.2), (0.15, 0.15, 0.15))
        grid = voxelize(mesh, geometry, supersample=4)
        analytic = 4.0 / 3.0 * math.pi
        assert abs(grid.occupied.sum() * (0.15 / 4) ** 3 - analytic) / analytic < 0.05

    def test_mesh_outside_grid_empty(self):
        geometry = GridGeometry((5, 5, 5), (10, 10, 10), (0.5, 0.5, 0.5))
        grid = voxelize(icosphere(2), geometry, supersample=2)
        assert not grid.occupied.any()

    def test_open_mesh_rejected(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        geometry = GridGeometry((4, 4, 4), (0, 0, 0), (1, 1, 1))
        with pytest.raises(NotWatertightError):
            voxelize(mesh, geometry)

    def test_supersample_scales_resolution(self):
        geometry = GridGeometry((5, 5, 5), (-1.2, -1.2, -1.2), (0.6, 0.6, 0.6))
        g1 = voxelize(icosphere(2), geometry, supersample=1)
        g3 = voxelize(icosphere(2), geometry, supersample=3)
        assert g1.occupied.shape == (4, 4, 4)
        assert g3.occupied.shape == (12, 12, 12)

    def test_tiny_cells_inside_the_mesh_are_all_occupied(self):
        # 1e-20 cells put the mesh's column indices past the int64 range
        geometry = GridGeometry((4, 4, 4), (0.1, 0.2, 0.3), (1e-20, 1e-20, 1e-20))
        grid = voxelize(icosphere(1), geometry)
        assert grid.occupied.shape == (3, 3, 3)
        assert int(grid.occupied.sum()) == 27


# The voxelizer as it was before the batched pass (a dict of per-column
# triangle lists, a per-column jitter loop and a per-triangle edge-function
# loop), kept verbatim as the oracle for TestVoxelizeMatchesReference.

# Deterministic per-attempt column nudges, in units of the cell size.
_JITTER = [(0.0, 0.0)] + [
    (1.9e-5 * k, 3.1e-5 * k + 7e-6) for k in range(1, 9)
]


def _column_crossings(point_y, point_z, tri2d, tri_x):
    """Crossing x values of the vertical line through (y, z), or None if any
    candidate triangle yields an ambiguous (grazing) orientation."""
    crossings = []
    for t in range(len(tri2d)):
        (ay, az), (by, bz), (cy, cz) = tri2d[t]
        e0 = (by - ay) * (point_z - az) - (bz - az) * (point_y - ay)
        e1 = (cy - by) * (point_z - bz) - (cz - bz) * (point_y - by)
        e2 = (ay - cy) * (point_z - cz) - (az - cz) * (point_y - cy)
        b0 = 4e-16 * (abs((by - ay) * (point_z - az)) + abs((bz - az) * (point_y - ay)))
        b1 = 4e-16 * (abs((cy - by) * (point_z - bz)) + abs((cz - bz) * (point_y - by)))
        b2 = 4e-16 * (abs((ay - cy) * (point_z - cz)) + abs((az - cz) * (point_y - cy)))
        pos = int(e0 > b0) + int(e1 > b1) + int(e2 > b2)
        neg = int(e0 < -b0) + int(e1 < -b1) + int(e2 < -b2)
        if pos and neg:
            continue  # certainly outside
        if pos == 3 or neg == 3:
            area2 = e0 + e1 + e2
            x = (e1 * tri_x[t][0] + e2 * tri_x[t][1] + e0 * tri_x[t][2]) / area2
            crossings.append(x)
            continue
        return None  # grazing: some orientation is uncertain
    return crossings


def reference_voxelize(mesh: TriangleMesh, geometry: GridGeometry, supersample: int = 1) -> OccupancyGrid:
    """Rasterize a watertight mesh onto the (supersampled) grid domain."""
    if int(supersample) < 1:
        raise ValueError("supersample must be a positive integer")
    report = topology_report(mesh)
    if not (report.closed and report.edge_manifold):
        raise NotWatertightError(
            "mesh is not watertight (closed + edge-manifold required)"
        )
    s = int(supersample)
    nx, ny, nz = ((n - 1) * s for n in geometry.dims)
    ox, oy, oz = geometry.origin
    cx = geometry.spacing[0] / s
    cy = geometry.spacing[1] / s
    cz = geometry.spacing[2] / s
    xs = ox + (np.arange(nx) + 0.5) * cx
    ys = oy + (np.arange(ny) + 0.5) * cy
    zs = oz + (np.arange(nz) + 0.5) * cz

    corners = mesh.triangle_corners()  # (F, 3, 3)
    occupied = np.zeros((nx, ny, nz), dtype=bool)

    # Bin triangles into the (y, z) columns their projection can touch.
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    j0 = np.ceil((lo[:, 1] - oy) / cy - 0.5).astype(np.int64)
    j1 = np.floor((hi[:, 1] - oy) / cy - 0.5).astype(np.int64)
    k0 = np.ceil((lo[:, 2] - oz) / cz - 0.5).astype(np.int64)
    k1 = np.floor((hi[:, 2] - oz) / cz - 0.5).astype(np.int64)
    np.clip(j0, 0, ny - 1, out=j0)
    np.clip(j1, -1, ny - 1, out=j1)
    np.clip(k0, 0, nz - 1, out=k0)
    np.clip(k1, -1, nz - 1, out=k1)

    columns: dict[tuple[int, int], list[int]] = {}
    for t in range(len(corners)):
        if j1[t] < j0[t] or k1[t] < k0[t]:
            continue
        for j in range(j0[t], j1[t] + 1):
            for k in range(k0[t], k1[t] + 1):
                columns.setdefault((j, k), []).append(t)

    tri_yz = corners[:, :, 1:]  # (F, 3, 2)
    tri_x = corners[:, :, 0]  # (F, 3)
    for (j, k), tris in columns.items():
        tri2d = tri_yz[tris]
        txs = tri_x[tris]
        crossings = None
        for dy, dz in _JITTER:
            crossings = _column_crossings(
                ys[j] + dy * cy, zs[k] + dz * cz, tri2d, txs
            )
            if crossings is not None:
                break
        if crossings is None:
            raise VoxelizationError(
                f"column ({j}, {k}) stayed degenerate after {len(_JITTER) - 1} retries"
            )
        if not crossings:
            continue
        hits = np.sort(np.array(crossings))
        # Center is inside iff an odd number of crossings lie beyond it (+x ray).
        above = len(hits) - np.searchsorted(hits, xs, side="right")
        occupied[:, j, k] = (above % 2) == 1

    return OccupancyGrid(geometry=geometry, supersample=s, occupied=occupied)


def axis_octahedron():
    """The octahedron with vertices at +-1 on each axis."""
    vertices = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    faces = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    return TriangleMesh(np.array(vertices, dtype=np.float64), np.array(faces))


def scaled(mesh, factors, shift=(0.0, 0.0, 0.0)):
    return mesh.with_vertices(mesh.vertices * np.array(factors) + np.array(shift))


def box(lower, upper):
    """Closed axis-aligned box of 12 triangles."""
    corners = [[(lower, upper)[(c >> a) & 1][a] for a in range(3)] for c in range(8)]
    faces = [[0, 2, 1], [1, 2, 3], [4, 5, 6], [5, 7, 6], [0, 1, 4], [1, 5, 4],
             [2, 6, 3], [3, 6, 7], [0, 4, 2], [2, 4, 6], [1, 3, 5], [3, 7, 5]]
    return TriangleMesh(np.array(corners, dtype=np.float64), np.array(faces))


def union(*meshes):
    """One mesh holding the given (disjoint) meshes as components."""
    offsets = np.cumsum([0] + [m.vertex_count for m in meshes[:-1]])
    return TriangleMesh(
        np.vstack([m.vertices for m in meshes]),
        np.vstack([m.faces + o for m, o in zip(meshes, offsets)]),
    )


# Octahedron vertices sit on column centers of this grid at supersample 1, 2
# and 4, so its columns graze and go through the jitter retries.
OCTAHEDRON_GRID = GridGeometry((5, 5, 5), (-1.25, -1.25, -1.25), (0.5, 0.5, 0.5))

REFERENCE_GRIDS = [
    GridGeometry((17, 17, 17), (-1.2, -1.2, -1.2), (0.15, 0.15, 0.15)),
    GridGeometry((9, 7, 5), (-1.3, -1.1, -0.9), (0.3, 0.37, 0.45)),  # clips the mesh
    GridGeometry((6, 6, 6), (-0.5, -0.5, -0.5), (0.2, 0.2, 0.2)),  # inside the mesh
]


class TestVoxelizeMatchesReference:
    def assert_same(self, mesh, geometry, supersample):
        want = reference_voxelize(mesh, geometry, supersample).occupied
        got = voxelize(mesh, geometry, supersample).occupied
        assert np.array_equal(got, want)
        return want

    def test_reference_uses_the_library_jitter(self):
        assert _JITTER == voxel._JITTER

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("grid", range(len(REFERENCE_GRIDS)))
    @pytest.mark.parametrize("supersample", [1, 2, 4])
    def test_icospheres(self, level, grid, supersample):
        self.assert_same(icosphere(level), REFERENCE_GRIDS[grid], supersample)

    @pytest.mark.parametrize("grid", range(len(REFERENCE_GRIDS)))
    @pytest.mark.parametrize("supersample", [1, 3, 4])
    def test_level_4_ellipsoid(self, grid, supersample):
        ellipsoid = scaled(icosphere(4), (1.0, 0.8, 0.65))
        self.assert_same(ellipsoid, REFERENCE_GRIDS[grid], supersample)

    def test_mesh_outside_the_grid(self):
        geometry = GridGeometry((5, 5, 5), (10, 10, 10), (0.5, 0.5, 0.5))
        assert not self.assert_same(icosphere(3), geometry, 2).any()

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.floats(0.2, 1.6)] * 3),
        st.tuples(*[st.floats(-0.6, 0.6)] * 3),
        st.integers(1, 3),
    )
    def test_scaled_and_translated_spheres(self, factors, shift, supersample):
        mesh = scaled(icosphere(2), factors, shift)
        self.assert_same(mesh, REFERENCE_GRIDS[1], supersample)

    @pytest.mark.parametrize("supersample, evaluations", [(1, 27), (2, 61), (4, 220)])
    def test_octahedron_on_column_centers(self, supersample, evaluations, monkeypatch):
        calls = []
        crossings = _column_crossings

        def counting(*args):
            calls.append(1)
            return crossings(*args)

        monkeypatch.setitem(globals(), "_column_crossings", counting)
        self.assert_same(axis_octahedron(), OCTAHEDRON_GRID, supersample)
        assert len(calls) == evaluations  # more than the columns: retries ran

    @pytest.mark.parametrize("supersample", [1, 2, 4])
    def test_octahedron_inside_a_sphere(self, supersample):
        # The grazing columns also cross the sphere cleanly, so a retried
        # column must drop the crossings of its first attempt.
        mesh = union(axis_octahedron(), scaled(icosphere(2), (2.5, 2.5, 2.5)))
        occupied = self.assert_same(mesh, OCTAHEDRON_GRID, supersample)
        assert occupied.any() and not occupied.all()

    def test_box_faces_on_cell_centers(self):
        # The x faces sit on the cell centers at x = -0.5 and 0.5: a center
        # with a crossing exactly on it counts it as not beyond.
        mesh = box((-0.5, -0.6, -0.7), (0.5, 0.6, 0.8))
        occupied = self.assert_same(mesh, OCTAHEDRON_GRID, 1)
        assert occupied[:, 2, 2].tolist() == [False, True, True, False]

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 13])
    def test_chunk_size_does_not_change_the_grid(self, chunk, monkeypatch):
        monkeypatch.setattr(intersection, "_CHUNK", chunk)
        for supersample in (1, 2, 4):
            self.assert_same(axis_octahedron(), OCTAHEDRON_GRID, supersample)
        self.assert_same(icosphere(2), REFERENCE_GRIDS[1], 2)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 13])
    @pytest.mark.parametrize("supersample, column", [(1, (2, 2)), (2, (6, 7)), (4, (12, 15))])
    def test_degenerate_column_error(self, supersample, column, chunk, monkeypatch):
        monkeypatch.setattr(intersection, "_CHUNK", chunk)
        monkeypatch.setattr(voxel, "_JITTER", voxel._JITTER[:1])
        monkeypatch.setitem(globals(), "_JITTER", _JITTER[:1])
        message = f"column {column} stayed degenerate after 0 retries"
        for version in (reference_voxelize, voxelize):
            with pytest.raises(VoxelizationError) as excinfo:
                version(axis_octahedron(), OCTAHEDRON_GRID, supersample)
            assert str(excinfo.value) == message


class TestSuffixParity:
    """The per-plane parity pass gives the bits of a reversed
    np.logical_xor.accumulate along x on the same flags."""

    @staticmethod
    def accumulated(flags):
        return np.logical_xor.accumulate(flags[::-1], axis=0)[::-1]

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 1, 1), (9, 5, 7), (65, 16, 16)])
    def test_random_flags(self, shape):
        flags = np.random.default_rng(shape[0]).random(shape) < 0.3
        flips = flags.copy()
        voxel._suffix_parity(flips)
        assert np.array_equal(flips[1:], self.accumulated(flags)[1:])

    @pytest.mark.parametrize("case", ["octahedron", "octahedron in a sphere", "ellipsoid"])
    @pytest.mark.parametrize("supersample", [1, 2, 4])
    def test_flags_of_voxelize(self, case, supersample, monkeypatch):
        mesh, geometry = {
            # columns graze and go through the jitter retries
            "octahedron": (axis_octahedron(), OCTAHEDRON_GRID),
            "octahedron in a sphere": (
                union(axis_octahedron(), scaled(icosphere(2), (2.5, 2.5, 2.5))),
                OCTAHEDRON_GRID,
            ),
            "ellipsoid": (scaled(icosphere(4), (1.0, 0.8, 0.65)), REFERENCE_GRIDS[0]),
        }[case]
        real, flags = voxel._suffix_parity, []

        def checked(flips):
            flags.append(flips.copy())
            real(flips)

        monkeypatch.setattr(voxel, "_suffix_parity", checked)
        occupied = voxelize(mesh, geometry, supersample).occupied
        assert len(flags) == 1 and flags[0].any()
        assert np.array_equal(occupied, self.accumulated(flags[0])[1:])


def test_voxelize_memory_is_bounded():
    # 128**3 cells: the flags take 2.1 MB.  Measured peak 5.6 MiB while the
    # grid still copied them (the per-column voxelizer peaked at 6.4 MiB);
    # unchunked rows or an int64 per-cell parity array exceed 15 MiB.
    mesh = icosphere(4)
    geometry = GridGeometry((33, 33, 33), (-1.2, -1.2, -1.2), (0.075, 0.075, 0.075))
    tracemalloc.start()
    try:
        voxelize(mesh, geometry, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_voxelize_keeps_its_buffer_at_256_cubed():
    # 256**3 cells: the (257, 256, 256) flags are 16.1 MiB, and the grid keeps
    # them instead of copying them (measured 19.8 MiB here; with the copy
    # 32.7 MiB).  The digest is the grid's before the copy was dropped.
    mesh = icosphere(4)
    geometry = GridGeometry((65, 65, 65), (-1.2, -1.2, -1.2), (0.0375, 0.0375, 0.0375))
    tracemalloc.start()
    try:
        grid = voxelize(mesh, geometry, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20
    digest = hashlib.sha256(grid.occupied.tobytes()).hexdigest()
    assert digest == "75b38ecaee573d16f3ee65395987296ef5454c02ce89dda2bf7e767a715ce4fc"
    assert not grid.occupied.flags.writeable


def test_occupancy_grid_copies_the_callers_array():
    geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
    occ = np.zeros((4, 4, 4), dtype=bool)
    grid = OccupancyGrid(geometry, 2, occ)
    assert not np.shares_memory(grid.occupied, occ)
    occ[1, 2, 3] = True
    assert not grid.occupied.any()
    assert not grid.occupied.flags.writeable and occ.flags.writeable


class TestOverlapScores:
    def geometry(self):
        return GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))

    def grid(self, occ):
        return OccupancyGrid(self.geometry(), 1, occ)

    def test_identical(self):
        occ = np.zeros((2, 2, 2), bool)
        occ[0, 0, 0] = True
        g = self.grid(occ)
        assert dice(g, g) == 1.0
        assert volume_similarity(g, g) == 1.0

    def test_disjoint_equal_volume(self):
        a = np.zeros((2, 2, 2), bool)
        b = np.zeros((2, 2, 2), bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        assert dice(self.grid(a), self.grid(b)) == 0.0
        assert volume_similarity(self.grid(a), self.grid(b)) == 1.0

    def test_subset_half_volume(self):
        a = np.zeros((2, 2, 2), bool)
        b = np.zeros((2, 2, 2), bool)
        a[0, 0, 0] = True
        b[0, 0, 0] = b[0, 0, 1] = True
        assert dice(self.grid(a), self.grid(b)) == pytest.approx(2.0 / 3.0)
        assert volume_similarity(self.grid(a), self.grid(b)) == pytest.approx(2.0 / 3.0)

    def test_both_empty_convention(self):
        empty = self.grid(np.zeros((2, 2, 2), bool))
        assert dice(empty, empty) == 1.0
        assert volume_similarity(empty, empty) == 1.0

    def test_geometry_mismatch_rejected(self):
        a = self.grid(np.zeros((2, 2, 2), bool))
        other = OccupancyGrid(
            GridGeometry((3, 3, 3), (1, 0, 0), (1, 1, 1)), 1, np.zeros((2, 2, 2), bool)
        )
        with pytest.raises(ValueError, match="mismatch"):
            dice(a, other)


@settings(max_examples=40, deadline=None)
@given(
    arrays(bool, (2, 2, 2)),
    arrays(bool, (2, 2, 2)),
)
def test_overlap_scores_bounded(occ_a, occ_b):
    geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
    a = OccupancyGrid(geometry, 1, occ_a)
    b = OccupancyGrid(geometry, 1, occ_b)
    assert 0.0 <= dice(a, b) <= 1.0
    assert 0.0 <= volume_similarity(a, b) <= 1.0
    assert dice(a, a) == 1.0
    assert dice(a, b) == dice(b, a)

