import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmesh import (
    MeshFormatError,
    NonManifoldEdgeError,
    TriangleMesh,
    icosphere,
    load_obj,
    midpoint_subdivide,
    store_obj,
    topology_report,
    unique_edges,
)
from flowmesh.mesh import _edge_table


def single_triangle():
    return TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


class TestTriangleMesh:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError, match="repeated"):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])

    def test_with_vertices_keeps_faces(self):
        mesh = icosphere(1)
        moved = mesh.with_vertices(mesh.vertices * 2.0)
        assert np.array_equal(moved.faces, mesh.faces)
        assert np.allclose(moved.vertices, 2.0 * mesh.vertices)

    def test_immutable(self):
        mesh = single_triangle()
        with pytest.raises((ValueError, AttributeError)):
            mesh.vertices[0, 0] = 5.0


class TestIcosphere:
    def test_level0_is_icosahedron(self):
        report = topology_report(icosphere(0))
        assert (report.vertex_count, report.edge_count, report.face_count) == (12, 30, 20)
        assert report.euler_characteristic == 2
        assert report.genus == 0
        assert report.closed and report.edge_manifold

    def test_level2_counts(self):
        mesh = icosphere(2)
        assert mesh.vertex_count == 162
        assert mesh.face_count == 320

    @pytest.mark.parametrize("level", range(6))
    def test_closed_form_counts(self, level):
        mesh = icosphere(level)
        assert mesh.vertex_count == 10 * 4**level + 2
        assert mesh.face_count == 20 * 4**level
        assert topology_report(mesh).genus == 0

    def test_radius_and_center(self):
        center = np.array([1.0, -2.0, 0.5])
        mesh = icosphere(3, radius=2.5, center=center)
        radii = np.linalg.norm(mesh.vertices - center, axis=1)
        assert np.allclose(radii, 2.5, rtol=1e-9)

    def test_outward_winding(self):
        mesh = icosphere(2)
        corners = mesh.triangle_corners()
        volume = np.einsum(
            "ij,ij->i", corners[:, 0], np.cross(corners[:, 1], corners[:, 2])
        ).sum() / 6.0
        assert volume > 0

    def test_level_guard(self):
        with pytest.raises(ValueError, match="guard"):
            icosphere(9)
        with pytest.raises(ValueError):
            icosphere(-1)


class TestMidpointSubdivide:
    def test_icosahedron_counts(self):
        report = topology_report(midpoint_subdivide(icosphere(0)))
        assert (report.vertex_count, report.face_count) == (42, 80)
        assert report.edge_count == 2 * 30 + 3 * 20
        assert report.euler_characteristic == 2

    def test_single_triangle(self):
        report = topology_report(midpoint_subdivide(single_triangle()))
        assert (report.vertex_count, report.face_count) == (6, 4)
        assert not report.closed

    def test_original_vertices_untouched(self):
        mesh = icosphere(1)
        sub = midpoint_subdivide(mesh)
        assert np.array_equal(sub.vertices[: mesh.vertex_count], mesh.vertices)

    @pytest.mark.parametrize("make", [lambda: icosphere(0), lambda: icosphere(1), single_triangle])
    def test_formulas_and_invariants(self, make):
        mesh = make()
        before = topology_report(mesh)
        sub = midpoint_subdivide(mesh)
        after = topology_report(sub)
        assert after.vertex_count == before.vertex_count + before.edge_count
        assert after.edge_count == 2 * before.edge_count + 3 * before.face_count
        assert after.face_count == 4 * before.face_count
        assert after.euler_characteristic == before.euler_characteristic
        assert after.closed == before.closed
        assert after.edge_manifold == before.edge_manifold
        assert after.connected_components == before.connected_components

    def test_midpoints_deduplicated(self):
        # two faces sharing an edge must share the midpoint vertex
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [2, 1, 3]]
        )
        sub = midpoint_subdivide(mesh)
        assert sub.vertex_count == 4 + 5  # V + E

    def test_non_manifold_edge_rejected(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        )
        with pytest.raises(NonManifoldEdgeError):
            midpoint_subdivide(mesh)

    def test_winding_preserved(self):
        mesh = icosphere(1)
        sub = midpoint_subdivide(mesh)
        corners = sub.triangle_corners()
        volume = np.einsum(
            "ij,ij->i", corners[:, 0], np.cross(corners[:, 1], corners[:, 2])
        ).sum() / 6.0
        assert volume > 0


class TestTopologyReport:
    def test_two_disjoint_icosahedra(self):
        a = icosphere(0)
        b = icosphere(0, center=(10, 0, 0))
        merged = TriangleMesh(
            np.vstack([a.vertices, b.vertices]),
            np.vstack([a.faces, b.faces + a.vertex_count]),
        )
        report = topology_report(merged)
        assert report.connected_components == 2
        assert report.genus is None
        assert report.closed

    def test_face_removed_not_closed(self):
        mesh = icosphere(0)
        report = topology_report(TriangleMesh(mesh.vertices, mesh.faces[:-1]))
        assert not report.closed
        assert report.edge_manifold
        assert report.genus is None

    def test_chi_always_v_minus_e_plus_f(self):
        for mesh in (icosphere(0), icosphere(2), single_triangle()):
            report = topology_report(mesh)
            assert (
                report.euler_characteristic
                == report.vertex_count - report.edge_count + report.face_count
            )

    def test_unique_edges_sorted_pairs(self):
        edges = unique_edges(np.array([[0, 1, 2], [2, 1, 3]]))
        assert edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]


def sorted_sides(faces):
    sides = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    sides.sort(axis=1)
    return sides


def edge_counts_reference(faces):
    """Edges and faces per edge by a row-wise unique over the sorted sides."""
    return np.unique(sorted_sides(faces), axis=0, return_counts=True)


def components_reference(vertex_count, edges):
    parent = list(range(vertex_count))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges.tolist():
        parent[root(a)] = root(b)
    return len({root(i) for i in range(vertex_count)})


def subdivide_reference(mesh):
    """Midpoint subdivision with edge ids found by a key search."""
    faces = mesh.faces
    edges, counts = edge_counts_reference(faces)
    if np.any(counts > 2):
        bad = edges[np.argmax(counts > 2)]
        raise NonManifoldEdgeError(
            f"edge ({bad[0]}, {bad[1]}) is shared by more than 2 faces"
        )
    corner_pairs = sorted_sides(faces)
    radix = mesh.vertex_count + 1
    edge_id = np.searchsorted(
        edges[:, 0] * radix + edges[:, 1], corner_pairs[:, 0] * radix + corner_pairs[:, 1]
    )
    mid_index = mesh.vertex_count + edge_id.reshape(3, -1).T
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    v0, v1, v2 = faces.T
    m01, m12, m20 = mid_index.T
    new_faces = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return np.concatenate([mesh.vertices, midpoints]), new_faces


def assert_matches_references(mesh):
    edges, counts = edge_counts_reference(mesh.faces)
    assert np.array_equal(unique_edges(mesh.faces), edges)
    report = topology_report(mesh)
    assert report.edge_count == len(edges)
    assert report.euler_characteristic == mesh.vertex_count - len(edges) + mesh.face_count
    assert report.closed == (mesh.face_count > 0 and bool(np.all(counts == 2)))
    assert report.edge_manifold == bool(np.all(counts <= 2))
    assert report.connected_components == components_reference(mesh.vertex_count, edges)
    if mesh.face_count == 0:
        return
    try:
        expected = subdivide_reference(mesh)
    except NonManifoldEdgeError as exc:
        with pytest.raises(NonManifoldEdgeError, match=re.escape(str(exc))):
            midpoint_subdivide(mesh)
        return
    sub = midpoint_subdivide(mesh)
    assert np.array_equal(sub.vertices, expected[0])
    assert np.array_equal(sub.faces, expected[1])


def face_lists(labels):
    """Faces over a few distinct labels, so edges are often shared by 3+ faces."""
    return st.lists(
        st.lists(st.sampled_from(labels), min_size=3, max_size=3, unique=True),
        min_size=1,
        max_size=24,
    )


# Sparse labels leave index gaps; the largest allowed index is included.
raw_faces = st.lists(
    st.integers(0, 2**31 - 1), min_size=3, max_size=10, unique=True
).flatmap(face_lists)


@st.composite
def gappy_meshes(draw):
    """Meshes over 100 vertices, most of them unused.

    Half are fans over a few labels (often non-manifold), half are subsets of
    icosphere(1)'s faces under a random relabelling (edge-manifold, so they
    subdivide).
    """
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 99), min_size=3, max_size=10, unique=True))
        faces = np.array(draw(face_lists(labels)), dtype=np.int64)
    else:
        template = icosphere(1).faces
        rows = draw(st.lists(st.integers(0, len(template) - 1), min_size=1, unique=True))
        relabel = np.array(draw(st.permutations(range(100)))[:42])
        faces = relabel[template[rows]]
    coords = st.floats(-4, 4, allow_nan=False, width=32)
    vertices = draw(
        st.lists(st.tuples(coords, coords, coords), min_size=100, max_size=100)
    )
    return TriangleMesh(vertices, faces)


class TestEdgeTable:
    @settings(max_examples=60, deadline=None)
    @given(raw_faces)
    def test_raw_faces_match_reference(self, faces):
        faces = np.array(faces, dtype=np.int64)
        edges, counts, side_edge = _edge_table(faces)
        ref_edges, ref_counts = edge_counts_reference(faces)
        assert np.array_equal(edges, ref_edges)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(edges[side_edge], sorted_sides(faces))
        assert np.array_equal(unique_edges(faces), ref_edges)

    @settings(max_examples=60, deadline=None)
    @given(gappy_meshes())
    def test_meshes_with_gaps_and_fans_match_reference(self, mesh):
        assert_matches_references(mesh)

    @pytest.mark.parametrize(
        "faces",
        [
            [[0, 1, 2]],
            [[5, 9, 2]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]],  # fan of 3 faces on edge (0, 1)
            [[0, 1, 2], [0, 1, 2]],
        ],
    )
    def test_small_cases_match_reference(self, faces):
        mesh = TriangleMesh(np.random.default_rng(0).normal(size=(10, 3)), faces)
        assert_matches_references(mesh)

    @pytest.mark.parametrize("level", range(6))
    def test_icospheres_match_reference(self, level):
        assert_matches_references(icosphere(level))

    def test_side_edges_index_the_sorted_sides(self):
        faces = icosphere(3).faces
        edges, counts, side_edge = _edge_table(faces)
        assert side_edge.shape == (3 * len(faces),)
        assert np.array_equal(edges[side_edge], sorted_sides(faces))
        assert np.array_equal(np.bincount(side_edge), counts)

    @pytest.mark.parametrize("empty", [np.zeros((0, 3), dtype=np.int64), np.array([])])
    def test_empty_faces(self, empty):
        edges, counts, side_edge = _edge_table(empty)
        assert edges.shape == (0, 2) and counts.shape == (0,) and side_edge.shape == (0,)
        assert unique_edges(empty).shape == (0, 2)

    def test_mesh_without_faces(self):
        report = topology_report(TriangleMesh(np.zeros((4, 3)), np.zeros((0, 3))))
        assert report.edge_count == 0 and report.euler_characteristic == 4
        assert not report.closed and report.edge_manifold
        assert report.connected_components == 4 and report.genus is None
        assert topology_report(TriangleMesh(np.zeros((0, 3)), [])).connected_components == 0

    def test_largest_index_is_exact(self):
        top = 2**31 - 1
        edges = unique_edges(np.array([[top, 0, top - 1]]))
        assert edges.tolist() == [[0, top - 1], [0, top], [top - 1, top]]

    @pytest.mark.parametrize("bad", [-1, 2**31])
    def test_rejects_indices_outside_key_range(self, bad):
        with pytest.raises(ValueError, match="face indices"):
            unique_edges(np.array([[0, 1, bad]]))


class TestObjIO:
    def test_round_trip(self, tmp_path):
        mesh = icosphere(1, radius=1.7, center=(0.3, -0.2, 0.9))
        path = tmp_path / "sphere.obj"
        store_obj(mesh, path)
        loaded = load_obj(path)
        assert np.array_equal(loaded.faces, mesh.faces)
        assert np.allclose(loaded.vertices, mesh.vertices, rtol=0, atol=1e-8)

    def test_quad_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_obj(path)
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.obj"
        path.write_text("# header\n\nv 0 0 0\nv 1 0 0 # inline\nv 0 1 0\nf 1 2 3\n")
        assert load_obj(path).face_count == 1

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "z.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(MeshFormatError, match="1-based"):
            load_obj(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "o.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
        with pytest.raises(MeshFormatError, match="exceeds"):
            load_obj(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "vn.obj"
        path.write_text("v 0 0 0\nvn 0 0 1\n")
        with pytest.raises(MeshFormatError, match="unsupported"):
            load_obj(path)

    def test_malformed_coordinate(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 zero 0\n")
        with pytest.raises(MeshFormatError, match="bad coordinate"):
            load_obj(path)

    def test_short_vertex_record(self, tmp_path):
        path = tmp_path / "s.obj"
        path.write_text("v 0 0\n")
        with pytest.raises(MeshFormatError, match="3 coordinates"):
            load_obj(path)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=3,
        max_size=3,
    )
)
def test_obj_round_trip_relative_precision(coords):
    import tempfile

    mesh = TriangleMesh(np.array(coords, dtype=np.float64), [[0, 1, 2]])
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.obj"
        store_obj(mesh, path)
        loaded = load_obj(path)
    assert np.allclose(loaded.vertices, mesh.vertices, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("coords", ["nan 0 0", "0 inf 0", "0 0 -inf"])
def test_load_obj_rejects_non_finite_coordinates(tmp_path, coords):
    path = tmp_path / "nf.obj"
    path.write_text(f"v 0 0 0\nv {coords}\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshFormatError, match="line 2: non-finite"):
        load_obj(path)
