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
