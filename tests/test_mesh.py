import math
import re
import tracemalloc

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
from flowmesh.mesh import _edge_table, _plain_triangle_arrays


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_store_obj_refuses_non_finite_vertices(tmp_path, value):
    path = tmp_path / "nf.obj"
    mesh = TriangleMesh([[0, 0, 0], [value, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="non-finite"):
        store_obj(mesh, path)
    assert not path.exists()


def reference_load_obj(path) -> TriangleMesh:
    """The line-by-line reader that load_obj replaced, kept as its oracle."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if parts[0] == "v":
                if len(parts) != 4:
                    raise MeshFormatError(
                        f"vertex record needs 3 coordinates, got {len(parts) - 1}",
                        line=lineno,
                    )
                try:
                    coords = [float(p) for p in parts[1:]]
                except ValueError as exc:
                    raise MeshFormatError(f"bad coordinate: {exc}", line=lineno) from exc
                if not all(map(math.isfinite, coords)):
                    raise MeshFormatError("non-finite coordinate", line=lineno)
                vertices.append(coords)
            elif parts[0] == "f":
                if len(parts) < 4:
                    raise MeshFormatError(
                        f"face record needs at least 3 indices, got {len(parts) - 1}",
                        line=lineno,
                    )
                try:
                    idx = [int(p) for p in parts[1:]]
                except ValueError as exc:
                    raise MeshFormatError(f"bad face index: {exc}", line=lineno) from exc
                if any(i < 1 for i in idx):
                    raise MeshFormatError(
                        "face indices are 1-based and must be positive", line=lineno
                    )
                if any(i > len(vertices) for i in idx):
                    raise MeshFormatError(
                        f"face index {max(idx)} exceeds vertex count {len(vertices)}",
                        line=lineno,
                    )
                zero_based = [i - 1 for i in idx]
                for a, b in zip(zero_based[1:], zero_based[2:]):
                    faces.append([zero_based[0], a, b])
            else:
                raise MeshFormatError(
                    f"unsupported record {parts[0]!r} (only v and f are accepted)",
                    line=lineno,
                )
    verts = np.array(vertices, dtype=np.float64).reshape(-1, 3)
    try:
        return TriangleMesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))
    except ValueError as exc:
        raise MeshFormatError(str(exc)) from exc


def reference_store_obj(mesh: TriangleMesh, path) -> None:
    """The per-row writer that store_obj replaced, kept as its oracle."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def assert_loads_like_reference(path):
    """load_obj gives the reference's arrays bit for bit, or raises the same
    exception type with the same message and line."""
    try:
        expected = reference_load_obj(path)
    except Exception as exc:  # compared below, whatever it is
        with pytest.raises(Exception) as info:
            load_obj(path)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "line", None) == getattr(exc, "line", None)
        return
    mesh = load_obj(path)
    for got, want in ((mesh.vertices, expected.vertices), (mesh.faces, expected.faces)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


TRIANGLE = b"v 0 0 0\nv 1 0 0\nv 0 1 0\n"

# Files the vectorised pass must hand to the line parser, or read the same.
OBJ_CASES = {
    "plain": TRIANGLE + b"f 1 2 3\n",
    "no final newline": TRIANGLE + b"f 1 2 3",
    "zero index": TRIANGLE + b"f 0 1 2\n",
    "out of range index": TRIANGLE + b"f 1 2 4\n",
    "negative index": TRIANGLE + b"f -1 2 3\n",
    "index beyond int64": TRIANGLE + b"f 1 2 99999999999999999999\n",
    "repeated index": TRIANGLE + b"f 1 1 2\n",
    "two indices": TRIANGLE + b"f 1 2\n",
    "float index": TRIANGLE + b"f 1 2 3.0\n",
    "signed and padded indices": TRIANGLE + b"f +1 002 3\n",
    "vn record": b"v 0 0 0\nvn 0 0 1\n",
    "unknown record": TRIANGLE + b"vt 0 0\nf 1 2 3\n",
    "bad coordinate": b"v 0 zero 0\n",
    "two coordinates": b"v 0 0\n",
    "four coordinates": TRIANGLE + b"v 0 0 0 1\nf 1 2 3\n",
    "nan": b"v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n",
    "inf": b"v 0 0 0\nv 0 inf 0\nv 0 1 0\nf 1 2 3\n",
    "overflowing coordinate": b"v 0 0 0\nv 0 0 1e400\nv 0 1 0\nf 1 2 3\n",
    "underflowing coordinate": b"v 0 0 0\nv 0 0 1e-400\nv 0 1 -0\nf 1 2 3\n",
    "underscored tokens": b"v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1_0 2 3\n",
    "underscored coordinate": b"v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1 2 3\n",
    "arabic-indic digit": b"v 0 0 0\nv \xd9\xa1 0 0\nv 0 1 0\nf 1 2 3\n",
    "non-ascii past the first chunk": TRIANGLE * 500 + b"f 1 2 3\nv \xd9\xa1 0 0\n",
    "comment lines": b"# header\n" + TRIANGLE + b"# faces\nf 1 2 3\n",
    "trailing comments": b"v 0 0 0 # a\nv 1 0 0#b\nv 0 1 0\nf 1 2 3 # c\n",
    "hash in a token": b"v 0 0 0\nv 1#0 0 0\nv 0 1 0\nf 1 2 3\n",
    "blank lines": b"\n" + TRIANGLE + b"\n  \n\t\nf 1 2 3\n\n",
    "crlf": TRIANGLE.replace(b"\n", b"\r\n") + b"f 1 2 3\r\n",
    "cr only": TRIANGLE.replace(b"\n", b"\r") + b"f 1 2 3\r",
    "tabs": b"v\t0\t0\t0\nv 1\t0 0\nv\t0 1\t\t0\t\nf\t1\t2\t3\n",
    "form feed and vertical tab": b"v 0 0 0\nv 1\x0c0 0\nv 0 1\x0b0\nf 1 2 3\n",
    "file separator": b"v 0 0 0\nv 1\x1c0 0\nv 0 1 0\nf 1 2 3\n",
    "padded first line": b"  v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "padded lines": b"  v 0 0 0\nv 1 0 0   \nv  0  1  0\n f 1 2 3 \n",
    "glued keyword": b"v0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "glued face keyword": TRIANGLE + b"f1 2 3\n",
    "glued keyword and three values": b"v0 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "glued face keyword and three values": TRIANGLE + b"f1 1 2 3\n",
    "cr inside a vertex line": b"v 0 0 0\nv 1 0\r0\nv 0 1 0\nf 1 2 3\n",
    "cr inside a face line": TRIANGLE + b"f 1 2\r3\n",
    "crlf faces": TRIANGLE + b"f 1 2 3\r\n",
    "comment after the faces": TRIANGLE + b"f 1 2 3 # c\n",
    "commented crlf": b"# a\r\n#\r\n" + TRIANGLE.replace(b"\n", b"\r\n")
    + b"# b\r\nf 1 2 3\r\n#",
    "comment ending in a lone cr": b"# a\rv 5 5 5\n" + TRIANGLE + b"f 1 2 3\n",
    "comment line after a lone cr": b"v 0 0 0\r# a\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "padded comment line": b" # a\n" + TRIANGLE + b"f 1 2 3\n",
    "non-ascii comment": b"# \xc3\xa9\n" + TRIANGLE + b"f 1 2 3\n",
    "commented malformed face": b"# a\n" + TRIANGLE + b"# b\nf 1 2\n",
    "keyword at line end": b"v 0 0 0 v\n1 0 0\nv 0 1 0\nf 1 2 3\n",
    "keyword inside a line": b"v 0 0 0\nv 1 0 v 0\nv 0 1 0\nf 1 2 3\n",
    "face keyword inside a vertex line": b"v 0 0 0\nv 1 0 0 f 1 2 3\nv 0 1 0\n",
    "quad": b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
    "pentagon after triangle": b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 2 0\n"
    b"f 1 2 3\nf 1 2 3 4 5\n",
    "face before its vertex": b"v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n",
    "vertex after the faces": TRIANGLE + b"f 1 2 3\nv 5 5 5\n",
    "empty file": b"",
    "only newlines": b"\n\n",
    "no faces": TRIANGLE,
    "only faces": b"f 1 2 3\n",
    "signs and exponents": b"v -0 +1.5 .5\nv 1. -2E+3 4e-2\nv 6.02214076e23 -1e-308 5e-324\n"
    b"f 3 2 1\n",
    "doubled signs": b"v 0 0 0\nv --1 0 0\nv 0 1 0\nf 1 2 3\n",
    "bare exponent": b"v 0 0 0\nv 1e 0 0\nv 0 1 0\nf 1 2 3\n",
    "lone keyword lines": b"v\nf\n",
    "keyword only vertex": TRIANGLE + b"v\nf 1 2 3\n",
}


class TestLoadObjMatchesReference:
    @pytest.mark.parametrize("name", sorted(OBJ_CASES))
    def test_case(self, tmp_path, name):
        path = tmp_path / "case.obj"
        path.write_bytes(OBJ_CASES[name])
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("level", [0, 2])
    def test_written_meshes(self, tmp_path, level):
        path = tmp_path / "sphere.obj"
        store_obj(icosphere(level, radius=1.3, center=(0.1, -2.0, 1e-7)), path)
        assert_loads_like_reference(path)

    def test_plain_files_take_the_vectorised_pass(self, tmp_path):
        path = tmp_path / "sphere.obj"
        store_obj(icosphere(3), path)
        plain = [path.read_bytes()] + [
            OBJ_CASES[name]
            for name in ("plain", "no final newline", "tabs", "signs and exponents",
                         "underflowing coordinate", "padded first line", "no faces",
                         "empty file")
        ]
        for data in plain:
            vertices, faces = _plain_triangle_arrays(data)
            TriangleMesh(vertices, faces)

    def test_commented_crlf_file_takes_the_vectorised_pass(self, tmp_path):
        plain = tmp_path / "plain.obj"
        store_obj(icosphere(4), plain)
        lines = plain.read_bytes().splitlines(keepends=True)
        at = lines.index(next(line for line in lines if line.startswith(b"f")))
        commented = b"".join(
            [b"# exported\n", *lines[:at], b"#\n# faces\n", *lines[at:], b"# end"]
        ).replace(b"\n", b"\r\n")
        path = tmp_path / "commented.obj"
        path.write_bytes(commented)
        fast = zip(_plain_triangle_arrays(commented), _plain_triangle_arrays(plain.read_bytes()))
        for got, want in fast:
            assert got.tobytes() == want.tobytes()
        a, b = load_obj(path), load_obj(plain)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()

    def test_commented_malformed_file_names_its_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        crlf = TRIANGLE.replace(b"\n", b"\r\n")
        path.write_bytes(b"# a\r\n#\r\n" + crlf + b"# b\r\nf 1 2 9\r\n")
        with pytest.raises(MeshFormatError) as info:
            load_obj(path)
        assert info.value.line == 7
        assert "face index 9 exceeds vertex count 3" in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["v", "f", "vn", "", "#", "f1", "v0"]),
                st.lists(
                    st.sampled_from(
                        ["0", "1", "2", "3", "4", "-1", "1.5", "-0", "1e3", "1e400",
                         "nan", "inf", "1_0", "+2", "e", "v", "f", "#", "x", "007",
                         "99999999999999999999"]
                    ),
                    max_size=5,
                ),
                st.sampled_from([" ", "\t", "  ", " \t"]),
                st.sampled_from(["\n", "\r\n", "\r", " \n", "#c\n"]),
            ),
            max_size=12,
        )
    )
    def test_random_line_soups(self, tmp_path_factory, records):
        text = "".join(
            sep.join([key, *values]) + end for key, values, sep, end in records
        )
        path = tmp_path_factory.mktemp("soup") / "soup.obj"
        path.write_bytes(text.encode("ascii"))
        assert_loads_like_reference(path)


# Files whose keywords the vectorised pass must place exactly: each reaches
# the line parser, with no warning from numpy's reader.
KEYWORD_CASES = {
    "value before the first keyword": b"0 v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "keyword glued to a value": b"v 0 0 v0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "face keyword glued to a value": TRIANGLE + b"f 1 2 f3\n",
    "two keywords on a line, none on the next": b"v 0 v 0 0\n1 0 0\nv 0 1 0\nf 1 2 3\n",
    "keyword and a blank": b"v \n",
    "keywords and blanks": b"v \t\nv  \nf \n",
    "face keyword and blanks": TRIANGLE + b"f \t\n",
    "one blank vertex line": b"v 0 0 0\nv \nv 0 1 0\nf 1 2 3\n",
    "one blank face line": TRIANGLE + b"f 1 2 3\nf  \n",
}


@pytest.mark.parametrize("name", sorted(KEYWORD_CASES))
def test_misplaced_keywords_go_to_the_line_parser(tmp_path, name):
    assert _plain_triangle_arrays(KEYWORD_CASES[name]) is None
    path = tmp_path / "case.obj"
    path.write_bytes(KEYWORD_CASES[name])
    assert_loads_like_reference(path)


@pytest.mark.parametrize("exponent", [-320, -310, -300, -155, 0, 155, 300, 308])
@pytest.mark.parametrize("commented_crlf", [False, True], ids=["plain", "commented-crlf"])
def test_whatever_store_obj_writes_takes_the_vectorised_pass(tmp_path, exponent, commented_crlf):
    # %.9g tokens at every scale: subnormals, e+308 and -0
    base = icosphere(2)
    path = tmp_path / "scaled.obj"
    store_obj(base.with_vertices(base.vertices * float(f"1e{exponent}")), path)
    data = path.read_bytes()
    if commented_crlf:
        data = b"# head\n" + data.replace(b"\nf", b"\n# faces\nf", 1) + b"# end\n"
        data = data.replace(b"\n", b"\r\n")
        path.write_bytes(data)
    expected = reference_load_obj(path)
    vertices, faces = _plain_triangle_arrays(data)
    assert vertices.tobytes() == expected.vertices.tobytes()
    assert faces.tobytes() == expected.faces.tobytes()


def test_load_obj_peaks_at_a_small_multiple_of_the_file(tmp_path):
    path = tmp_path / "ico5.obj"
    store_obj(icosphere(5), path)
    tracemalloc.start()
    try:
        load_obj(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * path.stat().st_size


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 12).flatmap(
        lambda v: st.tuples(
            st.lists(st.tuples(finite_floats, finite_floats, finite_floats),
                     min_size=v, max_size=v),
            st.lists(st.permutations(range(v)).map(lambda p: p[:3]), max_size=10),
        )
    )
)
def test_store_load_round_trip_is_the_9_digit_rounding(tmp_path_factory, mesh_lists):
    coords, faces = mesh_lists
    mesh = TriangleMesh(np.array(coords, dtype=np.float64), np.array(faces).reshape(-1, 3))
    path = tmp_path_factory.mktemp("rt") / "rt.obj"
    store_obj(mesh, path)
    assert _plain_triangle_arrays(path.read_bytes()) is not None
    loaded = load_obj(path)
    rounded = [[float(f"{x:.9g}") for x in row] for row in coords]
    assert loaded.vertices.tobytes() == np.array(rounded, dtype=np.float64).reshape(-1, 3).tobytes()
    assert np.array_equal(loaded.faces, mesh.faces)
    assert_loads_like_reference(path)


class TestStoreObjBytes:
    def _assert_same_bytes(self, tmp_path, mesh):
        store_obj(mesh, tmp_path / "new.obj")
        reference_store_obj(mesh, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()

    def test_icosphere_6(self, tmp_path):
        self._assert_same_bytes(tmp_path, icosphere(6, radius=0.7, center=(1.0, -3.0, 2.5)))

    def test_extreme_values(self, tmp_path):
        rows = [
            [-0.0, 5e-324, 1e300],
            [-1e-300, 123456789.0, -0.000123456789],
            [1.23456789e-5, 9.87654321e20, -9.99999999e-100],
            [0.1, 2.0 / 3.0, -1.0 / 7.0],
        ]
        self._assert_same_bytes(tmp_path, TriangleMesh(rows, [[0, 1, 2], [3, 2, 1]]))

    def test_no_faces(self, tmp_path):
        self._assert_same_bytes(tmp_path, TriangleMesh([[1.0, 2.0, 3.0]], np.zeros((0, 3))))
