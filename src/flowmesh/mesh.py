"""Triangle meshes: construction, OBJ I/O, topology queries, icosphere
templates and midpoint subdivision."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components


class MeshFormatError(ValueError):
    """An OBJ file could not be parsed under the restricted v/f subset."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonManifoldEdgeError(ValueError):
    """An operation requiring edge-manifold input met an edge with >2 faces."""


class TriangleMesh:
    """Immutable vertex positions (V, 3) plus triangle connectivity (F, 3).

    Faces must index valid vertices and may not repeat a vertex.  Geometry
    operations that move vertices always reuse the face array unchanged.
    """

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        # always copy: freezing must never alias the caller's arrays
        verts = np.array(vertices, dtype=np.float64, order="C")
        tris = np.array(faces, dtype=np.int64, order="C")
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must have shape (V, 3), got {verts.shape}")
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"faces must have shape (F, 3), got {tris.shape}")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise ValueError("face index out of range")
        if tris.size and (
            np.any(tris[:, 0] == tris[:, 1])
            or np.any(tris[:, 1] == tris[:, 2])
            or np.any(tris[:, 0] == tris[:, 2])
        ):
            raise ValueError("degenerate face: repeated vertex index")
        verts.flags.writeable = False
        tris.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", tris)

    def __setattr__(self, name, value):
        raise AttributeError("TriangleMesh is immutable")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def with_vertices(self, vertices) -> "TriangleMesh":
        """Same connectivity, new vertex positions."""
        out = TriangleMesh(vertices, self.faces)
        if out.vertex_count != self.vertex_count:
            raise ValueError("vertex count must not change")
        return out

    def triangle_corners(self) -> np.ndarray:
        """Vertex positions per face, shape (F, 3, 3)."""
        return self.vertices[self.faces]


@dataclass(frozen=True)
class TopologyReport:
    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    genus: int | None
    closed: bool
    edge_manifold: bool
    connected_components: int


def unique_edges(faces: np.ndarray) -> np.ndarray:
    """Undirected edges as sorted index pairs, shape (E, 2), deduplicated."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    raw = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    raw.sort(axis=1)
    return np.unique(raw, axis=0)


def _edge_face_counts(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    raw = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    raw.sort(axis=1)
    return np.unique(raw, axis=0, return_counts=True)


def topology_report(mesh: TriangleMesh) -> TopologyReport:
    """Counts, Euler characteristic, genus (when defined) and manifold flags.

    Genus is reported only for closed, edge-manifold, single-component meshes
    with an even, non-negative 2 - chi; otherwise it is None.  Isolated
    vertices count as their own connected components.
    """
    v = mesh.vertex_count
    f = mesh.face_count
    if f:
        edges, counts = _edge_face_counts(mesh.faces)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        counts = np.zeros(0, dtype=np.int64)
    e = len(edges)
    chi = v - e + f
    closed = f > 0 and bool(np.all(counts == 2))
    edge_manifold = bool(np.all(counts <= 2))
    if v:
        if e:
            ones = np.ones(len(edges), dtype=np.int8)
            adj = coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(v, v))
            components = int(_csgraph_components(adj, directed=False)[0])
        else:
            components = v
    else:
        components = 0
    genus = None
    if closed and edge_manifold and components == 1:
        hole_count = 2 - chi
        if hole_count >= 0 and hole_count % 2 == 0:
            genus = hole_count // 2
    return TopologyReport(
        vertex_count=v,
        edge_count=e,
        face_count=f,
        euler_characteristic=chi,
        genus=genus,
        closed=closed,
        edge_manifold=edge_manifold,
        connected_components=components,
    )


def midpoint_subdivide(mesh: TriangleMesh) -> TriangleMesh:
    """Split every face into 4 via deduplicated edge midpoints.

    Original vertex positions are untouched and winding is preserved, so the
    Euler characteristic (hence genus) is invariant.  Requires edge-manifold
    input.
    """
    faces = mesh.faces
    if faces.size == 0:
        raise ValueError("cannot subdivide a mesh without faces")
    edges, counts = _edge_face_counts(faces)
    if np.any(counts > 2):
        bad = edges[np.argmax(counts > 2)]
        raise NonManifoldEdgeError(
            f"edge ({bad[0]}, {bad[1]}) is shared by more than 2 faces"
        )
    # Midpoint vertex ids keyed by the edge's position in the sorted unique
    # edge array: exact index-pair dedup, no floating point welding.
    corner_pairs = np.concatenate(
        [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]
    )
    corner_pairs.sort(axis=1)
    # np.unique returns edges lexicographically sorted, so a key search maps
    # each face corner pair to its edge id directly.
    keys = edges[:, 0] * (mesh.vertex_count + 1) + edges[:, 1]
    lookup_keys = corner_pairs[:, 0] * (mesh.vertex_count + 1) + corner_pairs[:, 1]
    edge_id = np.searchsorted(keys, lookup_keys)
    mid_index = mesh.vertex_count + edge_id.reshape(3, -1).T  # (F, 3): m01, m12, m20

    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.concatenate([mesh.vertices, midpoints])

    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    m01, m12, m20 = mid_index[:, 0], mid_index[:, 1], mid_index[:, 2]
    new_faces = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return TriangleMesh(vertices, new_faces)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    # Golden-ratio icosahedron, outward winding, normalised to unit radius.
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1.0, phi, 0.0],
            [1.0, phi, 0.0],
            [-1.0, -phi, 0.0],
            [1.0, -phi, 0.0],
            [0.0, -1.0, phi],
            [0.0, 1.0, phi],
            [0.0, -1.0, -phi],
            [0.0, 1.0, -phi],
            [phi, 0.0, -1.0],
            [phi, 0.0, 1.0],
            [-phi, 0.0, -1.0],
            [-phi, 0.0, 1.0],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


MAX_ICOSPHERE_LEVEL = 8


def icosphere(
    subdivision_level: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)
) -> TriangleMesh:
    """Genus-0 sphere mesh with 10 * 4**level + 2 vertices.

    Levels above MAX_ICOSPHERE_LEVEL are rejected as a resource guard.
    """
    level = int(subdivision_level)
    if level < 0:
        raise ValueError("subdivision level must be non-negative")
    if level > MAX_ICOSPHERE_LEVEL:
        raise ValueError(
            f"subdivision level {level} exceeds guard {MAX_ICOSPHERE_LEVEL}"
        )
    if radius <= 0:
        raise ValueError("radius must be positive")
    verts, faces = _icosahedron()
    mesh = TriangleMesh(verts, faces)
    for _ in range(level):
        mesh = midpoint_subdivide(mesh)
        unit = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        mesh = mesh.with_vertices(unit)
    center = np.asarray(center, dtype=np.float64)
    return mesh.with_vertices(mesh.vertices * radius + center)


def load_obj(path) -> TriangleMesh:
    """Parse the restricted ASCII OBJ subset: `v x y z` and `f i j k [l...]`.

    Indices are 1-based; polygons with more than 3 vertices are
    fan-triangulated around the first vertex.  Comments (#) and blank lines
    are ignored; anything else is a parse error.
    """
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


def store_obj(mesh: TriangleMesh, path) -> None:
    """Write v/f records with 9-significant-digit coordinates."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")
