"""Triangle meshes: construction, OBJ I/O, topology queries, icosphere
templates and midpoint subdivision."""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass

import numpy as np


class MeshFormatError(ValueError):
    """An OBJ file could not be parsed under the restricted v/f subset."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonManifoldEdgeError(ValueError):
    """An operation requiring edge-manifold input met an edge with >2 faces."""


@dataclass(frozen=True, eq=False, slots=True)
class TriangleMesh:
    """Immutable vertex positions (V, 3) plus triangle connectivity (F, 3).

    Faces must index valid vertices and may not repeat a vertex.  Geometry
    operations that move vertices always reuse the face array unchanged.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        # always copy: freezing must never alias the caller's arrays
        verts = np.array(self.vertices, dtype=np.float64, order="C")
        tris = np.array(self.faces, dtype=np.int64, order="C")
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

    def __reduce__(self):  # copies and unpickles rebuild, so they are frozen again
        return TriangleMesh, (self.vertices, self.faces)

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


_EDGE_INDEX_LIMIT = 2**31  # keeps the int64 edge keys below 2**62


def _edge_table(faces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted unique edges (E, 2), faces per edge, and the edge id of each of
    the 3F face sides (all [0, 1] sides, then [1, 2], then [2, 0]), from one
    1-D ``np.unique`` over the int64 side keys ``min * radix + max``."""
    faces = np.asarray(faces, dtype=np.int64)
    if faces.size == 0:
        faces = faces.reshape(0, 3)
    top = faces.max(initial=0)
    if faces.min(initial=0) < 0 or top >= _EDGE_INDEX_LIMIT:
        raise ValueError(f"face indices must lie in [0, {_EDGE_INDEX_LIMIT})")
    radix = top + 1
    starts, ends = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()
    keys = np.minimum(starts, ends) * radix + np.maximum(starts, ends)
    del starts, ends  # freed before np.unique's sort buffers, to lower peak memory
    keys, side_edge, counts = np.unique(keys, return_inverse=True, return_counts=True)
    edges = np.stack(np.divmod(keys, radix), axis=1)
    return edges, counts, side_edge


def unique_edges(faces: np.ndarray) -> np.ndarray:
    """Undirected edges as sorted index pairs, shape (E, 2), deduplicated."""
    return _edge_table(faces)[0]


def topology_report(mesh: TriangleMesh) -> TopologyReport:
    """Counts, Euler characteristic, genus (when defined) and manifold flags.

    Genus is reported only for closed, edge-manifold, single-component meshes
    with an even, non-negative 2 - chi; otherwise it is None.  Isolated
    vertices count as their own connected components.
    """
    from scipy.sparse import coo_matrix  # loading csgraph costs ~20 ms at CLI start
    from scipy.sparse.csgraph import connected_components

    v = mesh.vertex_count
    f = mesh.face_count
    edges, counts, _ = _edge_table(mesh.faces)
    e = len(edges)
    chi = v - e + f
    closed = f > 0 and bool(np.all(counts == 2))
    edge_manifold = bool(np.all(counts <= 2))
    ones = np.ones(e, dtype=np.int8)
    adj = coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(v, v))
    components = int(connected_components(adj, directed=False)[0])
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
    edges, counts, side_edge = _edge_table(faces)
    if np.any(counts > 2):
        bad = edges[np.argmax(counts > 2)]
        raise NonManifoldEdgeError(
            f"edge ({bad[0]}, {bad[1]}) is shared by more than 2 faces"
        )
    # Midpoint vertex ids are the edge ids: exact index-pair dedup, no
    # floating point welding.
    mid_index = mesh.vertex_count + side_edge.reshape(3, -1).T  # (F, 3): m01, m12, m20

    midpoints = 0.5 * mesh.vertices[edges[:, 0]] + 0.5 * mesh.vertices[edges[:, 1]]  # no overflow
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


def icosphere(subdivision_level: int) -> TriangleMesh:
    """Genus-0 unit sphere mesh, centred at the origin, with 10 * 4**level + 2 vertices.

    Levels above MAX_ICOSPHERE_LEVEL are rejected as a resource guard.
    """
    level = int(subdivision_level)
    if level < 0:
        raise ValueError("subdivision level must be non-negative")
    if level > MAX_ICOSPHERE_LEVEL:
        raise ValueError(
            f"subdivision level {level} exceeds guard {MAX_ICOSPHERE_LEVEL}"
        )
    verts, faces = _icosahedron()
    mesh = TriangleMesh(verts, faces)
    for _ in range(level):
        mesh = midpoint_subdivide(mesh)
        unit = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        mesh = mesh.with_vertices(unit)
    return mesh


# Bytes a plain vertex or face section may hold: its keyword, the digits
# and signs of a decimal number, and the separators.  Anything else (trailing
# comments, lone CRs, nan/inf, other records) goes to the line parser.
_VERTEX_ALPHABET = b"v0123456789.eE+- \t\n"
_FACE_ALPHABET = b"f0123456789 \t\n"

# A whole-line comment: `#` first on a line that ends at LF or at the end of
# the file.  A CR ends a line for the line parser, so none may be inside.
_COMMENT_LINE = re.compile(rb"^#[^\r\n]*(?:\n|\Z)", re.MULTILINE)


def _record_values(section: bytes, key: bytes, alphabet: bytes, dtype) -> np.ndarray | None:
    """The (lines, 3) values of ``section`` when it is whole lines ``key a b c``
    written in ``alphabet`` alone, parsed as ``dtype``; otherwise None."""
    if not section:
        return np.empty((0, 3), dtype)
    if section.translate(None, alphabet) or not section.endswith(b"\n"):
        return None
    lines = section.count(b"\n")
    body = section.replace(key, b" ")
    # Each key byte opens a line (after blanks on the first line only) and is
    # followed by a blank, so blanking them leaves each line's values.
    if (
        section.count(b"\n" + key) != lines - 1
        or section.count(key + b" ") + section.count(key + b"\t") != lines
        or section.count(key) != lines
        or section[: section.find(key)].strip(b" \t")
        or body.isspace()  # np.loadtxt would warn that it found no data
    ):
        return None
    try:  # numpy's C reader refuses bad tokens and ragged rows
        values = np.loadtxt(io.BytesIO(body), dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (lines, 3) else None


def _plain_triangle_arrays(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and 0-based faces of a file that is `v x y z` lines with
    finite coordinates followed by `f i j k` lines, or None when the file is
    not provably such a file.  CRLF line ends become LF first, and in an
    ASCII file (the line parser refuses any other) whole-line comments are
    dropped.  TriangleMesh checks the index range."""
    if b"\r" in data:  # a memchr; replace scans 30 times slower
        data = data.replace(b"\r\n", b"\n")
    if b"#" in data and data.isascii():
        data = _COMMENT_LINE.sub(b"", data)
    if data and not data.endswith(b"\n"):
        data += b"\n"
    split = data.find(b"f")  # the first face keyword, if the file is plain
    if split < 0:
        split = len(data)
    vertices = _record_values(data[:split], b"v", _VERTEX_ALPHABET, np.float64)
    if vertices is None or not np.isfinite(vertices).all():
        return None
    faces = _record_values(data[split:], b"f", _FACE_ALPHABET, np.int64)
    return None if faces is None else (vertices, faces - 1)


def load_obj(path) -> TriangleMesh:
    """Parse the restricted ASCII OBJ subset: `v x y z` and `f i j k [l...]`.

    Indices are 1-based; polygons with more than 3 vertices are
    fan-triangulated around the first vertex.  Comments (#) and blank lines
    are ignored; anything else is a parse error.

    A file of `v` lines followed by triangle `f` lines, with whole-line
    comments and LF or CRLF line ends, and nothing else, is read in one
    vectorised pass.  Every other file, and every file that pass refuses,
    goes through the line parser below, which gives the same arrays and
    names the line of the first error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    arrays = _plain_triangle_arrays(data)
    if arrays is not None:
        try:
            return TriangleMesh(*arrays)
        except ValueError:
            pass  # the line parser raises it as a MeshFormatError
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
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
    """Write v/f records with 9-significant-digit coordinates, in one write; non-finite
    vertices, which :func:`load_obj` refuses, are refused before the file is opened."""
    if not np.isfinite(mesh.vertices).all():
        raise ValueError("cannot write non-finite vertex coordinates to OBJ")
    text = ("v %.9g %.9g %.9g\n" * mesh.vertex_count) % tuple(mesh.vertices.ravel().tolist())
    text += ("f %d %d %d\n" * mesh.face_count) % tuple((mesh.faces + 1).ravel().tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
