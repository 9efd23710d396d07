"""Area-uniform random sampling of triangle-mesh surfaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh import TriangleMesh


@dataclass(frozen=True)
class SampledCloud:
    """Surface samples with the unit normal of each point's source triangle.

    ``face_indices`` and ``barycentric`` record how each point was drawn so
    that the same draw can be replayed against repositioned vertices.
    """

    points: np.ndarray
    normals: np.ndarray
    seed: int
    face_indices: np.ndarray
    barycentric: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def _face_cross(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-face (b - a) x (c - a), twice the area along the face normal, and its norm,
    except that both are 2**2k times too large on the faces ``tiny``: (cross, norm, tiny, k).

    Below a norm of 2**-400 the squares may underflow, so such a face is
    recomputed from its edge vectors scaled by the power of two 2**k that
    brings their largest coordinate into [1, 2).  Its unit normal is divided
    out at that scale; only its area is scaled back, exactly, by 2**-2k.
    Every other face keeps its bits.
    """
    corners = vertices[faces]
    u, w = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    cross = np.cross(u, w)
    norm = np.linalg.norm(cross, axis=1)
    tiny = np.flatnonzero(norm < 2.0**-400)
    u, w = u[tiny], w[tiny]
    k = 1 - np.frexp(np.maximum(np.abs(u), np.abs(w)).max(axis=1))[1]
    if len(tiny):
        cross[tiny] = np.cross(np.ldexp(u, k[:, None]), np.ldexp(w, k[:, None]))
        norm[tiny] = np.linalg.norm(cross[tiny], axis=1)
    return cross, norm, tiny, k


@np.errstate(over="ignore", invalid="ignore")  # inf or nan areas: _draw_from_areas refuses them
def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    _, norm, tiny, k = _face_cross(vertices, faces)
    norm[tiny] = np.ldexp(norm[tiny], -2 * k)
    return 0.5 * norm


def face_unit_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    cross, norms, _, _ = _face_cross(vertices, faces)
    norms[norms == 0.0] = 1.0
    return cross / norms[:, None]


def draw_surface_samples(
    mesh: TriangleMesh, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (face index, barycentric coordinate) pairs for n surface points.

    Faces are chosen with probability proportional to area; the square-root
    trick maps two uniforms to barycentric coordinates that are uniform over
    the triangle.  Deterministic given the seed.
    """
    return _draw_from_areas(triangle_areas(mesh.vertices, mesh.faces), n, seed)


def _draw_from_areas(areas: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """draw_surface_samples from given face areas, which a caller drawing
    repeatedly from one fixed mesh computes once."""
    if n < 1:
        raise ValueError("sample count must be positive")
    total = areas.sum()
    if len(areas) == 0 or total <= 0.0:
        raise ValueError("mesh has no face with positive area")
    if not np.isfinite(total):
        raise ValueError(f"surface area is {total}: the mesh coordinates are too large")
    rng = np.random.default_rng(seed)
    face_idx = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    su = np.sqrt(u)
    bary = np.stack([1.0 - su, su * (1.0 - v), su * v], axis=1)
    return face_idx, bary


def points_from_draw(
    vertices: np.ndarray, faces: np.ndarray, face_idx: np.ndarray, bary: np.ndarray
) -> np.ndarray:
    corners = vertices[faces[face_idx]]  # (n, 3, 3)
    return np.einsum("nk,nkc->nc", bary, corners)


def sample_surface(mesh: TriangleMesh, n: int, seed: int = 0) -> SampledCloud:
    """Area-uniform surface samples with per-point source-face unit normals."""
    face_idx, bary = draw_surface_samples(mesh, n, seed)
    points = points_from_draw(mesh.vertices, mesh.faces, face_idx, bary)
    normals = face_unit_normals(mesh.vertices, mesh.faces)[face_idx]
    return SampledCloud(
        points=points,
        normals=normals,
        seed=int(seed),
        face_indices=face_idx,
        barycentric=bary,
    )
