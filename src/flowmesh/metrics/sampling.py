"""Area-uniform random sampling of triangle-mesh surfaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh import TriangleMesh


@dataclass(frozen=True)
class SampledCloud:
    """Surface samples with the unit normal of each point's source triangle."""

    points: np.ndarray
    normals: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # inf or nan areas: _area_table refuses them
def _face_cross(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-face (b - a) x (c - a), its norm and the face area: (cross, norm, area).

    Below a norm of 2**-400 the squares may underflow, so such a face is
    recomputed from its edge vectors scaled by the power of two 2**k that
    brings their largest coordinate into [1, 2).  Its cross and norm stay at
    that scale, where its unit normal is divided out; only its area is scaled
    back, exactly, by 2**-2k.  Every other face keeps its bits.
    """
    a = vertices[faces[:, 0]]  # (F, 3) gathers, not one (F, 3, 3) array: a lower peak
    u, w = vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a
    cross = np.cross(u, w)
    norm = np.linalg.norm(cross, axis=1)
    area = 0.5 * norm
    tiny = np.flatnonzero(norm < 2.0**-400)
    u, w = u[tiny], w[tiny]
    k = 1 - np.frexp(np.maximum(np.abs(u), np.abs(w)).max(axis=1))[1]
    if len(tiny):
        cross[tiny] = np.cross(np.ldexp(u, k[:, None]), np.ldexp(w, k[:, None]))
        norm[tiny] = np.linalg.norm(cross[tiny], axis=1)
        area[tiny] = 0.5 * np.ldexp(norm[tiny], -2 * k)
    return cross, norm, area


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return _face_cross(vertices, faces)[2]


def draw_surface_samples(
    mesh: TriangleMesh, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (face index, barycentric coordinate) pairs for n surface points.

    Faces are chosen with probability proportional to area; the square-root
    trick maps two uniforms to barycentric coordinates that are uniform over
    the triangle.  Deterministic given the seed.
    """
    return _draw_from_table(_area_table(triangle_areas(mesh.vertices, mesh.faces)), n, seed)


def _area_table(areas: np.ndarray) -> np.ndarray:
    """The table from which faces are drawn with probability proportional to
    their areas: numpy's own ``Generator.choice(p=areas / total)`` table, which
    a caller drawing repeatedly from one fixed surface builds once."""
    total = areas.sum()
    if len(areas) == 0 or total <= 0.0:
        raise ValueError("mesh has no face with positive area")
    if not np.isfinite(total):
        raise ValueError(f"surface area is {total}: the mesh coordinates are too large")
    cdf = np.cumsum(areas / total)
    cdf /= cdf[-1]
    return cdf


def _draw_from_table(cdf: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """draw_surface_samples from an _area_table, indexed as ``rng.choice`` indexes it."""
    if n < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    face_idx = cdf.searchsorted(rng.random(n), side="right")
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
    cross, norms, areas = _face_cross(mesh.vertices, mesh.faces)
    face_idx, bary = _draw_from_table(_area_table(areas), n, seed)
    points = points_from_draw(mesh.vertices, mesh.faces, face_idx, bary)
    normals = cross[face_idx] / norms[face_idx, None]  # drawn faces have areas > 0
    return SampledCloud(points=points, normals=normals)
