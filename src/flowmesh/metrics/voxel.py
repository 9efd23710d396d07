"""Watertight-mesh voxelization by ray parity, plus overlap scores.

Each voxel center is classified by counting crossings of the +x ray of its
(y, z) column against the mesh.  One batched pass, in fixed-size chunks,
evaluates the edge functions of every (triangle, column) row of each
triangle's (y, z) box.  A grazing row (the ray meeting an edge or vertex
within floating-point uncertainty) sends its column to another pass at the
next deterministic nudge, up to 8 times.  Each crossing toggles one (cell
boundary, column) flag; a running xor along x turns the flags into occupancy.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from ..flow_field import GridGeometry
from ..mesh import TriangleMesh, topology_report
from .intersection import block_pairs


class NotWatertightError(ValueError):
    """Voxelization requires a closed, edge-manifold mesh."""


class VoxelizationError(RuntimeError):
    """Ray-parity classification stayed degenerate after all jitter retries."""


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean occupancy over the supersampled cells of a grid domain.

    Axis i of the domain is split into (dims_i - 1) * supersample cells of
    size spacing_i / supersample; ``occupied`` marks cells whose center lies
    inside the surface.
    """

    geometry: GridGeometry
    supersample: int
    occupied: np.ndarray
    _owned: InitVar[bool] = False  # voxelize's own buffer is kept, any other copied

    def __post_init__(self, _owned):
        occ = np.array(self.occupied, dtype=bool, order="C", copy=None if _owned else True)
        if occ.shape != self.cell_counts:
            raise ValueError(
                f"occupancy shape {occ.shape} does not match cells {self.cell_counts}"
            )
        occ.flags.writeable = False
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "supersample", int(self.supersample))

    def __reduce__(self):  # copies and unpickles rebuild, so they are frozen again
        return OccupancyGrid, (self.geometry, self.supersample, self.occupied)

    @property
    def cell_counts(self) -> tuple[int, int, int]:
        s = int(self.supersample)
        return tuple((n - 1) * s for n in self.geometry.dims)

    def same_grid(self, other: "OccupancyGrid") -> bool:
        return self.geometry == other.geometry and self.supersample == other.supersample


# Deterministic per-attempt column nudges, in units of the cell size.
_JITTER = [(0.0, 0.0)] + [(1.9e-5 * k, 3.1e-5 * k + 7e-6) for k in range(1, 9)]


def _rows(j0, j1, k0, k1, columns):
    """Chunks (tri, j, k) of the rows of each triangle's column box j0..j1 x k0..k1, in
    triangle, then j, then k order, whose column is marked in the mask ``columns``."""
    for tri, dj, dk in block_pairs(np.maximum(j1 - j0 + 1, 0), np.maximum(k1 - k0 + 1, 0)):
        j, k = j0[tri] + dj, k0[tri] + dk
        keep = columns[j, k]
        yield tri[keep], j[keep], k[keep]


def voxelize(mesh: TriangleMesh, geometry: GridGeometry, supersample: int = 1) -> OccupancyGrid:
    """Rasterize a watertight mesh onto the (supersampled) grid domain."""
    if int(supersample) < 1:
        raise ValueError("supersample must be a positive integer")
    report = topology_report(mesh)
    if not (report.closed and report.edge_manifold):
        raise NotWatertightError("mesh is not watertight (closed + edge-manifold required)")
    s = int(supersample)
    nx, ny, nz = ((n - 1) * s for n in geometry.dims)
    ox, oy, oz = geometry.origin
    cx, cy, cz = (d / s for d in geometry.spacing)
    xs = ox + (np.arange(nx) + 0.5) * cx
    ys = oy + (np.arange(ny) + 0.5) * cy
    zs = oz + (np.arange(nz) + 0.5) * cz

    # The (y, z) columns each triangle's projection can touch.
    corners = mesh.triangle_corners()  # (F, 3, 3)
    ty, tz = corners[:, :, 1], corners[:, :, 2]
    with np.errstate(over="ignore"):  # clipped as floats: tiny cells pass int64, even to inf
        j0 = np.clip(np.ceil((ty.min(axis=1) - oy) / cy - 0.5), 0, ny - 1).astype(np.int64)
        j1 = np.clip(np.floor((ty.max(axis=1) - oy) / cy - 0.5), -1, ny - 1).astype(np.int64)
        k0 = np.clip(np.ceil((tz.min(axis=1) - oz) / cz - 0.5), 0, nz - 1).astype(np.int64)
        k1 = np.clip(np.floor((tz.max(axis=1) - oz) / cz - 0.5), -1, nz - 1).astype(np.int64)

    # flips[p, j, k] toggles once per crossing above exactly p of the column's
    # centers.  A column with a grazing row is cleared and goes again.
    flips = np.zeros((nx + 1, ny, nz), dtype=bool)
    pending = np.ones((ny, nz), dtype=bool)
    for dy, dz in _JITTER:
        y, z = ys + dy * cy, zs + dz * cz
        grazing = np.zeros((ny, nz), dtype=bool)
        for tri, j, k in _rows(j0, j1, k0, k1, pending):
            a = corners[tri, :, 1:]  # (n, 3, 2): (y, z) of vertex m, and of
            b = a[:, [1, 2, 0]]  # vertex m + 1, for edge m
            u = (b[..., 0] - a[..., 0]) * (z[k, None] - a[..., 1])
            v = (b[..., 1] - a[..., 1]) * (y[j, None] - a[..., 0])
            e = u - v  # edge functions e0, e1, e2
            bound = 4e-16 * (np.abs(u) + np.abs(v))
            pos = (e > bound).sum(axis=1)
            neg = (e < -bound).sum(axis=1)
            crosses = (pos == 3) | (neg == 3)
            grazes = ~crosses & ((pos == 0) | (neg == 0))  # some sign uncertain
            grazing[j[grazes], k[grazes]] = True
            e, tx = e[crosses], corners[tri[crosses], :, 0]
            area2 = e[:, 0] + e[:, 1] + e[:, 2]
            x = (e[:, 1] * tx[:, 0] + e[:, 2] * tx[:, 1] + e[:, 0] * tx[:, 2]) / area2
            np.logical_xor.at(flips, (np.searchsorted(xs, x), j[crosses], k[crosses]), True)
        flips[:, grazing] = False
        pending = grazing
        if not pending.any():
            break
    else:  # name the failing column whose first row comes first
        j, k = next((j[0], k[0]) for _, j, k in _rows(j0, j1, k0, k1, pending) if len(j))
        raise VoxelizationError(
            f"column ({j}, {k}) stayed degenerate after {len(_JITTER) - 1} retries"
        )

    # A center is inside iff an odd number of crossings lie beyond it (+x
    # ray): occupied[i] is the parity of flips[i + 1:].
    _suffix_parity(flips)
    return OccupancyGrid(geometry=geometry, supersample=s, occupied=flips[1:], _owned=True)


def _suffix_parity(flips: np.ndarray) -> None:
    """Set each plane flips[i], i >= 1, to the xor of flips[i:], in place.

    One contiguous xor per plane from the top down; a reversed
    ``np.logical_xor.accumulate`` along axis 0 gives the same bits but walks
    the strided axis element by element, over 100 times slower on a
    (257, 256, 256) grid.  flips[0] (crossings below every center) is never read.
    """
    for i in range(len(flips) - 2, 0, -1):
        np.logical_xor(flips[i], flips[i + 1], out=flips[i])


def _occupied_counts(a: OccupancyGrid, b: OccupancyGrid) -> tuple[int, int]:
    if not a.same_grid(b):
        raise ValueError("occupancy grids have mismatched geometry")
    return int(a.occupied.sum()), int(b.occupied.sum())


def dice(a: OccupancyGrid, b: OccupancyGrid) -> float:
    """Dice overlap 2|A&B| / (|A| + |B|); 1.0 when both grids are empty."""
    na, nb = _occupied_counts(a, b)
    if na + nb == 0:
        return 1.0
    inter = int(np.logical_and(a.occupied, b.occupied).sum())
    return 2.0 * inter / (na + nb)


def volume_similarity(a: OccupancyGrid, b: OccupancyGrid) -> float:
    """1 - ||A| - |B|| / (|A| + |B|); 1.0 when both grids are empty."""
    na, nb = _occupied_counts(a, b)
    if na + nb == 0:
        return 1.0
    return 1.0 - abs(na - nb) / (na + nb)
