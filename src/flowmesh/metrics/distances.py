"""Point-cloud distance metrics and the mean squared edge length.

Nearest neighbours come from a k-d tree (exact query), but every reported
distance is recomputed in plain numpy from the matched index pairs, so the
values are bit-identical to an O(n^2) brute-force evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .sampling import SampledCloud


def _points_of(cloud) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, SampledCloud) else np.asarray(cloud)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) cloud, got shape {pts.shape}")
    if len(pts) == 0:
        raise ValueError("point cloud is empty")
    return pts


# Points per bucket of both trees.  Bigger buckets than scipy's 16 mean
# fewer nodes to walk and more of each search in one tight scan.  On
# far-apart 50k-point clouds, 56..96 were the fastest of 16..256 (64: 0.43 ->
# 0.26 s for both directions); at the fitter's 2.5k points all sizes tied.
_LEAF_SIZE = 64


class PointTree(cKDTree):
    """A cloud's k-d tree, built as every query here builds it; len() is its size."""

    def __init__(self, points):
        super().__init__(points, leafsize=_LEAF_SIZE, balanced_tree=False, compact_nodes=False)

    def __len__(self) -> int:
        return self.n


def nearest_neighbor_indices(queries, targets) -> np.ndarray:
    """Index of an exact nearest target for each query; either may be a PointTree.

    The tree splits at sliding midpoints and keeps its cells' full boxes
    (Maneewongvatana & Mount, 1999): on two surfaces' sample clouds it
    answers about three times faster than scipy's default tree, which
    splits at medians and shrinks each box to its points.  Its buckets hold
    up to ``_LEAF_SIZE`` points.  The queries are answered in the leaf order
    of the same kind of tree built over them, so consecutive searches visit
    nearby buckets, and their indices are scattered back; each search is
    independent of the others, so the order changes no index.  Among
    targets at the same distance, which one is returned is unspecified.
    """
    queries, targets = (c if isinstance(c, PointTree) else PointTree(c) for c in (queries, targets))
    order = queries.indices
    idx = np.empty(len(order), dtype=np.int64)
    _, idx[order] = targets.query(queries.data[order], k=1, workers=1)
    return idx


@dataclass(frozen=True)
class CloudMatch:
    """Nearest-neighbour correspondences of clouds a and b in both directions:
    b[idx_ab[i]] is nearest to a[i] at distance d_ab[i], and likewise ba."""

    d_ab: np.ndarray
    idx_ab: np.ndarray
    d_ba: np.ndarray
    idx_ba: np.ndarray

    @classmethod
    def between(cls, a: np.ndarray, b: np.ndarray, idx_ab, idx_ba) -> "CloudMatch":
        """The match of clouds a and b at the given partners, nearest or not."""
        d_ab = np.linalg.norm(a - b[idx_ab], axis=1)
        d_ba = np.linalg.norm(b - a[idx_ba], axis=1)
        return cls(d_ab, idx_ab, d_ba, idx_ba)

    def chamfer(self, squared: bool = False) -> float:
        """Symmetric mean nearest-neighbour distance; ``squared`` averages
        squared distances instead (smooth near zero; the fitting loss)."""
        if squared:
            return 0.5 * (float(np.mean(self.d_ab**2)) + float(np.mean(self.d_ba**2)))
        return 0.5 * (float(np.mean(self.d_ab)) + float(np.mean(self.d_ba)))

    def hausdorff(self) -> float:
        """Symmetric maximum nearest-neighbour distance (sample-based)."""
        return max(float(self.d_ab.max()), float(self.d_ba.max()))

    def chamfer_normals(self, normals_a: np.ndarray, normals_b: np.ndarray) -> float:
        """Mean |cos| of normal angles at the correspondences, in [0, 1], over
        both directions (orientation-agnostic; higher is better)."""
        cos_ab = np.abs(np.einsum("nc,nc->n", normals_a, normals_b[self.idx_ab]))
        cos_ba = np.abs(np.einsum("nc,nc->n", normals_b, normals_a[self.idx_ba]))
        return 0.5 * (float(np.mean(cos_ab)) + float(np.mean(cos_ba)))


def match_clouds(a, b) -> CloudMatch:
    """Match each point of a to its nearest point of b and vice versa, one tree per cloud."""
    ta, tb = (c if isinstance(c, PointTree) else PointTree(_points_of(c)) for c in (a, b))
    idx_ab = nearest_neighbor_indices(ta, tb)
    idx_ba = nearest_neighbor_indices(tb, ta)
    return CloudMatch.between(ta.data, tb.data, idx_ab, idx_ba)


def chamfer(a, b) -> float:
    """Symmetric mean nearest-neighbour distance; see :meth:`CloudMatch.chamfer`."""
    return match_clouds(a, b).chamfer()


def hausdorff(a, b) -> float:
    """Symmetric maximum nearest-neighbour distance (sample-based)."""
    return match_clouds(a, b).hausdorff()


def chamfer_normals(a: SampledCloud, b: SampledCloud) -> float:
    """Mean |cos| of normal angles at chamfer correspondences, in [0, 1]."""
    if not isinstance(a, SampledCloud) or not isinstance(b, SampledCloud):
        raise TypeError("chamfer_normals needs SampledCloud inputs with normals")
    return match_clouds(a, b).chamfer_normals(a.normals, b.normals)


def mean_squared_edge_length(vertices: np.ndarray, edges: np.ndarray) -> float:
    """Mean squared length of the given edges (the fit's edge term; target length 0)."""
    delta = vertices[edges[:, 0]] - vertices[edges[:, 1]]
    return float(np.mean((delta * delta).sum(axis=1)))
