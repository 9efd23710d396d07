"""Surface evaluation suite: sampling, cloud distances, intersection census
and voxel overlap scores."""

from .distances import (
    CloudMatch,
    chamfer,
    chamfer_normals,
    hausdorff,
    match_clouds,
    mean_squared_edge_length,
    nearest_neighbor_indices,
)
from .intersection import self_intersecting_faces, triangles_intersect
from .sampling import (
    SampledCloud,
    draw_surface_samples,
    points_from_draw,
    sample_surface,
    triangle_areas,
)
from .voxel import (
    NotWatertightError,
    OccupancyGrid,
    VoxelizationError,
    dice,
    volume_similarity,
    voxelize,
)

__all__ = [
    "CloudMatch",
    "NotWatertightError",
    "OccupancyGrid",
    "SampledCloud",
    "VoxelizationError",
    "chamfer",
    "chamfer_normals",
    "dice",
    "draw_surface_samples",
    "hausdorff",
    "match_clouds",
    "mean_squared_edge_length",
    "nearest_neighbor_indices",
    "points_from_draw",
    "sample_surface",
    "self_intersecting_faces",
    "triangle_areas",
    "triangles_intersect",
    "volume_similarity",
    "voxelize",
]
