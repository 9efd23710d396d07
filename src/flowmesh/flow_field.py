"""Discrete 3D flow fields on regular grids.

A flow field stores one 3-vector per grid node (float32) and is evaluated
everywhere in space by trilinear interpolation, with the convention that the
field is identically zero outside the grid domain.  Because all boundary
nodes of a valid field are zero, the interpolant is continuous across the
domain boundary and globally Lipschitz; the constants needed to gate explicit
integration are estimated from forward finite differences of the node data.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dataclass_field

import numpy as np

DFF1_MAGIC = b"DFF1"

_SQRT3 = math.sqrt(3.0)


class FlowFormatError(ValueError):
    """A DFF1 file could not be parsed or violates a field invariant.

    The ``code`` attribute identifies the failure: ``bad_magic``,
    ``bad_header``, ``truncated``, ``trailing_data``, ``non_finite`` or
    ``boundary``.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class GridGeometry:
    """Regular node grid; node (i,j,k) sits at ``origin + (i,j,k) * spacing``.

    The covered domain is the closed box
    ``prod_a [origin_a, origin_a + spacing_a * (dims_a - 1)]``.
    """

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        origin = tuple(float(v) for v in self.origin)
        spacing = tuple(float(v) for v in self.spacing)
        if len(dims) != 3 or len(origin) != 3 or len(spacing) != 3:
            raise ValueError("dims, origin and spacing must each have 3 entries")
        if any(n < 2 for n in dims):
            raise ValueError(f"need at least 2 nodes per axis, got dims={dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        if not np.isfinite(self.upper).all():  # also when origin or spacing is not finite
            raise ValueError(f"origin, spacing and far corner {self.upper.tolist()} must be finite")
        if any(d <= 0.0 for d in spacing):
            raise ValueError(f"spacing must be strictly positive, got {spacing}")

    @property
    def lower(self) -> np.ndarray:
        return np.array(self.origin, dtype=np.float64)

    @property
    def upper(self) -> np.ndarray:
        """The far corner, in Python floats: an overflow gives inf without a warning."""
        return np.array([o + d * (n - 1) for o, d, n in zip(self.origin, self.spacing, self.dims)])

    def contains(self, points) -> np.ndarray:
        pts = _as_point_array(points)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)


@dataclass(frozen=True)
class StabilityEstimate:
    """Constants bounding the trilinear interpolant of a flow field.

    ``lipschitz`` bounds every axis-directional derivative (max forward
    difference norm over spacing, per axis, maximised over axes); the
    Euclidean Lipschitz constant of the interpolant can exceed it by up to
    sqrt(3), so step-size gating uses ``lipschitz_safe = sqrt(3) * lipschitz``.
    ``max_speed`` is the largest node vector norm and bounds |v| everywhere.
    """

    per_axis_lipschitz: tuple[float, float, float]
    lipschitz: float
    max_speed: float
    lipschitz_safe: float

    def __post_init__(self):
        if self.lipschitz < 0 or self.max_speed < 0:
            raise ValueError("stability constants must be non-negative")


@dataclass(frozen=True, eq=False, slots=True)
class FlowField:
    """Dense node data (H, W, D, 3) in float32 plus its grid geometry.

    Instances are immutable; ``data`` is read-only and its float64 copy
    ``data64`` is used for all interpolation arithmetic.  The zero-boundary
    invariant is *not* enforced at construction; use :func:`enforce_zero_boundary`.
    """

    geometry: GridGeometry
    data: np.ndarray
    data64: np.ndarray = dataclass_field(init=False)

    def __post_init__(self):
        # always copy: freezing must never alias the caller's array
        arr = np.array(self.data, dtype=np.float32, order="C")
        expected = self.geometry.dims + (3,)
        if arr.shape != expected:
            raise ValueError(f"data shape {arr.shape} does not match grid {expected}")
        if not np.isfinite(arr).all():
            raise ValueError("flow field data must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        d64 = arr.astype(np.float64)
        d64.flags.writeable = False
        object.__setattr__(self, "data64", d64)

    def __reduce__(self):  # copies and unpickles rebuild, so they are frozen again
        return FlowField, (self.geometry, self.data)


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    return pts


def _boundary_mask(dims: tuple[int, int, int]) -> np.ndarray:
    mask = np.zeros(dims, dtype=bool)
    mask[0, :, :] = mask[-1, :, :] = True
    mask[:, 0, :] = mask[:, -1, :] = True
    mask[:, :, 0] = mask[:, :, -1] = True
    return mask


# Corner enumeration order for the 8-node stencil: bit 2 -> axis 0 offset,
# bit 1 -> axis 1, bit 0 -> axis 2.
_CORNERS = np.array(
    [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.int64
)
_DU = np.array([-1.0, 1.0])  # d/dt of the axis factors (1 - t, t)


def scatter_add(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """Unbuffered ``out[index] += values`` for an (N, C) ``out``, an (m,)
    ``index`` into its rows and (m, C) ``values``: ``np.add.at`` on one column
    at a time, which on the whole (N, C) array measured 2-6x slower."""
    for c in range(out.shape[1]):
        np.add.at(out[:, c], index, values[:, c])


def _corner_products(fx: np.ndarray, fy: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """The (n, 8) products ``fx[a] * (fy[b] * fz[c])`` in _CORNERS order, from (2, n)
    factor pairs; a broadcast into an array numpy allocates itself ran 3x slower."""
    n = fx.shape[1]
    out = np.empty((n, 8))
    yz = np.multiply(fy[:, None], fz, out=np.empty((2, 2, n)))
    np.multiply(fx[:, None, None], yz, out=out.T.reshape(2, 2, 2, n))
    return out


class TrilinearStencil:
    """The 8-node interpolation stencil of a batch of points, from one cell lookup.

    Rows are the points inside the closed grid domain, in batch order:
    ``inside`` holds their indices into the (N, 3) batch, ``base`` the flat
    node index of their cell's lower corner and ``local`` the (n, 3)
    coordinates within the cell, 40 bytes per row in all.  ``flat``, the (n, 8)
    flat node indices of the cell corners, and ``weights``, those corners'
    (n, 8) trilinear weights, are computed from them on each read.  Points
    outside see a zero field and have no row.  A point on a cell face takes
    the cell above it, except on the grid's upper faces (the last cell).

    ``data64`` arguments are (H, W, D, 3) float64 node arrays; ``sample`` evaluates the
    interpolant at all ``count`` points (zero outside) and ``backprop`` is its reverse step.
    """

    __slots__ = ("geometry", "count", "inside", "base", "local")

    def __init__(self, geometry: GridGeometry, points: np.ndarray):
        self.geometry = geometry
        self.count = len(points)
        self.inside = np.flatnonzero(geometry.contains(points))
        pts = points if len(self.inside) == len(points) else points[self.inside]
        dims = np.array(geometry.dims, dtype=np.int64)
        rel = (pts - geometry.lower) / np.array(geometry.spacing, dtype=np.float64)
        base = np.floor(rel).astype(np.int64)
        np.clip(base, 0, dims - 2, out=base)
        self.local = np.clip(rel - base, 0.0, 1.0)
        _, W, D = geometry.dims
        self.base = (base[:, 0] * W + base[:, 1]) * D + base[:, 2]

    @property
    def flat(self) -> np.ndarray:
        _, W, D = self.geometry.dims
        offsets = (_CORNERS[:, 0] * W + _CORNERS[:, 1]) * D + _CORNERS[:, 2]
        return self.base[:, None] + offsets[None, :]

    @property
    def weights(self) -> np.ndarray:
        return _corner_products(*self._axis_factors())

    def _axis_factors(self) -> np.ndarray:
        """The (1 - t, t) factor pair of each axis, shape (3, 2, n)."""
        factors = np.empty((3, 2, len(self.local)))
        factors[:, 1] = self.local.T
        np.subtract(1.0, factors[:, 1], out=factors[:, 0])
        return factors

    def _weight_gradients(self, f: np.ndarray) -> np.ndarray:
        """d(weight)/d(world position), (n, 8, 3), from factors f: axis a's pair becomes (-1, 1)."""
        n = f.shape[2]
        du = np.broadcast_to(_DU[:, None], (2, n))
        grads = np.empty((n, 8, 3))
        for a, d in enumerate(self.geometry.spacing):
            np.divide(_corner_products(*f[:a], du, *f[a + 1:]), d, out=grads[:, :, a])
        return grads

    def sample(self, data64: np.ndarray) -> np.ndarray:
        """The interpolant at every point of the batch, zero outside; (N, 3)."""
        corners = np.take(data64.reshape(-1, 3), self.flat, axis=0)  # (n, 8, 3)
        values = np.einsum("np,npc->nc", self.weights, corners)
        if len(values) == self.count:
            return values
        out = np.zeros((self.count, 3), dtype=np.float64)
        out[self.inside] = values
        return out

    def backprop(self, out: np.ndarray, data64: np.ndarray, grad: np.ndarray,
                 scale: float) -> np.ndarray:
        """The reverse step of ``sample`` on the rows for an (n, 3) ``grad``: adds ``scale *
        weight * grad`` of each row to its 8 corner rows of the (nodes, 3) ``out``, a column at a
        time by ``np.add.at`` (an (n, 8) index ran 5x slower), and returns ``scale * J^T grad``."""
        flat, factors = self.flat, self._axis_factors()
        node_dot = np.einsum("npc,nc->np", np.take(data64.reshape(-1, 3), flat, axis=0), grad)
        # J^T first: its (n, 8, 3) weight gradients are freed before the adds' (n, 8)
        jt = scale * np.einsum("npa,np->na", self._weight_gradients(factors), node_dot)
        sw = scale * _corner_products(*factors)
        for c in range(out.shape[1]):
            np.add.at(out[:, c], flat.ravel(), (sw * grad[:, c, None]).ravel())
        return jt


def sample_grid(geometry: GridGeometry, data64: np.ndarray, points) -> np.ndarray:
    """Trilinear interpolation of node vectors; exactly zero outside the grid.

    ``data64`` is the (H, W, D, 3) float64 node array and ``points`` an (N, 3)
    batch.  Total function: any finite point is accepted.
    """
    return TrilinearStencil(geometry, _as_point_array(points)).sample(data64)


def stability_estimate(field: FlowField) -> StabilityEstimate:
    """Lipschitz and speed bounds from forward finite differences.

    Along each axis the difference at node i is ``U[i+1] - U[i]``; at the last
    index, where zero padding applies, it is the node value itself (the sign
    is immaterial under the norm).  The per-axis constant is the largest
    difference norm divided by the axis spacing.
    """
    return stability_from_grid(field.geometry, field.data64)


def stability_from_grid(geometry: GridGeometry, data64: np.ndarray) -> StabilityEstimate:
    """stability_estimate on a raw float64 node array (see that docstring)."""
    data = np.asarray(data64, dtype=np.float64)
    spacing = geometry.spacing
    per_axis = []
    # huge node values overflow to inf, and L_safe = inf fails the strict gate
    with np.errstate(over="ignore"):
        for axis in range(3):
            diff = np.diff(data, axis=axis, append=0.0)  # last index: -U[-1], same norm
            norms = np.sqrt((diff * diff).sum(axis=-1))
            per_axis.append(float(norms.max()) / spacing[axis])
        max_speed = float(np.sqrt((data * data).sum(axis=-1)).max())
    lipschitz = max(per_axis)
    return StabilityEstimate(
        per_axis_lipschitz=(per_axis[0], per_axis[1], per_axis[2]),
        lipschitz=lipschitz,
        max_speed=max_speed,
        lipschitz_safe=_SQRT3 * lipschitz,
    )


def enforce_zero_boundary(field: FlowField) -> FlowField:
    """Return a copy of the field with every boundary node zeroed."""
    data = field.data.copy()
    data[_boundary_mask(field.geometry.dims)] = 0.0
    return FlowField(field.geometry, data)


_HEADER = struct.Struct("<4s3I3d3d")


def store_flow(field: FlowField, path) -> None:
    """Write a field in the DFF1 format (see module docs for the layout)."""
    geom = field.geometry
    header = _HEADER.pack(
        DFF1_MAGIC, *geom.dims, *geom.origin, *geom.spacing
    )
    payload = np.ascontiguousarray(field.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_flow(path) -> FlowField:
    """Read a DFF1 file; rejects nonzero boundaries."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != DFF1_MAGIC:
        raise FlowFormatError(f"bad magic in {path!r}: expected DFF1", code="bad_magic")
    if len(raw) < _HEADER.size:
        raise FlowFormatError(f"truncated header in {path!r}", code="truncated")
    _, h, w, d, o1, o2, o3, d1, d2, d3 = _HEADER.unpack_from(raw)
    try:
        geometry = GridGeometry((h, w, d), (o1, o2, o3), (d1, d2, d3))
    except ValueError as exc:
        raise FlowFormatError(f"bad header in {path!r}: {exc}", code="bad_header") from exc
    count = h * w * d * 3
    expected = _HEADER.size + 4 * count
    if len(raw) < expected:
        raise FlowFormatError(
            f"truncated payload in {path!r}: {len(raw)} bytes, need {expected}",
            code="truncated",
        )
    if len(raw) > expected:
        raise FlowFormatError(
            f"{len(raw) - expected} trailing bytes in {path!r}", code="trailing_data"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=_HEADER.size)
    data = data.reshape(h, w, d, 3)
    if not np.isfinite(data).all():
        raise FlowFormatError(f"non-finite values in {path!r}", code="non_finite")
    if np.any(data[_boundary_mask((h, w, d))]):
        raise FlowFormatError(f"nonzero boundary nodes in {path!r}", code="boundary")
    return FlowField(geometry, data)
