"""Shared fixtures and test-side oracles.

Oracles here are deliberately independent of the library internals: plain
loops, Fractions-free float math, and textbook formulas, so they can vouch
for the vectorised implementations.
"""

import math

import numpy as np
import pytest

from flowmesh import FlowField, GridGeometry, enforce_zero_boundary, icosphere, stability_estimate
from flowmesh import unique_edges
from flowmesh.metrics import mean_squared_edge_length


def scaled_icosphere(level, radius=1.0, center=(0.0, 0.0, 0.0)):
    """icosphere(level) scaled by ``radius`` about the origin, then moved to ``center``."""
    mesh = icosphere(level)
    return mesh.with_vertices(mesh.vertices * radius + np.asarray(center, dtype=np.float64))


def edge_loss(mesh):
    """The fit's edge term of a whole mesh: mean squared length over its undirected edges."""
    return mean_squared_edge_length(mesh.vertices, unique_edges(mesh.faces))


def make_gated_field(dims, lower, upper, seed, steps, margin=0.5):
    """Random zero-boundary field rescaled so h * L_safe == margin at h=1/steps."""
    dims = tuple(dims)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    spacing = tuple((upper[a] - lower[a]) / (dims[a] - 1) for a in range(3))
    geometry = GridGeometry(dims, tuple(lower), spacing)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=dims + (3,)).astype(np.float32)
    field = enforce_zero_boundary(FlowField(geometry, data))
    est = stability_estimate(field)
    scale = margin * steps / est.lipschitz_safe
    return FlowField(geometry, field.data * np.float32(scale))


def trilinear_oracle(geometry, data, point):
    """Scalar 8-term trilinear blend; zero outside the closed domain."""
    o, d, dims = geometry.origin, geometry.spacing, geometry.dims
    for a in range(3):
        if point[a] < o[a] or point[a] > o[a] + d[a] * (dims[a] - 1):
            return np.zeros(3)
    rel = [(point[a] - o[a]) / d[a] for a in range(3)]
    base = [min(int(math.floor(rel[a])), dims[a] - 2) for a in range(3)]
    t = [min(max(rel[a] - base[a], 0.0), 1.0) for a in range(3)]
    out = np.zeros(3)
    for da in (0, 1):
        for db in (0, 1):
            for dc in (0, 1):
                w = (
                    (t[0] if da else 1.0 - t[0])
                    * (t[1] if db else 1.0 - t[1])
                    * (t[2] if dc else 1.0 - t[2])
                )
                out = out + w * np.asarray(
                    data[base[0] + da, base[1] + db, base[2] + dc], dtype=np.float64
                )
    return out


def stencil_formulas(local, spacing):
    """The (n, 8) trilinear weights of cell coordinates ``local`` and their
    (n, 8, 3) gradients in world position, corner by corner: corner p has
    offsets (p >> 2 & 1, p >> 1 & 1, p & 1) along the three axes."""
    t = local
    m = 1.0 - t
    yz = [m[:, 1] * m[:, 2], m[:, 1] * t[:, 2], t[:, 1] * m[:, 2], t[:, 1] * t[:, 2]]
    weights = np.stack([m[:, 0] * p for p in yz] + [t[:, 0] * p for p in yz], axis=1)
    u = np.stack([1.0 - t, t], axis=2)
    du = np.broadcast_to(np.array([-1.0, 1.0]), (t.shape[0], 3, 2))
    grads = np.empty((t.shape[0], 8, 3))
    for p in range(8):
        a, b, c = p >> 2 & 1, p >> 1 & 1, p & 1
        fx, fy, fz = u[:, 0, a], u[:, 1, b], u[:, 2, c]
        grads[:, p, 0] = du[:, 0, a] * fy * fz / spacing[0]
        grads[:, p, 1] = fx * du[:, 1, b] * fz / spacing[1]
        grads[:, p, 2] = fx * fy * du[:, 2, c] / spacing[2]
    return weights, grads


def stability_oracle(geometry, data):
    """Exhaustive per-node, per-axis forward-difference enumeration.

    Mirrors the documented convention: forward difference everywhere except
    the last index of the axis, where the node value itself stands in for the
    zero-padded difference.
    """
    H, W, D = geometry.dims
    data = np.asarray(data, dtype=np.float64)
    per_axis = []
    for axis in range(3):
        worst = 0.0
        for i in range(H):
            for j in range(W):
                for k in range(D):
                    idx = [i, j, k]
                    if idx[axis] < geometry.dims[axis] - 1:
                        nxt = list(idx)
                        nxt[axis] += 1
                        diff = data[tuple(nxt)] - data[tuple(idx)]
                    else:
                        diff = data[tuple(idx)]
                    norm = math.sqrt(diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2)
                    if norm > worst:
                        worst = norm
        per_axis.append(worst / geometry.spacing[axis])
    max_speed = 0.0
    for i in range(H):
        for j in range(W):
            for k in range(D):
                v = data[i, j, k]
                norm = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
                max_speed = max(max_speed, norm)
    return per_axis, max(per_axis), max_speed


def expm_oracle(matrix):
    """Matrix exponential by scaling-and-squaring of the power series."""
    A = np.asarray(matrix, dtype=np.float64)
    norm = np.linalg.norm(A, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2.0**squarings)
    result = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 30):
        term = term @ B / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def linear_field(matrix, center, dims, lower, upper):
    """Field whose interior nodes sample v(x) = A (x - center); zero boundary."""
    dims = tuple(dims)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    spacing = tuple((upper[a] - lower[a]) / (dims[a] - 1) for a in range(3))
    geometry = GridGeometry(dims, tuple(lower), spacing)
    axes = [lower[a] + spacing[a] * np.arange(dims[a]) for a in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    data = (grid - np.asarray(center)) @ np.asarray(matrix, dtype=np.float64).T
    field = enforce_zero_boundary(FlowField(geometry, data.astype(np.float32)))
    return field


def brute_force_nn_stats(a, b):
    """All-pairs means and maxima of nearest-neighbour distances."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    d_ab = d.min(axis=1)
    d_ba = d.min(axis=0)
    return d_ab, d_ba


@pytest.fixture(scope="session")
def ellipsoid_task():
    """Template, target and chamfer evaluator for the end-to-end fit task."""
    from flowmesh import icosphere
    from flowmesh.metrics import chamfer, sample_surface

    template = icosphere(3)
    base = icosphere(4)
    target = base.with_vertices(base.vertices * np.array([1.0, 0.8, 0.65]))

    def measure(mesh_a, mesh_b, n=200000, seed=999):
        return chamfer(sample_surface(mesh_a, n, seed), sample_surface(mesh_b, n, seed))

    return template, target, measure
