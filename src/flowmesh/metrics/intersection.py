"""Self-intersecting face census via exact triangle-triangle tests.

Each orientation predicate is one polynomial, evaluated in floating point
under a conservative error filter (relative to its permanent, plus an
allowance for products that underflow).  A sign the filter cannot certify is
recomputed on exact integers: every finite float is n / 2**k, and scaling all
coordinates by the largest 2**k keeps the sign of these homogeneous
polynomials.  Coplanar pairs need no routine of their own: an edge in the
other triangle's plane is tested in 2D, and two zero-area triangles meet iff
an edge of one meets an edge of the other.  So there are no false positives
or negatives near coplanar, touching or degenerate configurations.  The
broad phase bins face bounding boxes into a uniform grid of cells no smaller
than an ordinary face's box, and keeps the boxes in cell order, so that each
cell's forward neighbourhood is five contiguous runs; it tests each cell
against them in fixed-size vectorised chunks, and the few outsized faces
against every face.  The pairs it keeps, in no particular order, go in
batches of at most the chunk size through the dropping of pairs of two
flagged faces, a vectorised plane-side prefilter and the exact test; no
pair list is ever kept.
"""

from __future__ import annotations

import math

import numpy as np

from ..mesh import TriangleMesh

# Conservative relative filter bounds; anything smaller in magnitude than
# bound * permanent (plus the underflow allowance) is re-evaluated exactly.
# (The theoretically tight coefficients are ~8e-16 for orient3d and
# ~3.4e-16 for orient2d.)
_O3D_FILTER = 1e-14
_O2D_FILTER = 1e-14

# A product that underflows is off by at most 2**-1075, which no relative
# bound covers; this allowance covers a few of them, with margin.
_UNDERFLOW = 2.0**-1072


def _on_integers(*points):
    """The points' coordinates as integers, each times the smallest power of
    two that makes all of them integral."""
    ratios = [[c.as_integer_ratio() for c in p] for p in points]
    scale = max(den for p in ratios for _, den in p)
    return [[num * (scale // den) for num, den in p] for p in ratios]


def _orient3d_terms(a, b, c, d):
    """det[a-d; b-d; c-d], its permanent and |a-d|_1, in the inputs' arithmetic."""
    adx, ady, adz = a[0] - d[0], a[1] - d[1], a[2] - d[2]
    bdx, bdy, bdz = b[0] - d[0], b[1] - d[1], b[2] - d[2]
    cdx, cdy, cdz = c[0] - d[0], c[1] - d[1], c[2] - d[2]
    m1, m2, m3 = bdy * cdz, bdz * cdy, bdz * cdx
    m4, m5, m6 = bdx * cdz, bdx * cdy, bdy * cdx
    det = adx * (m1 - m2) + ady * (m3 - m4) + adz * (m5 - m6)
    ax, ay, az = abs(adx), abs(ady), abs(adz)
    permanent = ax * (abs(m1) + abs(m2)) + ay * (abs(m3) + abs(m4)) + az * (abs(m5) + abs(m6))
    return det, permanent, ax + ay + az


def orient3d(a, b, c, d) -> int:
    """Sign of det[a-d; b-d; c-d]: which side of plane (a,b,c) holds d."""
    det, permanent, spread = _orient3d_terms(a, b, c, d)
    # an underflowed minor's error is scaled by at most |a-d|_1
    if abs(det) > _O3D_FILTER * permanent + _UNDERFLOW * (spread + 1.0):
        return 1 if det > 0 else -1
    det = _orient3d_terms(*_on_integers(a, b, c, d))[0]
    return (det > 0) - (det < 0)


def _orient2d_terms(a, b, c):
    """Twice the signed area of (a, b, c) and its permanent, in the inputs' arithmetic."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    return left - right, abs(left) + abs(right)


def orient2d(a, b, c) -> int:
    """Sign of the area of triangle (a, b, c) in the plane."""
    det, permanent = _orient2d_terms(a, b, c)
    if abs(det) > _O2D_FILTER * permanent + _UNDERFLOW:
        return 1 if det > 0 else -1
    det = _orient2d_terms(*_on_integers(a, b, c))[0]
    return (det > 0) - (det < 0)


def _point_in_triangle_2d(p, tri) -> bool:
    s0 = orient2d(tri[0], tri[1], p)
    s1 = orient2d(tri[1], tri[2], p)
    s2 = orient2d(tri[2], tri[0], p)
    return (s0 >= 0 and s1 >= 0 and s2 >= 0) or (s0 <= 0 and s1 <= 0 and s2 <= 0)


def _on_segment_2d(p, a, b) -> bool:
    # Assumes p collinear with (a, b): check the coordinate box.
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect_2d(a, b, c, d) -> bool:
    """Closed-set intersection of 2D segments (a,b) and (c,d)."""
    o1 = orient2d(a, b, c)
    o2 = orient2d(a, b, d)
    o3 = orient2d(c, d, a)
    o4 = orient2d(c, d, b)
    return (
        (o1 * o2 < 0 and o3 * o4 < 0)
        or (o1 == 0 and _on_segment_2d(c, a, b))
        or (o2 == 0 and _on_segment_2d(d, a, b))
        or (o3 == 0 and _on_segment_2d(a, c, d))
        or (o4 == 0 and _on_segment_2d(b, c, d))
    )


def _segments_meet(a, b, c, d) -> bool:
    """Closed intersection of 3D segments (a,b) and (c,d).

    They meet iff they are coplanar and meet in all three axis-plane
    projections: one of those is one-to-one on their plane (or line).
    """
    return orient3d(a, b, c, d) == 0 and all(
        _segments_intersect_2d((a[u], a[v]), (b[u], b[v]), (c[u], c[v]), (d[u], d[v]))
        for u, v in ((0, 1), (1, 2), (2, 0))
    )


def _plane_axes(tri) -> tuple[int, int] | None:
    """Two axes whose plane the triangle projects onto with nonzero area,
    so that flattening keeps every incidence; None if it has zero area."""
    for u, v in ((0, 1), (1, 2), (2, 0)):
        if orient2d(*((p[u], p[v]) for p in tri)):
            return u, v
    return None


def _segment_triangle_intersect(a, b, tri, sa: int, sb: int) -> bool:
    """Closed intersection of segment (a,b) with a triangle.

    ``sa``/``sb`` are the precomputed plane-side signs of the endpoints
    against the triangle's plane.
    """
    if sa != 0 and sa == sb:
        return False
    if sa == 0 and sb == 0:
        # Segment lies in the triangle's plane.
        axes = _plane_axes(tri)
        if axes is None:  # a zero-area triangle is the union of its edges
            return any(_segments_meet(a, b, tri[j], tri[(j + 1) % 3]) for j in range(3))
        u, v = axes
        a2, b2 = (a[u], a[v]), (b[u], b[v])
        tri2 = [(p[u], p[v]) for p in tri]
        return (
            _point_in_triangle_2d(a2, tri2)
            or _point_in_triangle_2d(b2, tri2)
            or any(_segments_intersect_2d(a2, b2, tri2[j], tri2[(j + 1) % 3]) for j in range(3))
        )
    # The line through (a, b) pierces the plane at a single point; that point
    # lies in the closed triangle iff the three edge volumes share a sign.
    o1 = orient3d(a, b, tri[0], tri[1])
    o2 = orient3d(a, b, tri[1], tri[2])
    o3 = orient3d(a, b, tri[2], tri[0])
    return (o1 >= 0 and o2 >= 0 and o3 >= 0) or (o1 <= 0 and o2 <= 0 and o3 <= 0)


def triangles_intersect(t1, t2) -> bool:
    """Exact closed-set intersection test for two 3D triangles.

    The pair meets iff an edge of one meets the other triangle, a
    zero-area triangle being the union of its edges.  Raises
    ValueError on a non-finite coordinate.
    """
    t1 = [tuple(map(float, p)) for p in t1]
    t2 = [tuple(map(float, p)) for p in t2]
    if not all(math.isfinite(c) for p in t1 + t2 for c in p):
        raise ValueError("triangle coordinates must be finite")
    s2 = [orient3d(t1[0], t1[1], t1[2], q) for q in t2]
    if all(s > 0 for s in s2) or all(s < 0 for s in s2):
        return False
    s1 = [orient3d(t2[0], t2[1], t2[2], p) for p in t1]
    if all(s > 0 for s in s1) or all(s < 0 for s in s1):
        return False
    return any(
        _segment_triangle_intersect(t[i], t[(i + 1) % 3], other, s[i], s[(i + 1) % 3])
        for t, other, s in ((t1, t2, s1), (t2, t1, s2))
        for i in range(3)
    )


# Index pairs expanded per vectorised step, each step consumed before the
# next: bounds the temporaries whatever the size of a block.
_CHUNK = 1 << 13

# Faces whose box extent exceeds this multiple of the median extent do not
# set the cell size; each is tested against every face instead.
_OUTSIZED_RATIO = 2.0

def _face_boxes(vertices: np.ndarray, faces: np.ndarray):
    """Per-face bounding box bounds (lo, hi), each (3, F): one row per axis."""
    lo = vertices.T[:, faces[:, 0]]
    hi = lo.copy()
    for k in (1, 2):
        corner = vertices.T[:, faces[:, k]]
        np.minimum(lo, corner, out=lo)
        np.maximum(hi, corner, out=hi)
    return lo, hi


def _disjoint_overlaps(lo, hi, faces_t, i, j):
    """The pairs (i, j) whose closed boxes overlap and that share no vertex.

    ``lo``/``hi``/``faces_t`` hold one contiguous row per axis or corner;
    ``i`` is an index array like ``j`` or a single face.
    """
    i = np.broadcast_to(i, j.shape)
    for k in range(3):
        hit = (lo[k].take(i) <= hi[k].take(j)) & (lo[k].take(j) <= hi[k].take(i))
        i, j = i[hit], j[hit]
    keep = np.ones(len(i), dtype=bool)
    for a in range(3):
        fi = faces_t[a].take(i)
        for b in range(3):
            keep &= fi != faces_t[b].take(j)
    return i[keep], j[keep]


def block_pairs(rows: np.ndarray, cols: np.ndarray):
    """Every (row, col) index pair of the rows[k] x cols[k] blocks, in chunks.

    Yields (block, row, col) arrays of at most _CHUNK entries, block by
    block, then row by row; a block with no rows or no columns yields nothing.
    """
    size = rows * cols
    block_end = np.cumsum(size)
    total = int(size.sum())
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        first, last = np.searchsorted(block_end, (start, stop - 1), side="right")
        # the chunk's share of each block it overlaps
        share = np.diff(np.clip(block_end[first : last + 1], start, stop), prepend=start)
        block = np.repeat(np.arange(first, last + 1), share)
        row, col = np.divmod(np.arange(start, stop) - (block_end[block] - size[block]), cols[block])
        yield block, row, col


def _candidate_pairs(vertices: np.ndarray, faces: np.ndarray):
    """AABB-overlapping, vertex-disjoint face pairs via a uniform cell grid.

    Bins the faces, then returns an iterator over chunks (i, j) of face
    indices as `_disjoint_overlaps` keeps them: at most _CHUNK pairs of
    ordinary faces, or one outsized face's row; each unordered pair once, in
    an unspecified order and orientation.

    Each ordinary face is binned by its box's lower corner into cells whose
    edge is at least the largest ordinary box extent, so two overlapping
    boxes lie in the same or adjacent cells on every axis.  The edge gets a
    relative slack that covers the rounding of the binning, and is at least
    2**-20 of the grid's span, which keeps cell keys within int64.  The boxes
    and corner indices are then kept in cell order, outsized faces last, so
    that a cell's neighbourhood is five contiguous runs of rows.
    """
    lo, hi = _face_boxes(vertices, faces)
    extent = (hi - lo).max(axis=0)
    outsized = extent > _OUTSIZED_RATIO * np.median(extent)

    ids = np.flatnonzero(~outsized)
    n = len(ids)
    box_lo = lo[:, ids]
    shifted = box_lo - box_lo.min(axis=1, keepdims=True)
    edge = max(float(extent[ids].max()), float(shifted.max()) * 2.0**-20)
    edge = edge * (1.0 + 2.0**-20) or 1.0
    cell = np.floor(shifted / edge).astype(np.int64) + 1
    # Free each (3, F) temporary once used: together they set the peak memory.
    del box_lo, shifted
    radix = cell.max(axis=1) + 2
    key = (cell[0] * radix[1] + cell[1]) * radix[2] + cell[2]
    del cell
    by_key = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[by_key], return_index=True, return_counts=True)
    del key
    order = np.concatenate((ids[by_key], np.flatnonzero(outsized)))
    del ids, by_key
    lo = lo.take(order, axis=1)
    hi = hi.take(order, axis=1)
    faces_t = faces.T.take(order, axis=1)
    ends = np.append(start, n)

    def chunks():
        # Row-major keys put a column's cells z-1, z and z+1 side by side, so
        # a cell's forward neighbours are five runs of the cell order: its own
        # column from the cell through z+1, then the z-1..z+1 stretch of each
        # forward column (dx, dy).
        for dx, dy, dz in ((0, 0, 0), (0, 1, -1), (1, -1, -1), (1, 0, -1), (1, 1, -1)):
            column = cells + (dx * radix[1] + dy) * radix[2]
            first = ends[np.searchsorted(cells, column + dz)]
            length = ends[np.searchsorted(cells, column + 1, side="right")] - first
            # block k holds the count[k] * length[k] pairs of cell k and its run
            for block, row, col in block_pairs(count, length):
                i, j = start[block] + row, first[block] + col
                if dx == dy == 0:  # each pair of one cell once
                    later = i < j
                    i, j = i[later], j[later]
                i, j = _disjoint_overlaps(lo, hi, faces_t, i, j)
                yield order.take(i), order.take(j)
        everyone = np.arange(len(order))
        for p in range(n, len(order)):
            i, j = _disjoint_overlaps(lo, hi, faces_t, p, everyone[(everyone < n) | (everyone > p)])
            yield order.take(i), order.take(j)

    return chunks()


def _plane_side_prefilter(corners: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Drop the pairs (i, j) certainly separated by one triangle's supporting plane.

    Purely a float fast path: a pair is discarded only when all three
    vertices of one triangle are farther from the other's plane than a
    conservative rounding bound, on the same side.  The bound has a floor
    for underflowed products, and is infinite wherever a sum could
    overflow, which keeps the pair.  Returns the kept (i, j).
    """
    keep = np.ones(len(i), dtype=bool)
    ci, cj = corners[i], corners[j]
    with np.errstate(over="ignore", invalid="ignore"):
        for tri, other in ((ci, cj), (cj, ci)):
            e = tri[:, 1:] - tri[:, :1]
            # np.cross's products without its overhead, which dominates on small chunks
            n = e[:, 0, [1, 2, 0]] * e[:, 1, [2, 0, 1]] - e[:, 0, [2, 0, 1]] * e[:, 1, [1, 2, 0]]
            rel = other - tri[:, :1]
            d = np.einsum("pc,pkc->pk", n, rel)
            scale = np.maximum(np.abs(e).max(axis=(1, 2)), np.abs(rel).max(axis=(1, 2)))
            # 1e-12 scale**3 taken from (2 scale)**3, which exceeds every partial sum
            # of d: a finite bound means a finite d.  2**-1000 covers underflow.
            bound = 1.25e-13 * (2.0 * scale[:, None]) ** 3 + 2.0**-1000
            keep &= ~((d > bound).all(axis=1) | (d < -bound).all(axis=1))
    return i[keep], j[keep]


def _batches(chunks):
    """The (i, j) pairs of the chunks, in order, regrouped into batches of
    _CHUNK pairs; only the last may hold fewer."""
    i = j = np.zeros(0, dtype=np.int64)
    for a, b in chunks:
        i, j = np.concatenate((i, a)), np.concatenate((j, b))
        while len(i) >= _CHUNK:
            yield i[:_CHUNK], j[:_CHUNK]
            i, j = i[_CHUNK:], j[_CHUNK:]
    if len(i):
        yield i, j


def self_intersecting_faces(mesh: TriangleMesh) -> tuple[int, float]:
    """Count faces whose closed triangle intersects a non-adjacent face.

    Touching counts as intersecting.  Pairs sharing any vertex are never
    tested; both faces of an intersecting pair count.  Returns
    (count, 100 * count / F).  Raises ValueError on non-finite vertices.
    """
    if not np.isfinite(mesh.vertices).all():
        raise ValueError("mesh vertices must be finite")
    f = mesh.face_count
    if f == 0:
        return 0, 0.0
    chunks = _candidate_pairs(mesh.vertices, mesh.faces)
    corners = mesh.triangle_corners()  # after the binning, whose temporaries set the peak
    flagged = np.zeros(f, dtype=bool)
    for i, j in _batches(chunks):
        fresh = ~(flagged[i] & flagged[j])
        for a, b in zip(*_plane_side_prefilter(corners, i[fresh], j[fresh])):
            if not (flagged[a] and flagged[b]) and triangles_intersect(corners[a], corners[b]):
                flagged[a] = flagged[b] = True
    count = int(flagged.sum())
    return count, 100.0 * count / f
