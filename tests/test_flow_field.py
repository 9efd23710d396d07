import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmesh import (
    FlowField,
    FlowFormatError,
    GridGeometry,
    enforce_zero_boundary,
    load_flow,
    stability_estimate,
    store_flow,
)
from flowmesh.flow_field import (
    _CORNERS,
    DFF1_MAGIC,
    TrilinearStencil,
    _boundary_mask,
    sample_grid,
    scatter_add,
)

from conftest import make_gated_field, stability_oracle, trilinear_oracle


def interior_field(dims, values_fn, origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0)):
    geometry = GridGeometry(dims, origin, spacing)
    data = np.zeros(dims + (3,), dtype=np.float32)
    values_fn(data)
    return FlowField(geometry, data)


def interpolate(field, points):
    """The field's trilinear interpolant at an (N, 3) batch of points."""
    return sample_grid(field.geometry, field.data64, points)


class TestGridGeometry:
    def test_rejects_small_dims(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            GridGeometry((1, 4, 4), (0, 0, 0), (1, 1, 1))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="strictly positive"):
            GridGeometry((4, 4, 4), (0, 0, 0), (1, 0, 1))

    def test_domain_bounds(self):
        g = GridGeometry((3, 5, 2), (1, -1, 0), (0.5, 0.25, 2.0))
        assert np.allclose(g.upper, [2.0, 0.0, 2.0])
        assert g.contains([(1.5, -0.5, 1.0), (2.5, 0.0, 0.0)]).tolist() == [True, False]


class TestSample:
    def test_zero_field_everywhere_zero(self):
        field = interior_field((4, 4, 4), lambda d: None)
        pts = [(0.3, 1.2, 2.7), (-5, 0, 0), (1, 1, 1), (100, 100, 100)]
        assert np.array_equal(interpolate(field, pts), np.zeros((4, 3)))

    def test_node_exactness(self):
        # Dyadic origin/spacing keep node positions exactly representable.
        rng = np.random.default_rng(1)
        geometry = GridGeometry((5, 4, 6), (-2.0, 0.5, 1.0), (0.25, 0.5, 0.125))
        data = rng.normal(size=(5, 4, 6, 3)).astype(np.float32)
        field = FlowField(geometry, data)
        nodes = np.indices(geometry.dims).reshape(3, -1).T
        positions = geometry.lower + nodes * np.array(geometry.spacing)
        assert np.array_equal(interpolate(field, positions), field.data64.reshape(-1, 3))

    def test_all_boundary_grid_is_zero_at_center(self):
        field = interior_field((2, 2, 2), lambda d: None)
        assert np.array_equal(interpolate(field, [(0.5, 0.5, 0.5)]), np.zeros((1, 3)))

    def test_single_node_blend_matches_oracle(self):
        def put(d):
            d[2, 1, 2] = (0.7, -0.3, 1.1)

        field = interior_field((4, 4, 4), put)
        rng = np.random.default_rng(2)
        cell_center = np.array([1.5, 1.5, 1.5])
        pts = [cell_center] + [rng.uniform(0.2, 2.8, size=3) for _ in range(20)]
        for p, value in zip(pts, interpolate(field, pts)):
            expected = trilinear_oracle(field.geometry, field.data64, p)
            assert np.allclose(value, expected, rtol=1e-13, atol=1e-15)

    def test_outside_support_exact_zero(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=3, steps=4)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3, 4, size=(200, 3))
        outside = ~field.geometry.contains(pts)
        values = interpolate(field, pts)
        assert np.all(values[outside] == 0.0)

    def test_continuous_across_boundary(self):
        # boundary nodes are zero, so values shrink to zero approaching the
        # domain edge and the zero extension outside introduces no jump
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=30, steps=4)
        rng = np.random.default_rng(31)
        on_boundary = np.column_stack(
            [np.zeros(100), rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)]
        )
        assert np.all(interpolate(field, on_boundary) == 0.0)
        for eps in (1e-3, 1e-6, 1e-9):
            near = on_boundary + [eps, 0.0, 0.0]
            norms = np.linalg.norm(interpolate(field, near), axis=1)
            est = stability_estimate(field)
            assert np.all(norms <= est.per_axis_lipschitz[0] * eps * (1 + 1e-9))

    def test_batch_matches_one_row_batches(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (2, 2, 2), seed=5, steps=4)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.5, 2.5, size=(50, 3))
        batch = interpolate(field, pts)
        for row, p in zip(batch, pts):
            assert np.array_equal(row, interpolate(field, p[None])[0])


class TestStability:
    def test_zero_field(self):
        field = interior_field((4, 4, 4), lambda d: None)
        est = stability_estimate(field)
        assert est.lipschitz == 0.0
        assert est.max_speed == 0.0
        assert est.lipschitz_safe == 0.0

    def test_single_node_example(self):
        def put(d):
            d[1, 1, 1] = (2.0, 0.0, 0.0)

        field = interior_field((4, 4, 4), put)
        est = stability_estimate(field)
        assert est.max_speed == 2.0
        assert est.lipschitz == 2.0
        assert est.per_axis_lipschitz == (2.0, 2.0, 2.0)
        assert est.lipschitz_safe == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_spacing_scaling(self):
        field = make_gated_field((5, 6, 4), (0, 0, 0), (1, 1, 1), seed=7, steps=4)
        est = stability_estimate(field)
        for s in (0.5, 2.0, 4.0):
            scaled_geom = GridGeometry(
                field.geometry.dims,
                field.geometry.origin,
                tuple(d * s for d in field.geometry.spacing),
            )
            scaled = stability_estimate(FlowField(scaled_geom, field.data))
            assert scaled.lipschitz == pytest.approx(est.lipschitz / s, rel=1e-14)
            assert scaled.max_speed == est.max_speed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_enumeration_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(4, 8, size=3))
        spacing = tuple(rng.uniform(0.3, 2.0, size=3))
        geometry = GridGeometry(dims, (0, 0, 0), spacing)
        data = rng.normal(size=dims + (3,)).astype(np.float32)
        field = FlowField(geometry, data)
        est = stability_estimate(field)
        per_axis, lipschitz, max_speed = stability_oracle(geometry, field.data64)
        assert est.per_axis_lipschitz == tuple(per_axis)
        assert est.lipschitz == lipschitz
        assert est.max_speed == max_speed

    def test_lipschitz_properties(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (2, 2, 2), seed=8, steps=4)
        est = stability_estimate(field)
        rng = np.random.default_rng(9)
        n = 10000
        slack = 1e-6 * est.max_speed
        # per-axis bound
        for axis in range(3):
            x = rng.uniform(-0.2, 2.2, size=(n, 3))
            y = x.copy()
            y[:, axis] = rng.uniform(-0.2, 2.2, size=n)
            dv = np.linalg.norm(interpolate(field, x) - interpolate(field, y), axis=1)
            gap = np.abs(x[:, axis] - y[:, axis])
            assert np.all(dv <= est.per_axis_lipschitz[axis] * gap + slack)
        # global bound and boundedness
        x = rng.uniform(-0.2, 2.2, size=(n, 3))
        y = rng.uniform(-0.2, 2.2, size=(n, 3))
        dv = np.linalg.norm(interpolate(field, x) - interpolate(field, y), axis=1)
        assert np.all(dv <= est.lipschitz_safe * np.linalg.norm(x - y, axis=1) + slack)
        assert np.all(np.linalg.norm(interpolate(field, x), axis=1) <= est.max_speed + slack)


class TestJacobian:
    def test_transpose_matches_finite_differences_of_sampler(self):
        # g . J against central differences of g . v, one axis at a time
        field = make_gated_field((6, 6, 6), (0, 0, 0), (2, 2, 2), seed=21, steps=4)
        rng = np.random.default_rng(22)
        pts = rng.uniform(0.3, 1.7, size=(50, 3))
        g = rng.normal(size=(50, 3))
        stencil = TrilinearStencil(field.geometry, pts)
        assert len(stencil.inside) == len(pts)
        gj = stencil.jacobian_transpose(field.data64, g)
        eps = 1e-7
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = eps
            dv = interpolate(field, pts + shift) - interpolate(field, pts - shift)
            fd = np.sum(g * dv, axis=1) / (2 * eps)
            assert np.allclose(gj[:, axis], fd, rtol=1e-6, atol=1e-9)


class TestBoundary:
    def test_enforce_keeps_only_interior(self):
        geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        field = FlowField(geometry, np.ones((3, 3, 3, 3), dtype=np.float32))
        fixed = enforce_zero_boundary(field)
        assert np.array_equal(fixed.data[1, 1, 1], np.ones(3, dtype=np.float32))
        mask = _boundary_mask((3, 3, 3))
        assert not fixed.data[mask].any()
        assert field.data[mask].all()  # input untouched

    def test_idempotent_on_compliant_field(self):
        field = make_gated_field((4, 4, 4), (0, 0, 0), (1, 1, 1), seed=10, steps=4)
        again = enforce_zero_boundary(field)
        assert np.array_equal(again.data, field.data)

    def test_two_cube_becomes_all_zero(self):
        geometry = GridGeometry((2, 2, 2), (0, 0, 0), (1, 1, 1))
        field = FlowField(geometry, np.ones((2, 2, 2, 3), dtype=np.float32))
        assert not enforce_zero_boundary(field).data.any()


class TestFlowFieldType:
    def test_rejects_bad_shape(self):
        geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match="shape"):
            FlowField(geometry, np.zeros((3, 3, 2, 3), dtype=np.float32))

    def test_rejects_non_finite(self):
        geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        data = np.zeros((3, 3, 3, 3), dtype=np.float32)
        data[1, 1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            FlowField(geometry, data)

    def test_immutable(self):
        field = make_gated_field((3, 3, 3), (0, 0, 0), (1, 1, 1), seed=0, steps=2)
        with pytest.raises((ValueError, AttributeError)):
            field.data[0, 0, 0, 0] = 1.0

    def test_does_not_freeze_or_alias_caller_array(self):
        geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        source = np.zeros((3, 3, 3, 3), dtype=np.float32)
        field = FlowField(geometry, source)
        source[1, 1, 1] = 7.0  # caller's array stays writable
        assert not field.data[1, 1, 1].any()  # and the field saw a copy


class TestDff1:
    def test_round_trip_bit_identical(self, tmp_path):
        field = make_gated_field((5, 7, 4), (-1, 0, 2), (1, 2, 3.5), seed=11, steps=4)
        path = tmp_path / "field.dff1"
        store_flow(field, path)
        loaded = load_flow(path)
        assert loaded.geometry == field.geometry
        assert np.array_equal(loaded.data, field.data)
        assert loaded.data.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dff1"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FlowFormatError, match="magic") as err:
            load_flow(path)
        assert err.value.code == "bad_magic"

    def test_truncated_payload(self, tmp_path):
        field = make_gated_field((4, 4, 4), (0, 0, 0), (1, 1, 1), seed=12, steps=4)
        path = tmp_path / "trunc.dff1"
        store_flow(field, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(FlowFormatError, match="truncated") as err:
            load_flow(path)
        assert err.value.code == "truncated"

    def test_trailing_bytes_rejected(self, tmp_path):
        field = make_gated_field((4, 4, 4), (0, 0, 0), (1, 1, 1), seed=13, steps=4)
        path = tmp_path / "extra.dff1"
        store_flow(field, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FlowFormatError) as err:
            load_flow(path)
        assert err.value.code == "trailing_data"

    def test_bad_header_dims(self, tmp_path):
        import struct

        path = tmp_path / "dims.dff1"
        header = struct.pack("<4s3I3d3d", DFF1_MAGIC, 1, 4, 4, 0, 0, 0, 1, 1, 1)
        path.write_bytes(header)
        with pytest.raises(FlowFormatError) as err:
            load_flow(path)
        assert err.value.code == "bad_header"

    def test_non_finite_payload(self, tmp_path):
        field = make_gated_field((3, 3, 3), (0, 0, 0), (1, 1, 1), seed=14, steps=4)
        path = tmp_path / "nan.dff1"
        store_flow(field, path)
        raw = bytearray(path.read_bytes())
        # overwrite the first payload float with NaN
        raw[64:68] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FlowFormatError) as err:
            load_flow(path)
        assert err.value.code == "non_finite"

    def test_boundary_violation(self, tmp_path):
        geometry = GridGeometry((3, 3, 3), (0, 0, 0), (1, 1, 1))
        data = np.zeros((3, 3, 3, 3), dtype=np.float32)
        data[0, 0, 0] = (1, 2, 3)
        data[1, 1, 1] = (4, 5, 6)
        path = tmp_path / "boundary.dff1"
        store_flow(FlowField(geometry, data), path)
        with pytest.raises(FlowFormatError) as err:
            load_flow(path)
        assert err.value.code == "boundary"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_store_load_round_trip_property(seed):
    import tempfile

    field = make_gated_field((4, 5, 3), (0, -1, 2), (3, 1, 4), seed=seed, steps=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/f.dff1"
        store_flow(field, path)
        loaded = load_flow(path)
        assert np.array_equal(loaded.data, field.data)
        assert loaded.geometry == field.geometry


class TestTrilinearStencil:
    """The shared stencil and its adjoints, on points inside, on the upper
    faces of and outside the grid."""

    @staticmethod
    def batch():
        geometry = GridGeometry((5, 6, 7), (-1.0, -0.5, 0.0), (0.5, 0.4, 0.3))
        data = np.random.default_rng(31).normal(size=(5, 6, 7, 3))
        pts = np.random.default_rng(32).uniform(-1.3, 2.3, size=(400, 3))
        upper = geometry.upper
        for axis in range(3):
            pts[axis * 20:(axis + 1) * 20, axis] = upper[axis]
        pts[60:70] = upper
        return geometry, data, pts, TrilinearStencil(geometry, pts)

    def test_rows_are_the_contained_points(self):
        geometry, data, pts, stencil = self.batch()
        contained = np.flatnonzero(geometry.contains(pts))
        assert 70 <= len(contained) < len(pts)
        assert np.array_equal(stencil.inside, contained)
        assert stencil.flat.shape == (len(contained), 8)
        expected = np.stack([trilinear_oracle(geometry, data, p) for p in pts[contained]])
        assert np.allclose(stencil.blend(data), expected, rtol=1e-12, atol=1e-12)

    def test_scatter_is_adjoint_of_blend(self):
        _, data, _, stencil = self.batch()
        g = np.random.default_rng(33).normal(size=(len(stencil.inside), 3))
        out = np.zeros((data.size // 3, 3))
        stencil.scatter(out, g, 1.0)
        lhs = float(np.sum(stencil.blend(data) * g))
        rhs = float(np.sum(data.reshape(-1, 3) * out))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_jacobian_transpose_matches_cell_face_differences(self):
        # the interpolant is linear along each axis within a cell, so dv/dx_a
        # is the difference of its values on the two cell faces across axis a,
        # in the cell the stencil assigns (the one above a face, the last one
        # on the upper faces)
        geometry, data, pts, stencil = self.batch()
        inside = pts[stencil.inside]
        spacing = np.array(geometry.spacing)
        cell = np.floor((inside - geometry.lower) / spacing)
        base = np.clip(cell, 0, np.array(geometry.dims) - 2)
        # the upper face rounds past the domain in the last cell: keep it in
        bounds = [geometry.lower + base * spacing,
                  np.minimum(geometry.lower + (base + 1) * spacing, geometry.upper)]
        g = np.random.default_rng(34).normal(size=(len(inside), 3))
        expected = np.empty_like(g)
        for axis in range(3):
            faces = []
            for face in bounds:
                p = inside.copy()
                p[:, axis] = face[:, axis]
                faces.append(np.stack([trilinear_oracle(geometry, data, q) for q in p]))
            width = bounds[1][:, axis] - bounds[0][:, axis]
            expected[:, axis] = np.sum(g * (faces[1] - faces[0]), axis=1) / width
        assert np.allclose(
            stencil.jacobian_transpose(data, g), expected, rtol=1e-12, atol=1e-12
        )

    def test_sample_is_blend_with_zero_outside(self):
        geometry, data, pts, stencil = self.batch()
        full = stencil.sample(data)
        assert full.shape == pts.shape
        assert np.array_equal(full[stencil.inside], stencil.blend(data))
        outside = np.ones(len(pts), dtype=bool)
        outside[stencil.inside] = False
        assert not full[outside].any()
        assert np.array_equal(sample_grid(geometry, data, pts), full)

    def test_kernels_equal_reference_formulas_bitwise(self):
        """The weights, the gather, the scatter and the weight gradients are
        bitwise equal to the per-corner, fancy-index, ``np.add.at`` and loop
        formulas."""
        from flowmesh.flow_field import _stencil_weights

        geometry, data, _, stencil = self.batch()
        t = stencil.local
        m = 1.0 - t
        yz = [m[:, 1] * m[:, 2], m[:, 1] * t[:, 2], t[:, 1] * m[:, 2], t[:, 1] * t[:, 2]]
        expected = np.stack([m[:, 0] * p for p in yz] + [t[:, 0] * p for p in yz], axis=1)
        assert _stencil_weights(t).tobytes() == expected.tobytes()
        assert stencil._corners(data).tobytes() == data.reshape(-1, 3)[stencil.flat].tobytes()

        g = np.random.default_rng(35).normal(size=(len(stencil.inside), 3))
        out = np.zeros((data.size // 3, 3))
        stencil.scatter(out, g, 0.125)
        expected = np.zeros_like(out)
        weights = _stencil_weights(stencil.local)
        np.add.at(expected, stencil.flat, 0.125 * weights[:, :, None] * g[:, None, :])
        assert out.tobytes() == expected.tobytes()

        spacing = np.array(geometry.spacing)
        u = np.stack([1.0 - t, t], axis=2)
        du = np.broadcast_to(np.array([-1.0, 1.0]), (t.shape[0], 3, 2))
        loop = np.empty((t.shape[0], 8, 3))
        for p, (a, b, c) in enumerate(_CORNERS):
            fx, fy, fz = u[:, 0, a], u[:, 1, b], u[:, 2, c]
            loop[:, p, 0] = du[:, 0, a] * fy * fz / spacing[0]
            loop[:, p, 1] = fx * du[:, 1, b] * fz / spacing[1]
            loop[:, p, 2] = fx * fy * du[:, 2, c] / spacing[2]
        assert stencil._weight_gradients().tobytes() == loop.tobytes()


class TestScatterAdd:
    """``scatter_add`` must equal ``np.add.at`` byte for byte: it relies on
    ``np.bincount`` adding its weights in input order."""

    @staticmethod
    def spread(rng, shape):
        # signed magnitudes over 16 decades, so any reordering of a sum shows
        return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_add_at(self, columns, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        shape = (n,) if columns is None else (n, columns)
        out = self.spread(rng, shape)
        index = rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))  # repeats
        values = self.spread(rng, index.shape + shape[1:])
        expected = out.copy()
        np.add.at(expected, index, values)
        scatter_add(out, index, values)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    def test_empty_index_keeps_out(self, shape):
        out = self.spread(np.random.default_rng(1), shape)
        before = out.tobytes()
        scatter_add(out, np.zeros(0, dtype=np.int64), np.zeros((0,) + shape[1:]))
        assert out.tobytes() == before

    def test_untouched_negative_zero_becomes_positive(self):
        # the one documented difference from np.add.at: sums start from +0.0
        out = np.array([-0.0, -0.0, 2.0, -0.0])
        expected = out.copy()
        np.add.at(expected, [1, 3], [-0.0, 1.5])
        scatter_add(out, np.array([1, 3]), np.array([-0.0, 1.5]))
        assert expected.tobytes() == np.array([-0.0, -0.0, 2.0, 1.5]).tobytes()
        assert out.tobytes() == np.array([0.0, 0.0, 2.0, 1.5]).tobytes()
