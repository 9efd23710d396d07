import numpy as np
import pytest

from flowmesh import (
    DeformationChain,
    DeformationStage,
    FlowField,
    GateViolationError,
    GateWarning,
    GridGeometry,
    InversionError,
    apply_chain,
    euler_step,
    icosphere,
    integrate,
    integrate_inverse,
    invert_step,
    suggested_steps,
    topology_report,
)

from conftest import expm_oracle, linear_field, make_gated_field


def zero_field(dims=(4, 4, 4), lower=(0, 0, 0), spacing=(1, 1, 1)):
    geometry = GridGeometry(dims, lower, spacing)
    return FlowField(geometry, np.zeros(dims + (3,), dtype=np.float32))


def constant_block_field(c=(0.3, -0.2, 0.1), dims=(9, 9, 9)):
    """Field equal to c on a deep interior block; zero near the boundary."""
    geometry = GridGeometry(dims, (0, 0, 0), (1, 1, 1))
    data = np.zeros(dims + (3,), dtype=np.float32)
    data[2:-2, 2:-2, 2:-2] = np.asarray(c, dtype=np.float32)
    return FlowField(geometry, data)


class TestEulerStep:
    def test_zero_field_identity(self):
        x = np.array([1.2, 2.1, 0.7])
        assert np.array_equal(euler_step(zero_field(), x, 0.25), x)

    def test_constant_block(self):
        c = np.array([0.3, -0.2, 0.1])
        field = constant_block_field(c)
        x = np.array([4.0, 4.2, 3.9])  # stencil entirely inside the block
        assert np.allclose(euler_step(field, x, 0.1), x + 0.1 * c, rtol=1e-15)

    def test_injectivity_margin(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=1, steps=4)
        stage = DeformationStage(field, 4)
        h = stage.h
        bound = 1.0 - h * stage.stability.lipschitz_safe
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.2, 1.2, size=(2000, 3))
        y = rng.uniform(-0.2, 1.2, size=(2000, 3))
        fx = euler_step(field, x, h)
        fy = euler_step(field, y, h)
        lhs = np.linalg.norm(fx - fy, axis=1)
        rhs = bound * np.linalg.norm(x - y, axis=1)
        assert np.all(lhs >= rhs - 1e-12)
        # forward Lipschitz bound
        ub = (1.0 + h * stage.stability.lipschitz_safe) * np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= ub + 1e-12)


class TestIntegrate:
    def test_zero_field_identity(self):
        stage = DeformationStage(zero_field(), 7)
        pts = np.array([[0.5, 0.5, 0.5], [2.0, 1.0, 0.25]])
        assert np.array_equal(integrate(stage, pts), pts)

    def test_constant_block_translates(self):
        c = np.array([0.25, -0.15, 0.1])
        field = constant_block_field(c)
        stage = DeformationStage(field, 5)
        x = np.array([[4.0, 4.0, 4.0]])
        out = integrate(stage, x)
        assert np.allclose(out, x + c, rtol=1e-13)

    def test_linear_field_first_order_convergence(self):
        matrix = np.diag([0.5, -0.3, 0.2])
        center = np.zeros(3)
        field = linear_field(matrix, center, (33, 33, 33), (-2, -2, -2), (2, 2, 2))
        rng = np.random.default_rng(3)
        starts = rng.uniform(-0.3, 0.3, size=(40, 3))
        exact = starts @ expm_oracle(matrix).T
        errors = {}
        for n in (64, 128):
            approx = integrate(DeformationStage(field, n), starts)
            errors[n] = np.linalg.norm(approx - exact, axis=1).max()
        ratio = errors[64] / errors[128]
        assert 1.7 <= ratio <= 2.3

    def test_gate_strict_raises_with_suggestion(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=4, steps=4)
        est_steps = DeformationStage(field, 1)  # h = 1 violates h*L_safe < 1
        assert not est_steps.gate_ok
        with pytest.raises(GateViolationError) as err:
            integrate(est_steps, np.zeros((1, 3)))
        exc = err.value
        assert exc.suggested_steps == suggested_steps(exc.lipschitz_safe)
        assert exc.suggested_steps == int(np.ceil(exc.lipschitz_safe)) + 1
        assert str(exc.suggested_steps) in str(exc)

    def test_gate_warn_proceeds(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=4, steps=4)
        stage = DeformationStage(field, 1)
        with pytest.warns(GateWarning):
            out = integrate(stage, np.array([[0.5, 0.5, 0.5]]), gate="warn")
        assert out.shape == (1, 3)

    def test_gate_off_silent(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=4, steps=4)
        stage = DeformationStage(field, 1)
        integrate(stage, np.array([[0.5, 0.5, 0.5]]), gate="off")

    def test_deterministic(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=5, steps=8)
        stage = DeformationStage(field, 8)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, size=(500, 3))
        a = integrate(stage, pts)
        b = integrate(stage, pts)
        assert np.array_equal(a, b)

    def test_points_stay_in_domain(self):
        # 200 random gated fields x 50 interior starts: no trajectory exits
        for seed in range(200):
            field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=seed, steps=8)
            stage = DeformationStage(field, 8)
            rng = np.random.default_rng(100 + seed)
            pts = rng.uniform(0.0, 1.0, size=(50, 3))
            out = integrate(stage, pts)
            assert field.geometry.contains(out).all()


class TestInvertStep:
    def test_zero_field_one_iteration(self):
        y = np.array([0.4, 0.6, 0.8])
        x = invert_step(zero_field(), y, 0.25, max_iter=1)
        assert np.array_equal(x, y)

    def test_constant_block_two_iterations(self):
        c = np.array([0.2, -0.1, 0.05])
        field = constant_block_field(c)
        y = np.array([4.0, 4.0, 4.0])
        x = invert_step(field, y, 0.5, max_iter=2)
        assert np.allclose(x, y - 0.5 * c, rtol=1e-15)

    def test_inverts_euler_step(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=7, steps=4)
        stage = DeformationStage(field, 4)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.2, 0.8, size=(200, 3))
        y = euler_step(field, x, stage.h)
        tol = 1e-12
        back = invert_step(field, y, stage.h, tol=tol)
        bound = tol / (1.0 - stage.h * stage.stability.lipschitz_safe)
        assert np.linalg.norm(back - x, axis=1).max() <= bound

    def test_precondition_violation(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=9, steps=4)
        with pytest.raises(GateViolationError):
            invert_step(field, np.zeros(3), h=1.0)

    def test_max_iter_exceeded_reports_residual(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=10, steps=4)
        with pytest.raises(InversionError) as err:
            invert_step(field, np.array([0.5, 0.5, 0.5]), 0.25, tol=1e-30, max_iter=2)
        assert err.value.residual > 0


class TestIntegrateInverse:
    def test_zero_field_identity(self):
        stage = DeformationStage(zero_field(), 4)
        pts = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(integrate_inverse(stage, pts), pts)

    def test_round_trip_both_directions(self):
        field = make_gated_field((8, 8, 8), (0, 0, 0), (1, 1, 1), seed=11, steps=8)
        stage = DeformationStage(field, 8)
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.1, 0.9, size=(1000, 3))
        fwd_back = integrate_inverse(stage, integrate(stage, pts), tol=1e-12)
        assert np.linalg.norm(fwd_back - pts, axis=1).max() < 1e-9
        back_fwd = integrate(stage, integrate_inverse(stage, pts, tol=1e-12))
        assert np.linalg.norm(back_fwd - pts, axis=1).max() < 1e-9


class TestApplyChain:
    def test_empty_chain_unchanged(self):
        mesh = icosphere(2)
        out = apply_chain(DeformationChain(), mesh)
        assert np.array_equal(out.vertices, mesh.vertices)
        assert np.array_equal(out.faces, mesh.faces)

    def test_zero_stage_unchanged(self):
        mesh = icosphere(2, radius=0.4, center=(2, 2, 2))
        chain = DeformationChain((DeformationStage(zero_field(), 3),))
        out = apply_chain(chain, mesh)
        assert np.array_equal(out.vertices, mesh.vertices)

    def test_forward_inverse_round_trip(self):
        mesh = icosphere(3)
        stages = tuple(
            DeformationStage(
                make_gated_field((8, 8, 8), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), seed=s, steps=8),
                8,
            )
            for s in (20, 21)
        )
        chain = DeformationChain(stages)
        fwd = apply_chain(chain, mesh)
        back = apply_chain(chain, fwd, inverse=True)
        assert np.linalg.norm(back.vertices - mesh.vertices, axis=1).max() < 1e-9
        assert np.array_equal(fwd.faces, mesh.faces)

    def test_topology_preserved(self):
        mesh = icosphere(2)
        field = make_gated_field((6, 6, 6), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), seed=22, steps=8)
        out = apply_chain(DeformationChain((DeformationStage(field, 8),)), mesh)
        before, after = topology_report(mesh), topology_report(out)
        assert after == before

    def test_stages_compose_in_order(self):
        fields = [
            make_gated_field((7, 7, 7), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5), seed=s, steps=6)
            for s in (30, 31)
        ]
        a = DeformationStage(fields[0], 6)
        b = DeformationStage(fields[1], 6)
        mesh = icosphere(2, radius=0.8)
        chained = apply_chain(DeformationChain((a, b)), mesh).vertices
        manual = integrate(b, integrate(a, mesh.vertices))
        assert np.array_equal(chained, manual)
        swapped = apply_chain(DeformationChain((b, a)), mesh).vertices
        assert not np.allclose(chained, swapped)

    def test_gate_error_reports_stage_index(self):
        ok = DeformationStage(zero_field(), 2)
        bad_field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=23, steps=4)
        bad = DeformationStage(bad_field, 1)
        with pytest.raises(GateViolationError) as err:
            apply_chain(DeformationChain((ok, bad)), icosphere(1))
        assert err.value.stage_index == 1


class TestCheckGate:
    def test_returns_margin_and_applies_policy(self):
        from flowmesh.deform import check_gate

        stability = DeformationStage(zero_field(), 1).stability
        assert check_gate(0.25, stability) == 1.0
        stage = DeformationStage(
            make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=41, steps=4, margin=2.0),
            4,
        )
        margin = 1.0 - stage.h * stage.stability.lipschitz_safe
        assert stage.gate_margin == margin < 0.0
        assert check_gate(stage.h, stage.stability, "off") == margin
        with pytest.warns(GateWarning):
            assert check_gate(stage.h, stage.stability, "warn") == margin
        with pytest.raises(GateViolationError) as err:
            check_gate(stage.h, stage.stability, "strict", stage_index=3)
        assert err.value.stage_index == 3
        with pytest.raises(ValueError, match="gate must be one of"):
            check_gate(stage.h, stage.stability, "loose")

    def test_margin_zero_is_rejected(self):
        from flowmesh import StabilityEstimate
        from flowmesh.deform import check_gate

        stability = StabilityEstimate((0.5, 0.5, 0.5), 0.5, 1.0, lipschitz_safe=2.0)
        assert check_gate(0.5, stability, "off") == 0.0
        with pytest.raises(GateViolationError):
            check_gate(0.5, stability)
        assert check_gate(np.nextafter(0.5, 0.0), stability) > 0.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_integrate_refuses(self, bad):
        stage = DeformationStage(
            make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=42, steps=4), 4
        )
        pts = np.full((3, 3), 0.5)
        pts[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            integrate(stage, pts)
        with pytest.raises(ValueError, match="finite"):
            integrate_inverse(stage, pts)

    def test_invert_step_refuses_before_iterating(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=43, steps=4)
        with pytest.raises(ValueError, match="finite"):
            invert_step(field, np.array([0.5, np.nan, 0.5]), 0.25)

    def test_apply_chain_refuses_nan_vertices(self):
        mesh = icosphere(1, radius=0.3, center=(0.5, 0.5, 0.5))
        vertices = mesh.vertices.copy()
        vertices[0, 0] = np.nan
        stage = DeformationStage(
            make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=44, steps=4), 4
        )
        for inverse in (False, True):
            with pytest.raises(ValueError, match="finite"):
                apply_chain(
                    DeformationChain((stage,)), mesh.with_vertices(vertices), inverse=inverse
                )
