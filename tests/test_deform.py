import numpy as np
import pytest

from flowmesh import deform
from flowmesh import (
    DeformationChain,
    DeformationStage,
    FlowField,
    GateViolationError,
    GateWarning,
    GridGeometry,
    InversionError,
    apply_chain,
    icosphere,
    integrate,
    integrate_inverse,
    invert_step,
    suggested_steps,
    topology_report,
)
from flowmesh.flow_field import sample_grid, stability_estimate

from conftest import expm_oracle, linear_field, make_gated_field, scaled_icosphere


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
    """The explicit step x + h * v(x) that integrate() repeats."""

    def test_zero_field_identity(self):
        field = zero_field()
        x = np.array([[1.2, 2.1, 0.7]])
        assert np.array_equal(x + 0.25 * sample_grid(field.geometry, field.data64, x), x)

    def test_constant_block(self):
        c = np.array([0.3, -0.2, 0.1])
        field = constant_block_field(c)
        x = np.array([[4.0, 4.2, 3.9]])  # stencil entirely inside the block
        step = x + 0.1 * sample_grid(field.geometry, field.data64, x)
        assert np.allclose(step, x + 0.1 * c, rtol=1e-15)

    def test_injectivity_margin(self):
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=1, steps=4)
        stage = DeformationStage(field, 4)
        h = stage.h
        bound = 1.0 - h * stage.stability.lipschitz_safe
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.2, 1.2, size=(2000, 3))
        y = rng.uniform(-0.2, 1.2, size=(2000, 3))
        fx = x + h * sample_grid(field.geometry, field.data64, x)
        fy = y + h * sample_grid(field.geometry, field.data64, y)
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
    def test_zero_field_one_iteration(self, monkeypatch):
        monkeypatch.setattr(deform, "_MAX_ITER", 1)
        y = np.array([[0.4, 0.6, 0.8]])
        field = zero_field()
        x = invert_step(field, y, 0.25, stability_estimate(field))
        assert np.array_equal(x, y)

    def test_constant_block_two_iterations(self, monkeypatch):
        monkeypatch.setattr(deform, "_MAX_ITER", 2)
        c = np.array([0.2, -0.1, 0.05])
        field = constant_block_field(c)
        y = np.array([[4.0, 4.0, 4.0]])
        x = invert_step(field, y, 0.5, stability_estimate(field))
        assert np.allclose(x, y - 0.5 * c, rtol=1e-15)

    def test_inverts_euler_step(self, monkeypatch):
        tol = 1e-12
        monkeypatch.setattr(deform, "_TOL", tol)
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=7, steps=4)
        stage = DeformationStage(field, 4)
        rng = np.random.default_rng(8)
        x = rng.uniform(0.2, 0.8, size=(200, 3))
        y = x + stage.h * sample_grid(field.geometry, field.data64, x)
        back = invert_step(field, y, stage.h, stage.stability)
        bound = tol / (1.0 - stage.h * stage.stability.lipschitz_safe)
        assert np.linalg.norm(back - x, axis=1).max() <= bound

    def test_precondition_violation(self):
        field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=9, steps=4)
        with pytest.raises(GateViolationError):
            invert_step(field, np.zeros((1, 3)), 1.0, stability_estimate(field))

    def test_max_iter_exceeded_reports_residual(self, monkeypatch):
        monkeypatch.setattr(deform, "_TOL", 1e-30)
        monkeypatch.setattr(deform, "_MAX_ITER", 2)
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=10, steps=4)
        with pytest.raises(InversionError) as err:
            invert_step(field, np.array([[0.5, 0.5, 0.5]]), 0.25, stability_estimate(field))
        assert err.value.residual > 0
        assert err.value.max_iter == 2

    def test_point_converging_on_the_last_evaluation_is_returned(self, monkeypatch):
        # this point meets the 1e-12 tolerance on its 9th evaluation, after 8 updates
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=10, steps=4)
        y, stability = np.array([[0.5, 0.5, 0.5]]), stability_estimate(field)
        expected = invert_step(field, y, 0.25, stability)
        monkeypatch.setattr(deform, "_MAX_ITER", 8)
        assert invert_step(field, y, 0.25, stability).tobytes() == expected.tobytes()
        monkeypatch.setattr(deform, "_MAX_ITER", 7)
        with pytest.raises(InversionError) as err:
            invert_step(field, y, 0.25, stability)
        assert err.value.residual > 1e-12
        assert err.value.max_iter == 7

    def test_empty_batch_returns_at_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(deform, "sample_grid", lambda *args: calls.append(1))
        field = make_gated_field((6, 6, 6), (0, 0, 0), (1, 1, 1), seed=10, steps=4)
        x = invert_step(field, np.zeros((0, 3)), 0.25, stability_estimate(field))
        assert x.shape == (0, 3) and x.dtype == np.float64
        assert calls == []


def reference_invert_step(field, y, h, tol=1e-12, max_iter=100):
    """The inverse step with an absolute stopping rule, residual <= tol."""
    ys = np.asarray(y, dtype=np.float64)
    x, result, active = ys.copy(), np.empty_like(ys), np.arange(len(ys))
    for _ in range(max_iter):
        v = sample_grid(field.geometry, field.data64, x)
        done = np.linalg.norm(ys[active] - x - h * v, axis=1) <= tol
        result[active[done]] = x[done]
        active, x, v = active[~done], x[~done], v[~done]
        if len(active) == 0:
            return result
        x = ys[active] - h * v
    raise InversionError(float("nan"), max_iter)


class TestInverseFarFromOrigin:
    """A gated field shifted away from the origin, where an absolute 1e-12 is
    below the float64 spacing of the coordinates."""

    def shifted(self, offset):
        field = make_gated_field((16,) * 3, (offset - 1,) * 3, (offset + 1,) * 3, seed=3, steps=8)
        x = offset + np.random.default_rng(4).uniform(-1, 1, size=(500, 3))
        return DeformationStage(field, 8), x

    @pytest.mark.parametrize("offset", [1e4, 1e5, 1e6])
    def test_round_trip(self, offset):
        stage, x = self.shifted(offset)
        back = integrate_inverse(stage, integrate(stage, x))
        # criterion 3's 1e-9, scaled by the size of the coordinates
        assert np.abs(back - x).max() <= 1e-9 * offset

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e3])
    def test_absolute_rule_unchanged_near_origin(self, offset):
        # max(tol, 4 eps |y|) is tol while |y| <= tol / (4 eps), about 1126
        stage, x = self.shifted(offset)
        y = integrate(stage, x)
        for _ in range(stage.steps):
            expected = reference_invert_step(stage.field, y, stage.h)
            y = invert_step(stage.field, y, stage.h, stage.stability)
            assert y.tobytes() == expected.tobytes()


class TestIntegrateInverse:
    def test_zero_field_identity(self):
        stage = DeformationStage(zero_field(), 4)
        pts = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(integrate_inverse(stage, pts), pts)

    def test_empty_batch(self):
        field = make_gated_field((8, 8, 8), (0, 0, 0), (1, 1, 1), seed=11, steps=8)
        out = integrate_inverse(DeformationStage(field, 8), np.zeros((0, 3)))
        assert out.shape == (0, 3)

    def test_round_trip_both_directions(self):
        field = make_gated_field((8, 8, 8), (0, 0, 0), (1, 1, 1), seed=11, steps=8)
        stage = DeformationStage(field, 8)
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.1, 0.9, size=(1000, 3))
        fwd_back = integrate_inverse(stage, integrate(stage, pts))
        assert np.linalg.norm(fwd_back - pts, axis=1).max() < 1e-9
        back_fwd = integrate(stage, integrate_inverse(stage, pts))
        assert np.linalg.norm(back_fwd - pts, axis=1).max() < 1e-9


class TestBatching:
    """Each row is computed on its own, so feeding the rows in chunks of any
    size gives the one-batch output bit for bit."""

    N = 150

    @pytest.fixture(scope="class")
    def case(self):
        field = make_gated_field((9, 9, 9), (0, 0, 0), (1, 1, 1), seed=21, steps=4)
        rng = np.random.default_rng(22)
        pts = rng.uniform(-0.1, 1.1, size=(self.N, 3))  # some outside the grid
        pts[:30] = rng.integers(0, 9, size=(30, 3)) / 8.0  # on nodes and cell faces
        return DeformationStage(field, 4), pts

    @pytest.mark.parametrize("name", ["sample_grid", "integrate", "integrate_inverse"])
    @pytest.mark.parametrize("chunk", [1, 7, N])
    def test_chunks_give_the_same_bits(self, case, name, chunk):
        stage, pts = case
        geometry, data64 = stage.field.geometry, stage.field.data64
        run = {
            "sample_grid": lambda p: sample_grid(geometry, data64, p),
            "integrate": lambda p: integrate(stage, p),
            "integrate_inverse": lambda p: integrate_inverse(stage, p),
        }[name]
        whole = run(pts)
        chunks = [run(pts[i:i + chunk]) for i in range(0, self.N, chunk)]
        assert [len(c) for c in chunks] == [len(pts[i:i + chunk]) for i in range(0, self.N, chunk)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert whole.shape[0] == self.N and np.isfinite(whole).all()


class TestApplyChain:
    def test_empty_chain_unchanged(self):
        mesh = icosphere(2)
        out = apply_chain(DeformationChain(), mesh)
        assert np.array_equal(out.vertices, mesh.vertices)
        assert np.array_equal(out.faces, mesh.faces)

    def test_zero_stage_unchanged(self):
        mesh = scaled_icosphere(2, radius=0.4, center=(2, 2, 2))
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
        mesh = scaled_icosphere(2, radius=0.8)
        chained = apply_chain(DeformationChain((a, b)), mesh).vertices
        manual = integrate(b, integrate(a, mesh.vertices))
        assert np.array_equal(chained, manual)
        swapped = apply_chain(DeformationChain((b, a)), mesh).vertices
        assert not np.allclose(chained, swapped)

    def test_inverse_gate_error_reports_stage_index(self):
        ok = DeformationStage(zero_field(), 2)
        bad_field = make_gated_field((5, 5, 5), (0, 0, 0), (1, 1, 1), seed=23, steps=4)
        bad = DeformationStage(bad_field, 1)
        chain = DeformationChain((bad, ok))
        apply_chain(chain, icosphere(1), gate="off")  # the forward pass obeys the policy
        with pytest.raises(GateViolationError) as err:
            apply_chain(chain, icosphere(1), gate="off", inverse=True)
        assert err.value.stage_index == 0

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

    @pytest.mark.parametrize("lipschitz", [np.inf, np.nan])
    def test_non_finite_lipschitz_has_no_step_count(self, lipschitz):
        from flowmesh import StabilityEstimate
        from flowmesh.deform import check_gate

        assert suggested_steps(lipschitz) is None
        stability = StabilityEstimate((lipschitz,) * 3, lipschitz, 1.0, lipschitz_safe=lipschitz)
        with pytest.raises(GateViolationError, match="no step count satisfies the gate") as err:
            check_gate(0.25, stability, stage_index=1)
        assert err.value.suggested_steps is None
        assert err.value.stage_index == 1
        assert suggested_steps(1e300) == int(1e300) + 1  # finite, however large


class TestStageSteps:
    def test_integral_number_is_stored_as_int(self):
        for steps in (2.0, np.int64(2), np.float64(2.0)):
            stage = DeformationStage(zero_field(), steps)
            assert stage.steps == 2 and type(stage.steps) is int
            assert stage.h == 0.5

    @pytest.mark.parametrize("steps", [2.7, "3", True, 0, -1.0, np.nan, np.inf])
    def test_refuses_values_that_are_not_step_counts(self, steps):
        with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
            DeformationStage(zero_field(), steps)


@pytest.mark.parametrize("name", ["contains", "sample_grid", "integrate", "invert_step",
                                  "integrate_inverse"])
def test_lone_point_is_refused(name):
    """Points are (N, 3) batches: a (3,) point is refused, not read as one row."""
    stage = DeformationStage(zero_field(), 4)
    field = stage.field
    run = {
        "contains": lambda p: field.geometry.contains(p),
        "sample_grid": lambda p: sample_grid(field.geometry, field.data64, p),
        "integrate": lambda p: integrate(stage, p),
        "invert_step": lambda p: invert_step(field, p, stage.h, stage.stability),
        "integrate_inverse": lambda p: integrate_inverse(stage, p),
    }[name]
    with pytest.raises(ValueError, match=r"^points must have shape \(N, 3\), got \(3,\)$"):
        run(np.array([0.5, 0.5, 0.5]))


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
            invert_step(field, np.array([[0.5, np.nan, 0.5]]), 0.25, stability_estimate(field))

    def test_apply_chain_refuses_nan_vertices(self):
        mesh = scaled_icosphere(1, radius=0.3, center=(0.5, 0.5, 0.5))
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
