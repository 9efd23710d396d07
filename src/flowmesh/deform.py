"""Vertex advection through stationary flow fields.

One deformation stage advances every point by n explicit Euler steps of size
h = 1/n (total integration time 1).  The step x -> x + h*v(x) is injective
whenever h * lipschitz_safe < 1, which also makes x -> y - h*v(x) a
contraction, so each step has an exact inverse reachable by fixed-point
iteration; a chain composes stages in order and can be applied forward or,
with every step inverted, backward.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Literal

import numpy as np

from .flow_field import (
    FlowField,
    StabilityEstimate,
    _as_point_array,
    sample_grid,
    stability_estimate,
)
from .mesh import TriangleMesh

GatePolicy = Literal["strict", "warn", "off"]

_GATE_POLICIES = ("strict", "warn", "off")
_TOL = 1e-12  # invert_step's residual tolerance while ||y||_inf <= _TOL / (4 eps), ~1,126
_MAX_ITER = 100  # invert_step's iteration budget per call


class GateViolationError(RuntimeError):
    """The step-size gate h * lipschitz_safe < 1 is not satisfied."""

    def __init__(self, h, lipschitz, lipschitz_safe, stage_index=None):
        self.h = h
        self.lipschitz = lipschitz
        self.lipschitz_safe = lipschitz_safe
        self.suggested_steps = suggested_steps(lipschitz_safe)
        self.stage_index = stage_index
        where = "" if stage_index is None else f" at stage {stage_index}"
        super().__init__(
            f"step-size gate violated{where}: h={h:.6g}, L={lipschitz:.6g}, "
            f"L_safe={lipschitz_safe:.6g}, h*L_safe={h * lipschitz_safe:.6g} >= 1; "
            + (f"use steps >= {self.suggested_steps}" if self.suggested_steps
               else "no step count satisfies the gate")
        )


class GateWarning(UserWarning):
    """Emitted instead of failing when the gate policy is 'warn'."""


class InversionError(RuntimeError):
    """Fixed-point inversion did not reach the tolerance within max_iter."""

    def __init__(self, residual, max_iter):
        self.residual = residual
        self.max_iter = max_iter
        super().__init__(
            f"inverse step did not converge within {max_iter} iterations "
            f"(worst residual {residual:.3e})"
        )


def suggested_steps(lipschitz_safe: float) -> int | None:
    """Smallest advertised step count satisfying the gate: ceil(L_safe) + 1, or
    None when L_safe is infinite or NaN and no step count satisfies it."""
    return int(math.ceil(lipschitz_safe)) + 1 if math.isfinite(lipschitz_safe) else None


def _whole(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integral number >= ``minimum``, else a
    ValueError naming ``name`` (so 2.0 is 2, and "2" and 2.5 are refused)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value, low: float, above: bool = False) -> float:
    """``value`` as a float if it is a finite real number >= ``low`` (> ``low``
    when ``above``), else a ValueError naming ``name`` (so True and NaN are refused)."""
    # compare Python numbers: float32 <= float_info.max casts the max to inf, with a warning
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            low < value if above else low <= value) or not value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number {'>' if above else '>='} {low}, "
                         f"got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DeformationStage:
    """A flow field with its step count; stability constants are cached."""

    field: FlowField
    steps: int
    stability: StabilityEstimate = dataclass_field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "steps", _whole("steps", self.steps, 1))
        if self.stability is None:
            object.__setattr__(self, "stability", stability_estimate(self.field))

    @property
    def h(self) -> float:
        return 1.0 / self.steps

    @property
    def gate_margin(self) -> float:
        """1 - h * lipschitz_safe; positive iff the strict gate holds."""
        return check_gate(self.h, self.stability, "off")

    @property
    def gate_ok(self) -> bool:
        return self.gate_margin > 0.0


@dataclass(frozen=True)
class DeformationChain:
    """Ordered stages; stage i+1 acts on the output of stage i."""

    stages: tuple[DeformationStage, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)


def check_gate(
    h: float,
    stability: StabilityEstimate,
    gate: GatePolicy = "strict",
    stage_index=None,
) -> float:
    """The step-size gate: returns the margin 1 - h * lipschitz_safe.

    Steps of size h are injective when the margin is positive.  When it is
    not, 'strict' raises GateViolationError (naming ``stage_index`` if
    given), 'warn' emits a GateWarning and 'off' lets it pass.
    """
    if gate not in _GATE_POLICIES:
        raise ValueError(f"gate must be one of {_GATE_POLICIES}, got {gate!r}")
    margin = 1.0 - h * stability.lipschitz_safe
    if margin > 0.0 or gate == "off":
        return margin
    if gate == "strict":
        raise GateViolationError(
            h, stability.lipschitz, stability.lipschitz_safe, stage_index=stage_index
        )
    warnings.warn(
        f"gate violated (h*L_safe={h * stability.lipschitz_safe:.6g} "
        f">= 1); integrating anyway under 'warn' policy",
        GateWarning,
        stacklevel=3,
    )
    return margin


def _finite_point_array(points) -> np.ndarray:
    pts = _as_point_array(points)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def integrate(stage: DeformationStage, points, gate: GatePolicy = "strict") -> np.ndarray:
    """Advance each point of a finite (N, 3) batch independently by n Euler steps of size 1/n."""
    check_gate(stage.h, stage.stability, gate)
    x = _finite_point_array(points)
    geometry, data64 = stage.field.geometry, stage.field.data64
    for _ in range(stage.steps):
        x = x + stage.h * sample_grid(geometry, data64, x)
    return x


def invert_step(
    field: FlowField, y, h: float, stability: StabilityEstimate | None = None
) -> np.ndarray:
    """Solve y = x + h*v(x) by the contraction x <- y - h*v(x), started at y.

    Requires h * lipschitz_safe < 1 and a finite (N, 3) batch.  Each point
    iterates until its residual ||y - x - h*v(x)|| is within
    max(_TOL, 4 eps ||y||_inf) and is then frozen, so results do not depend on
    how points are batched; after _MAX_ITER iterations InversionError is raised.
    """
    if stability is None:
        stability = stability_estimate(field)
    check_gate(h, stability)
    ys = _finite_point_array(y)
    x = ys.copy()
    result = np.empty_like(ys)
    active = np.arange(len(ys))
    stop = np.maximum(_TOL, 4 * np.finfo(np.float64).eps * np.abs(ys).max(axis=1))
    geometry, data64 = field.geometry, field.data64
    for _ in range(_MAX_ITER):
        v = sample_grid(geometry, data64, x)
        residual = np.linalg.norm(ys[active] - x - h * v, axis=1)
        done = residual <= stop[active]
        if done.any():
            result[active[done]] = x[done]
            keep = ~done
            active = active[keep]
            x = x[keep]
            v = v[keep]
            if len(active) == 0:
                break
        x = ys[active] - h * v
    else:
        v = sample_grid(geometry, data64, x)
        residual = np.linalg.norm(ys[active] - x - h * v, axis=1)
        raise InversionError(float(residual.max()), _MAX_ITER)
    return result


def integrate_inverse(stage: DeformationStage, points) -> np.ndarray:
    """Undo integrate() by inverting its n steps (strictly gated) in reverse."""
    x = _as_point_array(points)
    for _ in range(stage.steps):
        x = invert_step(stage.field, x, stage.h, stability=stage.stability)
    return x


def apply_chain(
    chain: DeformationChain,
    mesh: TriangleMesh,
    gate: GatePolicy = "strict",
    inverse: bool = False,
) -> TriangleMesh:
    """Transform mesh vertices by every stage in order; connectivity is reused.

    With ``inverse`` the stages are applied reversed and each one inverted,
    mapping points back through the chain; inversion needs the strict gate,
    so ``gate`` governs forward application only.  Gate failures carry the
    index of the offending stage.
    """
    vertices = mesh.vertices
    stages = list(chain.stages)
    if inverse:
        stages = stages[::-1]
        gate = "strict"
    for position, stage in enumerate(stages):
        index = len(stages) - 1 - position if inverse else position
        check_gate(stage.h, stage.stability, gate, stage_index=index)
        if inverse:
            vertices = integrate_inverse(stage, vertices)
        else:
            vertices = integrate(stage, vertices, gate="off")
    return mesh.with_vertices(vertices)
