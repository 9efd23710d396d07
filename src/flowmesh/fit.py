"""Direct flow-grid fitting of a template mesh to a target surface.

Each stage optimises the interior node vectors of one flow grid so that the
template, advected through the staged chain, minimises a weighted sum of
squared chamfer distance (to points sampled from the target) and mean squared
edge length.  Gradients are exact reverse-mode derivatives through the
nearest-neighbour correspondences (held fixed at their argmin), the fixed
barycentric draw, the Euler steps and the trilinear stencils; boundary nodes
are pinned to zero and are not parameters.

Stages are fitted one at a time with earlier stages frozen, each on a
template refined to its configured subdivision level; the whole problem is
solved on geometry jointly rescaled to the unit ball, and the fitted fields
are rescaled back so the emitted chain acts in the original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .deform import (
    DeformationChain,
    DeformationStage,
    GatePolicy,
    apply_chain,
    check_gate,
)
from .flow_field import (
    FlowField,
    GridGeometry,
    TrilinearStencil,
    _boundary_mask,
    sample_grid,
    stability_from_grid,
)
from .mesh import TriangleMesh, midpoint_subdivide, unique_edges
from .metrics.distances import _nn_distances, mean_squared_edge_length
from .metrics.sampling import draw_surface_samples, points_from_draw, sample_surface

MOMENTUM = 0.9


class FitDivergedError(RuntimeError):
    """Optimisation produced a non-finite loss; the trace so far is attached."""

    def __init__(self, stage_index: int, trace):
        self.stage_index = stage_index
        self.trace = list(trace)
        super().__init__(
            f"fit diverged at stage {stage_index}, iteration {len(self.trace)}"
        )


@dataclass(frozen=True)
class StageConfig:
    grid_dims: tuple[int, int, int]
    steps: int
    iterations: int
    step_size: float
    template_subdivision_level: int = 0

    def __post_init__(self):
        dims = tuple(int(n) for n in self.grid_dims)
        if len(dims) != 3 or any(n < 2 for n in dims):
            raise ValueError(f"grid_dims needs 3 entries >= 2, got {self.grid_dims}")
        object.__setattr__(self, "grid_dims", dims)
        if int(self.steps) < 1:
            raise ValueError("steps must be >= 1")
        if int(self.iterations) < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if int(self.template_subdivision_level) < 0:
            raise ValueError("template_subdivision_level must be >= 0")


@dataclass(frozen=True)
class FitConfig:
    stages: tuple[StageConfig, ...]
    chamfer_weight: float = 1.0
    edge_weight: float = 1.0
    sample_count: int = 2000
    seed: int = 0
    domain_radius: float = 1.5
    gate: GatePolicy = "strict"

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("at least one stage is required")
        object.__setattr__(self, "stages", stages)
        if not (math.isfinite(self.chamfer_weight) and self.chamfer_weight > 0):
            raise ValueError("chamfer weight must be positive and finite")
        if not (math.isfinite(self.edge_weight) and self.edge_weight >= 0):
            raise ValueError("edge weight must be non-negative and finite")
        if int(self.sample_count) < 1:
            raise ValueError("sample_count must be positive")
        if int(self.seed) < 0:
            raise ValueError("seed must be non-negative")
        if self.domain_radius < 1.0:
            raise ValueError("domain_radius must be >= 1")
        for prev, nxt in zip(stages, stages[1:]):
            if any(b < a for a, b in zip(prev.grid_dims, nxt.grid_dims)):
                raise ValueError("grid_dims must be coarse-to-fine or equal")
            if nxt.template_subdivision_level < prev.template_subdivision_level:
                raise ValueError("template_subdivision_level must not decrease")

    @classmethod
    def from_dict(cls, raw: dict) -> "FitConfig":
        try:
            stages = tuple(
                StageConfig(
                    grid_dims=tuple(s["grid_dims"]),
                    steps=s["steps"],
                    iterations=s["iterations"],
                    step_size=s["step_size"],
                    template_subdivision_level=s.get("template_subdivision_level", 0),
                )
                for s in raw["stages"]
            )
            weights = raw.get("loss_weights", {})
            return cls(
                stages=stages,
                chamfer_weight=weights.get("chamfer", 1.0),
                edge_weight=weights.get("edge", 1.0),
                sample_count=raw.get("sample_count", 2000),
                seed=raw.get("seed", 0),
                domain_radius=raw.get("domain_radius", 1.5),
                gate=raw.get("gate", "strict"),
            )
        except KeyError as exc:
            raise ValueError(f"fit config is missing field {exc.args[0]!r}") from exc

    def to_dict(self) -> dict:
        return {
            "stages": [
                {
                    "grid_dims": list(s.grid_dims),
                    "steps": s.steps,
                    "iterations": s.iterations,
                    "step_size": s.step_size,
                    "template_subdivision_level": s.template_subdivision_level,
                }
                for s in self.stages
            ],
            "loss_weights": {"chamfer": self.chamfer_weight, "edge": self.edge_weight},
            "sample_count": self.sample_count,
            "seed": self.seed,
            "domain_radius": self.domain_radius,
            "gate": self.gate,
        }


@dataclass(frozen=True)
class LossReport:
    iteration: int
    chamfer_term: float
    edge_term: float
    total: float
    grad_norm: float
    gate_margin: float


@dataclass
class StageProblem:
    """Frozen context for evaluating one stage's loss at given parameters."""

    geometry: GridGeometry
    steps: int
    start_vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    target_points: np.ndarray
    chamfer_weight: float
    edge_weight: float
    sample_count: int
    sample_seed: int
    gate: GatePolicy = "strict"


@dataclass
class LossTerms:
    chamfer_term: float
    edge_term: float
    total: float
    gate_margin: float


@dataclass
class Intermediates:
    """Everything the reverse pass needs, captured during the forward pass."""

    problem: StageProblem
    params: np.ndarray
    step_points: list[np.ndarray]  # vertex positions before each Euler step
    deformed_vertices: np.ndarray
    face_idx: np.ndarray
    bary: np.ndarray
    pred_points: np.ndarray
    idx_ab: np.ndarray
    idx_ba: np.ndarray


def forward_loss(
    params: np.ndarray, problem: StageProblem, draw=None
) -> tuple[LossTerms, Intermediates]:
    """Loss of the stage at the given flow-grid values.

    ``draw`` fixes the (face index, barycentric) surface draw; by default a
    fresh draw is taken from the deformed mesh with the problem's sample seed.
    The returned intermediates retain per-step positions and correspondences
    for :func:`backward`.
    """
    geometry = problem.geometry
    params = np.asarray(params, dtype=np.float64)
    if params.shape != geometry.dims + (3,):
        raise ValueError(f"params shape {params.shape} does not match grid")
    params = params.copy()
    params[_boundary_mask(geometry.dims)] = 0.0

    h = 1.0 / problem.steps
    margin = check_gate(h, stability_from_grid(geometry, params), problem.gate)

    x = np.array(problem.start_vertices, dtype=np.float64)
    step_points = []
    for _ in range(problem.steps):
        step_points.append(x)
        x = x + h * sample_grid(geometry, params, x)
    deformed = x

    mesh = TriangleMesh(deformed, problem.faces)
    if draw is None:
        face_idx, bary = draw_surface_samples(mesh, problem.sample_count, problem.sample_seed)
    else:
        face_idx, bary = draw
    pred = points_from_draw(deformed, problem.faces, face_idx, bary)

    d_ab, idx_ab = _nn_distances(pred, problem.target_points)
    d_ba, idx_ba = _nn_distances(problem.target_points, pred)
    chamfer_sq = 0.5 * (float(np.mean(d_ab**2)) + float(np.mean(d_ba**2)))
    edge_term = mean_squared_edge_length(deformed, problem.edges)
    total = problem.chamfer_weight * chamfer_sq + problem.edge_weight * edge_term

    terms = LossTerms(
        chamfer_term=chamfer_sq, edge_term=edge_term, total=total, gate_margin=margin
    )
    inter = Intermediates(
        problem=problem,
        params=params,
        step_points=step_points,
        deformed_vertices=deformed,
        face_idx=face_idx,
        bary=bary,
        pred_points=pred,
        idx_ab=idx_ab,
        idx_ba=idx_ba,
    )
    return terms, inter


def backward(inter: Intermediates) -> np.ndarray:
    """Gradient of the forward loss w.r.t. the flow-grid values.

    Correspondences and the surface draw are treated as fixed (envelope
    rule); boundary nodes always receive a zero gradient.
    """
    problem = inter.problem
    geometry = problem.geometry
    h = 1.0 / problem.steps
    w_c, w_e = problem.chamfer_weight, problem.edge_weight
    pred = inter.pred_points
    target = problem.target_points
    n_pred, n_tgt = len(pred), len(target)

    grad_pred = (w_c / n_pred) * (pred - target[inter.idx_ab])
    np.add.at(
        grad_pred, inter.idx_ba, (w_c / n_tgt) * (pred[inter.idx_ba] - target)
    )

    grad_v = np.zeros_like(inter.deformed_vertices)
    scatter = inter.bary[:, :, None] * grad_pred[:, None, :]
    np.add.at(grad_v, problem.faces[inter.face_idx].ravel(), scatter.reshape(-1, 3))

    if w_e != 0.0:
        e0, e1 = problem.edges[:, 0], problem.edges[:, 1]
        delta = inter.deformed_vertices[e0] - inter.deformed_vertices[e1]
        coeff = 2.0 * w_e / len(problem.edges)
        np.add.at(grad_v, e0, coeff * delta)
        np.add.at(grad_v, e1, -coeff * delta)

    grad = np.zeros_like(inter.params)
    grad_x = grad_v
    for x in reversed(inter.step_points):
        stencil = TrilinearStencil(geometry, x)
        g_in = grad_x[stencil.inside]
        stencil.scatter(grad.reshape(-1, 3), g_in, h)
        grad_x[stencil.inside] += h * stencil.jacobian_transpose(inter.params, g_in)

    grad[_boundary_mask(geometry.dims)] = 0.0
    return grad


def derive_seed(master: int, stage: int, iteration: int, role: int) -> int:
    """Stable per-(stage, iteration, role) child seed of the master seed."""
    seq = np.random.SeedSequence((int(master), int(stage), int(iteration), int(role)))
    return int(seq.generate_state(1)[0])


def stage_grid_geometry(
    template: TriangleMesh,
    target: TriangleMesh,
    grid_dims,
    domain_radius: float = 1.5,
) -> GridGeometry:
    """Cube grid centred on both meshes, padded by the domain-radius factor.

    The padding leaves the geometry strictly inside the interior cells, away
    from the pinned zero boundary shell.
    """
    pts = np.vstack([template.vertices, target.vertices])
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    extent = domain_radius * max(radius, 1e-12)
    dims = tuple(int(n) for n in grid_dims)
    origin = tuple(center[a] - extent for a in range(3))
    spacing = tuple(2.0 * extent / (dims[a] - 1) for a in range(3))
    return GridGeometry(dims, origin, spacing)


def fit_stage(
    config: FitConfig,
    stage_index: int,
    frozen: DeformationChain,
    template: TriangleMesh,
    target: TriangleMesh,
) -> tuple[DeformationStage, list[LossReport]]:
    """Optimise one stage's flow grid with earlier stages frozen.

    Heavy-ball gradient descent from zero-initialised parameters.  A proposal
    is rejected and the step size halved when it violates the strict gate or
    when its loss, evaluated on the same draw as the current iterate (the
    loss is stochastic, so the comparison must share the draw), increases.
    Returns the stage built from the best-loss iterate plus the full
    per-iteration trace.
    """
    scfg = config.stages[stage_index]
    geometry = stage_grid_geometry(
        template, target, scfg.grid_dims, config.domain_radius
    )
    if len(frozen):
        start = apply_chain(frozen, template, gate=config.gate).vertices
    else:
        start = template.vertices
    edges = unique_edges(template.faces)
    h = 1.0 / scfg.steps

    params = np.zeros(geometry.dims + (3,), dtype=np.float64)
    velocity = np.zeros_like(params)
    step_size = float(scfg.step_size)
    best_total = math.inf
    best_params = params.copy()
    trace: list[LossReport] = []

    for iteration in range(scfg.iterations):
        pred_seed = derive_seed(config.seed, stage_index, iteration, 0)
        target_seed = derive_seed(config.seed, stage_index, iteration, 1)
        target_cloud = sample_surface(target, config.sample_count, target_seed)
        problem = StageProblem(
            geometry=geometry,
            steps=scfg.steps,
            start_vertices=start,
            faces=template.faces,
            edges=edges,
            target_points=target_cloud.points,
            chamfer_weight=config.chamfer_weight,
            edge_weight=config.edge_weight,
            sample_count=config.sample_count,
            sample_seed=pred_seed,
            gate=config.gate,
        )
        terms, inter = forward_loss(params, problem)
        if not math.isfinite(terms.total):
            raise FitDivergedError(stage_index, trace)
        grad = backward(inter)
        grad_norm = float(np.sqrt((grad * grad).sum()))
        trace.append(LossReport(iteration=iteration, grad_norm=grad_norm, **asdict(terms)))
        if terms.total < best_total:
            best_total = terms.total
            best_params = params.copy()

        velocity = MOMENTUM * velocity - step_size * grad
        candidate = params + velocity
        candidate[_boundary_mask(geometry.dims)] = 0.0
        # under the strict gate an ungated candidate is rejected unevaluated
        accepted = config.gate != "strict" or check_gate(
            h, stability_from_grid(geometry, candidate), "off"
        ) > 0.0
        if accepted:
            cand_terms, _ = forward_loss(
                candidate, problem, draw=(inter.face_idx, inter.bary)
            )
            accepted = cand_terms.total <= terms.total  # rejects NaN as well
        if accepted:
            params = candidate
        else:
            step_size *= 0.5
            velocity[:] = 0.0

    field = FlowField(geometry, best_params.astype(np.float32))
    stage = DeformationStage(field, scfg.steps)
    check_gate(stage.h, stage.stability, config.gate, stage_index=stage_index)
    return stage, trace


@dataclass(frozen=True)
class FitResult:
    chain: DeformationChain
    traces: tuple[tuple[LossReport, ...], ...]
    final_mesh: TriangleMesh
    normalization_center: tuple[float, float, float]
    normalization_scale: float
    template_levels: tuple[int, ...] = dataclass_field(default=())


def unit_ball_transform(*vertex_arrays) -> tuple[np.ndarray, float]:
    """Center and scale mapping all given vertices into the unit ball."""
    pts = np.vstack(vertex_arrays)
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    scale = float(np.linalg.norm(pts - center, axis=1).max())
    return center, max(scale, 1e-12)


def _rescale_stage(stage: DeformationStage, center: np.ndarray, scale: float) -> DeformationStage:
    """Conjugate a stage fitted in normalised space back to original space.

    Scaling positions by s and node vectors by s commutes exactly with Euler
    stepping, so the rescaled stage realises the same deformation.
    """
    geom = stage.field.geometry
    origin = tuple(center[a] + scale * geom.origin[a] for a in range(3))
    spacing = tuple(scale * geom.spacing[a] for a in range(3))
    data = (scale * stage.field.data64).astype(np.float32)
    return DeformationStage(FlowField(GridGeometry(geom.dims, origin, spacing), data), stage.steps)


def fit_pipeline(
    config: FitConfig, template: TriangleMesh, target: TriangleMesh
) -> FitResult:
    """Fit all configured stages in sequence (earlier stages frozen).

    The emitted chain acts in the original coordinates; the final mesh is the
    last stage's template (subdivided as configured) pushed through that
    chain.
    """
    center, scale = unit_ball_transform(template.vertices, target.vertices)
    template_norm = template.with_vertices((template.vertices - center) / scale)
    target_norm = target.with_vertices((target.vertices - center) / scale)

    stages_norm: list[DeformationStage] = []
    traces: list[tuple[LossReport, ...]] = []
    current = template_norm
    level = 0
    levels: list[int] = []
    for index, scfg in enumerate(config.stages):
        while level < scfg.template_subdivision_level:
            current = midpoint_subdivide(current)
            level += 1
        levels.append(level)
        stage, trace = fit_stage(
            config, index, DeformationChain(tuple(stages_norm)), current, target_norm
        )
        stages_norm.append(stage)
        traces.append(tuple(trace))

    chain = DeformationChain(
        tuple(_rescale_stage(s, center, scale) for s in stages_norm)
    )
    final_template = template
    for _ in range(levels[-1]):
        final_template = midpoint_subdivide(final_template)
    final_mesh = apply_chain(chain, final_template, gate=config.gate)
    return FitResult(
        chain=chain,
        traces=tuple(traces),
        final_mesh=final_mesh,
        normalization_center=(float(center[0]), float(center[1]), float(center[2])),
        normalization_scale=scale,
        template_levels=tuple(levels),
    )
