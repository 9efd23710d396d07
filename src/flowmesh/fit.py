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
    _GATE_POLICIES,
    DeformationChain,
    DeformationStage,
    GatePolicy,
    GateViolationError,
    _real,
    _whole,
    apply_chain,
    check_gate,
)
from .flow_field import (
    FlowField,
    GridGeometry,
    StabilityEstimate,
    TrilinearStencil,
    _boundary_mask,
    sample_grid,  # unused here; perfbench/spans.py wraps it and sample_surface
    scatter_add,
    stability_from_grid,
)
from .mesh import TriangleMesh, midpoint_subdivide, unique_edges
from .metrics.distances import CloudMatch, PointTree, match_clouds, mean_squared_edge_length
from .metrics.sampling import _draw_from_areas, draw_surface_samples, points_from_draw
from .metrics.sampling import sample_surface, triangle_areas

MOMENTUM = 0.9

# Relative rounding allowance of a candidate's frozen-correspondence bound: its
# squared distances and their sums are within a few dozen eps of the real values.
_CERTIFY_SLACK = 1e-12


class FitDivergedError(RuntimeError):
    """Optimisation produced a non-finite loss; the trace so far is attached."""

    def __init__(self, stage_index: int, trace):
        self.stage_index = stage_index
        self.trace = list(trace)
        super().__init__(
            f"fit diverged at stage {stage_index}, iteration {len(self.trace)}"
        )


def _typed(name: str, value, kind, what: str):
    """``value`` if it is a ``kind``, else a ValueError naming ``name``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class StageConfig:
    grid_dims: tuple[int, int, int]
    steps: int
    iterations: int
    step_size: float
    template_subdivision_level: int = 0

    def __post_init__(self):
        dims = _typed("grid_dims", self.grid_dims, (list, tuple), "a list")
        dims = tuple(_whole("grid_dims", n, 2) for n in dims)
        if len(dims) != 3:
            raise ValueError(f"grid_dims needs 3 entries >= 2, got {self.grid_dims}")
        object.__setattr__(self, "grid_dims", dims)
        for name, minimum in (("steps", 1), ("iterations", 1), ("template_subdivision_level", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), minimum))
        object.__setattr__(self, "step_size", _real("step_size", self.step_size, 0, above=True))


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
        for name, label, low, above in (("chamfer_weight", "chamfer weight", 0, True),
                                        ("edge_weight", "edge weight", 0, False),
                                        ("domain_radius", "domain_radius", 1, False)):
            object.__setattr__(self, name, _real(label, getattr(self, name), low, above))
        for name, minimum in (("sample_count", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), minimum))
        if self.gate not in _GATE_POLICIES:
            raise ValueError(f"gate must be one of {_GATE_POLICIES}, got {self.gate!r}")
        for prev, nxt in zip(stages, stages[1:]):
            if any(b < a for a, b in zip(prev.grid_dims, nxt.grid_dims)):
                raise ValueError("grid_dims must be coarse-to-fine or equal")
            if nxt.template_subdivision_level < prev.template_subdivision_level:
                raise ValueError("template_subdivision_level must not decrease")

    @classmethod
    def from_dict(cls, raw: dict) -> "FitConfig":
        """Config from its JSON form; every default is the dataclasses' own."""
        fields = dict(_typed("fit config", raw, dict, "an object"))
        weights = _typed("loss_weights", fields.pop("loss_weights", {}), dict, "an object")
        if spelled := {"chamfer_weight", "edge_weight"} & fields.keys():
            raise ValueError(f"fit config has unknown field {min(spelled)!r}; use loss_weights")
        try:
            stages = _typed("stages", fields.pop("stages"), (list, tuple), "a list")
            stages = tuple(StageConfig(**_typed(f"stages[{i}]", s, dict, "an object"))
                           for i, s in enumerate(stages))
            return cls(stages, **fields, **{f"{k}_weight": v for k, v in weights.items()})
        except KeyError as exc:
            raise ValueError(f"fit config is missing field {exc.args[0]!r}") from exc
        except TypeError as exc:  # names an unknown or missing keyword
            raise ValueError(f"invalid fit config: {exc}") from exc

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["loss_weights"] = {k: raw.pop(f"{k}_weight") for k in ("chamfer", "edge")}
        return raw


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
    integration: tuple | None = None  # (params, stability, step stencils, deformed) to reuse
    certify: tuple | None = None  # (CloudMatch, total) of the forward pass at the same draw
    target_tree: PointTree = dataclass_field(init=False, repr=False)  # of target_points

    def __post_init__(self):
        self.target_tree = PointTree(self.target_points)


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
    stability: StabilityEstimate  # of params
    step_stencils: list[TrilinearStencil]  # of the vertices before each Euler step
    deformed_vertices: np.ndarray
    face_idx: np.ndarray
    bary: np.ndarray
    pred_points: np.ndarray
    match: CloudMatch  # pred -> target (ab) and target -> pred (ba)


def forward_loss(
    params: np.ndarray, problem: StageProblem, draw=None
) -> tuple[LossTerms, Intermediates]:
    """Loss of the stage at the given flow-grid values.

    ``draw`` fixes the (face index, barycentric) surface draw; by default a
    fresh draw is taken from the deformed mesh with the problem's sample seed.
    The returned intermediates retain per-step stencils and correspondences
    for :func:`backward`.  A pass with ``draw`` whose bound certifies it (see
    :func:`_certified_match`) returns that bound as its loss and runs no NN query.
    """
    geometry = problem.geometry
    params = np.array(params, dtype=np.float64)
    if params.shape != geometry.dims + (3,):
        raise ValueError(f"params shape {params.shape} does not match grid")
    params[_boundary_mask(geometry.dims)] = 0.0

    h = 1.0 / problem.steps
    reuse = problem.integration is not None and np.array_equal(problem.integration[0], params)
    stability = problem.integration[1] if reuse else stability_from_grid(geometry, params)
    margin = check_gate(h, stability, problem.gate)  # on every pass, reused or not
    if reuse:
        _, _, step_stencils, deformed = problem.integration
    else:
        deformed = np.array(problem.start_vertices, dtype=np.float64)
        step_stencils = []
        for _ in range(problem.steps):
            stencil = TrilinearStencil(geometry, deformed)
            step_stencils.append(stencil)
            deformed = deformed + h * stencil.sample(params)

    if draw is None:
        mesh = TriangleMesh(deformed, problem.faces)
        face_idx, bary = draw_surface_samples(mesh, problem.sample_count, problem.sample_seed)
    else:
        face_idx, bary = draw
    pred = points_from_draw(deformed, problem.faces, face_idx, bary)

    edge_term = mean_squared_edge_length(deformed, problem.edges)
    match = _certified_match(problem, pred, edge_term) if draw is not None else None
    if match is None:
        match = match_clouds(pred, problem.target_tree)
    chamfer_sq = match.chamfer(squared=True)
    total = problem.chamfer_weight * chamfer_sq + problem.edge_weight * edge_term

    terms = LossTerms(
        chamfer_term=chamfer_sq, edge_term=edge_term, total=total, gate_margin=margin
    )
    inter = Intermediates(
        problem=problem,
        params=params,
        stability=stability,
        step_stencils=step_stencils,
        deformed_vertices=deformed,
        face_idx=face_idx,
        bary=bary,
        pred_points=pred,
        match=match,
    )
    return terms, inter


def _certified_match(problem: StageProblem, pred: np.ndarray, edge_term: float):
    """``problem.certify``'s partners at ``pred`` if they prove the loss at most
    its total, else None.  No nearest neighbour is farther than a frozen partner,
    so their loss bounds the exact one; a NaN bound certifies nothing."""
    if problem.certify is None:
        return None
    frozen, threshold = problem.certify
    match = CloudMatch.between(pred, problem.target_points, frozen.idx_ab, frozen.idx_ba)
    bound = problem.chamfer_weight * match.chamfer(squared=True) + problem.edge_weight * edge_term
    return match if bound * (1.0 + _CERTIFY_SLACK) <= threshold else None


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
    idx_ab, idx_ba = inter.match.idx_ab, inter.match.idx_ba

    grad_pred = (w_c / n_pred) * (pred - target[idx_ab])
    scatter_add(grad_pred, idx_ba, (w_c / n_tgt) * (pred[idx_ba] - target))

    grad_v = np.zeros_like(inter.deformed_vertices)
    scatter = inter.bary[:, :, None] * grad_pred[:, None, :]
    scatter_add(grad_v, problem.faces[inter.face_idx].ravel(), scatter.reshape(-1, 3))

    if w_e != 0.0:
        e0, e1 = problem.edges[:, 0], problem.edges[:, 1]
        delta = inter.deformed_vertices[e0] - inter.deformed_vertices[e1]
        coeff = 2.0 * w_e / len(problem.edges)
        scatter_add(grad_v, e0, coeff * delta)
        scatter_add(grad_v, e1, -coeff * delta)

    grad = np.zeros_like(inter.params)
    grad_x = grad_v
    for stencil in reversed(inter.step_stencils):
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
    domain_radius: float,
) -> GridGeometry:
    """Cube grid centred on both meshes, padded by the domain-radius factor.

    The padding leaves the geometry strictly inside the interior cells, away
    from the pinned zero boundary shell.
    """
    center, radius = unit_ball_transform(template.vertices, target.vertices)
    extent = domain_radius * radius
    dims = tuple(int(n) for n in grid_dims)
    origin = tuple(center[a] - extent for a in range(3))
    spacing = tuple(2.0 * extent / (dims[a] - 1) for a in range(3))
    try:
        return GridGeometry(dims, origin, spacing)
    except ValueError as exc:  # a huge domain_radius overflows the spacing to inf
        raise ValueError(f"domain_radius {domain_radius!r} gives no finite grid: {exc}") from exc


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
    target_areas = triangle_areas(target.vertices, target.faces)

    params = np.zeros(geometry.dims + (3,), dtype=np.float64)
    velocity = np.zeros_like(params)
    step_size = float(scfg.step_size)
    best_total = math.inf
    best_params = params.copy()
    trace: list[LossReport] = []
    integration = None  # of the last accepted candidate

    for iteration in range(scfg.iterations):
        pred_seed = derive_seed(config.seed, stage_index, iteration, 0)
        target_seed = derive_seed(config.seed, stage_index, iteration, 1)
        target_draw = _draw_from_areas(target_areas, config.sample_count, target_seed)
        problem = StageProblem(
            geometry=geometry,
            steps=scfg.steps,
            start_vertices=start,
            faces=template.faces,
            edges=edges,
            target_points=points_from_draw(target.vertices, target.faces, *target_draw),
            chamfer_weight=config.chamfer_weight,
            edge_weight=config.edge_weight,
            sample_count=config.sample_count,
            sample_seed=pred_seed,
            gate=config.gate,
            integration=integration,
        )
        terms, inter = forward_loss(params, problem)
        if not math.isfinite(terms.total):
            raise FitDivergedError(stage_index, trace)
        grad = backward(inter)
        draw = (inter.face_idx, inter.bary)
        problem.certify = (inter.match, terms.total)
        del inter  # the stencils are not needed past the reverse pass
        problem.integration = integration = None
        grad_norm = float(np.sqrt((grad * grad).sum()))
        trace.append(LossReport(iteration=iteration, grad_norm=grad_norm, **asdict(terms)))
        if terms.total < best_total:
            best_total = terms.total
            best_params = params.copy()

        velocity = MOMENTUM * velocity - step_size * grad
        candidate = params + velocity
        candidate[_boundary_mask(geometry.dims)] = 0.0
        try:
            cand_terms, cand = forward_loss(candidate, problem, draw=draw)
        except GateViolationError:  # strict gate; a NaN margin raises too
            accepted = False
        else:
            accepted = cand_terms.total <= terms.total  # rejects NaN as well
        if accepted:  # the next forward pass reuses the candidate's integration
            params = candidate
            integration = (candidate, cand.stability, cand.step_stencils, cand.deformed_vertices)
        else:
            step_size *= 0.5
            velocity[:] = 0.0
        cand = None  # a rejected candidate's stencils are not kept

    field = FlowField(geometry, best_params.astype(np.float32))
    stage = DeformationStage(field, scfg.steps)
    check_gate(stage.h, stage.stability, config.gate, stage_index=stage_index)
    return stage, trace


@dataclass(frozen=True)
class FitResult:
    chain: DeformationChain
    traces: tuple[tuple[LossReport, ...], ...]
    final_mesh: TriangleMesh
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
    levels = tuple(s.template_subdivision_level for s in config.stages)
    for index, (prev, level) in enumerate(zip((0,) + levels, levels)):
        for _ in range(level - prev):  # exact: FitConfig refuses decreasing levels
            current = midpoint_subdivide(current)
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
        template_levels=levels,
    )
