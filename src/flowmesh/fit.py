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
from dataclasses import asdict, dataclass, replace
from functools import partial

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
    euler_steps,
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
from .metrics.sampling import _area_table, _draw_from_table, draw_surface_samples
from .metrics.sampling import points_from_draw, sample_surface, triangle_areas

MOMENTUM = 0.9

# Relative rounding allowance of a candidate's frozen-correspondence bound: its
# squared distances and their sums are within a few dozen eps of the real values.
_CERTIFY_SLACK = 1e-12


class FitDivergedError(RuntimeError):
    """Optimisation produced a non-finite loss; the trace so far is attached."""

    def __init__(self, stage_index: int, trace):
        self.stage_index = stage_index
        self.traces = (tuple(trace),)  # fit_pipeline puts earlier stages' first
        super().__init__(f"fit diverged at stage {stage_index}, iteration {len(trace)}")

    def __reduce__(self):  # its own stage's trace is the last; the state restores the rest
        return type(self), (self.stage_index, self.traces[-1]), vars(self)


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
        if unknown := [f"loss_weights.{k}" for k in weights if k not in ("chamfer", "edge")]:
            raise ValueError(f"fit config has unknown field {unknown[0]!r}")
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


@dataclass(frozen=True, eq=False)
class StageProblem:
    """One iteration's context for evaluating a stage's loss at given parameters."""

    geometry: GridGeometry
    steps: int
    start_vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray
    target: PointTree  # of the iteration's target draw; its points are target.data
    chamfer_weight: float
    edge_weight: float
    sample_count: int
    sample_seed: int
    gate: GatePolicy = "strict"
    start_stencil: TrilinearStencil | None = None  # of start_vertices; else built per pass
    reuse: tuple | None = None  # (params, stability, step stencils, deformed) to take over
    certify: tuple | None = None  # (CloudMatch, total) of the forward pass at the same draw


@dataclass(frozen=True, eq=False)
class ForwardPass:
    """One evaluation of a stage's loss, with all the reverse pass needs."""

    problem: StageProblem
    params: np.ndarray
    stability: StabilityEstimate  # of params
    step_stencils: list[TrilinearStencil]  # of the vertices before each Euler step
    deformed_vertices: np.ndarray
    face_idx: np.ndarray
    bary: np.ndarray
    pred_points: np.ndarray
    match: CloudMatch  # pred -> target (ab) and target -> pred (ba)
    chamfer_term: float
    edge_term: float
    total: float
    gate_margin: float


def forward_loss(params: np.ndarray, problem: StageProblem, draw=None) -> ForwardPass:
    """Loss of the stage at the given flow-grid values.

    ``draw`` fixes the (face index, barycentric) surface draw; by default a
    fresh draw is taken from the deformed mesh with the problem's sample seed.
    The pass keeps per-step stencils and correspondences for :func:`backward`.
    It takes over ``problem.reuse`` only if that was built from this very
    ``params`` array.  A pass with ``draw`` whose bound certifies it (see
    :func:`_certified_match`) returns that bound as its loss and runs no NN query.
    """
    geometry = problem.geometry
    reuse = problem.reuse is not None and problem.reuse[0] is params
    params = np.array(params, dtype=np.float64)
    if params.shape != geometry.dims + (3,):
        raise ValueError(f"params shape {params.shape} does not match grid")
    params[_boundary_mask(geometry.dims)] = 0.0

    _, stability, step_stencils, deformed = problem.reuse if reuse else (
        None, stability_from_grid(geometry, params), [], None)
    margin = check_gate(1.0 / problem.steps, stability, problem.gate)  # reused or not
    if not reuse:
        deformed = euler_steps(geometry, params, problem.start_vertices, problem.steps,
                               step_stencils, start=problem.start_stencil)

    if draw is None:
        mesh = TriangleMesh(deformed, problem.faces)
        face_idx, bary = draw_surface_samples(mesh, problem.sample_count, problem.sample_seed)
    else:
        face_idx, bary = draw
    pred = points_from_draw(deformed, problem.faces, face_idx, bary)

    edge_term = mean_squared_edge_length(deformed, problem.edges)
    match = _certified_match(problem, pred, edge_term) if draw is not None else None
    if match is None:
        match = match_clouds(pred, problem.target)
    chamfer_sq = match.chamfer(squared=True)
    total = problem.chamfer_weight * chamfer_sq + problem.edge_weight * edge_term
    return ForwardPass(problem, params, stability, step_stencils, deformed, face_idx, bary,
                       pred, match, chamfer_sq, edge_term, total, margin)


def _certified_match(problem: StageProblem, pred: np.ndarray, edge_term: float):
    """``problem.certify``'s partners at ``pred`` if they prove the loss at most
    its total, else None.  No nearest neighbour is farther than a frozen partner,
    so their loss bounds the exact one; a NaN bound certifies nothing."""
    if problem.certify is None:
        return None
    frozen, threshold = problem.certify
    match = CloudMatch.between(pred, problem.target.data, frozen.idx_ab, frozen.idx_ba)
    bound = problem.chamfer_weight * match.chamfer(squared=True) + problem.edge_weight * edge_term
    return match if bound * (1.0 + _CERTIFY_SLACK) <= threshold else None


def backward(fwd: ForwardPass) -> np.ndarray:
    """Gradient of the forward loss w.r.t. the flow-grid values.

    Correspondences and the surface draw are treated as fixed (envelope
    rule); boundary nodes always receive a zero gradient.
    """
    problem = fwd.problem
    geometry = problem.geometry
    h = 1.0 / problem.steps
    w_c, w_e = problem.chamfer_weight, problem.edge_weight
    pred = fwd.pred_points
    target = problem.target.data
    n_pred, n_tgt = len(pred), len(target)
    idx_ab, idx_ba = fwd.match.idx_ab, fwd.match.idx_ba

    grad_pred = (w_c / n_pred) * (pred - target[idx_ab])
    scatter_add(grad_pred, idx_ba, (w_c / n_tgt) * (pred[idx_ba] - target))

    grad_v = np.zeros_like(fwd.deformed_vertices)
    scatter = fwd.bary[:, :, None] * grad_pred[:, None, :]
    scatter_add(grad_v, problem.faces[fwd.face_idx].ravel(), scatter.reshape(-1, 3))

    if w_e != 0.0:
        e0, e1 = problem.edges[:, 0], problem.edges[:, 1]
        delta = fwd.deformed_vertices[e0] - fwd.deformed_vertices[e1]
        coeff = 2.0 * w_e / len(problem.edges)
        scatter_add(grad_v, e0, coeff * delta)
        scatter_add(grad_v, e1, -coeff * delta)

    nodes = np.zeros((3, fwd.params.size // 3)).T  # contiguous columns: np.add.at runs 2x faster
    start, *later = fwd.step_stencils
    for s in reversed(later):  # with every row inside, a slice: grad_v is added to in place
        rows = slice(None) if len(s.inside) == len(grad_v) else s.inside
        grad_v[rows] += s.backprop(nodes, fwd.params, grad_v[rows], h)
    rows = slice(None) if len(start.inside) == len(grad_v) else start.inside
    start.backprop(nodes, None, grad_v[rows], h)  # the start vertices are frozen: no J^T

    grad = np.ascontiguousarray(nodes).reshape(fwd.params.shape)
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
    per-iteration trace.  The stage's gate is checked where a chain applies
    it: the next stage's frozen chain, or fit_pipeline's final chain.
    """
    scfg = config.stages[stage_index]
    geometry = stage_grid_geometry(template, target, scfg.grid_dims, config.domain_radius)
    start = apply_chain(frozen, template, gate=config.gate).vertices
    stage_problem = partial(  # the stage's constants; each iteration adds its own fields
        StageProblem, geometry=geometry, steps=scfg.steps, start_vertices=start,
        start_stencil=TrilinearStencil(geometry, start),
        faces=template.faces, edges=unique_edges(template.faces),
        chamfer_weight=config.chamfer_weight, edge_weight=config.edge_weight,
        sample_count=config.sample_count, gate=config.gate)
    target_table = _area_table(triangle_areas(target.vertices, target.faces))

    params = np.zeros(geometry.dims + (3,), dtype=np.float64)
    velocity = np.zeros_like(params)
    step_size = float(scfg.step_size)
    best_total = math.inf
    best_params = params
    trace: list[LossReport] = []
    reuse = None  # the integration of the last accepted candidate

    for iteration in range(scfg.iterations):
        target_seed = derive_seed(config.seed, stage_index, iteration, 1)
        target_draw = _draw_from_table(target_table, config.sample_count, target_seed)
        problem = stage_problem(
            target=PointTree(points_from_draw(target.vertices, target.faces, *target_draw)),
            sample_seed=derive_seed(config.seed, stage_index, iteration, 0),
            reuse=reuse,
        )
        iterate = forward_loss(params, problem)
        if not math.isfinite(iterate.total):
            raise FitDivergedError(stage_index, trace)
        grad = backward(iterate)
        total, draw = iterate.total, (iterate.face_idx, iterate.bary)
        trace.append(LossReport(iteration, iterate.chamfer_term, iterate.edge_term, total,
                                float(np.sqrt((grad * grad).sum())), iterate.gate_margin))
        problem = replace(problem, reuse=None, certify=(iterate.match, total))
        iterate = reuse = None  # the stencils are not needed past the reverse pass
        if total < best_total:
            best_total, best_params = total, params  # never written: each candidate is new

        velocity = MOMENTUM * velocity - step_size * grad
        candidate = params + velocity  # +0.0 boundary: backward zeroes grad's
        try:
            cand = forward_loss(candidate, problem, draw=draw)
        except GateViolationError:  # strict gate; a NaN margin raises too
            accepted = False
        else:
            accepted = cand.total <= total  # rejects NaN as well
        if accepted:  # the next forward pass takes over the candidate's integration
            params = candidate
            reuse = (candidate, cand.stability, cand.step_stencils, cand.deformed_vertices)
        else:
            step_size *= 0.5
            velocity[:] = 0.0
        cand = None  # a rejected candidate's stencils are not kept

    return DeformationStage(FlowField(geometry, best_params.astype(np.float32)), scfg.steps), trace


@dataclass(frozen=True)
class FitResult:
    chain: DeformationChain
    traces: tuple[tuple[LossReport, ...], ...]
    final_mesh: TriangleMesh


def unit_ball_transform(*vertex_arrays) -> tuple[np.ndarray, float]:
    """Center and scale mapping all given vertices into the unit ball."""
    pts = np.vstack(vertex_arrays)
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        scale = float(np.linalg.norm(pts - center, axis=1).max())
    if not math.isfinite(scale):
        raise ValueError(f"coordinate scale {np.abs(pts).max():g} is too large to normalise")
    return center, max(scale, 1e-12)


def _rescale_stage(index: int, stage: DeformationStage, center, scale: float) -> DeformationStage:
    """Conjugate a stage fitted in normalised space back to original space.

    Scaling positions by s and node vectors by s commutes exactly with Euler
    stepping, so the rescaled stage realises the same deformation.
    """
    geom = stage.field.geometry
    origin = tuple(center[a] + scale * geom.origin[a] for a in range(3))
    spacing = tuple(scale * geom.spacing[a] for a in range(3))
    with np.errstate(over="ignore"):
        data = (scale * stage.field.data64).astype(np.float32)
    if not np.isfinite(data).all():
        raise ValueError(f"stage {index}: coordinate scale {scale:g} takes node vectors "
                         f"past DFF1's float32 range (|v| <= {np.finfo(np.float32).max:g})")
    return DeformationStage(FlowField(GridGeometry(geom.dims, origin, spacing), data), stage.steps)


def fit_pipeline(
    config: FitConfig, template: TriangleMesh, target: TriangleMesh
) -> FitResult:
    """Fit all configured stages in sequence (earlier stages frozen).

    The emitted chain acts in the original coordinates; the final mesh is the
    last stage's template (subdivided as configured) pushed through that
    chain.  A ``FitDivergedError`` or ``GateViolationError`` raised on the way
    carries ``traces``: the records of every stage fitted so far (a stage's
    gate is checked after its records), then a diverged stage's records.
    """
    center, scale = unit_ball_transform(template.vertices, target.vertices)
    template_norm = template.with_vertices((template.vertices - center) / scale)
    target_norm = target.with_vertices((target.vertices - center) / scale)

    stages_norm: list[DeformationStage] = []
    traces: list[tuple[LossReport, ...]] = []
    current = template_norm
    levels = tuple(s.template_subdivision_level for s in config.stages)
    try:
        for index, (prev, level) in enumerate(zip((0,) + levels, levels)):
            for _ in range(level - prev):  # exact: FitConfig refuses decreasing levels
                current = midpoint_subdivide(current)
            frozen = DeformationChain(tuple(stages_norm))
            stage, trace = fit_stage(config, index, frozen, current, target_norm)
            stages_norm.append(stage)
            traces.append(tuple(trace))

        chain = DeformationChain(tuple(_rescale_stage(i, s, center, scale)
                                       for i, s in enumerate(stages_norm)))
        final_template = template
        for _ in range(levels[-1]):
            final_template = midpoint_subdivide(final_template)
        final_mesh = apply_chain(chain, final_template, gate=config.gate)
    except (FitDivergedError, GateViolationError) as exc:  # keep the records fitted so far
        exc.traces = (*traces, *getattr(exc, "traces", ()))
        raise
    return FitResult(chain=chain, traces=tuple(traces), final_mesh=final_mesh)
