"""Weighted composition operators between Sobolev grids, and their forensics.

An operator ``T u = g * (u o xi)`` is described by a weight ``g`` and a map
``xi`` from the target domain into the source domain.  The module measures
how far a given operator is from being an isometry, disjointness preserving,
or form intertwining, reconstructs ``(g, xi)`` from probe images, fits rigid
motions per connected component, and decides whether the two domains are
congruent under the fitted motions.

Reconstruction probes: with ``alpha = (p-1)^(-1/p)`` the functions
``exp(+/- alpha x_j)`` solve the p-Laplace equation, so their images under a
well-behaved operator are ``v_{+/-,j} = g exp(+/- alpha xi_j)``, giving

    g  = sgn(v_{+,j}) (v_{+,j} v_{-,j})^(1/2)
    xi_j = log(v_{+,j} / v_{-,j}) / (2 alpha).

Cells where a probe product is nonpositive go to the zero set instead of
receiving a value; a clean composition operator leaves that set empty.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from .field import (Field, VectorField, _worst, exponential_probe, gradient_rows, lp_norm,
                    probe_rate, w1p_norm)
from .forms import form_a
from .grid_domain import (
    GridDomain,
    RigidMotion,
    apply_rigid_motion,
    is_topologically_regular,
)
from . import grid_domain as _gd

_BBOX_SLACK = 1e-9
_RIGID_ORTHO_TOL = 0.1  # orthogonality defect up to which a fit counts as rigid


# -- operator descriptions ----------------------------------------------------


_BUILTIN_OPERATORS: dict[str, Callable] = {  # JSON builtin name -> factory(h, target)
    "identity": lambda h, target: identity_operator(target),
    "example_4_8": lambda h, target: example_4_8_operator(h) if h else example_4_8_operator(),
    "example_5_4": lambda h, target: example_5_4_operator(h) if h else example_5_4_operator(),
}


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """A weighted composition operator from fields on ``source`` to ``target``,
    held as its weight ``g`` and map ``xi`` sampled at the target nodes."""

    source: GridDomain
    target: GridDomain
    g_values: np.ndarray   # (n,) read-only weight values at the target nodes
    xi_values: np.ndarray  # (n, dim) read-only map values at the target nodes

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise ValueError("source and target must have the same dimension")
        g = np.asarray(self.g_values, dtype=float)
        xi = np.asarray(self.xi_values, dtype=float)
        if g.shape != (self.target.n_cells,) or xi.shape != (self.target.n_cells, self.target.dim):
            raise ValueError("weight and map must be sampled at the target nodes")
        # the map must keep the target nodes in the source's bounding box
        lo, hi = self.source.bounding_box
        # one cell of slack: the raster box can sit up to h inside the analytic set
        slack = self.source.h + _BBOX_SLACK * (1.0 + np.abs(np.concatenate([lo, hi])).max())
        if np.any(xi < lo - slack) or np.any(xi > hi + slack):
            raise ValueError(
                "the map sends target nodes outside the closed bounding box of the source")
        for name, values in (("g_values", g), ("xi_values", xi)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)


def identity_operator(domain: GridDomain) -> OperatorSpec:
    return OperatorSpec(domain, domain, np.ones(domain.n_cells), domain.centers)


def example_4_8_operator(h: float = 1e-3) -> OperatorSpec:
    """Hyperbolic-weight interval operator; intertwines the form but is not isometric."""
    source, target = _gd.example_4_8_omega1(h), _gd.example_4_8_omega2(h)
    y = target.centers[:, 0]
    return OperatorSpec(source, target, np.sqrt(np.sinh(2.0 * y)),
                        (-np.arctanh(np.exp(-2.0 * y)))[:, None])


def example_5_4_operator(h: float = 0.01) -> OperatorSpec:
    """Two-block translation operator; an isometric lattice homomorphism."""
    source, target = _gd.example_5_4_omega1(h), _gd.example_5_4_omega2(h)
    xi = target.centers.copy()
    xi[:, 1] -= np.sign(xi[:, 1])
    return OperatorSpec(source, target, np.ones(target.n_cells), xi)


def piecewise_rigid_operator(source: GridDomain, target: GridDomain,
                             motions: Iterable[RigidMotion],
                             components: Iterable[int | None]) -> OperatorSpec:
    """Composition with one rigid motion per target component, the component
    given by its index in ``target.component_rows``; ``None`` applies to all."""
    motions, components = tuple(motions), tuple(components)
    if len(motions) != len(components):
        raise ValueError("each motion needs a component assignment")
    if len(motions) == 0:
        raise ValueError("a rigid operator needs at least one motion")
    if None in components and len(components) > 1:
        raise ValueError("a catch-all motion cannot be combined with others")
    comp_rows = target.component_rows
    n_comp = len(comp_rows)
    assignment: dict[int, RigidMotion] = {}
    for motion, comp in zip(motions, components):
        if motion.dim != target.dim:
            raise ValueError("motion dimension does not match the domains")
        if comp is not None and comp not in range(n_comp):
            raise ValueError(f"component index {comp} out of range")
        for ci in range(n_comp) if comp is None else [int(comp)]:
            if ci in assignment:
                raise ValueError(f"component {ci} has two motions assigned")
            assignment[ci] = motion
    if len(assignment) != n_comp:
        missing = sorted(set(range(n_comp)) - set(assignment))
        raise ValueError(f"components {missing} have no motion assigned")
    pts = target.centers
    xi = np.empty_like(pts)
    g = np.empty(pts.shape[0])
    for ci, motion in assignment.items():
        rows = comp_rows[ci]
        xi[rows] = motion.transform(pts[rows])
        g[rows] = float(motion.sign)
    return OperatorSpec(source, target, g, xi)


def rigid_operator(target: GridDomain, motion: RigidMotion,
                   source: GridDomain | None = None) -> OperatorSpec:
    """Composition with one rigid motion of the whole target domain."""
    if source is None:
        source = apply_rigid_motion(target, motion)
    return piecewise_rigid_operator(source, target, (motion,), (None,))


# -- application ---------------------------------------------------------------


def apply_with_flags(T: OperatorSpec, u: Field) -> tuple[Field, np.ndarray]:
    """Apply ``T`` to a field; returns the image and the out-of-domain mask.

    The source field is interpolated multilinearly at the mapped nodes.  A
    node is flagged (and its image set to 0) when the map lands beyond the
    interpolation reach of every active source node, i.e. outside the
    rasterized source by more than one boundary layer.
    """
    if u.domain != T.source:
        raise ValueError("field does not live on the operator source domain")
    vals, covered = u.at_with_coverage(T.xi_values)
    return Field(T.target, T.g_values * vals), ~covered


def apply(T: OperatorSpec, u: Field) -> Field:
    return apply_with_flags(T, u)[0]


def apply_to_function(T: OperatorSpec, fn: Callable[[np.ndarray], np.ndarray]) -> Field:
    """Apply ``T`` to a globally defined function, exactly at the nodes."""
    return Field(T.target, T.g_values * np.asarray(fn(T.xi_values), dtype=float))


def _apply_any(T, u: Field) -> Field:
    return apply(T, u) if isinstance(T, OperatorSpec) else T(u)


# -- defect measurements --------------------------------------------------------


def isometry_defect(T, samples: Iterable[Field], p: float) -> float:
    """Largest absolute Sobolev-norm discrepancy over the sample fields."""
    def gap(u: Field) -> float:
        return abs(w1p_norm(_apply_any(T, u), p) - w1p_norm(u, p))

    return _worst(map(gap, samples), "at least one sample field is required")


def disjointness_defect(T, pairs: Iterable[tuple[Field, Field]], p: float) -> float:
    """Largest lattice overlap ||min(|Tu|, |Tv|)||_p over disjoint input pairs."""
    def overlap(pair: tuple[Field, Field]) -> float:
        u, v = pair
        if float(abs(u).minimum(abs(v)).values.max()) != 0.0:
            raise ValueError("input pair is not disjoint on the grid")
        tu, tv = _apply_any(T, u), _apply_any(T, v)
        return lp_norm(abs(tu).minimum(abs(tv)), p)

    return _worst(map(overlap, pairs), "at least one pair is required")


def intertwining_defect(T, trials: Iterable[tuple[Field, Field]], p: float) -> float:
    """Largest |a_p(Tu, Tv) - a_p(u, v)| over trials with compact v.

    Each trial's ``v`` must vanish on the source boundary layer and its image
    must vanish on the target boundary layer, mirroring membership of v in
    the zero-trace subspace on both sides.
    """
    def mismatch(trial: tuple[Field, Field]) -> float:
        u, v = trial
        src_mask = v.domain.boundary_layer_mask()
        if np.any(v.values[src_mask] != 0.0):
            raise ValueError("trial v does not vanish on the source boundary layer")
        tu, tv = _apply_any(T, u), _apply_any(T, v)
        tgt_mask = tv.domain.boundary_layer_mask()
        if np.any(tv.values[tgt_mask] != 0.0):
            raise ValueError("image of trial v does not vanish on the target boundary layer")
        return abs(form_a(tu, tv, p) - form_a(u, v, p))

    return _worst(map(mismatch, trials), "at least one trial pair is required")


# -- probe reconstruction --------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    """Weight and map recovered from exponential probe images."""

    g_hat: Field
    xi_hat: VectorField
    zero_mask: np.ndarray
    g_by_axis: tuple[np.ndarray, ...]

    @property
    def zero_set_cells(self) -> int:
        return int(np.count_nonzero(self.zero_mask))


def reconstruct(op, omega2: GridDomain | None = None, p: float = 2.0, *,
                source: GridDomain | None = None) -> ReconstructionResult:
    """Recover ``(g, xi)`` from the images of the exponential probes.

    ``op`` is either an :class:`OperatorSpec`, whose probe images are formed
    exactly from its nodal weight/map data, or a black-box ``Field -> Field``
    callable, in which case ``source`` (probe domain) and ``omega2`` (image
    domain) must be supplied and interpolation noise of order h^2 enters.
    """
    if not (1.0 < p < np.inf):
        raise ValueError(f"reconstruction requires p in (1, inf), got {p}")
    alpha = probe_rate(p)
    if isinstance(op, OperatorSpec):
        if omega2 is not None and omega2 != op.target:
            raise ValueError("omega2 does not match the operator target")
        omega2 = op.target
    elif omega2 is None or source is None:
        raise ValueError("black-box reconstruction needs omega2 and source domains")

    def image(j, sg):  # formed from the nodal data, or sent through the black box
        if isinstance(op, OperatorSpec):
            return op.g_values * np.exp(sg * alpha * op.xi_values[:, j])
        img = op(exponential_probe(source, j, sg, p))
        if img.domain != omega2:
            raise ValueError("operator image does not live on omega2")
        return img.values

    n = omega2.n_cells
    zero = np.zeros(n, dtype=bool)
    g_axes = []
    xi = np.zeros((n, omega2.dim))
    for j in range(omega2.dim):  # one axis's pair of probe images alive at a time
        vp, vm = image(j, 1), image(j, -1)
        prod = vp * vm
        ok = prod > 0.0
        zero |= ~ok
        g_j = np.zeros(n)
        g_j[ok] = np.sign(vp[ok]) * np.sqrt(prod[ok])
        xi[ok, j] = np.log(vp[ok] / vm[ok]) / (2.0 * alpha)
        g_axes.append(g_j)
    if zero.all():
        raise ValueError("probe images vanish everywhere; not a composition operator on this grid")
    g_hat = g_axes[0].copy()
    g_hat[zero] = 0.0
    xi[zero] = 0.0
    return ReconstructionResult(Field(omega2, g_hat), VectorField(omega2, xi),
                                zero, tuple(g_axes))


# -- rigid-motion fitting ---------------------------------------------------------


@dataclass(frozen=True)
class RigidFitReport:
    """Per-component rigid motions and global smoothness defects of a fit."""

    motions: tuple[RigidMotion, ...]
    orthogonality_defect: float  # max |xi'^T xi' - I|
    grad_g_defect: float         # max |grad g|
    weight_defect: float         # max ||g| - 1|
    c_field: Field               # |grad xi_0| samples
    rigid: bool

    def to_json_dict(self) -> dict:
        return {
            "motions": [m.to_json_dict() for m in self.motions],
            "orthogonality_defect": self.orthogonality_defect,
            "grad_g_defect": self.grad_g_defect,
            "weight_defect": self.weight_defect,
            "rigid": self.rigid,
            "c_range": [float(self.c_field.values.min()),
                        float(self.c_field.values.max())],
        }


def rigid_motion_fit(rec: ReconstructionResult) -> RigidFitReport:
    """Affine least squares plus polar projection, one motion per component.

    The polar factor of the fitted linear part is the orthogonal matrix
    nearest in Frobenius norm.  Defects are evaluated by finite differences
    away from the reconstruction zero set; ``rigid`` records whether the
    Jacobian orthogonality defect stays within ``_RIGID_ORTHO_TOL``.
    """
    omega2 = rec.g_hat.domain
    dim = omega2.dim
    xi = rec.xi_hat.values
    valid = ~rec.zero_mask
    motions = []
    for rows in omega2.component_rows:
        rows = rows[valid[rows]]
        if rows.size < dim + 1:
            raise ValueError(
                f"component with {rows.size} usable cells is too small to fit a motion")
        X, Y = omega2.centers[rows], xi[rows]
        xm, ym = X.mean(axis=0), Y.mean(axis=0)
        coef, *_ = np.linalg.lstsq(X - xm, Y - ym, rcond=None)
        U, _, Vt = np.linalg.svd(coef.T)
        Q = U @ Vt
        sign = 1 if float(rec.g_hat.values[rows].mean()) >= 0.0 else -1
        motions.append(RigidMotion(Q, ym - Q @ xm, sign))

    # gradient stencils reach two cells, so keep that much distance from the
    # zero set; prefer cells clear of the boundary layer, where one-sided
    # stencils on interpolated data would pollute the Jacobian at O(1)
    away_from_zero = ~_gd.dilate_mask(omega2, rec.zero_mask, 2)
    fd_ok = away_from_zero & ~omega2.boundary_layer_mask(2)
    if not fd_ok.any():
        fd_ok = away_from_zero
    if not fd_ok.any():
        raise ValueError("zero set leaves no cells for defect evaluation")
    # per row block: the Jacobian (b, i, d) = d xi_i / d y_d, its rows of c_field,
    # and block maxima of both defects over fd_ok (a max is exact and keeps NaN)
    xi_fields = [Field(omega2, xi[:, i]) for i in range(dim)]
    c = np.empty(omega2.n_cells)
    ortho_max, grad_g_max = [], []
    for blk in _gd.row_blocks(omega2.n_cells):
        jac = np.stack([gradient_rows(f, blk) for f in xi_fields], axis=1)
        c[blk] = np.linalg.norm(jac[:, 0, :], axis=1)
        if (ok := fd_ok[blk]).any():
            jtj = np.einsum("nid,nie->nde", jac, jac)
            ortho_max.append(np.abs(jtj - np.eye(dim)).max(axis=(1, 2))[ok].max())
            grad_g_max.append(np.linalg.norm(gradient_rows(rec.g_hat, blk), axis=1)[ok].max())
    ortho = _worst(ortho_max)
    weight = float(np.abs(np.abs(rec.g_hat.values[valid]) - 1.0).max())
    return RigidFitReport(tuple(motions), ortho, _worst(grad_g_max), weight, Field(omega2, c),
                          rigid=ortho <= _RIGID_ORTHO_TOL)


# -- defect sets -------------------------------------------------------------------


def _supersampled_image(omega1: GridDomain, omega2: GridDomain, rows: np.ndarray,
                        mapping: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, int]:
    """Mask of ``omega1`` cells hit by ``mapping`` at three subsamples per axis
    of each given ``omega2`` row, and the count of subsamples landing outside."""
    hit = np.zeros(omega1.n_cells, dtype=bool)
    escaped = 0
    steps = (-omega2.h / 3.0, 0.0, omega2.h / 3.0)
    offsets = [np.asarray(off) for off in itertools.product(steps, repeat=omega2.dim)]
    for blk in _gd.row_blocks(rows.shape[0]):
        base = omega2.centers[rows[blk]]
        for off in offsets:
            rows1 = omega1.rows_of_indices(omega1.index_of_points(mapping(base + off)))
            hit[rows1[rows1 >= 0]] = True
            escaped += int(np.count_nonzero(rows1 < 0))
    return hit, escaped


@dataclass(frozen=True, eq=False)
class DefectSets:
    """Cells missed by the reconstructed map, on both sides; the matched
    domains ``u1`` and ``u2`` are built from their cell masks when read."""

    n2_cells: int       # target cells mapped outside the source (or unreadable)
    n1_measure: float   # source measure left uncovered by the image
    omega1: GridDomain
    omega2: GridDomain
    hit: np.ndarray     # cell mask of u1 in omega1
    inside: np.ndarray  # cell mask of u2 in omega2
    u1 = property(lambda self: self.omega1.subset(self.hit))
    u2 = property(lambda self: self.omega2.subset(self.inside))


def defect_sets(rec: ReconstructionResult, omega1: GridDomain) -> DefectSets:
    """Split the domains into the matched parts and the defects.

    ``u2`` holds the target cells whose reconstructed image lands inside the
    source; ``u1`` is the rasterized image of those cells (three subsamples
    per axis, interpolated map).  ``n1_measure = |omega1| - |u1|``.
    """
    omega2 = rec.g_hat.domain
    inside = ~rec.zero_mask  # then narrowed to the cells mapped into omega1
    for blk in _gd.row_blocks(omega2.n_cells):
        inside[blk] &= omega1.contains_points(rec.xi_hat.values[blk])
    if not inside.any():
        raise ValueError("no target cell maps into the source domain")
    n2 = omega2.n_cells - int(np.count_nonzero(inside))
    hit = _supersampled_image(omega1, omega2, np.flatnonzero(inside), rec.xi_hat.at)[0]
    if not hit.any():  # the error building an empty u1 would raise
        raise ValueError("a domain must contain at least one cell")
    n1 = omega1.measure - int(np.count_nonzero(hit)) * omega1.h**omega1.dim
    return DefectSets(n2, n1, omega1, omega2, hit, inside)


# -- congruence pipeline --------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of reconstruct -> rigid fit -> defect sets -> tiling check."""

    congruent: bool
    reason: str
    tol: float
    motions: tuple[RigidMotion, ...]
    component_boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    image_boxes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    orthogonality_defect: float
    grad_g_defect: float
    weight_defect: float
    n2_cells: int
    n1_measure: float
    tiling_defect: float
    source_regular: bool
    target_regular: bool

    def to_json_dict(self) -> dict:
        return {
            "congruent": self.congruent,
            "reason": self.reason,
            "tol": self.tol,
            "pairing": [
                {"component_box": [list(lo), list(hi)],
                 "image_box": [list(ilo), list(ihi)],
                 "motion": m.to_json_dict()}
                for (lo, hi), (ilo, ihi), m in zip(
                    self.component_boxes, self.image_boxes, self.motions)
            ],
            "orthogonality_defect": self.orthogonality_defect,
            "grad_g_defect": self.grad_g_defect,
            "weight_defect": self.weight_defect,
            "n2_cells": self.n2_cells,
            "n1_measure": self.n1_measure,
            "tiling_defect": self.tiling_defect,
            "source_regular": self.source_regular,
            "target_regular": self.target_regular,
        }


def congruence_pipeline(T: OperatorSpec, p: float, tol: float) -> PipelineReport:
    """Decide congruence of source and target through the fitted motions.

    The verdict is positive when the reconstructed map is rigid per
    component (orthogonality, weight constancy and unimodularity within
    ``tol``), no mass is mapped outside the source or left uncovered
    beyond ``tol``, and the component images tile the source up to ``tol``.
    """
    rec = reconstruct(T, p=p)
    fit = rigid_motion_fit(rec)
    # each stage passes on only motions and scalars, so its n-sized arrays are
    # freed before the next stage (the topology checks included) allocates its own
    motions, ortho, grad_g, weight = (fit.motions, fit.orthogonality_defect,
                                      fit.grad_g_defect, fit.weight_defect)
    del fit
    ds = defect_sets(rec, T.source)
    valid = ~rec.zero_mask
    del rec
    regular = is_topologically_regular(T.source), is_topologically_regular(T.target)

    coverage = np.zeros(T.source.n_cells, dtype=np.int64)
    escaped_pts = 0
    comp_boxes = []
    image_boxes = []
    for rows, motion in zip(T.target.component_rows, motions):
        hit, n_out = _supersampled_image(T.source, T.target, rows[valid[rows]], motion.transform)
        coverage += hit
        escaped_pts += n_out
        cells = T.target.cells[rows]
        lo, hi = _gd.physical_box(T.target.origin, T.target.h,
                                  cells.min(axis=0), cells.max(axis=0))
        img_lo, img_hi = motion.image_box(lo, hi)
        comp_boxes.append((tuple(map(float, lo)), tuple(map(float, hi))))
        image_boxes.append((tuple(map(float, img_lo)), tuple(map(float, img_hi))))

    cell1 = T.source.h**T.source.dim
    cell2 = T.target.h**T.target.dim
    missing = float(np.count_nonzero(coverage == 0)) * cell1
    overlap = float(np.count_nonzero(coverage >= 2)) * cell1
    escaped = escaped_pts * cell2 / 3**T.target.dim
    tiling = missing + overlap + escaped
    n2_measure = ds.n2_cells * cell2

    gates = [
        ("non-rigid xi", ortho),
        ("non-constant weight", grad_g),
        ("weight magnitude differs from 1", weight),
        ("target cells map outside the source", n2_measure),
        ("source not covered by the image", ds.n1_measure),
        ("component images do not tile the source", tiling),
    ]
    reason = "congruent"
    for name, value in gates:
        if value > tol:
            reason = name
            break
    return PipelineReport(
        congruent=reason == "congruent",
        reason=reason,
        tol=tol,
        motions=motions,
        component_boxes=tuple(comp_boxes),
        image_boxes=tuple(image_boxes),
        orthogonality_defect=ortho,
        grad_g_defect=grad_g,
        weight_defect=weight,
        n2_cells=ds.n2_cells,
        n1_measure=ds.n1_measure,
        tiling_defect=tiling,
        source_regular=regular[0],
        target_regular=regular[1],
    )


def preimage_field(T: OperatorSpec, phi: Field,
                   fit: RigidFitReport) -> tuple[Field, np.ndarray]:
    """Solve ``T w = phi`` through the fitted inverse, w = (phi/g) o xi^-1.

    Returns the candidate preimage on the source grid together with the mask
    of source cells actually covered by some component image; cells outside
    every image are reported uncovered rather than guessed.
    """
    if phi.domain != T.target:
        raise ValueError("phi does not live on the operator target domain")
    g = T.g_values
    if np.any(g == 0.0):
        raise ValueError("operator weight vanishes somewhere; cannot invert")
    ratio = Field(T.target, phi.values / g)
    label = np.empty(T.target.n_cells, dtype=np.int64)
    for ci, rows in enumerate(T.target.component_rows):
        label[rows] = ci
    w = np.zeros(T.source.n_cells)
    covered = np.zeros(T.source.n_cells, dtype=bool)
    x = T.source.centers
    for ci, motion in enumerate(fit.motions):
        y = motion.inverse_transform(x)
        rows = T.target.rows_of_indices(T.target.index_of_points(y))
        mask = (rows >= 0) & (label[rows] == ci) & ~covered
        if mask.any():
            w[mask] = ratio.at(y[mask])
            covered |= mask
    return Field(T.source, w), covered


# -- aggregate report -------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """One number per verified property of a single operator."""

    isometry: float
    disjointness: float
    intertwining: float
    orthogonality: float
    grad_g: float
    weight: float
    n1_measure: float
    n2_cells: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# -- JSON loading -----------------------------------------------------------------------


def operator_from_spec(spec: dict, target: GridDomain | None = None,
                       base_dir=None) -> OperatorSpec:
    """Build an operator from its JSON description.

    Supported forms: ``{"builtin": name}`` with optional ``"h"``;
    ``{"rigid": [{"Q": ..., "b": ..., "sign": 1, "component": 0}, ...]}``;
    ``{"tabulated": {"g": "g.csv", "xi": "xi.csv"}}``.  Domains come from
    embedded ``"source"``/``"target"`` specs; a given ``target`` takes the
    place of the spec's ``"target"``.
    """
    spec = _gd._json_value(spec, "an object", "operator spec")
    h = _gd._json_value(spec.get("h"), "a finite number or null", "h")
    if target is None and "target" in spec:
        target = _gd.domain_from_spec(spec["target"], default_h=h)
    source = _gd.domain_from_spec(spec["source"], default_h=h) if "source" in spec else None

    if "builtin" in spec:
        name = _gd._json_value(spec["builtin"], "a string", "builtin")
        if name not in _BUILTIN_OPERATORS:
            raise ValueError(f"unknown builtin operator {name!r}")
        if name == "identity" and target is None:
            raise ValueError("the identity operator needs a target domain")
        return _BUILTIN_OPERATORS[name](h, target)

    if "rigid" in spec:
        if target is None:
            raise ValueError("a rigid operator spec needs a target domain")
        entries = _gd._json_value(spec["rigid"], "an array", "rigid")
        motions = tuple(RigidMotion.from_json_dict(entry) for entry in entries)
        components = tuple(entry.get("component") for entry in entries)
        if source is None:
            if len(motions) != 1 or components[0] is not None:
                raise ValueError("per-component rigid specs need an explicit source domain")
            return rigid_operator(target, motions[0])
        return piecewise_rigid_operator(source, target, motions, components)

    if "tabulated" in spec:
        if target is None:
            raise ValueError("a tabulated operator spec needs a target domain")
        tab = _gd._json_value(spec["tabulated"], "an object", "tabulated")
        g_path, xi_path = (os.path.join(base_dir or "", _gd._json_value(tab.get(k), "a string", k))
                           for k in ("g", "xi"))
        g = Field.from_csv(g_path, target)
        xi = VectorField.from_csv(xi_path, target)
        if source is None:
            lo = xi.values.min(axis=0) - target.h
            hi = xi.values.max(axis=0) + target.h
            source = _gd.make_box(tuple(lo), tuple(hi), target.h)
        return OperatorSpec(source, target, g.values, xi.values)

    raise ValueError("operator spec needs one of 'builtin', 'rigid', 'tabulated'")
