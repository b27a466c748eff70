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
from dataclasses import dataclass, fields
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


# JSON builtin name -> the (source, target) builtin domains it acts between, and its
# closed form y -> (g, xi) at the target centres; the identity acts on any one domain
_BUILTIN_OPERATORS: dict[str, tuple[tuple, Callable]] = {
    "identity": ((None, None), lambda y: (np.ones(y.shape[0]), y)),
    "example_4_8": (("example_4_8_omega1", "example_4_8_omega2"), lambda y: (
        np.sqrt(np.sinh(2.0 * y[:, 0])), (-np.arctanh(np.exp(-2.0 * y[:, 0])))[:, None])),
    "example_5_4": (("example_5_4_omega1", "example_5_4_omega2"),
                    lambda y: (np.ones(y.shape[0]), y - np.sign(y) * (0.0, 1.0))),
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
        for what, values in (("weight", g), ("map", xi)):  # a NaN passes the box check below
            if not np.isfinite(values).all():
                raise ValueError(f"the {what} must be finite at every target node")
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


def _closed_form(name: str, domains: tuple | None = None, h: float | None = None
                 ) -> OperatorSpec:
    """The builtin ``name`` between ``domains``, a (source, target) pair, else between its
    own at cell width ``h``, evaluated at the target centres, where it must be defined."""
    names, form = _BUILTIN_OPERATORS[name]
    source, target = domains or (_gd._builtin_domain(own, h) for own in names)
    with np.errstate(all="ignore"):  # a node outside its domain of definition is named below
        g, xi = form(target.centers)
    if not (finite := np.isfinite(g) & np.isfinite(xi).all(axis=1)).all():
        node = tuple(map(float, target.centers[np.argmin(finite)]))
        raise ValueError(f"the builtin operator {name!r} is not defined at the target node {node}")
    return OperatorSpec(source, target, g, xi)


def identity_operator(domain: GridDomain) -> OperatorSpec:
    return _closed_form("identity", (domain, domain))


def example_4_8_operator(h: float | None = None) -> OperatorSpec:
    """Hyperbolic-weight interval operator; intertwines the form but is not isometric."""
    return _closed_form("example_4_8", h=h)


def example_5_4_operator(h: float | None = None) -> OperatorSpec:
    """Two-block translation operator; an isometric lattice homomorphism."""
    return _closed_form("example_5_4", h=h)


def piecewise_rigid_operator(source: GridDomain, target: GridDomain,
                             motions: Iterable[RigidMotion],
                             components: Iterable[int]) -> OperatorSpec:
    """Composition with one rigid motion per target component, the component
    given by its index in ``target.component_rows``."""
    motions, components = tuple(motions), tuple(components)
    if len(motions) != len(components):
        raise ValueError("each motion needs a component assignment")
    if len(motions) == 0:
        raise ValueError("a rigid operator needs at least one motion")
    comp_rows = target.component_rows
    pts = target.centers
    xi = np.empty_like(pts)
    g = np.empty(pts.shape[0])
    assigned: set[int] = set()
    for motion, comp in zip(motions, components):
        if motion.dim != target.dim:
            raise ValueError("motion dimension does not match the domains")
        if comp not in range(len(comp_rows)):
            raise ValueError(f"component index {comp} out of range")
        if (ci := int(comp)) in assigned:
            raise ValueError(f"component {ci} has two motions assigned")
        assigned.add(ci)
        rows = comp_rows[ci]
        xi[rows] = motion.transform(pts[rows])
        g[rows] = float(motion.sign)
    if missing := sorted(set(range(len(comp_rows))) - assigned):
        raise ValueError(f"components {missing} have no motion assigned")
    return OperatorSpec(source, target, g, xi)


def rigid_operator(target: GridDomain, motion: RigidMotion,
                   source: GridDomain | None = None) -> OperatorSpec:
    """Composition with one rigid motion of the whole target domain."""
    if source is None:
        source = apply_rigid_motion(target, motion)
    if motion.dim != target.dim:
        raise ValueError("motion dimension does not match the domains")
    return OperatorSpec(source, target, np.full(target.n_cells, float(motion.sign)),
                        motion.transform(target.centers))


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
    axis_deviation: float  # max |g_j - g_0| off the zero set, 0.0 in 1D

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

    def image(j, sg):  # formed exactly at the nodes, or sent through the black box
        if isinstance(op, OperatorSpec):
            try:  # the Field formed rejects the image where the weight times the probe overflowed
                with np.errstate(over="ignore", invalid="ignore"):
                    return apply_to_function(op, lambda x: np.exp(sg * alpha * x[:, j])).values
            except ValueError:
                raise ValueError(f"the probe image along axis {j}, the weight times "
                                 f"exp({sg:+d} * {alpha:.6g} xi_{j}), overflows") from None
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
        with np.errstate(over="ignore"):  # the images are finite, so only overflow is left
            prod = vp * vm
        if not np.isfinite(prod).all():
            node = tuple(map(float, omega2.centers[np.argmin(np.isfinite(prod))]))
            raise ValueError(f"the product of the probe images along axis {j}, the squared "
                             f"weight, overflows at the target node {node}")
        ok = prod > 0.0
        zero |= ~ok
        g_j = np.zeros(n)
        g_j[ok] = np.sign(vp[ok]) * np.sqrt(prod[ok])
        xi[ok, j] = np.log(vp[ok] / vm[ok]) / (2.0 * alpha)
        g_axes.append(g_j)
    if zero.all():
        raise ValueError("probe images vanish everywhere; not a composition operator on this grid")
    g_hat = g_axes[0]
    deviation = _worst([0.0, *(np.abs(g_j - g_hat)[~zero].max() for g_j in g_axes[1:])])
    g_hat[zero] = 0.0
    xi[zero] = 0.0
    return ReconstructionResult(Field(omega2, g_hat), VectorField(omega2, xi), zero, deviation)


# -- rigid-motion fitting ---------------------------------------------------------


@dataclass(frozen=True)
class RigidFitReport:
    """Per-component rigid motions and global smoothness defects of a fit."""

    motions: tuple[RigidMotion, ...]
    orthogonality_defect: float  # max |xi'^T xi' - I|
    grad_g_defect: float         # max |grad g|
    weight_defect: float         # max ||g| - 1|
    rigid: bool
    c_range: tuple[float, float]  # min and max of |grad xi_0|

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["motions"] = [m.to_json_dict() for m in self.motions]
        return out


def _component_motion(rec: ReconstructionResult, rows: np.ndarray) -> RigidMotion:
    """The rigid motion nearest, in least squares, to the map on a component's usable cells."""
    rows = rows[~rec.zero_mask[rows]]
    X, Y = rec.g_hat.domain.centers[rows], rec.xi_hat.values[rows]
    if rows.size < X.shape[1] + 1:
        raise ValueError(f"component with {rows.size} usable cells is too small to fit a motion")
    xm, ym = X.mean(axis=0), Y.mean(axis=0)
    U, _, Vt = np.linalg.svd((Y - ym).T @ (X - xm))  # the d x d cross-covariance
    Q = U @ Vt
    sign = 1 if float(rec.g_hat.values[rows].mean()) >= 0.0 else -1
    return RigidMotion(Q, ym - Q @ xm, sign)


def rigid_motion_fit(rec: ReconstructionResult) -> RigidFitReport:
    """Orthogonal Procrustes (Kabsch, Umeyama), one motion per component.

    Each ``Q`` is U V^T from the SVD of the component's centred cross-covariance,
    with no determinant correction, as reflections are isometries too.  Defects are
    finite differences away from the reconstruction zero set; ``rigid`` records
    whether the Jacobian orthogonality defect stays within ``_RIGID_ORTHO_TOL``.
    """
    omega2 = rec.g_hat.domain
    dim = omega2.dim
    xi = rec.xi_hat.values
    motions = [_component_motion(rec, rows) for rows in omega2.component_rows]

    # gradient stencils reach two cells, so keep that much distance from the
    # zero set; prefer cells clear of the boundary layer, where one-sided
    # stencils on interpolated data would pollute the Jacobian at O(1)
    away_from_zero = ~_gd.dilate_mask(omega2, rec.zero_mask, 2)
    fd_ok = away_from_zero & ~omega2.boundary_layer_mask(2)
    if not fd_ok.any():
        fd_ok = away_from_zero
    if not fd_ok.any():
        raise ValueError("zero set leaves no cells for defect evaluation")
    # per row block: the Jacobian (b, i, d) = d xi_i / d y_d, and block extremes of
    # |grad xi_0| and of both defects over fd_ok (exact, and numpy keeps NaN)
    xi_fields = [Field(omega2, xi[:, i]) for i in range(dim)]
    c_min, c_max, ortho_max, grad_g_max = [], [], [], []
    for blk in _gd.row_blocks(omega2.n_cells):
        jac = np.stack([gradient_rows(f, blk) for f in xi_fields], axis=1)
        c = np.linalg.norm(jac[:, 0, :], axis=1)
        c_min.append(c.min())
        c_max.append(c.max())
        if (ok := fd_ok[blk]).any():
            jtj = np.einsum("nid,nie->nde", jac, jac)
            ortho_max.append(np.abs(jtj - np.eye(dim)).max(axis=(1, 2))[ok].max())
            grad_g_max.append(np.linalg.norm(gradient_rows(rec.g_hat, blk), axis=1)[ok].max())
    ortho = _worst(ortho_max)
    weight = float(np.abs(np.abs(rec.g_hat.values[~rec.zero_mask]) - 1.0).max())
    return RigidFitReport(tuple(motions), ortho, _worst(grad_g_max), weight,
                          rigid=ortho <= _RIGID_ORTHO_TOL,
                          c_range=(float(np.min(c_min)), _worst(c_max)))


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


@dataclass(frozen=True)
class DefectSets:
    """How much the reconstructed map misses, on both sides."""

    n2_cells: int       # target cells mapped outside the source (or unreadable)
    n1_measure: float   # source measure left uncovered by the image


def defect_sets(rec: ReconstructionResult, omega1: GridDomain) -> DefectSets:
    """Measure what the reconstructed map misses on both sides.

    ``n2_cells`` counts the target cells whose reconstructed image misses the
    source; ``n1_measure`` is the source measure outside the rasterized image of
    the others (three subsamples per axis, interpolated map).
    """
    omega2 = rec.g_hat.domain
    inside = ~rec.zero_mask  # then narrowed to the cells mapped into omega1
    for blk in _gd.row_blocks(omega2.n_cells):
        inside[blk] &= omega1.contains_points(rec.xi_hat.values[blk])
    if not inside.any():
        raise ValueError("no target cell maps into the source domain")
    n2 = omega2.n_cells - int(np.count_nonzero(inside))
    hit = _supersampled_image(omega1, omega2, np.flatnonzero(inside), rec.xi_hat.at)[0]
    if not hit.any():  # an empty image is an empty domain
        raise ValueError("a domain must contain at least one cell")
    n1 = omega1.measure - int(np.count_nonzero(hit)) * omega1.h**omega1.dim
    return DefectSets(n2, n1)


# -- congruence pipeline --------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of reconstruct -> rigid fit -> defect sets -> tiling check.

    The verdict ``reason`` is the first gate whose value is not ``<= tol``, so a
    NaN value or tolerance fails it.  The regularity pair is the paper's
    hypothesis: reported, not gated.
    """

    tol: float
    # per target component, in component order: its (lo, hi) box, that box's image, the motion
    pairing: tuple[tuple[tuple, tuple, RigidMotion], ...]
    gates: tuple[tuple[str, float], ...]  # (reason, value), in the order the verdict reads them
    source_regular: bool
    target_regular: bool
    motions = property(lambda self: tuple(motion for _, _, motion in self.pairing))
    reason = property(lambda self: next(
        (name for name, value in self.gates if not value <= self.tol), "congruent"))
    congruent = property(lambda self: self.reason == "congruent")

    def to_json_dict(self) -> dict:
        out = {"congruent": self.congruent, "reason": self.reason,
               **{f.name: getattr(self, f.name) for f in fields(self)}}
        out["pairing"] = [{"component_box": box, "image_box": image,
                           "motion": motion.to_json_dict()} for box, image, motion in self.pairing]
        out["gates"] = dict(self.gates)
        return out


def congruence_pipeline(T: OperatorSpec, p: float, tol: float) -> PipelineReport:
    """Decide congruence of source and target through the fitted motions.

    The verdict is positive when the reconstructed map is rigid per
    component (orthogonality, weight constancy and unimodularity within
    ``tol``), no mass is mapped outside the source or left uncovered
    beyond ``tol``, and the component images tile the source up to ``tol``.
    """
    rec = reconstruct(T, p=p)
    fit = rigid_motion_fit(rec)
    ds = defect_sets(rec, T.source)
    valid = ~rec.zero_mask
    # the fit and the defect sets hold motions and scalars only; the
    # reconstruction's n-sized arrays go before the topology checks allocate
    del rec
    regular = is_topologically_regular(T.source), is_topologically_regular(T.target)

    coverage = np.zeros(T.source.n_cells, dtype=np.int64)
    escaped_pts = 0
    pairing = []
    for rows, motion in zip(T.target.component_rows, fit.motions):
        hit, n_out = _supersampled_image(T.source, T.target, rows[valid[rows]], motion.transform)
        coverage += hit
        escaped_pts += n_out
        cells = T.target.cells[rows]
        box = tuple(tuple(map(float, end)) for end in _gd.physical_box(
            T.target.origin, T.target.h, cells.min(axis=0), cells.max(axis=0)))
        image = tuple(tuple(map(float, end)) for end in motion.image_box(*box))
        pairing.append((box, image, motion))

    cell1 = T.source.h**T.source.dim
    cell2 = T.target.h**T.target.dim
    missing = float(np.count_nonzero(coverage == 0)) * cell1
    overlap = float(np.count_nonzero(coverage >= 2)) * cell1
    escaped = escaped_pts * cell2 / 3**T.target.dim
    gates = (
        ("non-rigid xi", fit.orthogonality_defect),
        ("non-constant weight", fit.grad_g_defect),
        ("weight magnitude differs from 1", fit.weight_defect),
        ("target cells map outside the source", ds.n2_cells * cell2),
        ("source not covered by the image", ds.n1_measure),
        ("component images do not tile the source", missing + overlap + escaped),
    )
    return PipelineReport(tol, tuple(pairing), gates, *regular)


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


# -- JSON loading -----------------------------------------------------------------------


def operator_from_spec(spec: dict, target: GridDomain | None = None,
                       base_dir=None) -> OperatorSpec:
    """Build an operator from its JSON description, which names exactly one form:
    ``{"builtin": name}``, ``{"rigid": [{"Q": ..., "b": ..., "sign": 1, "component": 0}]}``
    or ``{"tabulated": {"g": "g.csv", "xi": "xi.csv"}}``.  Every form reads its domains
    here: the target is the given ``target``, else the spec's ``"target"``, else the
    builtin's; the source is the spec's ``"source"``, else the builtin's (the identity's
    is its target), else the rigid image or the tabulated map's bounding box.
    """
    spec = _gd._json_value(spec, "an object", "operator spec")
    forms = [key for key in ("builtin", "rigid", "tabulated") if key in spec]
    if len(forms) != 1:
        raise ValueError(f"an operator spec needs one of builtin/rigid/tabulated, got {forms}")
    _gd._json_object(spec, "operator spec", (*forms, "source", "target", "h"))
    h = _gd._json_value(spec.get("h"), "a finite number or null", "h")
    named = (None, None)  # the builtin's own (source, target) domain names
    if "builtin" in spec:
        name = _gd._json_value(spec["builtin"], "a string", "builtin")
        if name not in _BUILTIN_OPERATORS:
            raise ValueError(f"unknown builtin operator {name!r}")
        named = _BUILTIN_OPERATORS[name][0]
    src, tgt = (spec[key] if key in spec else own for key, own in zip(("source", "target"), named))
    if target is None and tgt is not None:
        target = _gd.domain_from_spec(tgt, default_h=h)
    if target is None:
        raise ValueError(f"the {forms[0]!r} operator spec needs a target domain")
    source = None if src is None else _gd.domain_from_spec(src, default_h=h)

    if "builtin" in spec:
        return _closed_form(name, (target if source is None else source, target))

    if "rigid" in spec:
        entries = _gd._json_value(spec["rigid"], "an array", "rigid")
        motions = tuple(RigidMotion.from_json_dict(entry, "rigid entry", (
            "Q", "b", "sign", "component")) for entry in entries)
        components = tuple(_gd._json_value(entry.get("component"), "an integer or null",
                                           "component") for entry in entries)
        if len(motions) == 1 and components[0] is None:
            return rigid_operator(target, motions[0], source)
        if source is None:
            raise ValueError("per-component rigid specs need an explicit source domain")
        return piecewise_rigid_operator(source, target, motions, components)

    tab = _gd._json_object(spec["tabulated"], "tabulated", ("g", "xi"))
    g_path, xi_path = (os.path.join(base_dir or "", _gd._json_value(tab.get(k), "a string", k))
                       for k in ("g", "xi"))
    g = Field.from_csv(g_path, target)
    xi = VectorField.from_csv(xi_path, target)
    if source is None:
        lo = xi.values.min(axis=0) - target.h
        hi = xi.values.max(axis=0) + target.h
        source = _gd.make_box(tuple(lo), tuple(hi), target.h)
    return OperatorSpec(source, target, g.values, xi.values)
