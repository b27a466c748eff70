"""Named verification suites and the seeded sample batteries they run on.

Each suite returns a list of check records, one per verified claim, with the
measured defect and its tolerance.  All randomness flows through one seeded
generator so a fixed configuration reproduces the report byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .field import (
    Field,
    VectorField,
    _worst,
    ball_fits,
    bump,
    exponential_probe,
    hat,
    random_smooth_field,
    w1p_norm,
    w1p_pow_sum,
)
from .forms import (
    clarkson_check,
    form_a,
    form_b,
    gateaux_check_form,
    gateaux_check_norm,
    plap_residual,
)
from .grid_domain import GridDomain, make_box, random_rigid_motion
from .operators import (
    OperatorSpec,
    ReconstructionResult,
    apply,
    congruence_pipeline,
    defect_sets,
    disjointness_defect,
    example_4_8_operator,
    example_5_4_operator,
    intertwining_defect,
    isometry_defect,
    operator_from_spec,
    preimage_field,
    reconstruct,
    rigid_motion_fit,
    rigid_operator,
)

@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one verification run."""

    suite: str
    p: float | None = None
    h: float | None = None
    tol: float | None = None
    seed: int = 7
    spec_path: str | None = None

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if self.p is not None:  # Clarkson's inequality holds from p = 1, the rest need p > 1
            lo, ok = ("[1", self.p >= 1) if self.suite == "clarkson" else ("(1", self.p > 1)
            if not (ok and self.p < np.inf):
                raise ValueError(f"p must lie in {lo}, inf), got {self.p}")
        if self.h is not None and not (self.h > 0):
            raise ValueError("h must be positive")
        if self.tol is not None and not (0 < self.tol < np.inf):
            raise ValueError("tol must lie in (0, inf)")
        if self.suite != "congruence" and (self.tol is not None or self.spec_path is not None):
            raise ValueError("tol and spec apply only to the congruence suite")
        if self.h is not None and self.spec_path is not None:
            raise ValueError("h cannot be given with a spec, which sets the grid")


def _check(name: str, claim: str, defect: float, tol: float, **extra) -> dict:
    rec = {"check": name, "claim": claim, "defect": float(defect),
           "tol": float(tol), "status": "pass" if defect <= tol else "fail"}
    rec.update(extra)
    return rec


# -- sample batteries ---------------------------------------------------------


def smooth_samples(domain: GridDomain, rng: np.random.Generator, n: int,
                   amplitude: float = 1.0) -> Iterator[Field]:
    return (random_smooth_field(domain, rng, amplitude=amplitude) for _ in range(n))


def gateaux_sample_triple(domain: GridDomain, rng: np.random.Generator,
                          p: float) -> tuple[Field, Field, Field]:
    """One (u, v, w) draw for the derivative checks.

    The directions are tilted toward the base point after normalizing, which
    keeps the first-order references |p a(u,v)| and |b(u,v,w)| bounded away
    from zero; with fully independent draws those references can be
    arbitrarily small against the curvature term and a relative error bound
    would be meaningless.
    """
    u = random_smooth_field(domain, rng)
    u = (1.0 / w1p_norm(u, p)) * u
    v_raw = random_smooth_field(domain, rng)
    v = 0.5 * u + (0.1 / w1p_norm(v_raw, p)) * v_raw
    w_raw = random_smooth_field(domain, rng)
    w = 0.6 * v + (0.06 / w1p_norm(w_raw, p)) * w_raw
    return u, v, w


def disjoint_bump_pairs(domain: GridDomain, rng: np.random.Generator,
                        n: int) -> list[tuple[Field, Field]]:
    """Pairs of bumps with disjoint balls 4 cells apart, from at most 2,000 candidates."""
    lo, hi = domain.bounding_box
    span = float(np.min(hi - lo))
    gap = 4 * domain.h
    pairs = []
    tries = 0
    while len(pairs) < n:
        tries += 1
        if tries > 2000:
            raise ValueError("could not place disjoint bump pairs in the domain")
        r1 = span * rng.uniform(0.08, 0.14)
        r2 = span * rng.uniform(0.08, 0.14)
        c1 = domain.centers[rng.integers(domain.n_cells)]
        c2 = domain.centers[rng.integers(domain.n_cells)]
        if np.linalg.norm(c1 - c2) < r1 + r2 + gap:
            continue
        if not (ball_fits(domain, c1, r1) and ball_fits(domain, c2, r2)):
            continue
        pairs.append((bump(domain, c1, r1), bump(domain, c2, r2)))
    return pairs


@dataclass(frozen=True)
class _TestBumps:
    """Seeded interior test bumps, each built only when iteration reaches it.

    Unlike a generator it has a length, so a caller can count the tests.
    """

    domain: GridDomain
    seed: int

    def __len__(self) -> int:
        return 20

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        for _ in range(len(self)):
            c = rng.uniform(0.3, 0.7, size=self.domain.dim)  # c is drawn before r
            yield bump(self.domain, c, rng.uniform(0.1, 0.25))


_TRIAL_SHAPES = (
    lambda t: np.ones(t.shape[0]),
    lambda t: t[:, 0],
    lambda t: np.exp(t[:, 0]),
    lambda t: np.cos(3.0 * t[:, 0]),
    lambda t: t.sum(axis=1) ** 2,
    lambda t: np.sin(5.0 * t[:, 0]) + (t[:, -1] if t.shape[1] > 1 else 0.0),
)


def intertwining_trials(T: OperatorSpec, rng: np.random.Generator,
                        n: int) -> list[tuple[Field, Field]]:
    """(u, v) trial pairs: cycled smooth u, compact tent v of height 0.1 whose
    half-widths are 0.12 to 0.28 of the source's bounding-box sides.

    Of at most 1,000 candidates, each is rejected unless both support
    conditions hold: v vanishes on the source boundary layer and T v vanishes
    on the target boundary layer.
    The second condition is a genuine restriction, e.g. when the map glues
    several target components onto one source region a tent crossing the
    seam has a non-compact image.
    """
    src = T.source
    lo, hi = src.bounding_box
    scale = hi - lo
    src_mask = src.boundary_layer_mask()
    tgt_mask = T.target.boundary_layer_mask()
    margin = 0.03 + 3.0 * src.h / float(scale.min())
    trials = []
    for _ in range(1000):
        if len(trials) == n:
            break
        wf = rng.uniform(0.12, 0.28, size=src.dim)
        cf = np.array([rng.uniform(w + margin, 1.0 - w - margin) for w in wf])
        v = 0.1 * hat(src, lo + scale * cf, scale * wf)
        if np.any(v.values[src_mask] != 0.0) or not v.values.any():
            continue
        tv = apply(T, v)
        if np.any(tv.values[tgt_mask] != 0.0):
            continue
        shape = _TRIAL_SHAPES[len(trials) % len(_TRIAL_SHAPES)]
        u = Field.from_function(src, lambda x: shape((x - lo) / scale))
        trials.append((u, v))
    if len(trials) < n:
        raise ValueError("could not generate admissible intertwining trials")
    return trials


def random_rigid_operator(rng: np.random.Generator, h: float) -> OperatorSpec:
    """Seeded rigid operator on a random box of sides in [0.4, 0.8), for round-trip sweeps."""
    extent = rng.uniform(0.4, 0.8, size=2)
    target = make_box((0.0, 0.0), tuple(extent), h)
    motion = random_rigid_motion(2, rng)
    return rigid_operator(target, motion)


def operator_defect_report(T: OperatorSpec, p: float, rng: np.random.Generator
                           ) -> tuple[dict, ReconstructionResult]:
    """Run every per-operator battery once and collect the aggregate defects, one
    report key each; the probe reconstruction they were measured on comes back too."""
    # each battery goes straight to its consumer, so it is freed before the next
    iso = isometry_defect(T, smooth_samples(T.source, rng, 20, amplitude=0.5), p)
    dis = disjointness_defect(T, disjoint_bump_pairs(T.source, rng, 10), p)
    itw = intertwining_defect(T, intertwining_trials(T, rng, 10), p)
    rec = reconstruct(T, p=p)
    fit = rigid_motion_fit(rec)
    ds = defect_sets(rec, T.source)
    return {"isometry": iso, "disjointness": dis, "intertwining": itw,
            "orthogonality": fit.orthogonality_defect, "grad_g": fit.grad_g_defect,
            "weight": fit.weight_defect, "n1_measure": ds.n1_measure,
            "n2_cells": ds.n2_cells}, rec


def _closed_form_error(rec: ReconstructionResult, T: OperatorSpec) -> float:
    """Sup error of a probe-reconstructed (g, xi) against the operator's exact nodal values."""
    return _worst([np.abs(rec.g_hat.values - T.g_values).max(),
                   np.abs(rec.xi_hat.values - T.xi_values).max()])


# -- suites -------------------------------------------------------------------


def suite_norm_calculus(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.h or 0.02
    grid = make_box((0.0, 0.0), (1.0, 1.0), h)
    ladder = (1e-2, 1e-3, 1e-4, 1e-5)
    p_values = (cfg.p,) if cfg.p else (2.5, 3.0, 4.0)
    checks = []
    # per sample; a reference too small to divide by contributes 0.0
    diag, lin, rel_norm, rel_form, slope_norm, slope_form = ([] for _ in range(6))
    for p in p_values:
        for _ in range(20):
            u, v, w = gateaux_sample_triple(grid, rng, p)
            diag.append(abs(form_a(u, u, p) - w1p_pow_sum(u, p)))
            a1 = form_a(u, 2.0 * v + (-3.0) * w, p)
            a2 = 2.0 * form_a(u, v, p) - 3.0 * form_a(u, w, p)
            lin.append(abs(a1 - a2) / max(abs(a2), 1e-30))
            rep_n = gateaux_check_norm(u, v, p, ladder)
            ref_n = abs(p * form_a(u, v, p))
            slope_norm.append(rep_n.slope)
            rel_norm.append(rep_n.errors[-1] / ref_n if ref_n > 1e-6 else 0.0)
            if p > 2.0:
                rep_f = gateaux_check_form(u, v, w, p, ladder)
                ref_f = abs(form_b(u, v, w, p))
                slope_form.append(rep_f.slope)
                rel_form.append(rep_f.errors[-1] / ref_f if ref_f > 1e-6 else 0.0)
    checks.append(_check("form_diagonal_equals_norm_power",
                         "first-derivative-form-diagonal", _worst(diag), 1e-12))
    checks.append(_check("form_linearity_in_second_argument",
                         "first-derivative-form-linearity", _worst(lin), 1e-10))
    checks.append(_check("norm_quotient_accuracy_smallest_s",
                         "norm-gateaux-first-order", _worst(rel_norm), 1e-3))
    min_slope = float(np.min(slope_norm))
    checks.append(_check("norm_quotient_slope",
                         "norm-gateaux-first-order", 0.8 - min_slope, 0.0, slope=min_slope))
    if slope_form:
        checks.append(_check("form_quotient_accuracy_smallest_s",
                             "form-gateaux-first-order", _worst(rel_form), 1e-3))
        min_slope = float(np.min(slope_form))
        checks.append(_check("form_quotient_slope",
                             "form-gateaux-first-order", 0.8 - min_slope, 0.0,
                             slope=min_slope))
    return checks


def suite_clarkson(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.h or 0.05
    grid = make_box((0.0, 0.0), (1.0, 1.0), h)
    p_values = (cfg.p,) if cfg.p else (1.5, 2.0, 3.0, 4.0)
    checks = []
    for p in p_values:
        slack = np.empty(1000)
        for i in range(slack.size):
            f = VectorField(grid, rng.normal(0.0, 1.0, (grid.n_cells, grid.dim)))
            g = VectorField(grid, rng.normal(0.0, 1.0, (grid.n_cells, grid.dim)))
            slack[i] = clarkson_check(f, g, p)
        # clamped at zero: low stays +0.0 when no slack is negative, so the p > 2
        # check reports -low = -0.0; numpy's minimum and maximum propagate NaN
        low = float(np.minimum(0.0, slack.min()))
        high = float(np.maximum(0.0, slack.max()))
        if p == 2.0:
            checks.append(_check("clarkson_equality_p2", "parallelogram-law",
                                 max(abs(low), abs(high)), 1e-12))
        elif p > 2.0:
            checks.append(_check(f"clarkson_lower_p{p:g}",
                                 "clarkson-sum-inequality", -low, 1e-12))
        else:
            checks.append(_check(f"clarkson_upper_p{p:g}",
                                 "clarkson-sum-inequality", high, 1e-12))
    return checks


def suite_plaplace(cfg: SuiteConfig) -> list[dict]:
    h0 = cfg.h or 1e-2
    p_values = (cfg.p,) if cfg.p else (2.0, 3.0)
    checks = []
    for dim in (1, 2):
        for p in p_values:
            residuals = []
            for k in range(3):
                h = h0 / 2**k
                domain = make_box((0.0,) * dim, (1.0,) * dim, h)
                probe = exponential_probe(domain, 0, 1, p)
                residuals.append(plap_residual(probe, p, _TestBumps(domain, cfg.seed)))
            worst_ratio = float(np.min(np.divide(residuals[:-1], residuals[1:])))
            checks.append(_check(
                f"probe_residual_decay_{dim}d_p{p:g}",
                "probe-weak-solution-residual-decay",
                1.8 - worst_ratio, 0.0,
                residuals=residuals, ratio=worst_ratio))
    domain = make_box(0.0, 1.0, h0)
    stall = plap_residual(Field.constant(domain, 1.0), 2.0,
                          [bump(domain, 0.5, 0.4)])
    checks.append(_check("constant_residual_stalls", "non-solution-residual-stalls",
                         0.1 - stall, 0.0, residual=stall))
    return checks


def suite_examples(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p or 2.0
    h = cfg.h or 1e-4
    checks = []

    T = example_4_8_operator(h)
    one = Field.constant(T.source, 1.0)
    norm_sq = w1p_norm(apply(T, one), 2.0) ** 2
    checks.append(_check("norm_sq_T1", "not-an-isometry",
                         abs(norm_sq - 23.66), 0.05, value=norm_sq))
    checks.append(_check("omega1_measure", "image-domain-measure",
                         abs(T.source.measure - 0.118), 0.001,
                         value=T.source.measure))
    gap = isometry_defect(T, [one], 2.0)
    checks.append(_check("isometry_gap_T1", "not-an-isometry",
                         abs(gap - 4.52), 0.01, value=gap))

    h_int = 1e-3
    T_int = example_4_8_operator(h_int)
    defect = intertwining_defect(T_int, intertwining_trials(T_int, rng, 20), 2.0)
    checks.append(_check("intertwining_defect_hyperbolic",
                         "intertwines-plaplace-form", defect, 10.0 * h_int,
                         h=h_int, constant=defect / h_int))

    # the reconstruction and fit inside the p = 2 defect report are the ones these checks need
    report_48, rec_48 = operator_defect_report(T_int, 2.0, np.random.default_rng(cfg.seed))
    checks.append(_check("reconstruction_matches_closed_form",
                         "probe-reconstruction-roundtrip", _closed_form_error(rec_48, T_int), 1e-6))
    checks.append(_check("hyperbolic_map_not_rigid", "map-locally-rigid-fails",
                         0.5 - report_48["orthogonality"], 0.0,
                         orthogonality=report_48["orthogonality"],
                         grad_g=report_48["grad_g"]))

    h54 = 0.01
    T54 = example_5_4_operator(h54)
    iso = isometry_defect(T54, smooth_samples(T54.source, rng, 50, amplitude=0.5), 3.0)
    checks.append(_check("two_block_isometry", "isometric-lattice-homomorphism",
                         iso, 5.0 * h54))
    dis = disjointness_defect(T54, disjoint_bump_pairs(T54.source, rng, 20), 3.0)
    checks.append(_check("two_block_disjointness", "disjointness-preserving",
                         dis, 0.0))
    fit54 = rigid_motion_fit(reconstruct(T54, p=p))
    phi = bump(T54.target, (0.5, 1.5), 0.2)
    w, covered = preimage_field(T54, phi, fit54)
    resid = float(np.abs(apply(T54, w).values - phi.values).max()) if covered.all() else math.inf
    checks.append(_check("two_block_preimage_solvable", "zero-trace-image-onto",
                         resid, 5.0 * h54, covered=bool(covered.all())))

    report_54 = operator_defect_report(T54, 3.0, np.random.default_rng(cfg.seed))[0]
    checks.append(_check("defect_report_hyperbolic", "operator-defect-summary", 0.0, 0.0,
                         report=report_48))
    checks.append(_check("defect_report_two_block", "operator-defect-summary", 0.0, 0.0,
                         report=report_54))
    return checks


def suite_reconstruction(cfg: SuiteConfig) -> list[dict]:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.h or 0.01
    p_values = (cfg.p,) if cfg.p else (2.0, 3.0)
    checks = []
    xi_err, weight, ortho, axis_dev = ([] for _ in range(4))
    for i in range(10):
        T = random_rigid_operator(rng, h)  # always 2D, so both probe axes exist
        p = p_values[i % len(p_values)]
        rec = reconstruct(T, p=p)
        xi_err.append(np.abs(rec.xi_hat.values - T.xi_values).max(axis=1)[~rec.zero_mask].max())
        fit = rigid_motion_fit(rec)
        weight.append(fit.weight_defect)
        ortho.append(fit.orthogonality_defect)
        axis_dev.append(rec.axis_deviation)
    checks.append(_check("rigid_roundtrip_map", "probe-reconstruction-roundtrip",
                         _worst(xi_err), 2.0 * h))
    checks.append(_check("rigid_roundtrip_weight", "weight-locally-unimodular",
                         _worst(weight), 1e-8))
    checks.append(_check("rigid_roundtrip_orthogonality", "map-jacobian-orthogonal",
                         _worst(ortho), 1e-8))
    checks.append(_check("weight_axis_independence", "weight-independent-of-probe-axis",
                         _worst(axis_dev), 1e-8))

    T = random_rigid_operator(np.random.default_rng(cfg.seed + 1), h)
    rec_bb = reconstruct(lambda u: apply(T, u), T.target, p=2.0, source=T.source)
    ok = ~rec_bb.zero_mask
    bb_err = float(np.abs(rec_bb.xi_hat.values - T.xi_values).max(axis=1)[ok].max())
    checks.append(_check("blackbox_roundtrip_map", "probe-reconstruction-roundtrip",
                         bb_err, 2.0 * h))

    T48 = example_4_8_operator()
    rec48 = reconstruct(T48, p=2.0)
    fit48 = rigid_motion_fit(rec48)
    checks.append(_check("hyperbolic_closed_form", "probe-reconstruction-roundtrip",
                         _closed_form_error(rec48, T48), 1e-6))
    checks.append(_check("hyperbolic_not_rigid", "map-locally-rigid-fails",
                         0.5 - fit48.orthogonality_defect, 0.0,
                         orthogonality=fit48.orthogonality_defect))
    return checks


def suite_congruence(cfg: SuiteConfig) -> list[dict]:
    p = cfg.p or 3.0
    # the two-block example by default; the JSON reader takes Python numbers only
    spec = {"builtin": "example_5_4", "h": None if cfg.h is None else float(cfg.h)}
    if cfg.spec_path:
        with open(cfg.spec_path) as fh:
            spec = json.load(fh)
    T = operator_from_spec(spec, base_dir=os.path.dirname(cfg.spec_path or "") or ".")
    tol = cfg.tol or 4.0 * T.target.h
    report = congruence_pipeline(T, p=p, tol=tol)
    gates = dict(report.gates)
    return [
        _check("pipeline_verdict", "domains-congruent-via-components",
               0.0 if report.congruent else 1.0, 0.0,
               reason=report.reason,
               pairing=report.to_json_dict()["pairing"],
               n_components=len(report.motions)),
        _check("image_defect_measure", "no-mass-maps-outside-source",
               gates["target cells map outside the source"], tol),
        _check("uncovered_source_measure", "image-dense-in-source",
               gates["source not covered by the image"], tol),
        _check("component_images_tile_source", "components-pair-off",
               gates["component images do not tile the source"], tol),
    ]


_SUITES = {
    "norm-calculus": suite_norm_calculus,
    "clarkson": suite_clarkson,
    "plaplace": suite_plaplace,
    "examples": suite_examples,
    "reconstruction": suite_reconstruction,
    "congruence": suite_congruence,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(cfg: SuiteConfig) -> list[dict]:
    return _SUITES[cfg.suite](cfg)
