"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from sil import (
    Field,
    RigidMotion,
    apply,
    bump,
    defect_sets,
    disjointness_defect,
    example_4_8_operator,
    example_5_4_operator,
    identity_operator,
    intertwining_defect,
    make_box,
    make_fat_cantor_complement,
    reconstruct,
    rigid_operator,
    w1p_norm,
)
from sil.suites import SuiteConfig, disjoint_bump_pairs, intertwining_trials, run_suite


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _checks_of(cfg: SuiteConfig) -> dict:
    """A suite's check records by check name."""
    return {c["check"]: c for c in run_suite(cfg)}


def test_criterion_1_paper_numeric_check():
    start = time.perf_counter()
    h = 1e-4
    T = example_4_8_operator(h)
    one = Field.constant(T.source, 1.0)
    norm_sq = w1p_norm(apply(T, one), 2.0) ** 2
    measure = T.source.measure
    elapsed = time.perf_counter() - start
    ok = (abs(norm_sq - 23.66) <= 0.05 and abs(measure - 0.118) <= 0.001
          and elapsed < 1.0)
    verdict(1, ok, f"norm_sq_T1={norm_sq:.4f} omega1_measure={measure:.4f} "
                   f"runtime={elapsed:.3f}s")


def test_criterion_2_intertwining_halves_under_refinement():
    defects = {}
    for h in (1e-3, 5e-4):
        T = example_4_8_operator(h)
        trials = intertwining_trials(T, np.random.default_rng(11), 20)
        defects[h] = intertwining_defect(T, trials, 2.0)
    within_bound = all(defects[h] <= 10 * h for h in defects)
    # refinement must cut the defect by at least roughly half; the scheme is
    # second order, so the observed drop is faster
    ratio = defects[1e-3] / defects[5e-4]
    ok = within_bound and ratio >= 1.6
    verdict(2, ok, f"defect(1e-3)={defects[1e-3]:.3e} "
                   f"defect(5e-4)={defects[5e-4]:.3e} ratio={ratio:.2f}")


def test_criterion_3_gateaux_calculus():
    # p in {2.5, 3, 4}, 20 draws each
    checks = _checks_of(SuiteConfig("norm-calculus", h=0.02, seed=7))
    assert {"norm_quotient_slope", "form_quotient_slope"} <= checks.keys()
    min_slope = min(checks["norm_quotient_slope"]["slope"],
                    checks["form_quotient_slope"]["slope"])
    worst_rel = max(checks["norm_quotient_accuracy_smallest_s"]["defect"],
                    checks["form_quotient_accuracy_smallest_s"]["defect"])
    ok = min_slope >= 0.8 and worst_rel <= 1e-3
    verdict(3, ok, f"min_slope={min_slope:.3f} worst_rel_error={worst_rel:.2e}")


def test_criterion_4_clarkson_sweep():
    # p in {1.5, 2, 3, 4}, 1,000 random vector-field pairs each on a 20x20 grid
    start = time.perf_counter()
    checks = _checks_of(SuiteConfig("clarkson", h=0.05, seed=7))
    elapsed = time.perf_counter() - start
    # below p = 2 the max slack is at most 0; above, the min slack is at least 0;
    # at p = 2 both, since the parallelogram law is an equality
    names = ("clarkson_upper_p1.5", "clarkson_equality_p2", "clarkson_lower_p3",
             "clarkson_lower_p4")
    assert checks.keys() == set(names)
    defects = {name: checks[name]["defect"] for name in names}
    ok = all(d <= 1e-12 for d in defects.values()) and elapsed < 10.0
    verdict(4, ok, f"defects={defects} runtime={elapsed:.2f}s")


def test_criterion_5_weak_solution_residual_decay():
    # dims 1 and 2, p in {2, 3}, h in {1e-2, 5e-3, 2.5e-3}, 20 test bumps per grid
    ratios = [c["ratio"] for c in run_suite(SuiteConfig("plaplace", h=1e-2, seed=42))
              if c["check"].startswith("probe_residual_decay_")]
    assert len(ratios) == 4
    worst_ratio = min(ratios)
    ok = worst_ratio >= 1.8
    verdict(5, ok, f"worst decay factor per halving={worst_ratio:.2f}")


def test_criterion_6_reconstruction_round_trip():
    h = 0.01
    checks = _checks_of(SuiteConfig("reconstruction", h=h, seed=7))
    worst_xi = checks["rigid_roundtrip_map"]["defect"]
    worst_weight = checks["rigid_roundtrip_weight"]["defect"]
    worst_ortho = checks["rigid_roundtrip_orthogonality"]["defect"]
    cf_err = checks["hyperbolic_closed_form"]["defect"]
    hyperbolic_rigid = checks["hyperbolic_not_rigid"]["orthogonality"] <= 0.1
    ok = (worst_xi <= 2 * h and worst_weight <= 1e-8 and worst_ortho <= 1e-8
          and cf_err <= 1e-6 and not hyperbolic_rigid)
    verdict(6, ok, f"xi_err={worst_xi:.2e} weight={worst_weight:.2e} "
                   f"ortho={worst_ortho:.2e} closed_form_err={cf_err:.2e} "
                   f"hyperbolic_rigid={hyperbolic_rigid}")


def test_criterion_7_two_block_congruence_pipeline():
    # the two-block operator through the pipeline at p = 3 and tol = 4h
    h = 0.01
    checks = _checks_of(SuiteConfig("congruence", h=h))
    pipeline = checks["pipeline_verdict"]
    congruent = pipeline["status"] == "pass"
    shift_err = max(
        float(np.abs(np.subtract(pipeline["pairing"][0]["motion"]["b"], [0.0, 1.0])).max()),
        float(np.abs(np.subtract(pipeline["pairing"][1]["motion"]["b"], [0.0, -1.0])).max()))
    n2 = checks["image_defect_measure"]["defect"]  # 0 exactly when n2_cells == 0
    n1 = checks["uncovered_source_measure"]["defect"]
    ok = (congruent and pipeline["n_components"] == 2 and shift_err <= 2 * h
          and n2 == 0.0 and n1 <= 2 * h)
    verdict(7, ok, f"components={pipeline['n_components']} shift_err={shift_err:.2e} "
                   f"n2={n2:.2e} n1={n1:.2e} verdict={congruent}")


def test_criterion_8_fat_cantor_positive_defect():
    h = 1e-4
    source = make_box(0.0, 1.0, h)
    target = make_fat_cantor_complement(0.5, h)
    T = rigid_operator(target, RigidMotion.identity(1), source=source)
    ds = defect_sets(reconstruct(T, p=2.0), source)
    ok = abs(ds.n1_measure - 0.5) <= 0.02 and ds.n2_cells == 0
    verdict(8, ok, f"n1_measure={ds.n1_measure:.4f} n2_cells={ds.n2_cells}")


def test_criterion_9_disjointness(averaging_operator):
    rng = np.random.default_rng(7)
    worst = 0.0
    operators = [
        identity_operator(make_box((0.0, 0.0), (1.0, 1.0), 0.01)),
        example_5_4_operator(0.01),
        rigid_operator(make_box((0.0, 0.0), (1.0, 1.0), 0.01),
                       RigidMotion.rotation(math.pi / 2, b=(1.0, 0.0))),
    ]
    for T in operators:
        pairs = disjoint_bump_pairs(T.source, rng, 20)
        worst = max(worst, disjointness_defect(T, pairs, 3.0))
    domain = make_box(0.0, 1.0, 0.005)
    avg = averaging_operator(domain)
    counter = disjointness_defect(
        avg, [(bump(domain, 0.3, 0.15), bump(domain, 0.7, 0.15))], 3.0)
    ok = worst == 0.0 and counter > 0.1
    verdict(9, ok, f"composition_defect={worst} averaging_defect={counter:.3f}")
