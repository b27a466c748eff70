import contextlib
import dataclasses
import functools
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sil import (
    Field,
    GridDomain,
    OperatorSpec,
    RigidMotion,
    VectorField,
    apply,
    apply_with_flags,
    bump,
    congruence_pipeline,
    connected_components,
    defect_sets,
    disjointness_defect,
    example_4_8_operator,
    example_5_4_operator,
    form_a,
    gradient,
    identity_operator,
    intertwining_defect,
    isometry_defect,
    make_box,
    make_fat_cantor_complement,
    operator_from_spec,
    piecewise_rigid_operator,
    preimage_field,
    random_rigid_motion,
    random_smooth_field,
    reconstruct,
    rigid_motion_fit,
    rigid_operator,
    w1p_norm,
)
from sil import grid_domain, operators, suites
from sil.operators import _supersampled_image
from sil.suites import (
    _check,
    disjoint_bump_pairs,
    intertwining_trials,
    random_rigid_operator as random_rigid_operator_local,
    smooth_samples,
)


@pytest.fixture(scope="module")
def hyperbolic():
    return example_4_8_operator(1e-3)


@pytest.fixture(scope="module")
def two_block():
    return example_5_4_operator(0.01)


def hyperbolic_weight(y):
    return np.sqrt(np.sinh(2.0 * y))


def hyperbolic_map(y):
    return -np.arctanh(np.exp(-2.0 * y))


class TestApply:
    def test_identity(self):
        domain = make_box((0, 0), (1, 1), 0.02)
        T = identity_operator(domain)
        u = random_smooth_field(domain, np.random.default_rng(0))
        assert np.abs(apply(T, u).values - u.values).max() <= 1e-10

    def test_two_block_on_linear(self, two_block):
        u = Field.from_function(two_block.source, lambda x: x[:, 1])
        image = apply(two_block, u)
        y = two_block.target.centers[:, 1]
        assert np.abs(image.values - (y - np.sign(y))).max() <= 1e-12

    def test_hyperbolic_on_indicator(self, hyperbolic):
        image = apply(hyperbolic, Field.constant(hyperbolic.source, 1.0))
        expected = hyperbolic_weight(hyperbolic.target.centers[:, 0])
        assert np.abs(image.values - expected).max() <= 1e-12

    def test_out_of_reach_nodes_are_flagged(self):
        # inclusion of the full interval into a source with gaps
        source = make_fat_cantor_complement(0.5, 1e-3)
        target = make_box(0.0, 1.0, 1e-3)
        T = rigid_operator(target, RigidMotion.identity(1), source=source)
        image, flags = apply_with_flags(T, Field.constant(source, 1.0))
        assert flags.sum() > 0
        assert np.abs(image.values[flags]).max() == 0.0

    def test_wrong_domain_rejected(self, two_block):
        with pytest.raises(ValueError):
            apply(two_block, Field.constant(two_block.target, 1.0))


class TestIsometryDefect:
    def test_identity_zero(self):
        domain = make_box((0, 0), (1, 1), 0.05)
        T = identity_operator(domain)
        samples = smooth_samples(domain, np.random.default_rng(1), 10)
        assert isometry_defect(T, samples, 3.0) <= 1e-8

    def test_two_block_is_isometric(self, two_block):
        samples = smooth_samples(two_block.source, np.random.default_rng(2), 50,
                                 amplitude=0.5)
        assert isometry_defect(two_block, samples, 3.0) <= 5 * two_block.target.h

    def test_hyperbolic_gap_matches_quadrature(self):
        # oracle: ||T1||^2 = int g^2 + int (g')^2 over (1,2) by adaptive quadrature
        T = example_4_8_operator(1e-4)
        norm_sq, _ = quad(
            lambda y: math.sinh(2 * y) + math.cosh(2 * y) ** 2 / math.sinh(2 * y),
            1.0, 2.0)
        expected = math.sqrt(norm_sq) - math.sqrt(T.source.measure)
        gap = isometry_defect(T, [Field.constant(T.source, 1.0)], 2.0)
        assert gap == pytest.approx(expected, abs=1e-3)
        assert gap == pytest.approx(4.52, abs=0.01)

    def test_empty_samples_rejected(self, two_block):
        with pytest.raises(ValueError):
            isometry_defect(two_block, [], 2.0)


class TestDisjointnessDefect:
    def test_rigid_operator_exactly_zero(self):
        target = make_box((0, 0), (1, 1), 0.02)
        T = rigid_operator(target, RigidMotion(np.eye(2), np.array([0.2, -0.4])))
        pairs = disjoint_bump_pairs(T.source, np.random.default_rng(3), 10)
        assert disjointness_defect(T, pairs, 3.0) == 0.0

    def test_two_block_zero(self, two_block):
        pairs = disjoint_bump_pairs(two_block.source, np.random.default_rng(4), 20)
        assert disjointness_defect(two_block, pairs, 3.0) == 0.0

    def test_averaging_counterexample(self, averaging_operator):
        domain = make_box(0.0, 1.0, 0.005)
        avg = averaging_operator(domain)
        mirrored = (bump(domain, 0.3, 0.15), bump(domain, 0.7, 0.15))
        assert disjointness_defect(avg, [mirrored], 3.0) > 0.1

    def test_non_disjoint_pair_rejected(self, two_block):
        u = bump(two_block.source, (0.5, 0.0), 0.2)
        with pytest.raises(ValueError, match="not disjoint"):
            disjointness_defect(two_block, [(u, u)], 2.0)


class TestIntertwiningDefect:
    def test_identity(self):
        domain = make_box((0, 0), (1, 1), 0.02)
        T = identity_operator(domain)
        trials = intertwining_trials(T, np.random.default_rng(5), 5)
        assert intertwining_defect(T, trials, 3.0) <= 1e-10

    def test_hyperbolic_first_order_in_h(self, hyperbolic):
        h = hyperbolic.target.h
        trials = intertwining_trials(hyperbolic, np.random.default_rng(6), 20)
        defect = intertwining_defect(hyperbolic, trials, 2.0)
        assert defect <= 10 * h

    def test_scaling_breaks_intertwining(self):
        # oracle: the form is p-homogeneous, so T = 2 id shifts it by (2^p - 1)
        domain = make_box((0, 0), (1, 1), 0.02)
        u = random_smooth_field(domain, np.random.default_rng(7))
        v = bump(domain, (0.5, 0.5), 0.3)
        p = 3.0
        reference = abs(form_a(u, v, p))
        assert reference > 1e-3
        defect = intertwining_defect(lambda w: 2.0 * w, [(u, v)], p)
        assert defect == pytest.approx((2.0**p - 1.0) * reference, rel=1e-9)

    def test_support_violation_rejected(self, two_block):
        # a tent crossing the glue line has a non-compact image
        u = Field.constant(two_block.source, 1.0)
        from sil import hat
        v = hat(two_block.source, (0.5, 0.0), (0.3, 0.5))
        with pytest.raises(ValueError, match="boundary layer"):
            intertwining_defect(two_block, [(u, v)], 2.0)


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("battery, items, metric, per_item", [
    pytest.param(isometry_defect, lambda T, rng: list(smooth_samples(T.source, rng, 4)),
                 "w1p_norm", 2, id="isometry"),
    pytest.param(disjointness_defect, lambda T, rng: disjoint_bump_pairs(T.source, rng, 4),
                 "lp_norm", 1, id="disjointness"),
    pytest.param(intertwining_defect, lambda T, rng: intertwining_trials(T, rng, 4),
                 "form_a", 2, id="intertwining"),
])
def test_nan_item_fails_the_battery(nan_on_call, battery, items, metric, per_item, last):
    # the builtin max(0.0, nan) is 0.0 and max(worst, nan) is worst, so a
    # running max loses a NaN at either end of the battery
    T = identity_operator(make_box((0, 0), (1, 1), 0.05))
    batch = items(T, np.random.default_rng(9))
    n_calls = per_item * len(batch)
    calls = nan_on_call(operators, metric, n_calls - 1 if last else 0)
    defect = battery(T, batch, 3.0)
    assert len(calls) == n_calls
    assert math.isnan(defect)
    assert _check("battery", "claim", defect, 1.0)["status"] == "fail"


class TestReconstruct:
    def test_identity(self):
        domain = make_box((0, 0), (1, 1), 0.02)
        rec = reconstruct(identity_operator(domain), p=2.0)
        assert rec.zero_set_cells == 0
        assert np.abs(rec.g_hat.values - 1.0).max() <= 1e-10
        assert np.abs(rec.xi_hat.values - domain.centers).max() <= 1e-10

    def test_hyperbolic_closed_forms(self, hyperbolic):
        rec = reconstruct(hyperbolic, p=2.0)
        y = hyperbolic.target.centers[:, 0]
        assert rec.zero_set_cells == 0
        assert np.abs(rec.g_hat.values - hyperbolic_weight(y)).max() <= 1e-6
        assert np.abs(rec.xi_hat.values[:, 0] - hyperbolic_map(y)).max() <= 1e-6

    def test_rigid_rotation_with_sign_flip(self):
        target = make_box((0, 0), (0.6, 0.4), 0.01)
        motion = RigidMotion.rotation(math.pi / 6, b=(0.3, 0.1), sign=-1)
        T = rigid_operator(target, motion)
        rec = reconstruct(T, p=3.0)
        expected = motion.transform(target.centers)
        assert np.abs(rec.xi_hat.values - expected).max() <= 2 * target.h
        assert np.abs(rec.g_hat.values + 1.0).max() <= 1e-8

    def test_blackbox_round_trip_within_interpolation(self):
        target = make_box((0, 0), (0.6, 0.4), 0.01)
        motion = RigidMotion.rotation(0.7, b=(0.2, -0.1))
        T = rigid_operator(target, motion)
        rec = reconstruct(lambda u: apply(T, u), target, p=2.0, source=T.source)
        ok = ~rec.zero_mask
        err = np.abs(rec.xi_hat.values - motion.transform(target.centers))
        assert err.max(axis=1)[ok].max() <= 2 * target.h

    def test_weight_independent_of_probe_axis(self, two_block):
        rec = reconstruct(two_block, p=3.0)
        assert rec.axis_deviation <= 1e-8

    def test_overflowing_probe_image_named(self):
        # exp(1000) overflows: the error names the probe, not numpy's exp
        far = make_box((1000.0, 1000.0), (1001.0, 1001.0), 0.1)
        with pytest.raises(ValueError, match=r"probe image along axis 0, the weight times exp"):
            reconstruct(identity_operator(far), p=2.0)

    def test_vanishing_operator_rejected(self):
        domain = make_box(0.0, 1.0, 0.05)
        dead = lambda u: Field.constant(domain, 0.0)
        with pytest.raises(ValueError, match="vanish"):
            reconstruct(dead, domain, p=2.0, source=domain)

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            target = make_box((0, 0), tuple(rng.uniform(0.3, 0.7, 2)), 0.01)
            motion = random_rigid_motion(2, rng)
            T = rigid_operator(target, motion)
            rec = reconstruct(T, p=2.0)
            assert np.abs(rec.xi_hat.values - T.xi_values).max() <= 1e-8
            assert np.abs(np.abs(rec.g_hat.values) - 1.0).max() <= 1e-8


class TestRigidMotionFit:
    def test_exact_rigid_input(self):
        target = make_box((0, 0), (0.5, 0.5), 0.01)
        motion = RigidMotion.rotation(1.1, b=(0.4, 0.2), sign=-1)
        T = rigid_operator(target, motion)
        fit = rigid_motion_fit(reconstruct(T, p=2.0))
        assert fit.rigid
        assert fit.orthogonality_defect <= 1e-8
        assert fit.grad_g_defect <= 1e-8
        assert fit.weight_defect <= 1e-8
        assert np.abs(fit.motions[0].Q - motion.Q).max() <= 1e-8
        assert np.abs(fit.motions[0].b - motion.b).max() <= 1e-8
        assert fit.motions[0].sign == -1

    def test_hyperbolic_is_not_rigid(self, hyperbolic):
        rec = reconstruct(hyperbolic, p=2.0)
        fit = rigid_motion_fit(rec)
        assert not fit.rigid
        assert fit.orthogonality_defect > 0.5
        assert fit.grad_g_defect > 1.0
        # the map stretch |xi'| tracks its closed form away from the ends
        y = hyperbolic.target.centers[:, 0]
        interior = ~hyperbolic.target.boundary_layer_mask(2)
        c = np.linalg.norm(gradient(Field(hyperbolic.target, rec.xi_hat.values[:, 0])).values,
                           axis=1)
        dev = np.abs(c - 1.0 / np.sinh(2.0 * y))
        assert dev[interior].max() <= 1e-3

    def test_two_block_translations(self, two_block):
        h = two_block.target.h
        fit = rigid_motion_fit(reconstruct(two_block, p=3.0))
        assert fit.rigid
        # components are ordered bottom block first
        shifts = [m.b for m in fit.motions]
        assert np.abs(fit.motions[0].Q - np.eye(2)).max() <= 2 * h
        assert np.abs(shifts[0] - np.array([0.0, 1.0])).max() <= 2 * h
        assert np.abs(shifts[1] - np.array([0.0, -1.0])).max() <= 2 * h
        assert all(m.sign == 1 for m in fit.motions)

    def test_affine_non_rigid_map(self):
        # xi(x) = A x + 0.05 is affine, so the central differences are exact up to
        # roundoff: the defects are A's, whatever motion the fit picks
        A = np.array([[1.1, 0.2], [-0.1, 0.9]])
        target = make_box((0.0, 0.0), (0.6, 0.3), 0.01)
        source = make_box((0.0, -0.2), (1.0, 0.5), 0.01)
        T = OperatorSpec(source, target, np.ones(target.n_cells), target.centers @ A.T + 0.05)
        fit = rigid_motion_fit(reconstruct(T, p=2.0))
        assert not fit.rigid
        assert fit.orthogonality_defect == pytest.approx(
            np.abs(A.T @ A - np.eye(2)).max(), abs=1e-9)
        assert fit.c_range == pytest.approx((math.hypot(1.1, 0.2),) * 2, abs=1e-9)
        assert congruence_pipeline(T, 2.0, 0.04).reason == "non-rigid xi"

    def test_tiny_component_rejected(self):
        domain = make_box(0.0, 0.25, 0.3)  # a single cell
        T = identity_operator(domain)
        with pytest.raises(ValueError, match="too small"):
            rigid_motion_fit(reconstruct(T, p=2.0))


class TestRigidOperatorInvariants:
    def test_isometry_and_intertwining_within_5h(self):
        h = 0.01
        rng = np.random.default_rng(21)
        for _ in range(3):
            T = random_rigid_operator_local(rng, h)
            samples = smooth_samples(T.source, rng, 10, amplitude=0.5)
            assert isometry_defect(T, samples, 3.0) <= 5 * h
            trials = intertwining_trials(T, rng, 8)
            assert intertwining_defect(T, trials, 3.0) <= 5 * h


class TestDefectSets:
    def test_identity_has_no_defects(self):
        domain = make_box((0, 0), (1, 1), 0.02)
        ds = defect_sets(reconstruct(identity_operator(domain), p=2.0), domain)
        assert ds.n2_cells == 0
        assert ds.n1_measure == 0.0

    def test_fat_cantor_inclusion_has_thick_complement(self):
        h = 1e-4
        source = make_box(0.0, 1.0, h)
        target = make_fat_cantor_complement(0.5, h)
        T = rigid_operator(target, RigidMotion.identity(1), source=source)
        ds = defect_sets(reconstruct(T, p=2.0), source)
        assert ds.n2_cells == 0
        assert ds.n1_measure == pytest.approx(0.5, abs=0.02)
        assert ds.n1_measure > 0.4  # genuinely positive-measure defect

    def test_two_block_slit_is_null(self, two_block):
        ds = defect_sets(reconstruct(two_block, p=2.0), two_block.source)
        assert ds.n2_cells == 0
        assert ds.n1_measure <= 2 * two_block.target.h


class TestCongruencePipeline:
    def test_rigid_operator_matching_domains(self):
        target = make_box((0, 0), (1, 1), 0.01)
        T = rigid_operator(target, RigidMotion(np.eye(2), np.array([0.3, -0.2])))
        report = congruence_pipeline(T, p=2.0, tol=4 * target.h)
        assert report.congruent and report.reason == "congruent"

    def test_two_block_pairing(self, two_block):
        h = two_block.target.h
        report = congruence_pipeline(two_block, p=3.0, tol=4 * h)
        assert report.congruent
        assert len(report.motions) == 2
        gates = dict(report.gates)
        assert gates["target cells map outside the source"] == 0.0
        assert gates["source not covered by the image"] <= 2 * h
        # pairing: lower block translates up, upper block translates down
        assert np.abs(report.motions[0].b - [0.0, 1.0]).max() <= 2 * h
        assert np.abs(report.motions[1].b - [0.0, -1.0]).max() <= 2 * h
        lows = [image[0][1] for _, image, _ in report.pairing]
        assert sorted(round(v) for v in lows) == [-1, 0]
        assert report.source_regular and report.target_regular

    def test_hyperbolic_rejected_as_non_rigid(self, hyperbolic):
        report = congruence_pipeline(hyperbolic, p=2.0, tol=4 * hyperbolic.target.h)
        assert not report.congruent
        assert report.reason == "non-rigid xi"

    def test_report_serializes(self, two_block):
        import json
        report = congruence_pipeline(two_block, p=3.0, tol=0.04)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert list(payload) == [
            "congruent", "reason", "tol", "pairing", "gates", "source_regular", "target_regular"]
        assert payload["gates"] == dict(report.gates)
        assert list(payload["gates"]) == [
            "non-rigid xi", "non-constant weight", "weight magnitude differs from 1",
            "target cells map outside the source", "source not covered by the image",
            "component images do not tile the source"]
        assert len(payload["pairing"]) == 2
        for pair in payload["pairing"]:
            assert list(pair) == ["component_box", "image_box", "motion"]

    @pytest.mark.parametrize("gate, stage, field", [
        ("non-rigid xi", "rigid_motion_fit", "orthogonality_defect"),
        ("non-constant weight", "rigid_motion_fit", "grad_g_defect"),
        ("weight magnitude differs from 1", "rigid_motion_fit", "weight_defect"),
        ("target cells map outside the source", "defect_sets", "n2_cells"),
        ("source not covered by the image", "defect_sets", "n1_measure"),
        # the tiling gate counts the subsamples each component's image sends outside
        ("component images do not tile the source", "_supersampled_image", None),
    ], ids=["orthogonality", "grad_g", "weight", "n2", "n1", "tiling"])
    def test_nan_gate_fails_the_verdict(self, monkeypatch, gate, stage, field):
        # "value > tol" is False for NaN too; the verdict must fail on it
        real = getattr(operators, stage)
        if field is None:
            monkeypatch.setattr(operators, stage, lambda *a: (real(*a)[0], math.nan))
        else:
            monkeypatch.setattr(operators, stage,
                                lambda *a: dataclasses.replace(real(*a), **{field: math.nan}))
        T = example_5_4_operator(0.05)
        report = congruence_pipeline(T, p=3.0, tol=4 * T.target.h)
        assert math.isnan(dict(report.gates)[gate])
        assert not report.congruent and report.reason == gate

    def test_nan_tolerance_fails_the_verdict(self):
        report = congruence_pipeline(example_5_4_operator(0.05), p=3.0, tol=math.nan)
        assert not report.congruent and report.reason == "non-rigid xi"

    @pytest.mark.parametrize("rigid", [False, True], ids=["builtin", "per_component_rigid"])
    def test_target_labelled_once(self, monkeypatch, rigid):
        labelling = GridDomain.__dict__["component_rows"]
        calls = []

        def counted(domain):
            calls.append(domain)
            return labelling.func(domain)

        patched = functools.cached_property(counted)
        patched.__set_name__(GridDomain, "component_rows")
        monkeypatch.setattr(GridDomain, "component_rows", patched)
        T = example_5_4_operator(0.05)
        if rigid:  # the same two translations, assigned per component
            T = piecewise_rigid_operator(
                T.source, T.target,
                (RigidMotion(np.eye(2), [0.0, 1.0]), RigidMotion(np.eye(2), [0.0, -1.0])),
                (0, 1))
        report = congruence_pipeline(T, p=3.0, tol=4 * T.target.h)
        assert len(report.motions) == 2
        assert len(calls) == 1 and calls[0] is T.target

    @pytest.mark.parametrize("T, p", [
        (example_5_4_operator(0.05), 3.0),
        (random_rigid_operator_local(np.random.default_rng(3), h=0.05), 2.0),
        (example_4_8_operator(1e-2), 2.0),
    ], ids=["two_block", "rotated_box", "hyperbolic"])
    def test_block_size_invariant(self, T, p):
        whole = congruence_pipeline(T, p=p, tol=4 * T.target.h).to_json_dict()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_domain.row_blocks, "__defaults__", (7,))
            blocked = congruence_pipeline(T, p=p, tol=4 * T.target.h).to_json_dict()
        assert blocked == whole


@st.composite
def _lattice_block_cases(draw):
    """1-3 disjoint grid blocks (intervals in 1D), each sent into the source by a
    lattice symmetry, a whole-cell shift and a random sign; the source is the
    union of the images.  Also a k^dim patch of cells strictly inside one image."""
    dim = draw(st.sampled_from([1, 2]))
    h = 0.05
    blocks, images, motions = [], [], []
    for m in range(draw(st.integers(1, 3))):  # ten cells apart on axis 0: disjoint
        size = np.array([draw(st.integers(3, 6)) for _ in range(dim)])
        lo = np.array([10 * m] + [0] * (dim - 1))
        cells = grid_domain.box_cells(lo, lo + size - 1)
        signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(dim)])
        Q = np.eye(dim)[list(draw(st.permutations(range(dim))))] * signs[:, None]
        # move the rotated block's lowest cell onto the image's lowest cell
        image_lo = np.array([10 * m + draw(st.integers(-2, 2))]
                            + [draw(st.integers(-5, 5)) for _ in range(dim - 1)])
        rotated_lo = (Q @ (cells + 0.5).T).T.min(axis=0) - 0.5
        motion = RigidMotion(Q, h * (image_lo - rotated_lo), draw(st.sampled_from([-1, 1])))
        blocks.append(cells)
        images.append(np.floor(motion.transform(h * (cells + 0.5)) / h).astype(np.int64))
        motions.append(motion)
    target = GridDomain(dim, h, (0.0,) * dim, np.concatenate(blocks))
    source = GridDomain(dim, h, (0.0,) * dim, np.concatenate(images))
    image = images[draw(st.integers(0, len(images) - 1))]
    lo, hi = image.min(axis=0), image.max(axis=0)
    k = draw(st.integers(1, int((hi - lo).min()) - 1))
    corner = np.array([draw(st.integers(a + 1, b - k)) for a, b in zip(lo, hi)])
    hole = grid_domain.box_cells(corner, corner + k - 1)
    return source, target, motions, hole, draw(st.sampled_from([2.0, 3.0]))


@settings(max_examples=10, deadline=None)
@given(_lattice_block_cases())
def test_lattice_blocks_are_congruent_until_a_hole_is_cut(case):
    source, target, motions, hole, p = case
    components = range(len(motions))  # numbered in the order of their smallest cell
    h, dim = target.h, target.dim
    tol = h**dim / 2  # above the fit's roundoff, below one cell's measure
    measures = ("target cells map outside the source", "source not covered by the image",
                "component images do not tile the source")
    report = congruence_pipeline(
        piecewise_rigid_operator(source, target, motions, components), p=p, tol=tol)
    gates = dict(report.gates)
    assert report.congruent
    assert [gates[name] for name in measures] == [0.0, 0.0, 0.0]
    keep = np.ones(source.n_cells, dtype=bool)
    keep[source.rows_of_indices(hole)] = False
    holed = source.subset(keep)
    report = congruence_pipeline(
        piecewise_rigid_operator(holed, target, motions, components), p=p, tol=tol)
    assert dict(report.gates)["target cells map outside the source"] == len(hole) * h**dim
    assert report.reason == "target cells map outside the source"


def _reference_offsets(h, dim):
    steps = (-h / 3.0, 0.0, h / 3.0)
    return [np.asarray(off) for off in itertools.product(steps, repeat=dim)]


def _reference_defect_hit(rec, omega1, omega2, inside):
    """The rasterization loop of ``defect_sets`` as first written."""
    hit = np.zeros(omega1.n_cells, dtype=bool)
    base = omega2.centers[inside]
    for off in _reference_offsets(omega2.h, omega2.dim):
        vals = rec.xi_hat.at(base + off)
        rows = omega1.rows_of_indices(omega1.index_of_points(vals))
        hit[rows[rows >= 0]] = True
    return hit


def _reference_tiling_hit(source, target, pts, motion):
    """The per-component loop of ``congruence_pipeline`` as first written."""
    hit = np.zeros(source.n_cells, dtype=bool)
    escaped_pts = 0
    for off in _reference_offsets(target.h, target.dim):
        mapped = motion.transform(pts + off)
        rows1 = source.rows_of_indices(source.index_of_points(mapped))
        hit[rows1[rows1 >= 0]] = True
        escaped_pts += int(np.count_nonzero(rows1 < 0))
    return hit, escaped_pts


@st.composite
def _rigid_cases(draw):
    """A rigid operator on a random 1D/2D mask, and its motion moved up to two
    cells off, so that some subsamples escape the source."""
    shape = draw(st.sampled_from([(40,), (7, 7), (6, 11), (1, 12)]))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    assume(mask.sum() >= 4)
    dim = len(shape)
    target = GridDomain(dim, 0.1, (0.0,) * dim, np.argwhere(mask))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    motion = random_rigid_motion(dim, rng)
    try:
        T = rigid_operator(target, motion)
    except ValueError:  # a rotated image can miss every cell center
        assume(False)
    return T, RigidMotion(motion.Q, motion.b + rng.uniform(-0.2, 0.2, dim))


@settings(max_examples=60, deadline=None)
@given(_rigid_cases())
def test_supersampled_image_matches_old_loops(case):
    T, moved = case
    rec = reconstruct(T, p=2.0)
    inside = T.source.contains_points(rec.xi_hat.values)  # no zero set: g = +-1
    comps = [T.target.rows_of_indices(c.cells) for c in connected_components(T.target)]
    references = ([_reference_defect_hit(rec, T.source, T.target, inside)],
                  [_reference_tiling_hit(T.source, T.target, T.target.centers[rows], moved)
                   for rows in comps])
    for block in (grid_domain._BLOCK, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_domain.row_blocks, "__defaults__", (block,))
            hit, _ = _supersampled_image(T.source, T.target, np.flatnonzero(inside),
                                         rec.xi_hat.at)
            assert np.array_equal(hit, references[0][0])
            for rows, (ref_hit, ref_escaped) in zip(comps, references[1]):
                hit, escaped = _supersampled_image(T.source, T.target, rows, moved.transform)
                assert np.array_equal(hit, ref_hit) and escaped == ref_escaped


def _dead_patch(T):
    """A black box that applies ``T`` and zeroes its image on a 6x6 patch of
    target cells, which the reconstruction then puts in its zero set."""
    dead = np.all(np.abs(T.target.centers - (0.5, 1.5)) < 0.03, axis=1)
    return lambda u: Field(T.target, np.where(dead, 0.0, apply(T, u).values))


_STAGE_CASES = {  # name -> (operator, p, black box around it or None)
    "two_block": lambda: (example_5_4_operator(0.01), 3.0, None),
    # zero-set cells get xi = 0, a point of the source
    "two_block_dead_patch": lambda: (example_5_4_operator(0.01), 3.0, _dead_patch),
    "rotated_box": lambda: (rigid_operator(make_box((0.0, 0.0), (0.6, 0.4), 0.01),
                                           RigidMotion.rotation(0.4, (0.3, -0.2), sign=-1)),
                            2.0, None),
    "blackbox_rotated_box": lambda: (rigid_operator(make_box((0.0, 0.0), (0.6, 0.4), 0.01),
                                                    RigidMotion.rotation(0.4, (0.3, -0.2))),
                                     2.0, lambda T: lambda u: apply(T, u)),
    "hyperbolic": lambda: (example_4_8_operator(1e-3), 2.0, None),
    "fat_cantor_inclusion": lambda: (rigid_operator(make_fat_cantor_complement(0.5, 1e-3),
                                                    RigidMotion.identity(1),
                                                    source=make_box(0.0, 1.0, 1e-3)), 2.0, None),
}


def _stage_case(name):
    T, p, black_box = _STAGE_CASES[name]()
    if black_box is None:
        return T, reconstruct(T, p=p)
    return T, reconstruct(black_box(T), T.target, p=p, source=T.source)


@contextlib.contextmanager
def _blocks_of(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_domain.row_blocks, "__defaults__", (size,))
        yield


# 150-row blocks: many per domain, and on the two-block target some whose
# every row lies in the boundary layer
_BLOCK_SIZES = (grid_domain._BLOCK, 150)


@pytest.mark.parametrize("name", sorted(_STAGE_CASES))
def test_defect_sets_match_the_eager_reference(name):
    T, rec = _stage_case(name)
    # the matched parts as defect_sets first built them, eagerly and unblocked:
    # the target cells mapped inside the source, and their image u1
    ok = ~rec.zero_mask
    inside = np.zeros(T.target.n_cells, dtype=bool)
    inside[ok] = T.source.contains_points(rec.xi_hat.values[ok])
    hit = _reference_defect_hit(rec, T.source, T.target, inside)
    u1 = GridDomain(T.source.dim, T.source.h, T.source.origin, T.source.cells[hit])
    for size in _BLOCK_SIZES:
        with _blocks_of(size):
            ds = defect_sets(rec, T.source)
        assert ds.n2_cells == T.target.n_cells - int(np.count_nonzero(inside))
        assert ds.n1_measure == T.source.measure - u1.measure


def test_empty_image_raises_as_an_empty_domain(monkeypatch):
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.1)
    rec = reconstruct(identity_operator(domain), p=2.0)
    monkeypatch.setattr(operators, "_supersampled_image",
                        lambda omega1, *_: (np.zeros(omega1.n_cells, dtype=bool), 0))
    with pytest.raises(ValueError, match="a domain must contain at least one cell"):
        defect_sets(rec, domain)


@pytest.mark.parametrize("name", ["blackbox_rotated_box", "hyperbolic", "rotated_box",
                                  "two_block", "two_block_dead_patch"])
def test_rigid_fit_defects_match_the_whole_domain_reference(name):
    T, rec = _stage_case(name)
    # the defects and the |grad xi_0| samples as first written, from whole-domain gradients
    omega2, xi = T.target, rec.xi_hat.values
    away = ~grid_domain.dilate_mask(omega2, rec.zero_mask, 2)
    fd_ok = away & ~omega2.boundary_layer_mask(2)
    fd_ok = fd_ok if fd_ok.any() else away
    jac = np.stack([gradient(Field(omega2, xi[:, i])).values for i in range(omega2.dim)],
                   axis=1)
    jtj = np.einsum("nid,nie->nde", jac, jac)
    ortho = float(np.abs(jtj - np.eye(omega2.dim)).max(axis=(1, 2))[fd_ok].max())
    grad_g = float(np.linalg.norm(gradient(rec.g_hat).values, axis=1)[fd_ok].max())
    c = np.linalg.norm(jac[:, 0, :], axis=1)
    for size in _BLOCK_SIZES:
        with _blocks_of(size):
            fit = rigid_motion_fit(rec)
        assert fit.orthogonality_defect == ortho and fit.grad_g_defect == grad_g
        assert fit.c_range == (c.min(), c.max())


def test_congruence_pipeline_peak_memory(monkeypatch):
    # in n-float arrays above the live operator (n = 20,000 cells a side), with
    # 1,024-row blocks so that n-sized arrays dominate block-sized ones: the
    # traced peak, and what is still live when the topology checks start;
    # stages that kept their intermediates to the end read 25.8 and 19.4, and
    # a fit that kept its |grad xi_0| samples gave a peak of 14.5
    congruence_pipeline(example_5_4_operator(0.1), p=3.0, tol=0.4)  # first-use imports
    T = example_5_4_operator(0.01)
    live_at_checks = []
    regular = operators.is_topologically_regular

    def traced_regular(domain):
        live_at_checks.append(tracemalloc.get_traced_memory()[0])
        return regular(domain)

    monkeypatch.setattr(operators, "is_topologically_regular", traced_regular)
    with _blocks_of(1024):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            report = congruence_pipeline(T, p=3.0, tol=4 * T.target.h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def n_floats(size):
        return (size - live) / (8 * T.target.n_cells)

    assert report.congruent and report.source_regular and report.target_regular
    assert n_floats(peak) <= 13
    assert n_floats(live_at_checks[0]) <= 8


def test_rigid_fit_report_holds_motions_and_scalars_only():
    # what the report keeps alive, in n-float arrays (n = 20,000 cells); a
    # report that kept the |grad xi_0| samples held 1.02
    T = example_5_4_operator(0.01)
    rec = reconstruct(T, p=3.0)
    rigid_motion_fit(rec)  # builds the domain's cached neighbour and component rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit = rigid_motion_fit(rec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fit.rigid and len(fit.motions) == 2
    assert held / (8 * T.target.n_cells) < 0.1


def test_rigid_fit_peak_memory():
    # in n-float arrays above the live reconstruction (n = 40,000 cells, one
    # component, 16,384-row blocks): a fit that kept its last component's
    # copies alive through the Jacobian pass peaked at 12.42
    T = rigid_operator(make_box((0.0, 0.0), (1.0, 1.0), 0.005),
                       RigidMotion.rotation(0.7, b=(0.1, 0.2), sign=-1))
    rec = reconstruct(T, p=2.0)
    rigid_motion_fit(rec)  # builds the domain's cached neighbour and component rows
    with _blocks_of(16_384):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            fit = rigid_motion_fit(rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert fit.rigid and fit.motions[0].sign == -1
    assert (peak - live) / (8 * T.target.n_cells) <= 10


class TestPreimage:
    def test_two_block_preimage(self, two_block):
        fit = rigid_motion_fit(reconstruct(two_block, p=2.0))
        phi = bump(two_block.target, (0.5, 1.5), 0.2)
        w, covered = preimage_field(two_block, phi, fit)
        assert covered.all()
        assert np.abs(apply(two_block, w).values - phi.values).max() <= 1e-10

    @staticmethod
    def _reference(T, phi, fit):
        """Membership through one GridDomain per target component, first one wins."""
        ratio = Field(T.target, phi.values / T.g_values)
        w = np.zeros(T.source.n_cells)
        covered = np.zeros(T.source.n_cells, dtype=bool)
        x = T.source.centers
        for comp, motion in zip(connected_components(T.target), fit.motions):
            y = motion.inverse_transform(x)
            mask = comp.contains_points(y) & ~covered
            if mask.any():
                w[mask] = ratio.at(y[mask])
                covered |= mask
        return w, covered

    @pytest.mark.parametrize("case", ["two_block", "rotated_box", "per_component"])
    def test_matches_per_component_reference(self, two_block, case):
        if case == "two_block":
            T = two_block
        elif case == "rotated_box":
            motion = random_rigid_motion(2, np.random.default_rng(12))
            T = rigid_operator(make_box((0, 0), (0.6, 0.4), 0.02), motion)
        else:  # both blocks land on the upper half of the source, so they overlap
            motions = (RigidMotion(np.eye(2), [0.0, 2.0]), RigidMotion(np.eye(2), [0.0, -1.0]))
            T = piecewise_rigid_operator(grid_domain.example_5_4_omega1(0.05),
                                         grid_domain.example_5_4_omega2(0.05), motions, (0, 1))
        fit = rigid_motion_fit(reconstruct(T, p=2.0))
        phi = random_smooth_field(T.target, np.random.default_rng(13))
        w, covered = preimage_field(T, phi, fit)
        w_ref, covered_ref = self._reference(T, phi, fit)
        assert covered.any()
        assert np.array_equal(covered, covered_ref)
        assert np.array_equal(w.values, w_ref)


@pytest.fixture(scope="module")
def examples_run():
    """The checks of one ``examples`` suite run, and the domain of each
    reconstruction and of each rigid fit it made; a coarse two-block operator
    keeps the run short, and only the 1e-3 hyperbolic operator's calls count."""
    domains = {"reconstruct": [], "rigid_motion_fit": []}

    def counted(name):
        fn = getattr(suites, name)

        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            rec = out if name == "reconstruct" else args[0]
            domains[name].append(rec.g_hat.domain)
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in domains:
            mp.setattr(suites, name, counted(name))
        mp.setattr(suites, "example_5_4_operator", lambda h: example_5_4_operator(0.05))
        checks = {c["check"]: c for c in suites.run_suite(suites.SuiteConfig("examples"))}
    hyperbolic_target = example_4_8_operator(1e-3).target
    counts = {name: sum(d == hyperbolic_target for d in seen) for name, seen in domains.items()}
    return checks, counts


def test_examples_suite_fits_hyperbolic_operator_once(examples_run):
    checks, counts = examples_run
    assert counts["rigid_motion_fit"] == 1
    not_rigid = checks["hyperbolic_map_not_rigid"]
    report = checks["defect_report_hyperbolic"]["report"]
    assert not_rigid["orthogonality"] == report["orthogonality"]
    assert not_rigid["grad_g"] == report["grad_g"]


def test_examples_suite_reconstructs_hyperbolic_operator_once(examples_run):
    # the closed-form check reads the reconstruction of the p = 2 defect report
    checks, counts = examples_run
    assert counts["reconstruct"] == 1
    assert checks["reconstruction_matches_closed_form"]["status"] == "pass"


class TestOperatorSpec:
    def test_h1_bounding_box_enforced(self):
        # a motion that drags the target far outside the declared source
        target = make_box((0, 0), (1, 1), 0.05)
        source = make_box((0, 0), (1, 1), 0.05)
        motion = RigidMotion(np.eye(2), np.array([10.0, 0.0]))
        with pytest.raises(ValueError, match="bounding box"):
            rigid_operator(target, motion, source)

    @pytest.mark.parametrize("what", ["weight", "map"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_or_map_rejected(self, what, value):
        # a NaN node passes every bounding-box comparison, so finiteness is checked first
        domain = make_box((0, 0), (1, 1), 0.1)
        g, xi = np.ones(domain.n_cells), domain.centers.copy()
        (g if what == "weight" else xi[:, 1])[3] = value
        with pytest.raises(ValueError, match=f"the {what} must be finite"):
            OperatorSpec(domain, domain, g, xi)

    def test_tabulated_requires_target_domain(self):
        a = make_box((0, 0), (1, 1), 0.1)
        b = make_box((0, 0), (1, 1), 0.05)
        g = Field.constant(b, 1.0)
        xi = VectorField(b, b.centers)
        with pytest.raises(ValueError):
            OperatorSpec(a, a, g.values, xi.values)

    def test_rigid_component_assignment_checked(self, two_block):
        motion = RigidMotion.identity(2)
        with pytest.raises(ValueError, match="no motion"):
            piecewise_rigid_operator(two_block.source, two_block.target, (motion,), (0,))

    def test_map_evaluated_once_per_operator(self):
        domain = make_box((0, 0), (1, 1), 0.1)
        T = identity_operator(domain)
        apply(T, Field.constant(domain, 1.0))
        assert (T.g_values == 1.0).all() and np.array_equal(T.xi_values, domain.centers)

    def test_averaging_requires_symmetry(self, averaging_operator):
        averaging_operator(make_box(0.0, 1.0, 0.01))
        from sil import domain_from_spec
        lopsided = domain_from_spec({
            "dim": 1, "h": 0.01,
            "boxes": [{"lo": [0.0], "hi": [1.0]}],
            "subtract": [{"lo": [0.1], "hi": [0.2]}],
        })
        with pytest.raises(ValueError, match="symmetric"):
            averaging_operator(lopsided)


class TestOperatorJson:
    def test_builtin(self):
        T = operator_from_spec({"builtin": "example_4_8", "h": 1e-3})
        assert T.target.measure == pytest.approx(1.0, abs=1e-3)

    def test_rigid_round_trip(self):
        target = make_box((0, 0), (0.5, 0.5), 0.02)
        motion = RigidMotion.rotation(0.4, b=(0.1, 0.2))
        spec = {"rigid": [motion.to_json_dict()],
                "target": {"dim": 2, "h": 0.02,
                           "boxes": [{"lo": [0, 0], "hi": [0.5, 0.5]}]}}
        T = operator_from_spec(spec)
        assert T.target == target
        assert np.abs(T.xi_values - motion.transform(target.centers)).max() <= 1e-12

    def test_tabulated_round_trip(self, tmp_path, two_block):
        g = Field(two_block.target, two_block.g_values)
        xi = VectorField(two_block.target, two_block.xi_values)
        g.to_csv(tmp_path / "g.csv")
        xi.to_csv(tmp_path / "xi.csv")
        spec = {"tabulated": {"g": "g.csv", "xi": "xi.csv"},
                "target": {"dim": 2, "h": 0.01,
                           "boxes": [{"lo": [0, -2], "hi": [1, 2]}],
                           "subtract": [{"lo": [0, -1], "hi": [1, 1]}]}}
        T = operator_from_spec(spec, base_dir=str(tmp_path))
        u = random_smooth_field(two_block.source, np.random.default_rng(11))
        via_builtin = apply(two_block, u).values
        # the tabulated twin reproduces the builtin up to its own source box
        T = OperatorSpec(two_block.source, T.target, T.g_values, T.xi_values)
        assert np.abs(apply(T, u).values - via_builtin).max() <= 1e-12

    @pytest.mark.parametrize("name, factory, h", [
        ("identity", lambda h: identity_operator(make_box((0, 0), (1, 1), h)), 0.05),
        ("example_4_8", example_4_8_operator, 1e-3),
        ("example_4_8", example_4_8_operator, None),
        ("example_5_4", example_5_4_operator, 0.05),
        ("example_5_4", example_5_4_operator, None),
    ])
    def test_builtin_spec_matches_its_factory(self, name, factory, h):
        spec = {"builtin": name, "h": h}
        if name == "identity":
            spec["target"] = {"dim": 2, "h": h, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]}
        T, F = operator_from_spec(spec), factory() if h is None else factory(h)
        assert T.source == F.source and T.target == F.target
        assert np.array_equal(T.g_values, F.g_values)
        assert np.array_equal(T.xi_values, F.xi_values)

    @pytest.mark.parametrize("factory", [
        grid_domain.example_4_8_omega1, grid_domain.example_4_8_omega2,
        grid_domain.example_5_4_omega1, grid_domain.example_5_4_omega2,
        example_4_8_operator, example_5_4_operator])
    @pytest.mark.parametrize("h", [np.float32(0.05), np.float64(0.05)], ids=["f32", "f64"])
    def test_builtin_factory_takes_any_real_width(self, factory, h):
        # the JSON type checks belong to the spec readers: a numpy scalar width
        # builds what the same value as a Python float builds
        got, want = factory(h), factory(float(h))
        if isinstance(got, GridDomain):
            assert got == want
        else:
            assert got.source == want.source and got.target == want.target
            assert np.array_equal(got.g_values, want.g_values)
            assert np.array_equal(got.xi_values, want.xi_values)

    def test_congruence_suite_takes_any_real_width(self):
        # its default operator is read from a JSON spec, which takes Python numbers only
        checks = [suites.run_suite(suites.SuiteConfig("congruence", h=h))
                  for h in (np.float32(0.05), float(np.float32(0.05)))]
        assert checks[0] == checks[1]

    @pytest.mark.filterwarnings("error")
    def test_builtin_outside_its_domain_of_definition_is_named(self):
        # the weight sqrt(sinh 2y) is undefined at y <= 0; numpy's "invalid value
        # encountered in sqrt" once named neither the operator nor the node
        line = {"dim": 1, "h": 0.01, "boxes": [{"lo": [-1], "hi": [1]}]}
        with pytest.raises(ValueError, match=r"^the builtin operator 'example_4_8' is not "
                                             r"defined at the target node \(-0\.995,\)$"):
            operator_from_spec({"builtin": "example_4_8", "target": line})

    def test_builtin_domain_precedence(self):
        # target: the given domain, then the spec's, then the builtin's; source: the
        # spec's, then the builtin's, then (for the identity) the target
        box = {"dim": 2, "h": 0.1, "boxes": [{"lo": [0, 0], "hi": [1, 1]}]}
        given = make_box((0, 0), (0.5, 0.5), 0.1)
        T = operator_from_spec({"builtin": "identity", "target": box}, target=given)
        assert T.target == given and T.source == given
        T = operator_from_spec({"builtin": "identity", "source": box, "target": box})
        assert T.source == T.target == make_box((0, 0), (1, 1), 0.1)
        fine = {"dim": 2, "h": 0.05, "boxes": [{"lo": [0, -1], "hi": [1, 1]}]}
        T = operator_from_spec({"builtin": "example_5_4", "h": 0.1, "source": fine})
        assert T.source == make_box((0, -1), (1, 1), 0.05)
        assert T.target == grid_domain.example_5_4_omega2(0.1)
        with pytest.raises(ValueError, match="needs a target domain"):
            operator_from_spec({"builtin": "identity", "source": box})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            operator_from_spec({"mystery": 1})


def test_closed_form_error_keeps_a_nan():
    # the builtin max(0.0, nan) is 0.0; the NaN must not read as no error
    rec = SimpleNamespace(g_hat=SimpleNamespace(values=np.ones(2)),
                          xi_hat=SimpleNamespace(values=np.array([[0.5], [math.nan]])))
    T = SimpleNamespace(g_values=np.ones(2), xi_values=np.array([[0.5], [0.25]]))
    assert math.isnan(suites._closed_form_error(rec, T))


class TestDefectReport:
    def test_json_key_order(self):
        T = random_rigid_operator_local(np.random.default_rng(3), h=0.02)
        report, rec = suites.operator_defect_report(T, 2.0, np.random.default_rng(4))
        assert list(report) == [
            "isometry", "disjointness", "intertwining", "orthogonality",
            "grad_g", "weight", "n1_measure", "n2_cells"]
        assert rec.g_hat.domain == T.target
