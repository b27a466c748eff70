import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sil import (
    DEFAULT_S_LADDER,
    Field,
    GateauxReport,
    GridDomain,
    VectorField,
    bump,
    clarkson_check,
    domain_from_spec,
    example_5_4_omega2,
    exponential_probe,
    form_a,
    form_b,
    gateaux_check_form,
    gateaux_check_norm,
    gradient,
    lp_pow_sum,
    make_box,
    plap_residual,
    random_smooth_field,
    w1p_pow_sum,
)
from sil import field, forms, grid_domain, suites
from sil.field import gradient_rows
from sil.suites import _check

from _references import (reference_clarkson_slack, reference_gradient, two_walk_form_a,
                         two_walk_form_b)


class TestFormA:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_indicator_diagonal(self, interval, p):
        one = Field.constant(interval, 1.0)
        assert form_a(one, one, p) == pytest.approx(1.0, abs=1e-12)

    def test_linear_p2(self, interval):
        # oracle: int x^2 + int 1 = 4/3
        u = Field.from_function(interval, lambda x: x[:, 0])
        assert form_a(u, u, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_diagonal_equals_norm_power(self, square, p):
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = random_smooth_field(square, rng)
            assert abs(form_a(u, u, p) - w1p_pow_sum(u, p)) <= 1e-12

    def test_linear_in_second_argument(self, square):
        rng = np.random.default_rng(13)
        for p in (1.5, 2.0, 3.0):
            u = random_smooth_field(square, rng)
            v1 = random_smooth_field(square, rng)
            v2 = random_smooth_field(square, rng)
            combined = form_a(u, 2.0 * v1 + (-3.0) * v2, p)
            split = 2.0 * form_a(u, v1, p) - 3.0 * form_a(u, v2, p)
            assert abs(combined - split) <= 1e-10 * max(1.0, abs(split))

    def test_singular_weight_below_two(self, interval):
        # p < 2 puts a negative power on |u|; the zero convention keeps it finite
        u = Field.from_function(interval, lambda x: x[:, 0] - 0.5)
        v = Field.constant(interval, 1.0)
        assert math.isfinite(form_a(u, v, 1.5))

    def test_domain_mismatch_rejected(self, interval, square):
        with pytest.raises(ValueError):
            form_a(Field.constant(interval, 1.0), Field.constant(square, 1.0), 2.0)

    def test_p_out_of_range_rejected(self, interval):
        one = Field.constant(interval, 1.0)
        with pytest.raises(ValueError):
            form_a(one, one, 1.0)


class TestFormB:
    def test_indicator_p3(self, interval):
        # gradient terms vanish, (p-1) * measure = 2
        one = Field.constant(interval, 1.0)
        assert form_b(one, one, one, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative_on_repeated_direction(self, square):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = random_smooth_field(square, rng)
            v = random_smooth_field(square, rng)
            assert form_b(u, v, v, 3.0) >= -1e-12

    def test_symmetry_in_last_arguments(self, square):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = random_smooth_field(square, rng)
            v = random_smooth_field(square, rng)
            w = random_smooth_field(square, rng)
            assert abs(form_b(u, v, w, 3.0) - form_b(u, w, v, 3.0)) <= 1e-12

    def test_p_at_most_two_rejected(self, interval):
        one = Field.constant(interval, 1.0)
        with pytest.raises(ValueError, match="undefined"):
            form_b(one, one, one, 2.0)


class TestGateauxNorm:
    def test_zero_direction_gives_zero_errors(self, square):
        u = random_smooth_field(square, np.random.default_rng(3))
        report = gateaux_check_norm(u, Field.constant(square, 0.0), 3.0)
        assert all(e == 0.0 for e in report.errors)

    def test_hand_expansion_indicator(self, interval):
        # ((1+s)^2 - 1)/s - 2 = s exactly, up to the measure factor
        one = Field.constant(interval, 1.0)
        report = gateaux_check_norm(one, one, 2.0)
        for s, err in zip(report.s_values, report.errors):
            assert err == pytest.approx(s, rel=1e-6)

    def test_random_smooth_slope(self, square):
        rng = np.random.default_rng(4)
        u = random_smooth_field(square, rng)
        v = random_smooth_field(square, rng)
        report = gateaux_check_norm(u, v, 3.0, (1e-2, 1e-3, 1e-4))
        assert report.slope >= 0.9

    def test_errors_decrease_and_slope_in_band(self, square):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = random_smooth_field(square, rng)
            v = random_smooth_field(square, rng)
            report = gateaux_check_norm(u, v, 2.5, DEFAULT_S_LADDER)
            assert report.errors[0] > report.errors[1] > report.errors[2]
            assert 0.8 <= report.slope <= 2.2

    def test_empty_ladder_rejected(self, square):
        u = random_smooth_field(square, np.random.default_rng(6))
        with pytest.raises(ValueError):
            gateaux_check_norm(u, u, 2.0, ())

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            GateauxReport((1e-3, 1e-2), (0.1, 0.2), 1.0, 1.0, 2.0)  # not decreasing
        with pytest.raises(ValueError):
            GateauxReport((1e-2, 1e-3), (0.1, -0.2), 1.0, 1.0, 2.0)  # negative error

    def test_report_carries_base_and_prediction(self, square):
        rng = np.random.default_rng(11)
        u, v, w = (random_smooth_field(square, rng) for _ in range(3))
        norm, form = gateaux_check_norm(u, v, 3.0), gateaux_check_form(u, v, w, 3.0)
        assert (norm.base, norm.predicted) == (w1p_pow_sum(u, 3.0), 3.0 * form_a(u, v, 3.0))
        assert (form.base, form.predicted) == (form_a(u, w, 3.0), form_b(u, v, w, 3.0))


@pytest.mark.parametrize("ladder, message", [
    ((), "the step ladder must not be empty"),
    ((1e-2, 0.0), "step sizes must be positive"),
    ((1e-2, -1e-3), "step sizes must be positive"),
    ((1e-2, 1e-2), "step sizes must be strictly decreasing"),
])
@pytest.mark.parametrize("check", ["norm", "form"])
def test_bad_ladder_rejected_before_any_integral(check, ladder, message, square, monkeypatch):
    # each of these was once checked only after the base, the prediction and every
    # step were evaluated, and the last three stopped at a numpy warning first
    calls = []
    for name in ("form_a", "form_b", "w1p_pow_sum"):
        monkeypatch.setattr(forms, name, lambda *a, _name=name: calls.append(_name))
    u = random_smooth_field(square, np.random.default_rng(12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            if check == "norm":
                gateaux_check_norm(u, u, 3.0, ladder)
            else:
                gateaux_check_form(u, u, u, 3.0, ladder)
    assert calls == []


class TestGateauxForm:
    def test_zero_direction_gives_zero_errors(self, square):
        rng = np.random.default_rng(7)
        u = random_smooth_field(square, rng)
        w = random_smooth_field(square, rng)
        report = gateaux_check_form(u, Field.constant(square, 0.0), w, 3.0)
        assert all(e == 0.0 for e in report.errors)

    def test_random_smooth_slope(self, square):
        rng = np.random.default_rng(8)
        u = random_smooth_field(square, rng)
        v = random_smooth_field(square, rng)
        w = random_smooth_field(square, rng)
        report = gateaux_check_form(u, v, w, 3.0)
        assert report.slope >= 0.9

    def test_compactly_supported_probe_direction(self, square):
        # same contract when the probed direction is a compact bump at p = 4
        rng = np.random.default_rng(9)
        u = random_smooth_field(square, rng)
        v = random_smooth_field(square, rng)
        w = bump(square, (0.5, 0.5), 0.25)
        report = gateaux_check_form(u, v, w, 4.0)
        assert report.slope >= 0.9

    def test_p_at_most_two_rejected(self, square):
        u = random_smooth_field(square, np.random.default_rng(10))
        with pytest.raises(ValueError):
            gateaux_check_form(u, u, u, 2.0)


class TestPlapResidual:
    def _bumps(self, domain, n=20, seed=42):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            c = rng.uniform(0.3, 0.7, size=domain.dim)
            out.append(bump(domain, c, rng.uniform(0.1, 0.25)))
        return out

    def test_probe_residual_decays(self):
        residuals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            domain = make_box(0.0, 1.0, h)
            probe = exponential_probe(domain, 0, 1, 3.0)
            residuals.append(plap_residual(probe, 3.0, self._bumps(domain)))
        assert residuals[0] / residuals[1] >= 1.8
        assert residuals[1] / residuals[2] >= 1.8

    def test_indicator_is_not_a_solution(self):
        domain = make_box(0.0, 1.0, 1e-2)
        res = plap_residual(Field.constant(domain, 1.0), 2.0,
                            [bump(domain, 0.5, 0.4)])
        assert res > 0.1

    def test_cosh_solves_p2(self):
        # oracle: cosh'' = cosh, so the weak residual vanishes in the limit
        residuals = []
        for h in (1e-2, 5e-3, 2.5e-3):
            domain = make_box(0.0, 1.0, h)
            u = Field.from_function(domain, lambda x: np.cosh(x[:, 0]))
            residuals.append(plap_residual(u, 2.0, self._bumps(domain)))
        assert residuals[0] / residuals[1] >= 1.8
        assert residuals[1] / residuals[2] >= 1.8

    def test_non_compact_test_function_rejected(self):
        domain = make_box(0.0, 1.0, 1e-2)
        u = exponential_probe(domain, 0, 1, 2.0)
        with pytest.raises(ValueError, match="boundary layer"):
            plap_residual(u, 2.0, [Field.constant(domain, 1.0)])

    def test_empty_iterable_rejected(self):
        domain = make_box(0.0, 1.0, 1e-2)
        u = exponential_probe(domain, 0, 1, 2.0)
        with pytest.raises(ValueError, match="at least one test function"):
            plap_residual(u, 2.0, iter([]))

    def test_generator_matches_list(self):
        domain = make_box((0.0, 0.0), (1.0, 1.0), 2e-2)
        u = exponential_probe(domain, 0, 1, 3.0)
        tests = self._bumps(domain)
        assert plap_residual(u, 3.0, (phi for phi in tests)) == plap_residual(u, 3.0, tests)

    @pytest.mark.parametrize("last", [False, True])
    def test_nan_residual_fails_the_check(self, nan_on_call, last):
        domain = make_box(0.0, 1.0, 1e-2)
        u = exponential_probe(domain, 0, 1, 2.0)
        tests = self._bumps(domain, n=5)
        calls = nan_on_call(forms, "form_a", len(tests) - 1 if last else 0)
        residual = plap_residual(u, 2.0, tests)
        assert len(calls) == len(tests)
        assert math.isnan(residual)
        assert _check("residual", "claim", residual, 1.0)["status"] == "fail"


class TestClarkson:
    def _stacks(self, domain, seed, k):
        rng = np.random.default_rng(seed)
        return rng.normal(0, 1, (2, k, domain.n_cells, domain.dim))

    def test_parallelogram_law(self):
        domain = make_box((0, 0), (1, 1), 0.05)
        slack = clarkson_check(domain, *self._stacks(domain, 0, 50), 2.0)
        assert slack.shape == (50,) and np.all(np.abs(slack) <= 1e-12)

    def test_equal_arguments_p4(self):
        # oracle: f = g collapses the slack to (2^4 - 4) ||f||_4^4
        domain = make_box((0, 0), (1, 1), 0.05)
        f, _ = self._stacks(domain, 0, 3)
        expected = [(2.0**4 - 4.0) * lp_pow_sum(VectorField(domain, x), 4.0) for x in f]
        assert clarkson_check(domain, f, f, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_low_exponent_direction(self):
        domain = make_box((0, 0), (1, 1), 0.1)
        slack = clarkson_check(domain, *self._stacks(domain, 0, 1000), 1.5)
        assert slack.shape == (1000,) and np.all(slack <= 1e-12)

    def test_domain_mismatch_rejected(self):
        # stacks must share one shape, and it must end in the domain's (n_cells, dim)
        a = make_box((0, 0), (1, 1), 0.1)
        b = make_box((0, 0), (1, 1), 0.05)
        f = np.ones((3, a.n_cells, 2))
        for pair in [(np.ones((3, b.n_cells, 2)),) * 2, (f[..., :1],) * 2, (f[..., 0],) * 2,
                     (f, np.ones((3, b.n_cells, 2))), (f, f[:2]), (f, f[None])]:
            with pytest.raises(ValueError, match="do not share a shape"):
                clarkson_check(a, *pair, 2.0)

    def test_overflowing_sums_give_a_nan_slack_not_an_error(self):
        # one cell of width 1: the four power sums are finite (1.2e308 and 6e307), but
        # ||f+g||^2 + ||f-g||^2 and 2||f||^2 + 2||g||^2 overflow, so the slack is inf - inf,
        # a NaN that fails its check, and not an error under the command line's errstate
        domain = make_box((0, 0), (1, 1), 1.0)
        f, g = np.zeros((2, 1, 1, 2))
        f[..., 0] = g[..., 1] = math.sqrt(6e307)
        with np.errstate(over="raise", invalid="raise"):
            assert math.isnan(clarkson_check(domain, f, g, 2.0)[0])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("h", [0.125, 0.05])  # 64 and 400 cells, below and above a block
def test_stacked_clarkson_slacks_equal_the_pairwise_slacks(h, k, p, blocks_of):
    # each sample's slack, from stacks whose power sums split where a single pair's
    # do, equals the slack of its own pair of fields, compared as hex
    domain = make_box((0, 0), (1, 1), h)
    f, g = np.random.default_rng(k).normal(0, 1, (2, k, domain.n_cells, 2))
    with blocks_of(100):
        expected = [reference_clarkson_slack(VectorField(domain, a), VectorField(domain, b),
                                             p).hex() for a, b in zip(f, g)]
        assert [x.hex() for x in clarkson_check(domain, f, g, p)] == expected


def test_clarkson_suite_slacks_equal_one_by_one_draws(monkeypatch):
    # 1,089 cells: stacks of 15 samples, and a last stack of 10 for each p; every slack
    # equals the slack of the pair two (n, dim) draws per sample give, as hex
    stacks = []

    def recorded(domain, f, g, p):
        stacks.append((p, clarkson_check(domain, f, g, p)))
        return stacks[-1][1]

    monkeypatch.setattr(suites, "clarkson_check", recorded)
    suites.suite_clarkson(suites.SuiteConfig("clarkson", h=0.03, seed=5))
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.03)
    assert domain.n_cells == 1089
    assert [len(s) for _, s in stacks] == ([15] * 66 + [10]) * 4
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0, 4.0):
        expected = [reference_clarkson_slack(*(VectorField(domain, rng.normal(
            0.0, 1.0, (domain.n_cells, 2))) for _ in range(2)), p).hex() for _ in range(1000)]
        assert [x.hex() for q, s in stacks if q == p for x in s] == expected


class TestAgainstQuadrature:
    def test_form_a_exponential_pair_vs_quad(self, interval):
        # independent oracle: adaptive quadrature of the closed-form integrand
        u = Field.from_function(interval, lambda x: np.exp(x[:, 0]))
        v = Field.from_function(interval, lambda x: np.sin(3.0 * x[:, 0]))
        p = 3.0
        zero_order, _ = quad(lambda x: math.exp(x) ** (p - 1) * math.sin(3 * x), 0, 1)
        grad_order, _ = quad(
            lambda x: math.exp(x) ** (p - 1) * 3.0 * math.cos(3 * x), 0, 1)
        assert form_a(u, v, p) == pytest.approx(zero_order + grad_order, abs=5e-3)


# -- blocked kernels against the full-array code they replaced -----------------


# each takes its fields' reference gradients, computed once per field


def _reference_w1p_pow_sum(u, du, p):
    cell = u.domain.h**u.domain.dim
    mags = np.linalg.norm(du, axis=1)
    return (float(np.sum(np.abs(u.values)**p)) * cell
            + float(np.sum(mags**p)) * cell)


def _reference_form_a(u, v, du, dv, p):
    zero_order = np.sum(np.sign(u.values) * np.abs(u.values) ** (p - 1.0) * v.values)
    mag = np.linalg.norm(du, axis=1)
    grad_term = forms._grad_weight(mag, p - 2.0) * np.einsum("nd,nd->n", du, dv)
    return float(zero_order + np.sum(grad_term)) * u.domain.h**u.domain.dim


def _reference_form_b(u, v, w, du, dv, dw, p):
    mag = np.linalg.norm(du, axis=1)
    t1 = (p - 1.0) * np.sum(np.abs(u.values) ** (p - 2.0) * (v.values * w.values))
    inner_v = np.einsum("nd,nd->n", du, dv)
    inner_w = np.einsum("nd,nd->n", du, dw)
    t2 = (p - 2.0) * np.sum(forms._grad_weight(mag, p - 4.0) * (inner_v * inner_w))
    t3 = np.sum(forms._grad_weight(mag, p - 2.0) * np.einsum("nd,nd->n", dv, dw))
    return float(t1 + t2 + t3) * u.domain.h**u.domain.dim


def _assert_blocked_kernels_exact(domain, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(3, domain.n_cells))
    vals[0, : domain.n_cells // 4] = 0.5  # a flat patch: grad u = 0, the singular weights' zero
    u, v, w = (Field(domain, x) for x in vals)
    du, dv, dw = (reference_gradient(f) for f in (u, v, w))
    assert np.array_equal(gradient(u).values, du)
    for p in (1.5, 2.0, 3.0, 4.5):
        assert w1p_pow_sum(u, p) == _reference_w1p_pow_sum(u, du, p)
        assert form_a(u, v, p) == _reference_form_a(u, v, du, dv, p)
    for p in (2.5, 3.0, 4.5):
        assert form_b(u, v, w, p) == _reference_form_b(u, v, w, du, dv, dw, p)


@pytest.mark.parametrize("make_domain", [
    pytest.param(lambda: make_box((0.0, 0.0), (1.0, 1.0), 0.005), id="box-200x200"),
    pytest.param(lambda: domain_from_spec({
        "dim": 2, "h": 0.005, "boxes": [{"lo": [0, 0], "hi": [1, 1]}],
        "subtract": [{"lo": [0.3, 0.2], "hi": [0.55, 0.7]}]}), id="holed-box"),
    pytest.param(lambda: example_5_4_omega2(5e-3), id="two-block"),
    pytest.param(lambda: make_box(0.0, 1.0, 2e-5), id="interval-50000"),
])
def test_blocked_kernels_equal_full_array_code(make_domain):
    domain = make_domain()
    assert domain.n_cells > 2 * grid_domain._BLOCK
    _assert_blocked_kernels_exact(domain, 0)


@st.composite
def _multi_block_domains(draw):
    """A base box of 142-180 cells a side, up to two more boxes anywhere
    (possibly disjoint from it), up to two holes and a 40x40 patch of random
    cells, whose one- and two-cell runs take every one-sided stencil: 2D
    domains of 16,700 to 46,800 cells, so two or more row blocks with a
    partial last one."""
    mask = np.zeros((260, 260), dtype=bool)
    side = st.integers(142, 180)
    mask[: draw(side), : draw(side)] = True
    corner = st.integers(0, 220)
    for lo_size, hi_size, active in ((5, 80, True), (5, 80, True), (2, 30, False), (2, 30, False)):
        if draw(st.booleans()):
            i, j = draw(corner), draw(corner)
            mask[i:i + draw(st.integers(lo_size, hi_size)),
                 j:j + draw(st.integers(lo_size, hi_size))] = active
    i, j = draw(corner), draw(corner)
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((40, 40))
    mask[i:i + 40, j:j + 40] = noise < draw(st.floats(0.3, 0.9))
    return GridDomain(2, 1.0 / 128, (0.0, 0.0), np.argwhere(mask))


@settings(max_examples=40, deadline=None)
@given(_multi_block_domains(), st.integers(0, 2**32 - 1))
def test_blocked_kernels_exact_on_random_domains(domain, seed):
    assert domain.n_cells > grid_domain._BLOCK
    _assert_blocked_kernels_exact(domain, seed)


@pytest.mark.parametrize("form, n_fields", [(form_a, 2), (form_b, 3)])
def test_each_form_is_one_blocked_walk(form, n_fields, monkeypatch):
    walks = []

    def recorded(n, summands, start=0):
        walks.append(n)
        return field._block_sums(n, summands, start)

    monkeypatch.setattr(forms, "_block_sums", recorded)
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.004)  # 62,500 cells, a split sum
    rng = np.random.default_rng(13)
    form(*(random_smooth_field(domain, rng) for _ in range(n_fields)), 3.0)
    assert walks == [domain.n_cells]


@pytest.mark.parametrize("block", [16384, 150, 7])
@pytest.mark.parametrize("make_domain", [
    pytest.param(lambda: make_box((0.0, 0.0), (1.0, 1.0), 0.02), id="box-h0.02"),
    pytest.param(lambda: make_box((0.0, 0.0), (1.0, 1.0), 0.004), id="box-h0.004"),
    pytest.param(lambda: make_box(0.0, 1.0, 1e-4), id="interval-h1e-4"),
    pytest.param(lambda: domain_from_spec("fat_cantor(0.5)"), id="fat-cantor"),
])
def test_one_walk_forms_equal_the_two_walk_sums(make_domain, block, blocks_of):
    # summing the tuple of integrands as one (k, b) array gives each sum's bits
    domain = make_domain()
    rng = np.random.default_rng(14)
    u, v, w = (random_smooth_field(domain, rng) for _ in range(3))
    with blocks_of(block):
        for p in (1.5, 2.0, 2.5, 3.0, 4.0):
            assert form_a(u, v, p).hex() == two_walk_form_a(u, v, p).hex()
            if p > 2.0:
                assert form_b(u, v, w, p).hex() == two_walk_form_b(u, v, w, p).hex()


def test_norm_calculus_evaluates_each_integral_once(monkeypatch):
    # the suite reads the base and the prediction its Gateaux checks computed
    calls = {"form_a": 0, "form_b": 0}
    for name in calls:
        original = getattr(forms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (forms, suites):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    suites.suite_norm_calculus(suites.SuiteConfig("norm-calculus"))
    assert calls == {"form_a": 600, "form_b": 60}


@pytest.mark.parametrize("form, args, p", [
    (form_a, ("big", "big"), 3.0),
    (form_a, ("big", "zero"), 3.0),   # inf * 0 is NaN, which must not pass either
    (form_b, ("big", "big", "big"), 3.0),
    (form_b, ("big", "zero", "zero"), 4.0),
], ids=["form_a", "form_a_times_zero", "form_b", "form_b_times_zero"])
def test_forms_reject_overflow(form, args, p):
    # |u| = 1e200 overflows |u|^(p-1) v and |u|^(p-2) v w; the forms raise, as
    # the power sums do, instead of returning inf or NaN with a numpy
    # RuntimeWarning (which the pytest configuration turns into an error)
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.05)
    fields = {"big": Field.constant(domain, 1e200), "zero": Field.constant(domain, 0.0)}
    with pytest.raises(ValueError, match=f"overflows at p = {p}"):
        form(*(fields[a] for a in args), p)


def _peak_excess(n, fn, *args):
    """Traced peak of ``fn(*args)`` above the memory live at entry, in n-float arrays."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - live) / (8 * n)
    finally:
        tracemalloc.stop()


def test_blocked_kernels_peak_memory():
    # on a 400x400 box; the full-array code read 5.37 (gradient), 8.13 (form_a),
    # 12.13 (form_b) and 6.00 (w1p_pow_sum), and sums that filled an n-length
    # buffer of summands read 2.08, 3.28 and 1.87
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    domain.neighbor_rows  # the cached stencil rows are not the kernel's
    rng = np.random.default_rng(5)
    u, v, w = (Field(domain, rng.normal(size=domain.n_cells)) for _ in range(3))
    n = domain.n_cells

    assert _peak_excess(n, gradient, u) <= domain.dim + 1  # its output alone is dim arrays
    assert _peak_excess(n, form_a, u, v, 3.0) <= 1
    assert _peak_excess(n, form_b, u, v, w, 3.0) <= 1
    assert _peak_excess(n, w1p_pow_sum, u, 3.0) <= 1


def test_gradient_rows_block_peak_memory():
    # two fields' gradients on one full row block of a 400x400 box whose stencil
    # tables are built, in floats per block row: the four output columns alone are
    # 4, and the block's expanded neighbour rows and stencil masks read 11.3
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    rng = np.random.default_rng(5)
    u, v = (Field(domain, rng.normal(size=domain.n_cells)) for _ in range(2))
    blk = slice(0, grid_domain._BLOCK)
    gradient_rows([u, v], blk)
    assert _peak_excess(grid_domain._BLOCK, gradient_rows, [u, v], blk) <= 7


def test_blocked_samplers_peak_memory():
    # on a 400x400 box the full-array samplers read 2.00 (exponential_probe) and
    # 2.13 (Field.from_function); the output alone is one array
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    n = domain.n_cells

    assert _peak_excess(n, exponential_probe, domain, 1, -1, 3.0) <= 1.5
    assert _peak_excess(n, Field.from_function, domain,
                        lambda x: np.cos(x[:, 0]) * x[:, 1]) <= 1.5


def test_plap_residual_peak_memory():
    # a whole residual on a fresh 400x400 box, which builds its neighbour tables
    # and boundary layer inside: 3.80 n-float arrays while the neighbour rows were
    # n-length int32 arrays, 1.87 with the segment tables; a test bump alone is one
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    probe = exponential_probe(domain, 0, 1, 3.0)
    tests = (bump(domain, (0.5, 0.5), 0.3) for _ in range(2))
    assert _peak_excess(domain.n_cells, plap_residual, probe, 3.0, tests) <= 2


def test_plap_residual_step_peak_memory():
    # one residual step on a 400x400 box whose stencil rows are built, its test
    # bump made when the residual reaches it; the bump alone is one array
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    domain.neighbor_rows
    probe = exponential_probe(domain, 0, 1, 3.0)
    tests = (bump(domain, (0.5, 0.5), 0.3) for _ in range(1))
    assert _peak_excess(domain.n_cells, plap_residual, probe, 3.0, tests) <= 2
