import math
import tracemalloc

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
from sil import forms, grid_domain
from sil.suites import _check


@pytest.fixture
def interval():
    return make_box(0.0, 1.0, 1e-3)


@pytest.fixture
def square():
    return make_box((0.0, 0.0), (1.0, 1.0), 0.02)


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

    def test_report_json_keys(self):
        report = GateauxReport((1e-2, 1e-3), (0.1, 0.01), 1.0)
        assert list(report.to_json_dict()) == ["s", "error", "slope"]

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            GateauxReport((1e-3, 1e-2), (0.1, 0.2), 1.0)  # not decreasing
        with pytest.raises(ValueError):
            GateauxReport((1e-2, 1e-3), (0.1, -0.2), 1.0)  # negative error


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
    def _pair(self, domain, seed):
        rng = np.random.default_rng(seed)
        f = VectorField(domain, rng.normal(0, 1, (domain.n_cells, domain.dim)))
        g = VectorField(domain, rng.normal(0, 1, (domain.n_cells, domain.dim)))
        return f, g

    def test_parallelogram_law(self):
        domain = make_box((0, 0), (1, 1), 0.05)
        for seed in range(50):
            f, g = self._pair(domain, seed)
            assert abs(clarkson_check(f, g, 2.0)) <= 1e-12

    def test_equal_arguments_p4(self):
        # oracle: f = g collapses the slack to (2^4 - 4) ||f||_4^4
        domain = make_box((0, 0), (1, 1), 0.05)
        f, _ = self._pair(domain, 0)
        expected = (2.0**4 - 4.0) * lp_pow_sum(f, 4.0)
        assert clarkson_check(f, f, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_low_exponent_direction(self):
        domain = make_box((0, 0), (1, 1), 0.1)
        for seed in range(1000):
            f, g = self._pair(domain, seed)
            assert clarkson_check(f, g, 1.5) <= 1e-12

    def test_domain_mismatch_rejected(self):
        a = make_box((0, 0), (1, 1), 0.1)
        b = make_box((0, 0), (1, 1), 0.05)
        with pytest.raises(ValueError):
            clarkson_check(VectorField(a, np.ones((a.n_cells, 2))),
                           VectorField(b, np.ones((b.n_cells, 2))), 2.0)


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


def _reference_gradient(u):
    """``gradient`` as one full-array stencil pass over the cached neighbour rows."""
    dom = u.domain
    v = u.values
    h = dom.h
    out = np.zeros((dom.n_cells, dom.dim))
    for d, (plus, minus) in enumerate(dom.neighbor_rows):
        g = out[:, d]
        has_p, has_m = plus >= 0, minus >= 0
        central = has_p & has_m
        g[central] = (v[plus[central]] - v[minus[central]]) / (2.0 * h)

        fwd = np.flatnonzero(has_p & ~has_m)
        p1 = plus[fwd]
        two = plus[p1] >= 0
        r, a = fwd[two], p1[two]
        g[r] = (-3.0 * v[r] + 4.0 * v[a] - v[plus[a]]) / (2.0 * h)
        r, a = fwd[~two], p1[~two]
        g[r] = (v[a] - v[r]) / h

        bwd = np.flatnonzero(has_m & ~has_p)
        m1 = minus[bwd]
        two = minus[m1] >= 0
        r, a = bwd[two], m1[two]
        g[r] = (3.0 * v[r] - 4.0 * v[a] + v[minus[a]]) / (2.0 * h)
        r, a = bwd[~two], m1[~two]
        g[r] = (v[r] - v[a]) / h
    return out


def _reference_w1p_pow_sum(u, p):
    cell = u.domain.h**u.domain.dim
    mags = np.linalg.norm(_reference_gradient(u), axis=1)
    return (float(np.sum(np.abs(u.values)**p)) * cell
            + float(np.sum(mags**p)) * cell)


def _reference_form_a(u, v, p):
    zero_order = np.sum(np.sign(u.values) * np.abs(u.values) ** (p - 1.0) * v.values)
    du, dv = _reference_gradient(u), _reference_gradient(v)
    mag = np.linalg.norm(du, axis=1)
    grad_term = forms._grad_weight(mag, p - 2.0) * np.einsum("nd,nd->n", du, dv)
    return float(zero_order + np.sum(grad_term)) * u.domain.h**u.domain.dim


def _reference_form_b(u, v, w, p):
    du, dv, dw = (_reference_gradient(f) for f in (u, v, w))
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
    assert np.array_equal(gradient(u).values, _reference_gradient(u))
    for p in (1.5, 2.0, 3.0, 4.5):
        assert w1p_pow_sum(u, p) == _reference_w1p_pow_sum(u, p)
        assert form_a(u, v, p) == _reference_form_a(u, v, p)
    for p in (2.5, 3.0, 4.5):
        assert form_b(u, v, w, p) == _reference_form_b(u, v, w, p)


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


def test_blocked_kernels_peak_memory():
    # traced peak above the memory live at entry, in n-float arrays, on a
    # 400x400 box; the full-array code read 5.37 (gradient), 8.13 (form_a),
    # 12.13 (form_b) and 6.00 (w1p_pow_sum)
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    domain.neighbor_rows  # the cached stencil rows are not the kernel's
    rng = np.random.default_rng(5)
    u, v, w = (Field(domain, rng.normal(size=domain.n_cells)) for _ in range(3))

    def excess(fn, *args):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return (tracemalloc.get_traced_memory()[1] - live) / (8 * domain.n_cells)
        finally:
            tracemalloc.stop()

    assert excess(gradient, u) <= domain.dim + 1  # its output alone is dim arrays
    assert excess(form_a, u, v, 3.0) <= 4
    assert excess(form_b, u, v, w, 3.0) <= 4
    assert excess(w1p_pow_sum, u, 3.0) <= 4
