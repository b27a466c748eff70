import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sil import (
    Field,
    GridDomain,
    VectorField,
    ball_fits,
    bump,
    example_4_8_omega1,
    exponential_probe,
    gradient,
    hat,
    lp_norm,
    lp_pow_sum,
    make_box,
    probe_rate,
    random_smooth_field,
    w1p_norm,
    w1p_pow_sum,
)
from sil import grid_domain
from sil.field import _worst


@pytest.fixture
def interval():
    return make_box(0.0, 1.0, 1e-3)


@pytest.fixture
def square():
    return make_box((0.0, 0.0), (1.0, 1.0), 0.02)


class TestGradient:
    def test_constant_field(self, interval):
        g = gradient(Field.constant(interval, 3.5))
        assert np.abs(g.values).max() == 0.0

    def test_linear_is_exact(self, interval):
        g = gradient(Field.from_function(interval, lambda x: x[:, 0]))
        assert np.abs(g.values[:, 0] - 1.0).max() <= 1e-9

    def test_exponential_accuracy(self, interval):
        # oracle: the analytic derivative; central/one-sided stencils are O(h^2)
        g = gradient(Field.from_function(interval, lambda x: np.exp(x[:, 0])))
        exact = np.exp(interval.centers[:, 0])
        assert np.abs(g.values[:, 0] - exact).max() <= 1e-5

    def test_isolated_cell_gets_zero(self):
        domain = make_box(0.0, 1.0, 0.3)  # 3 cells
        single = make_box(0.0, 0.25, 0.3)  # 1 cell
        assert single.n_cells == 1
        g = gradient(Field.constant(single, 7.0))
        assert g.values.tolist() == [[0.0]]

    def test_2d_mixed_smooth(self, square):
        u = Field.from_function(square, lambda x: np.sin(x[:, 0]) * np.cos(x[:, 1]))
        g = gradient(u)
        ex = np.cos(square.centers[:, 0]) * np.cos(square.centers[:, 1])
        ey = -np.sin(square.centers[:, 0]) * np.sin(square.centers[:, 1])
        assert np.abs(g.values[:, 0] - ex).max() <= 1e-3
        assert np.abs(g.values[:, 1] - ey).max() <= 1e-3


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    def test_indicator(self, interval, p):
        assert lp_norm(Field.constant(interval, 1.0), p) == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form(self, interval):
        # oracle: int_0^1 x^2 dx = 1/3
        u = Field.from_function(interval, lambda x: x[:, 0])
        assert lp_norm(u, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-4)

    def test_zero_field(self, interval):
        assert lp_norm(Field.constant(interval, 0.0), 2.5) == 0.0

    def test_p_below_one_rejected(self, interval):
        with pytest.raises(ValueError):
            lp_norm(Field.constant(interval, 1.0), 0.5)


class TestW1pNorm:
    def test_indicator_unit_interval(self, interval):
        assert w1p_norm(Field.constant(interval, 1.0), 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_on_hyperbolic_image(self):
        domain = example_4_8_omega1(1e-4)
        value = w1p_norm(Field.constant(domain, 1.0), 2.0)
        assert value == pytest.approx(math.sqrt(0.118), abs=0.005)

    def test_linear_closed_form(self, interval):
        # oracle: int x^2 + int 1 = 4/3
        u = Field.from_function(interval, lambda x: x[:, 0])
        assert w1p_norm(u, 2.0) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-3)

    def test_power_decomposition_exact(self, square):
        rng = np.random.default_rng(1)
        u = random_smooth_field(square, rng)
        for p in (1.5, 2.0, 3.0):
            assert w1p_pow_sum(u, p) == lp_pow_sum(u, p) + lp_pow_sum(gradient(u), p)

    def test_triangle_inequality_sweep(self):
        domain = make_box(0.0, 1.0, 0.01)
        rng = np.random.default_rng(9)
        for p in (1.5, 2.0, 3.0, 4.0):
            for _ in range(250):
                u = random_smooth_field(domain, rng)
                v = random_smooth_field(domain, rng)
                assert w1p_norm(u + v, p) <= w1p_norm(u, p) + w1p_norm(v, p) + 1e-12


class TestExponentialProbe:
    def test_p2_rate_is_one(self, interval):
        u = exponential_probe(interval, 0, 1, 2.0)
        assert probe_rate(2.0) == 1.0
        assert np.allclose(u.values, np.exp(interval.centers[:, 0]), rtol=1e-15)

    def test_p3_rate(self, interval):
        # oracle: (p-1)^(-1/p) evaluated directly
        assert probe_rate(3.0) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-15)
        u = exponential_probe(interval, 0, 1, 3.0)
        expected = np.exp(2.0 ** (-1.0 / 3.0) * interval.centers[:, 0])
        assert np.allclose(u.values, expected, rtol=1e-15)

    def test_plus_minus_product_is_one(self, interval):
        plus = exponential_probe(interval, 0, 1, 3.0)
        minus = exponential_probe(interval, 0, -1, 3.0)
        assert np.abs((plus * minus).values - 1.0).max() <= 1e-12

    def test_p_at_most_one_rejected(self, interval):
        with pytest.raises(ValueError):
            exponential_probe(interval, 0, 1, 1.0)


class TestBump:
    def test_value_one_at_node_aligned_center(self, square):
        row = square.rows_of_indices(np.array([[25, 25]]))[0]
        center = tuple(square.centers[row])
        b = bump(square, center, 0.25)
        assert b.at(np.array([center]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_outside_radius(self, square):
        b = bump(square, (0.5, 0.5), 0.2)
        far = np.linalg.norm(square.centers - [0.5, 0.5], axis=1) >= 0.2
        assert np.abs(b.values[far]).max() == 0.0
        assert b.at(np.array([[0.95, 0.95]]))[0] == 0.0

    def test_support_not_contained_rejected(self, square):
        assert not ball_fits(square, (0.9, 0.9), 0.3)
        with pytest.raises(ValueError, match="support"):
            bump(square, (0.9, 0.9), 0.3)

    def test_vanishes_on_boundary_layer(self, square):
        b = bump(square, (0.5, 0.5), 0.3)
        assert not b.values[square.boundary_layer_mask()].any()

    def test_norm_stable_under_refinement(self):
        # grid-refinement self-consistency at p = 3
        coarse = w1p_norm(bump(make_box((0, 0), (1, 1), 0.02), (0.5, 0.5), 0.25), 3.0)
        fine = w1p_norm(bump(make_box((0, 0), (1, 1), 0.01), (0.5, 0.5), 0.25), 3.0)
        assert abs(coarse - fine) / fine <= 0.01


class TestLattice:
    def test_disjoint_supports_meet_zero(self, square):
        u = bump(square, (0.25, 0.25), 0.15)
        v = bump(square, (0.75, 0.75), 0.15)
        assert abs(u).minimum(abs(v)).values.max() == 0.0

    def test_overlapping_supports_meet_positive(self, square):
        u = bump(square, (0.45, 0.5), 0.2)
        v = bump(square, (0.55, 0.5), 0.2)
        assert abs(u).minimum(abs(v)).values.max() > 0.0

    def test_min_max_abs(self, square):
        rng = np.random.default_rng(2)
        u = random_smooth_field(square, rng)
        v = random_smooth_field(square, rng)
        assert np.all(u.minimum(v).values <= u.maximum(v).values)
        assert np.all(abs(u).values >= 0.0)

    def test_nan_rejected(self, square):
        vals = np.ones(square.n_cells)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(square, vals)


@settings(max_examples=30, deadline=None)
@given(magnitude=st.floats(min_value=1e-3, max_value=100.0),
       negate=st.booleans(),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
       seed=st.integers(0, 50))
def test_lp_norm_homogeneity(magnitude, negate, p, seed):
    scale = -magnitude if negate else magnitude
    domain = make_box(0.0, 1.0, 0.02)
    u = random_smooth_field(domain, np.random.default_rng(seed))
    expected = abs(scale) * lp_norm(u, p)
    assert lp_norm(scale * u, p) == pytest.approx(expected, rel=1e-12)


class TestInterpolation:
    def test_constant_is_exact_everywhere(self, square):
        u = Field.constant(square, 2.5)
        pts = np.random.default_rng(0).uniform(0.001, 0.999, (200, 2))
        assert np.abs(u.at(pts) - 2.5).max() <= 1e-14

    def test_linear_exact_in_interior(self, square):
        u = Field.from_function(square, lambda x: 2.0 * x[:, 0] - x[:, 1])
        pts = np.random.default_rng(1).uniform(0.1, 0.9, (200, 2))
        exact = 2.0 * pts[:, 0] - pts[:, 1]
        assert np.abs(u.at(pts) - exact).max() <= 1e-12

    def test_far_outside_gives_zero(self, square):
        u = Field.constant(square, 1.0)
        vals, covered = u.at_with_coverage(np.array([[5.0, 5.0]]))
        assert vals[0] == 0.0 and not covered[0]


class TestCsv:
    def test_field_round_trip(self, tmp_path, square):
        u = random_smooth_field(square, np.random.default_rng(3))
        path = tmp_path / "field.csv"
        u.to_csv(path)
        v = Field.from_csv(path, square)
        assert np.array_equal(u.values, v.values)

    def test_vector_field_round_trip(self, tmp_path, square):
        vf = gradient(random_smooth_field(square, np.random.default_rng(4)))
        path = tmp_path / "vec.csv"
        vf.to_csv(path)
        back = VectorField.from_csv(path, square)
        assert np.array_equal(vf.values, back.values)

    def test_header_checked(self, tmp_path, square):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            Field.from_csv(path, square)

    def test_coverage_checked(self, tmp_path, square):
        u = Field.constant(square, 1.0)
        path = tmp_path / "field.csv"
        u.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="cover"):
            Field.from_csv(path, square)

    @pytest.mark.parametrize("index", ["1.0", "1.5", "1e0"])
    def test_index_must_be_an_integer_literal(self, tmp_path, index):
        # pinned here, not left to loadtxt: numpy 1.x truncated "1.5" to 1
        domain = make_box(0.0, 1.0, 0.5)
        path = tmp_path / "field.csv"
        Field.constant(domain, 1.0).to_csv(path)
        path.write_text(path.read_text().replace("\n1,", f"\n{index},"))
        with pytest.raises(ValueError, match="int64"):
            Field.from_csv(path, domain)

    def test_cell_listed_twice_rejected(self, tmp_path):
        # the old reader let the last of two rows for a cell win
        domain = make_box((0, 0), (1, 1), 0.5)
        path = tmp_path / "field.csv"
        Field.constant(domain, 1.0).to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(lines[:3] + [lines[4], lines[4]]) + b"\r\n")
        with pytest.raises(ValueError, match="4 rows, 3 distinct cells"):
            Field.from_csv(path, domain)


def _csv_writer_reference(path, domain, columns, names):
    """The csv.writer loop the dump format was first written with."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j"][:domain.dim] + ["x", "y"][:domain.dim] + names)
        for cell, center, row in zip(domain.cells, domain.centers, columns):
            writer.writerow([*map(int, cell),
                             *(repr(float(c)) for c in center),
                             *(repr(float(v)) for v in row)])


@st.composite
def _dumped_fields(draw):
    """A Field or VectorField on a random 1D/2D mask, negative indices included,
    with values drawn to stress float formatting."""
    shape = draw(st.sampled_from([(12,), (1, 6), (5, 1), (4, 4), (3, 7)]))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    cells = np.argwhere(mask) + draw(st.integers(-40, 3))
    h = draw(st.sampled_from([0.5, 0.1, 1.0 / 3.0, 1e-3]))
    origin = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(shape), max_size=len(shape)))
    domain = GridDomain(len(shape), h, tuple(origin), cells)
    vector = draw(st.booleans())
    n = domain.n_cells * (domain.dim if vector else 1)
    special = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e16, -1e16, 0.1, 1e22])
    vals = np.array(draw(st.lists(special | st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=n, max_size=n)))
    if vector:
        return VectorField(domain, vals.reshape(-1, domain.dim))
    return Field(domain, vals)


@settings(max_examples=150, deadline=None)
@given(_dumped_fields())
def test_csv_dump_matches_csv_module_and_round_trips(tmp_path_factory, f):
    path = tmp_path_factory.getbasetemp() / "dump.csv"
    f.to_csv(path)
    written = path.read_bytes()
    if isinstance(f, Field):
        _csv_writer_reference(path, f.domain, f.values[:, None], ["value"])
    else:
        _csv_writer_reference(path, f.domain, f.values, [f"v{d}" for d in range(f.domain.dim)])
    assert written == path.read_bytes()
    for body in (written, written.replace(b"\r\n", b"\n")):  # CRLF as written, and LF
        path.write_bytes(body)
        back = type(f).from_csv(path, f.domain)
        assert back.values.tobytes() == f.values.tobytes()  # bit-exact, -0.0 included


def test_csv_helpers_peak_memory(tmp_path):
    # 200x200 vector field; a reader that collects Python lists of the rows
    # peaks at about 14 MB, a writer formatting 16,384-row blocks at about 5.5 MB
    domain = make_box((0, 0), (1, 1), 0.005)
    vf = VectorField(domain, domain.centers)
    domain.rows_of_indices(domain.cells[:1])  # build the cached keys untraced
    path = tmp_path / "vec.csv"
    peak_write, _ = _traced_peak(vf.to_csv, path)
    peak_read, back = _traced_peak(VectorField.from_csv, path, domain)
    assert np.array_equal(back.values, vf.values)
    assert peak_write <= 1e6
    assert peak_read <= 6e6


class TestHat:
    def test_peak_and_support(self, interval):
        center = float(interval.centers[500, 0])
        v = hat(interval, center, 0.2)
        assert v.values.max() == 1.0
        assert v.at(np.array([[center]]))[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(v.values[np.abs(interval.centers[:, 0] - center) >= 0.2]).max() == 0.0

    def test_compact_inside(self, interval):
        assert not hat(interval, 0.5, 0.3).values[interval.boundary_layer_mask()].any()


def _reference_gradient(u):
    """The gradient as first written: second neighbours found by cell lookup."""
    dom = u.domain
    v = u.values
    h = dom.h
    out = np.zeros((dom.n_cells, dom.dim))
    for d in range(dom.dim):
        plus, minus = dom.neighbor_rows[d]
        step = np.zeros(dom.dim, dtype=np.int64)
        step[d] = 2
        plus2 = dom.rows_of_indices(dom.cells + step)
        minus2 = dom.rows_of_indices(dom.cells - step)
        has_p, has_m = plus >= 0, minus >= 0
        g = np.zeros(dom.n_cells)

        central = has_p & has_m
        g[central] = (v[plus[central]] - v[minus[central]]) / (2.0 * h)

        fwd = has_p & ~has_m
        fwd2 = fwd & (plus2 >= 0)
        fwd1 = fwd & ~fwd2
        g[fwd2] = (-3.0 * v[fwd2] + 4.0 * v[plus[fwd2]] - v[plus2[fwd2]]) / (2.0 * h)
        g[fwd1] = (v[plus[fwd1]] - v[fwd1]) / h

        bwd = has_m & ~has_p
        bwd2 = bwd & (minus2 >= 0)
        bwd1 = bwd & ~bwd2
        g[bwd2] = (3.0 * v[bwd2] - 4.0 * v[minus[bwd2]] + v[minus2[bwd2]]) / (2.0 * h)
        g[bwd1] = (v[bwd1] - v[minus[bwd1]]) / h

        out[:, d] = g
    return out


@st.composite
def _gapped_domains(draw):
    """Random 1D/2D masks with a planted one-cell gap.

    The gap is a cell ``c`` with ``c`` and ``c + 2e`` active and ``c + e``
    inactive, where a lookup of ``c + 2e`` by cell would find a row that the
    stencil must not use.
    """
    shape = draw(st.sampled_from([(30,), (1, 10), (10, 1), (7, 7), (6, 11)]))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    axis = draw(st.sampled_from([d for d, n in enumerate(shape) if n >= 3]))
    cell = [draw(st.integers(0, n - 1)) for n in shape]
    cell[axis] = draw(st.integers(0, shape[axis] - 3))
    for k, active in enumerate((True, False, True)):
        at = list(cell)
        at[axis] += k
        mask[tuple(at)] = active
    offset = draw(st.integers(-5, 5))
    return GridDomain(len(shape), 0.1, (0.25,) * len(shape), np.argwhere(mask) + offset)


@settings(max_examples=150, deadline=None)
@given(_gapped_domains(), st.integers(0, 2**32 - 1))
def test_gradient_matches_cell_lookup_reference(domain, seed):
    u = Field(domain, np.random.default_rng(seed).normal(size=domain.n_cells))
    assert np.array_equal(gradient(u).values, _reference_gradient(u))


@settings(max_examples=100, deadline=None)
@given(_gapped_domains(),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_gradient_exact_on_affine_fields(domain, coef):
    slope = np.array(coef[1:domain.dim + 1])
    g = gradient(Field.from_function(domain, lambda x: coef[0] + x @ slope)).values
    for d, (plus, minus) in enumerate(domain.neighbor_rows):
        # central, three-point and two-point stencils are all exact on affine
        # fields; only a cell with no neighbour along the axis gets zero
        stencil = (plus >= 0) | (minus >= 0)
        assert np.abs(g[stencil, d] - slope[d]).max(initial=0.0) <= 1e-9
        assert not g[~stencil, d].any()


def test_gradient_makes_no_cell_lookups(monkeypatch, square):
    u = Field.from_function(square, lambda x: np.sin(x[:, 0]) * x[:, 1])
    square.neighbor_rows  # the cached face-neighbour rows are the stencil
    calls = []
    lookup = GridDomain.rows_of_indices

    def counted(self, idx):
        calls.append(len(idx))
        return lookup(self, idx)

    monkeypatch.setattr(GridDomain, "rows_of_indices", counted)
    gradient(u)
    w1p_norm(u, 3.0)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(_gapped_domains(), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_interpolation_block_size_invariant(domain, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box
    # points up to two cells past the bounding box, some with no active
    # corner, plus nodes, where a corner weight is exactly zero
    pts = np.concatenate([rng.uniform(lo - 2 * domain.h, hi + 2 * domain.h, (n, domain.dim)),
                          domain.centers[rng.integers(domain.n_cells, size=n % 5)]])
    u = Field(domain, rng.normal(size=domain.n_cells))
    v = VectorField(domain, rng.normal(size=(domain.n_cells, domain.dim)))
    whole = (u.at(pts), *u.at_with_coverage(pts), v.at(pts))  # one block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_domain, "_BLOCK", 7)
        blocked = (u.at(pts), *u.at_with_coverage(pts), v.at(pts))
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))


def _traced_peak(fn, *args) -> tuple[int, np.ndarray]:
    """Traced peak bytes allocated during ``fn(*args)``, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_per_point_temporaries_do_not_grow_with_input(square):
    v = VectorField(square, square.centers)
    square.rows_of_indices(square.cells[:1])  # build the cached keys untraced
    excess = []
    for n_blocks in (4, 16):
        n = n_blocks * grid_domain._BLOCK
        pts = np.random.default_rng(n_blocks).uniform(-0.1, 1.1, size=(n, 2))
        idx = square.index_of_points(pts)
        peak_at, out_at = _traced_peak(v.at, pts)
        peak_rows, out_rows = _traced_peak(square.rows_of_indices, idx)
        # the interpolation also returns a one-byte-per-point coverage mask
        excess.append((peak_at - out_at.nbytes - n, peak_rows - out_rows.nbytes))
    (at4, rows4), (at16, rows16) = excess
    assert at16 - at4 <= 4096
    assert rows16 - rows4 <= 4096


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20), st.data())
def test_worst_matches_max_and_propagates_nan(values, data):
    assert _worst(iter(values)) == max(values)
    pos = data.draw(st.integers(0, len(values)))
    # the builtin max drops a NaN anywhere but first; the reducer never does
    assert math.isnan(_worst(values[:pos] + [math.nan] + values[pos:]))


def test_worst_of_nothing_raises_its_message():
    with pytest.raises(ValueError, match="no samples given"):
        _worst(iter([]), "no samples given")
