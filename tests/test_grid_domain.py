import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sil import (
    GridDomain,
    RigidMotion,
    apply_rigid_motion,
    congruence_check,
    connected_components,
    domain_from_spec,
    example_4_8_interval,
    example_4_8_omega1,
    example_5_4_omega2,
    fat_cantor_intervals,
    is_topologically_regular,
    make_box,
    make_fat_cantor_complement,
    random_rigid_motion,
)
from sil import grid_domain
from sil.field import Field, gradient, gradient_rows

from _references import subtract_boxes


class TestMakeBox:
    def test_unit_interval_measure(self):
        assert make_box(0.0, 1.0, 1e-3).measure == pytest.approx(1.0, abs=1e-3)

    def test_two_by_one_box_measure(self):
        assert make_box((0, -1), (1, 1), 1e-2).measure == pytest.approx(2.0, abs=0.04)

    def test_shifted_interval_measure(self):
        assert make_box(1.0, 2.0, 1e-4).measure == pytest.approx(1.0, abs=1e-4)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError):
            make_box((0, 0), (1, 0), 0.1)

    @pytest.mark.parametrize("lo, hi", [((0, 0), (1, math.inf)), ((-math.inf, 0), (1, 1)),
                                        ((0, 0), (math.nan, 1))])
    def test_non_finite_extent_rejected(self, lo, hi):
        # an infinite extent once escaped as an OverflowError from math.ceil
        with pytest.raises(ValueError, match="positive and finite"):
            make_box(lo, hi, 0.1)

    def test_cell_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("SIL_CELL_BUDGET", "100")
        with pytest.raises(ValueError, match="budget"):
            make_box((0, 0), (1, 1), 0.01)


class TestMeasure:
    def test_unit_box(self):
        assert make_box((0, 0), (1, 1), 0.01).measure == pytest.approx(1.0, abs=0.04)

    def test_hyperbolic_image_interval(self):
        # the image of (1, 2) under y -> -artanh(e^{-2y}) has length ~ 0.118
        a, b = example_4_8_interval()
        assert b - a == pytest.approx(0.1178530, abs=1e-6)
        assert example_4_8_omega1(1e-4).measure == pytest.approx(0.118, abs=1e-3)

    def test_fat_cantor_bookkeeping(self):
        h = 1e-4
        domain = make_fat_cantor_complement(0.5, h)
        removed = fat_cantor_intervals(0.5, h)
        expected = 1.0 - sum(b - a for a, b in removed)
        assert abs(domain.measure - expected) <= 2 * h * len(removed)
        assert domain.measure == pytest.approx(0.5, abs=0.02)


class TestConnectedComponents:
    def test_unit_box_single_component(self):
        assert len(connected_components(make_box((0, 0), (1, 1), 0.05))) == 1

    def test_two_block_domain(self):
        parts = connected_components(example_5_4_omega2(0.01))
        assert len(parts) == 2
        for part in parts:
            assert part.measure == pytest.approx(1.0, abs=0.04)

    def test_box_minus_slab(self):
        domain = domain_from_spec({
            "dim": 2, "h": 0.02,
            "boxes": [{"lo": [0, 0], "hi": [1, 1]}],
            "subtract": [{"lo": [-1, 0.4], "hi": [2, 0.6]}],
        })
        assert len(connected_components(domain)) == 2

    def test_partition_is_exact(self):
        domain = make_fat_cantor_complement(0.4, 1e-3)
        parts = connected_components(domain)
        assert sum(p.n_cells for p in parts) == domain.n_cells
        seen = set(map(tuple, np.concatenate([p.cells for p in parts])))
        assert len(seen) == domain.n_cells


class TestRigidMotion:
    def test_identity(self):
        m = RigidMotion.identity(2)
        assert np.allclose(m.transform(np.array([[0.3, 0.4]])), [[0.3, 0.4]])

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            RigidMotion(np.array([[2.0, 0.0], [0.0, 0.5]]), np.zeros(2))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            RigidMotion(np.eye(2), np.zeros(2), sign=0)

    @pytest.mark.parametrize("Q, b", [
        ([[math.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -math.inf]),
    ])
    def test_non_finite_motion_rejected(self, Q, b):
        # a NaN once passed both tolerance tests, and b was never checked
        with pytest.raises(ValueError, match="must be finite"):
            RigidMotion(np.array(Q), np.array(b))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_rigid_motion(2, rng)
        pts = rng.uniform(-1, 1, (50, 2))
        assert np.allclose(m.inverse_transform(m.transform(pts)), pts, atol=1e-12)

    def test_json_round_trip(self):
        m = RigidMotion.rotation(0.3, b=(0.1, -0.2), sign=-1)
        m2 = RigidMotion.from_json_dict(m.to_json_dict())
        assert np.allclose(m.Q, m2.Q) and np.allclose(m.b, m2.b) and m.sign == m2.sign


class TestApplyRigidMotion:
    def test_identity_reproduces_domain(self):
        domain = make_box((0, -1), (1, 1), 0.01)
        assert apply_rigid_motion(domain, RigidMotion.identity(2)) == domain

    def test_quarter_turn_of_square_is_exact(self):
        sq = make_box((0, 0), (1, 1), 0.01)
        c = np.array([0.5, 0.5])
        rot = RigidMotion.rotation(math.pi / 2)
        m = RigidMotion(rot.Q, c - rot.Q @ c)
        image = apply_rigid_motion(sq, m)
        assert image.n_cells == sq.n_cells
        ok, defect = congruence_check(sq, sq, m, tol=4 * 0.01)
        assert ok and defect == 0.0

    def test_block_translation(self):
        block = make_box((0, 1), (1, 2), 0.01)
        target = make_box((0, 0), (1, 1), 0.01)
        m = RigidMotion(np.eye(2), np.array([0.0, -1.0]))
        ok, defect = congruence_check(target, block, m, tol=4 * 0.01)
        assert ok and defect <= 2 * 0.01

    def test_measure_preserved_over_random_motions(self):
        domain = make_box((0, 0), (0.5, 0.3), 0.01)
        lo, hi = domain.bounding_box
        perimeter = 2 * float(np.sum(hi - lo))
        bound = 2 * domain.dim * domain.h * perimeter
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_rigid_motion(2, rng)
            assert abs(apply_rigid_motion(domain, m).measure - domain.measure) <= bound


class TestCongruenceCheck:
    def test_self_congruence_is_exact(self):
        for domain in (make_box(0.0, 1.0, 1e-3),
                       make_box((0, -1), (1, 1), 0.02),
                       make_fat_cantor_complement(0.5, 1e-3)):
            ok, defect = congruence_check(domain, domain,
                                          RigidMotion.identity(domain.dim), tol=0.0)
            assert ok and defect == 0.0

    def test_half_box_mismatch(self):
        omega1 = make_box((0, -1), (1, 1), 0.01)
        block = make_box((0, 1), (1, 2), 0.01)
        m = RigidMotion(np.eye(2), np.array([0.0, -1.0]))
        ok, defect = congruence_check(omega1, block, m, tol=0.04)
        # oracle: the uncovered part is the box (0,1) x (-1,0)
        expected = make_box((0, -1), (1, 0), 0.01).measure
        assert not ok
        assert defect == pytest.approx(expected, abs=0.04)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            congruence_check(make_box(0.0, 1.0, 0.1),
                             make_box((0, 0), (1, 1), 0.1),
                             RigidMotion.identity(1), tol=0.1)


class TestTopologicalRegularity:
    def test_box_is_regular(self):
        assert is_topologically_regular(make_box((0, 0), (1, 1), 0.05))

    def test_single_cell_puncture_is_not(self):
        box = make_box((0, 0), (1, 1), 0.1)
        hole = box.rows_of_indices(np.array([[5, 5]]))[0]
        keep = np.ones(box.n_cells, dtype=bool)
        keep[hole] = False
        punctured = GridDomain(2, box.h, box.origin, box.cells[keep])
        assert not is_topologically_regular(punctured)

    def test_box_minus_slab_is_regular(self):
        domain = domain_from_spec({
            "dim": 2, "h": 0.05,
            "boxes": [{"lo": [0, 0], "hi": [1, 1]}],
            "subtract": [{"lo": [-1, 0.4], "hi": [2, 0.6]}],
        })
        assert is_topologically_regular(domain)


class TestDomainSpec:
    def test_boxes_and_subtract(self):
        domain = domain_from_spec({
            "dim": 2, "h": 0.01,
            "boxes": [{"lo": [0, -1], "hi": [1, 1]}],
        })
        assert domain == make_box((0, -1), (1, 1), 0.01)

    def test_builtin_names(self):
        assert domain_from_spec("example_5_4_omega2").measure == pytest.approx(2.0, abs=0.08)
        assert domain_from_spec({"builtin": "fat_cantor(0.5)", "h": 1e-4}).measure == \
            pytest.approx(0.5, abs=0.02)

    def test_union_of_boxes(self):
        domain = domain_from_spec({
            "dim": 2, "h": 0.01,
            "boxes": [{"lo": [0, -2], "hi": [1, -1]}, {"lo": [0, 1], "hi": [1, 2]}],
        })
        assert domain == example_5_4_omega2(0.01)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            domain_from_spec("example_nonexistent")

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            domain_from_spec({"dim": 2})

    @pytest.mark.parametrize("far", [
        pytest.param({"lo": [1e17], "hi": [1e17 + 32]}, id="above"),
        pytest.param({"lo": [-1e17], "hi": [-1e17 + 32]}, id="below"),
        # its low corner lies within 2**62 cells, its far corner does not
        pytest.param({"lo": [2.0**62 / 100 - 10.24], "hi": [2.0**62 / 100 + 10.24]}, id="reach"),
    ])
    def test_box_offset_out_of_int64_range(self, far):
        # the shift of a box 1e19 cells from the first once overflowed its int64 cast
        # and read as "boxes must sit on a common grid"
        spec = {"dim": 1, "h": 0.01, "boxes": [{"lo": [0], "hi": [1]}, far]}
        with pytest.raises(ValueError, match=r"^box 1 lies 2\*\*62 or more cells from the "
                                             r"first box's low corner$"):
            domain_from_spec(spec)

    def test_error_precedence(self, monkeypatch):
        # the budget, then each hole's dimension, then an empty result
        square, hole = {"lo": [0, 0], "hi": [1, 1]}, {"lo": [0.5], "hi": [0.6]}
        spec = {"dim": 2, "h": 0.05, "boxes": [square], "subtract": [hole]}
        with pytest.raises(ValueError, match=r"^hole 0's 'lo' must be a point of dimension 2, "
                                             r"got \[0\.5\]$"):
            domain_from_spec(spec)
        monkeypatch.setenv("SIL_CELL_BUDGET", "100")
        with pytest.raises(ValueError, match="needs 400 cells, exceeding the budget of 100"):
            domain_from_spec(spec)
        monkeypatch.delenv("SIL_CELL_BUDGET")
        with pytest.raises(ValueError, match="^subtraction removed every cell of the domain$"):
            domain_from_spec(dict(spec, subtract=[{"lo": [-1, -1], "hi": [2, 2]}]))


class TestGridDomainBasics:
    def test_equality_and_hash(self):
        a = make_box((0, 0), (1, 1), 0.1)
        b = make_box((0, 0), (1, 1), 0.1)
        assert a == b and hash(a) == hash(b)
        assert a != make_box((0, 0), (1, 1), 0.05)

    @pytest.mark.parametrize("lo, b, moved_lo, equal", [
        ((0.0, 0.0), (0.3, 0.0), (0.3, 0.0), True),   # 0.0 + 0.3 is exact
        ((0.0, 0.0), (0.2, 0.1), (0.2, 0.1), True),
        ((0.1, 0.0), (0.2, 0.0), (0.3, 0.0), False),  # 0.1 + 0.2 != 0.3 in floats
    ])
    def test_translated_box_equality_is_exact_in_the_origin(self, lo, b, moved_lo, equal):
        # pins current behaviour: __eq__ compares h and origin as exact floats,
        # so a grid-exact translation built by apply_rigid_motion equals the
        # make_box of the moved box only when the origin arithmetic is exact,
        # although both hold the same cells with the same centers up to roundoff
        box = make_box(lo, (lo[0] + 1.0, lo[1] + 0.5), 0.1)
        moved = apply_rigid_motion(box, RigidMotion(np.eye(2), b))
        direct = make_box(moved_lo, (moved_lo[0] + 1.0, moved_lo[1] + 0.5), 0.1)
        assert np.array_equal(moved.cells, direct.cells)
        assert np.allclose(moved.centers, direct.centers, rtol=0.0, atol=1e-12)
        assert (moved == direct) is equal and (moved.origin == direct.origin) is equal

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GridDomain(1, 0.1, (0.0,), np.zeros((0, 1), dtype=np.int64))

    def test_membership(self):
        domain = make_box((0, 0), (1, 1), 0.25)
        rows = domain.rows_of_points(np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert rows.tolist() == [10, -1]


def _bfs_components(cells):
    """Reference labelling: breadth-first search over face neighbours.

    Each search starts from the smallest unlabelled cell, so the parts come
    out ordered by their smallest cell.
    """
    todo = set(cells)
    parts = []
    while todo:
        start = min(todo)
        todo.remove(start)
        part, frontier = [start], [start]
        while frontier:
            cell = frontier.pop()
            for nb in _face_neighbours(cell):
                if nb in todo:
                    todo.remove(nb)
                    part.append(nb)
                    frontier.append(nb)
        parts.append(sorted(part))
    return parts


def _face_neighbours(cell):
    for d in range(len(cell)):
        for step in (-1, 1):
            yield cell[:d] + (cell[d] + step,) + cell[d + 1:]


def _assert_components(domain):
    parts = connected_components(domain)
    got = [[tuple(c) for c in p.cells.tolist()] for p in parts]
    # an exact partition, ordered by smallest cell
    assert got == _bfs_components(map(tuple, domain.cells.tolist()))
    assert sum(p.n_cells for p in parts) * domain.h**domain.dim == domain.measure
    label = {cell: k for k, part in enumerate(got) for cell in part}
    for k, part in enumerate(got):
        assert len(_bfs_components(part)) == 1  # face-connected
        for cell in part:  # no face neighbour lies in another part
            assert all(label.get(nb, k) == k for nb in _face_neighbours(cell))
    for part in parts:
        assert (part.dim, part.h, part.origin) == (domain.dim, domain.h, domain.origin)
    # the parts are the cached, read-only, ascending rows of each part
    rows = domain.component_rows
    assert domain.component_rows is rows
    assert len(rows) == len(parts)
    for r, part in zip(rows, parts):
        assert not r.flags.writeable
        assert np.all(np.diff(r) > 0)
        assert np.array_equal(domain.cells[r], part.cells)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(domain.n_cells))


@st.composite
def _random_cell_sets(draw):
    # half-full masks are dense enough for rings, islands and U shapes
    shape = draw(st.sampled_from([(40,), (1, 12), (12, 1), (6, 6), (9, 9), (5, 14)]))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    assume(mask.any())
    offset = draw(st.integers(-5, 5))
    return GridDomain(len(shape), 0.1, (0.0,) * len(shape), np.argwhere(mask) + offset)


@settings(max_examples=150, deadline=None)
@given(_random_cell_sets())
def test_components_partition_property(domain):
    _assert_components(domain)


@st.composite
def _boxes_minus_boxes(draw):
    dim = draw(st.sampled_from([1, 2]))
    box = st.tuples(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim),
                    st.lists(st.integers(1, 7), min_size=dim, max_size=dim))

    def box_cells(lo, size):
        return set(itertools.product(*(range(a, a + n) for a, n in zip(lo, size))))

    cells = set().union(*(box_cells(*b) for b in draw(st.lists(box, min_size=1, max_size=4))))
    for b in draw(st.lists(box, max_size=3)):
        cells -= box_cells(*b)
    assume(cells)
    return GridDomain(dim, 0.05, (0.25,) * dim, np.array(sorted(cells), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(_boxes_minus_boxes())
def test_components_of_boxes_minus_boxes(domain):
    _assert_components(domain)


def _lattice_symmetries(dim):
    """Signed permutation matrices: +-1 in 1D, the 8 dihedral matrices in 2D."""
    return [np.eye(dim)[list(perm)] * signs
            for perm in itertools.permutations(range(dim))
            for signs in itertools.product((1.0, -1.0), repeat=dim)]


@settings(max_examples=100, deadline=None)
@given(_boxes_minus_boxes(), st.data())
def test_grid_exact_motions_are_lossless(domain, data):
    # a lattice symmetry plus any translation maps the grid onto the image grid
    Q = data.draw(st.sampled_from(_lattice_symmetries(domain.dim)))
    b = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=domain.dim,
                                    max_size=domain.dim)))
    motion, inverse = RigidMotion(Q, b), RigidMotion(Q.T, -Q.T @ b)
    assert apply_rigid_motion(domain, RigidMotion.identity(domain.dim)) == domain
    image = apply_rigid_motion(domain, motion)
    assert image.n_cells == domain.n_cells
    assert congruence_check(image, domain, motion, tol=0.0) == (True, 0.0)
    assert congruence_check(domain, image, inverse, tol=0.0) == (True, 0.0)


@st.composite
def _masked_blocks(draw, dim):
    """Blocks 0.1 wide picked by a random mask, on a grid of width 0.01, 0.02
    or 0.05 anchored at a random origin."""
    h = draw(st.sampled_from([0.01, 0.02, 0.05]))
    shape = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    mask = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    n = round(0.1 / h)
    block = np.argwhere(np.ones((n,) * dim, dtype=bool))
    cells = np.concatenate([n * k + block for k in np.argwhere(mask)])
    origin = draw(st.lists(st.floats(-0.3, 0.3), min_size=dim, max_size=dim))
    return GridDomain(dim, h, tuple(origin), cells)


def _perimeter(domain):
    """Boundary faces of the active cells, times the face size h^(dim - 1)."""
    faces = sum(int(np.count_nonzero(domain.neighbors_of(table, np.arange(domain.n_cells)) < 0))
                for table in itertools.chain(*domain.neighbor_rows))
    return faces * domain.h ** (domain.dim - 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(lambda dim: st.tuples(_masked_blocks(dim),
                                                              _masked_blocks(dim))),
       st.integers(0, 2**32 - 1))
def test_congruence_check_symmetric_under_the_inverse_motion(domains, seed):
    # |A symm-diff m(B)| and |B symm-diff m^-1(A)| are the same measure; their
    # rasterizations differ by at most a boundary layer of either domain
    a, b = domains
    m = random_rigid_motion(a.dim, np.random.default_rng(seed))
    inverse = RigidMotion(m.Q.T, -m.Q.T @ m.b)
    gap = abs(congruence_check(a, b, m, 0.0)[1] - congruence_check(b, a, inverse, 0.0)[1])
    assert gap <= (_perimeter(a) + _perimeter(b)) * max(a.h, b.h)


def test_component_counts_pinned():
    assert len(connected_components(domain_from_spec("fat_cantor(0.5)", default_h=1e-4))) == 64
    block = np.argwhere(np.ones((8, 8), dtype=bool))
    lattice = np.concatenate([block + (10 * i, 10 * j) for i in range(10) for j in range(10)])
    parts = connected_components(GridDomain(2, 0.01, (0.0, 0.0), lattice))
    assert len(parts) == 100
    assert all(p.n_cells == 64 for p in parts)


def _reference_is_regular(domain):
    """Regularity as first written: every face neighbour of every cell is a
    candidate, filtered down to the inactive ones by lookup."""
    candidates = []
    for d in range(domain.dim):
        step = np.zeros(domain.dim, dtype=np.int64)
        step[d] = 1
        candidates.append(domain.cells + step)
        candidates.append(domain.cells - step)
    cand = np.unique(np.concatenate(candidates, axis=0), axis=0)
    cand = cand[domain.rows_of_indices(cand) < 0]
    if cand.size == 0:
        return True
    surrounded = np.ones(cand.shape[0], dtype=bool)
    for d in range(domain.dim):
        step = np.zeros(domain.dim, dtype=np.int64)
        step[d] = 1
        surrounded &= domain.rows_of_indices(cand + step) >= 0
        surrounded &= domain.rows_of_indices(cand - step) >= 0
    return not surrounded.any()


@st.composite
def _planted_defects(draw):
    """Mostly active masks with a planted puncture or slit.

    A puncture is one inactive cell whose face neighbours are all active; a
    slit is a run of one to three inactive cells along an axis with both
    sides across it active.
    """
    shape = draw(st.sampled_from([(20,), (8, 8), (6, 11), (11, 5)]))
    mask = np.array(draw(st.lists(st.sampled_from([True, True, True, False]),
                                  min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    axis = draw(st.integers(0, len(shape) - 1))
    length = draw(st.integers(1, 3)) if len(shape) == 2 else 1
    start = [draw(st.integers(1, n - 2)) for n in shape]
    start[axis] = draw(st.integers(1, shape[axis] - 1 - length))
    slit = [tuple(start[:axis]) + (start[axis] + k,) + tuple(start[axis + 1:])
            for k in range(length)]
    for cell in slit:
        for nb in _face_neighbours(cell):
            mask[nb] = True
    for cell in slit:
        mask[cell] = False
    return GridDomain(len(shape), 0.1, (0.0,) * len(shape), np.argwhere(mask))


@settings(max_examples=150, deadline=None)
@given(_planted_defects())
def test_regularity_matches_all_candidates_reference(domain):
    assert is_topologically_regular(domain) == _reference_is_regular(domain)


@settings(max_examples=60, deadline=None)
@given(_boxes_minus_boxes())
def test_regularity_of_boxes_minus_boxes(domain):
    assert is_topologically_regular(domain) == _reference_is_regular(domain)


def test_index_box_too_large_for_int64_keys():
    # the keys of a 2^31 x 2^33 index box wrap in int64; they once gave rows [0, 1, -1]
    cells = [[0, 0], [0, 2**33], [2**31, 0]]
    with pytest.raises(ValueError, match=r"index box \[0, 0\] to \[2147483648, 8589934592\]"):
        GridDomain(2, 1.0, (0.0, 0.0), cells).rows_of_indices(cells)
    # just below 2^63 cells the keys fit
    cells = [[0, 0], [0, 2**32 - 1], [2**31 - 2, 0]]
    assert GridDomain(2, 1.0, (0.0, 0.0), cells).rows_of_indices(cells).tolist() == [0, 1, 2]


@settings(max_examples=150, deadline=None)
@given(_random_cell_sets())
def test_rows_of_indices_round_trip(domain):
    n = domain.n_cells
    assert np.array_equal(domain.rows_of_indices(domain.cells), np.arange(n))
    lo, hi = domain.index_bounds
    box = np.stack(np.meshgrid(*[np.arange(a - 2, b + 3) for a, b in zip(lo, hi)],
                               indexing="ij"), axis=-1).reshape(-1, domain.dim)
    rows = domain.rows_of_indices(box)
    active = {tuple(c) for c in domain.cells.tolist()}
    absent = np.array([tuple(c) not in active for c in box.tolist()])
    out_of_box = np.any((box < lo) | (box > hi), axis=1)
    assert np.all(rows[absent] == -1) and np.all(rows[out_of_box] == -1)
    assert np.array_equal(domain.cells[rows[~absent]], box[~absent])


@settings(max_examples=150, deadline=None)
@given(_random_cell_sets(), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_rows_of_indices_block_size_invariant(blocks_of, domain, n, seed):
    # cells up to three past the bounding box: absent, out-of-box and active mix
    lo, hi = domain.index_bounds
    idx = np.random.default_rng(seed).integers(lo - 3, hi + 4, size=(n, domain.dim))
    whole = domain.rows_of_indices(idx)  # one block at the default size
    with blocks_of(7):
        assert np.array_equal(domain.rows_of_indices(idx), whole)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_boxes_minus_boxes(), _masked_blocks(1), _masked_blocks(2)), st.data())
def test_rows_of_points_match_a_dict_of_floored_points(domain, data):
    # points inside cells, exactly on cell faces and far outside the bounding box
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo, hi = domain.index_bounds
    o, h = np.asarray(domain.origin), domain.h
    k = rng.integers(lo - 2, hi + 3, size=(30, domain.dim))
    far = rng.choice([-1.0, 1.0], size=(10, domain.dim)) * rng.uniform(1e3, 1e9, (10, domain.dim))
    pts = np.concatenate([o + h * (k + rng.uniform(0.0, 1.0, k.shape)), o + h * k, far])
    row_of = {tuple(c): r for r, c in enumerate(domain.cells.tolist())}
    floored = np.floor((pts - o) / h).astype(np.int64)
    want = [row_of.get(tuple(c), -1) for c in floored.tolist()]
    assert domain.rows_of_points(pts).tolist() == want


def _reference_dilate_mask(domain, mask, steps):
    """``dilate_mask`` as first written: a masked gather of the present neighbours."""
    for _ in range(steps):
        grown = mask.copy()
        for rows in itertools.chain(*_reference_neighbor_rows(domain)):
            grown[rows >= 0] |= mask[rows[rows >= 0]]
        mask = grown
    return mask


@settings(max_examples=100, deadline=None)
@given(st.one_of(_boxes_minus_boxes(), _random_cell_sets()), st.integers(0, 3), st.data())
def test_dilate_mask_matches_the_masked_gather(blocks_of, domain, steps, data):
    # so is the boundary layer, a dilation of the cells missing a neighbour; both
    # run a row block at a time, and blocks of 3 rows cut the domains' runs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(domain.n_cells) < data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    before = mask.copy()
    missing = np.any([rows < 0 for rows in itertools.chain(*_reference_neighbor_rows(domain))], 0)
    with blocks_of(3 if data.draw(st.booleans()) else grid_domain._BLOCK):
        got = grid_domain.dilate_mask(domain, mask, steps)
        layer = domain.boundary_layer_mask(steps + 1)
    assert got.dtype == bool and np.array_equal(mask, before)
    assert np.array_equal(got, _reference_dilate_mask(domain, mask, steps))
    assert np.array_equal(layer, _reference_dilate_mask(domain, missing, steps))


class TestCellStorage:
    def test_sorted_input_is_copied_not_frozen(self):
        cells = np.argwhere(np.ones((4, 5), dtype=bool)).astype(np.int64)
        domain = GridDomain(2, 0.1, (0.0, 0.0), cells)
        assert cells.flags.writeable
        assert not any(arr.flags.writeable for arr in (domain.run_cells, domain.run_rows))
        assert not any(np.shares_memory(cells, arr)
                       for arr in (domain.run_cells, domain.run_rows, domain.cells))
        cells[0] = (9, 9)
        assert domain.cells[0].tolist() == [0, 0]

    def test_sorted_input_is_not_resorted(self, monkeypatch):
        calls = []
        for name in ("unique", "lexsort"):
            sort = getattr(np, name)
            monkeypatch.setattr(np, name,
                                lambda *a, _sort=sort, **k: calls.append(1) or _sort(*a, **k))
        make_box((0.0, 0.0), (1.0, 0.5), 0.1)
        make_box(0.0, 1.0, 0.1)
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=30))
    def test_cells_come_back_lexsorted_and_unique(self, cells):
        domain = GridDomain(2, 0.1, (0.0, 0.0), np.array(cells))
        assert np.array_equal(domain.cells, np.unique(np.array(cells), axis=0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=20))
    def test_1d_cells_come_back_sorted_and_unique(self, cells):
        domain = GridDomain(1, 0.1, (0.0,), np.array(cells))
        assert domain.cells[:, 0].tolist() == sorted(set(cells))

    @pytest.mark.parametrize("fault", [None, "swap", "duplicate"])
    def test_one_sort_of_run_events_across_row_blocks(self, fault, monkeypatch):
        # 2 * _BLOCK + 3 lexsorted cells but for the fault at rows _BLOCK - 1 and
        # _BLOCK: the cells are cut into the R runs they form in the order given, and
        # the one lexsort orders those runs' 2R first and end events, not the cells
        b = grid_domain._BLOCK
        ordered = grid_domain.box_cells((0, 0), (2 * b // 7 + 1, 6))[: 2 * b + 3]
        cells, expected = ordered.copy(), ordered
        if fault == "swap":
            cells[[b - 1, b]] = cells[[b, b - 1]]
        elif fault == "duplicate":
            cells[b] = cells[b - 1]
            expected = np.delete(ordered, b, axis=0)
        pairs = cells.tolist()
        runs = 1 + sum(q != [p[0], p[1] + 1] for p, q in zip(pairs, pairs[1:]))
        sizes = []
        sort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sizes.append(len(keys[0])) or sort(keys))
        domain = GridDomain(2, 0.1, (0.0, 0.0), cells)
        assert np.array_equal(domain.cells, expected)
        assert sizes == [2 * runs]
        assert fault or runs == domain.run_cells.shape[0]


def _reference_neighbor_rows(domain):
    """The neighbour rows as first written: int64 lookups of whole ``cells +/- e``."""
    return [(domain.rows_of_indices(domain.cells + e), domain.rows_of_indices(domain.cells - e))
            for e in np.eye(domain.dim, dtype=np.int64)]


def _reference_component_rows(domain):
    """``component_rows`` as first written: run pairs from ``np.unique``, an
    int64 ``argsort`` order."""
    run = np.searchsorted(domain.run_rows[:-1], np.arange(domain.n_cells), side="right") - 1
    root = np.arange(run[-1] + 1)
    if domain.dim == 2:
        plus = _reference_neighbor_rows(domain)[0][0]
        src = np.nonzero(plus >= 0)[0]
        pairs = np.divmod(np.unique(run[src] * len(root) + run[plus[src]]), len(root))
        for a, b in zip(*(side.tolist() for side in pairs)):
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            root[max(a, b)] = min(a, b)
    while np.any(root[root] != root):
        root = root[root]
    labels = np.unique(root, return_inverse=True)[1][run]
    order = np.argsort(labels, kind="stable")
    return tuple(np.split(order, np.cumsum(np.bincount(labels))[:-1]))


@st.composite
def _row_index_domains(draw):
    """1D and 2D unions of random boxes, possibly disjoint, minus random holes,
    with a patch of random cells for one- and two-cell runs; about half have
    more cells than one row block."""
    dim = draw(st.sampled_from([1, 2]))
    big = draw(st.booleans())
    shape = ((40_000,) if big else (300,)) if dim == 1 else ((200, 200) if big else (30, 30))
    mask = np.zeros(shape, dtype=bool)
    base = [draw(st.integers(7 * n // 10, n)) for n in shape]
    mask[tuple(slice(0, s) for s in base)] = True
    for active in (True, True, False, False):
        if draw(st.booleans()):
            lo = [draw(st.integers(0, n - 1)) for n in shape]
            size = [draw(st.integers(1, n // 3)) for n in shape]
            mask[tuple(slice(a, a + s) for a, s in zip(lo, size))] = active
    lo = [draw(st.integers(0, n - 10)) for n in shape]
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((10,) * dim)
    mask[tuple(slice(a, a + 10) for a in lo)] = noise < draw(st.floats(0.2, 0.8))
    assume(mask.any())
    return GridDomain(dim, 0.01, (0.0,) * dim, np.argwhere(mask) + draw(st.integers(-9, 9)))


def _span_rows(domain, d, sides, lo, hi):
    """Per side, the neighbour rows of the rows ``[lo, hi)`` that ``_spans`` gives,
    -1 where it gives none."""
    out = np.full((len(sides), hi - lo), -1)
    for i, j, shifts, where in domain._spans(d, sides, slice(lo, hi)):
        out[:, i - lo:j - lo] = np.where(where, np.arange(i, j) + np.c_[shifts], -1)
    return out


def _assert_tables_expand_to(domain, ref, data):
    """Each neighbour table, expanded whole and at random rows, gives the reference
    rows; so do the spans of each side and of both, by random row blocks (the ends
    of a row block among their edges)."""
    n, b = domain.n_cells, grid_domain._BLOCK
    edges = sorted({0, n, *(e for e in (b - 1, b, b + 1, 2 * b) if e < n),
                    *data.draw(st.lists(st.integers(0, n), max_size=4))})
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=30)), dtype=np.int64)
    for table, want in zip(itertools.chain(*domain.neighbor_rows), itertools.chain(*ref)):
        assert all(not side.flags.writeable for side in table)
        got = domain.neighbors_of(table, np.arange(n))
        assert got.dtype == np.intp and np.array_equal(got, want)
        assert np.array_equal(domain.neighbors_of(table, rows), want[rows])
    for d, (plus, minus) in enumerate(ref):
        both = np.where((plus >= 0) & (minus >= 0), [plus, minus], -1)
        for sides, want in (((0,), plus[None]), ((1,), minus[None]), ((0, 1), both)):
            blocks = [_span_rows(domain, d, sides, a, c) for a, c in zip(edges, edges[1:])]
            assert np.array_equal(np.concatenate(blocks, axis=1), want)


def _assert_tables_are_canonical(domain):
    """Every table is led by (0, 0, 0), then holds segments in row order that
    neither overlap nor touch with one shift (a one-cell run's last-axis segments
    are empty), and is O(runs) long."""
    runs = domain.run_cells.shape[0]
    for table in itertools.chain(*domain.neighbor_rows):
        first, end, shift = table
        assert [first[0], end[0], shift[0]] == [0, 0, 0]
        assert first.size <= 2 * runs + 1
        assert np.all(end[1:] >= first[1:]) and np.all(first[2:] >= end[1:-1])
        assert not np.any((first[2:] == end[1:-1]) & (shift[2:] == shift[1:-1]))


@settings(max_examples=80, deadline=None)
@given(_row_index_domains(), st.sampled_from([None, 7]), st.data())
def test_compact_row_index_matches_int64_reference(blocks_of, domain, block, data):
    many = block and domain.n_cells < 2_000  # many blocks, but not thousands
    with blocks_of(block if many else grid_domain._BLOCK):
        rows = domain.neighbor_rows
        parts = domain.component_rows
    assert len(rows) == domain.dim
    _assert_tables_expand_to(domain, _reference_neighbor_rows(domain), data)
    _assert_tables_are_canonical(domain)
    # the run keys are the keys of the cells that start runs, as the cells compute them
    strides, keys = domain._key_data[:2]
    cell_keys = (domain.cells - domain.index_bounds[0]) @ strides
    assert np.array_equal(keys, cell_keys[domain.run_rows[:-1]])
    ref_parts = _reference_component_rows(domain)
    assert len(parts) == len(ref_parts)
    for got, want in zip(parts, ref_parts):
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_compact_row_index_spans_blocks(data):
    # a run crossing a block edge along the last axis, and neighbours on both
    # sides of it along the first; the box's axis-0 tables are one segment each
    domain = make_box((0.0, 0.0), (1.0, 0.6), 1.0 / 256)  # 154-cell runs
    assert domain.n_cells > 2 * grid_domain._BLOCK
    _assert_tables_expand_to(domain, _reference_neighbor_rows(domain), data)
    assert [table[0].size for table in domain.neighbor_rows[0]] == [2, 2]


@pytest.mark.parametrize("dim", [1, 2])
def test_int32_row_bound(monkeypatch, dim):
    # a domain of 2**31 cells is only pretended: the check comes before any
    # array is built, so nothing of that size is allocated
    grid_domain._check_int32_rows(2**31 - 1)
    domain = make_box((0.0,) * dim, (1.0,) * dim, 0.25)
    monkeypatch.setattr(GridDomain, "n_cells", property(lambda self: 2**31))
    for attr in ("neighbor_rows", "component_rows"):
        with pytest.raises(ValueError, match="too large for int32 rows"):
            getattr(domain, attr)


def test_make_box_peak_memory():
    # traced peak, and memory held after, in n-float arrays of rasterizing a
    # 400x400 box: its 400 runs are about 10 KB, where its (n, 2) cells alone
    # were 2 and the rasterization read 6.50, then 4.26
    tracemalloc.start()
    try:
        domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * domain.n_cells) <= 0.02
    assert held / (8 * domain.n_cells) < 0.01


def test_neighbor_rows_peak_memory():
    # in n-float arrays, on a 400x400 box whose cell keys are built: the int64
    # lookups of whole cells +/- e peaked at 6.53, and the int32 rows looked up
    # a block at a time held 2; the segment tables hold 0.0075, and with the run
    # pairs they are built from, 0.013 is held above the memory live at entry
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    domain.rows_of_indices(domain.cells[:1])
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tables = domain.neighbor_rows
        held, peak = (x - live for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    n_floats = 8 * domain.n_cells
    sides = itertools.chain.from_iterable(itertools.chain(*tables))
    assert sum(side.nbytes for side in sides) / n_floats <= 0.01
    assert held / n_floats <= 0.02
    assert peak / n_floats <= 0.1


def test_stencil_work_holds_no_n_length_array():
    # after every reader of the neighbour tables has run on a 400x400 box, the
    # domain holds arrays of O(runs), of O(boundary) (the gradient's one-sided
    # rows) or of at most a row block; the one exception is the labelling's
    # output, the n int32 rows of its parts
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    u = Field.from_function(domain, lambda x: x[:, 0] * x[:, 1])
    gradient(u)
    gradient_rows([u], slice(None))  # every block, whole or not, takes the one stencil path
    domain.boundary_layer_mask(2)
    grid_domain.dilate_mask(domain, domain.boundary_layer_mask(), 2)
    parts = domain.component_rows
    bound = 4 * domain.run_cells.shape[0] + grid_domain._BLOCK
    held, stack = [], list(vars(domain).values())
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, np.ndarray) and not any(x is p for p in parts):
            held.append(x.size)
    assert held and max(held) <= bound < domain.n_cells // 8


@st.composite
def _raw_cells(draw):
    """(dim, cells) of a random union of boxes minus holes, often in several
    components, with a noisy patch for short runs: the (n, dim) cells in a
    random order, some of them repeated, shifted by up to 2^40."""
    dim = draw(st.sampled_from([1, 2]))
    shape = (50,) if dim == 1 else (14, 14)
    mask = np.zeros(shape, dtype=bool)
    boxes = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    for active in [True] + boxes:  # one box first, then boxes and holes
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        size = [draw(st.integers(1, n // 2)) for n in shape]
        mask[tuple(slice(a, a + m) for a, m in zip(lo, size))] = active
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lo = [draw(st.integers(0, n - 4)) for n in shape]
        mask[tuple(slice(a, a + 4) for a in lo)] = rng.random((4,) * dim) < 0.5
    assume(mask.any())
    cells = np.argwhere(mask) + draw(st.sampled_from([0, -7, 2**40]))
    cells = np.concatenate([cells, cells[rng.random(len(cells)) < 0.2]])
    return dim, cells[rng.permutation(len(cells))]


@settings(max_examples=150, deadline=None)
@given(_raw_cells(), st.data())
def test_run_table_matches_a_cells_reference(raw, data):
    # every reading of the run table against a reference that holds the sorted
    # cells as tuples, as the (n, dim) storage did
    dim, raw_cells = raw
    domain = GridDomain(dim, 0.1, (0.0,) * dim, raw_cells)
    ref = sorted(set(map(tuple, raw_cells.tolist())))
    row_of = {c: r for r, c in enumerate(ref)}
    n = len(ref)
    assert domain.n_cells == n and domain.cells.tolist() == [list(c) for c in ref]

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = sorted(rng.integers(-2, n + 3, size=2).tolist())
    rows = rng.integers(n, size=data.draw(st.integers(0, 40)))
    mask = rng.random(n) < 0.5
    for got, want in ((domain.cells_of(slice(a, b)), ref[a:b]),
                      (domain.cells_of(rows), [ref[r] for r in rows]),
                      (domain.cells_of(mask), [c for c, m in zip(ref, mask) if m]),
                      (domain.cells_of(slice(None, None, 3)), ref[::3])):
        assert got.shape == (len(want), dim) and got.tolist() == [list(c) for c in want]
    r = rng.integers(n)  # one row gives one cell, as indexing an (n, dim) array does
    assert domain.cells_of(r).tolist() == list(ref[r])

    # lookups over the bounding box grown by one cell
    ref_cells = np.array(ref)
    box = grid_domain.box_cells(ref_cells.min(axis=0) - 1, ref_cells.max(axis=0) + 1)
    assert domain.rows_of_indices(box).tolist() == [row_of.get(tuple(c), -1) for c in box.tolist()]

    for d, pair in enumerate(domain.neighbor_rows):
        for table, step in zip(pair, (1, -1)):
            want = [row_of.get(c[:d] + (c[d] + step,) + c[d + 1:], -1) for c in ref]
            assert domain.neighbors_of(table, np.arange(n)).tolist() == want
            assert domain.neighbors_of(table, rows).tolist() == [want[r] for r in rows]
    # a row starts a run unless its cell follows the previous row's along the last axis
    follows = [r > 0 and ref[r - 1] == c[:-1] + (c[-1] - 1,) for r, c in enumerate(ref)]
    assert domain.run_rows[:-1].tolist() == [r for r, f in enumerate(follows) if not f]
    assert [p.tolist() for p in domain.component_rows] == [
        [row_of[c] for c in part] for part in _bfs_components(ref)]
    surrounded = [c for c in map(tuple, box.tolist())
                  if c not in row_of and all(nb in row_of for nb in _face_neighbours(c))]
    assert is_topologically_regular(domain) == (not surrounded)

    # the run table is canonical: any order of the same cells, the same domain
    again = GridDomain(dim, 0.1, (0.0,) * dim, ref_cells[::-1])
    assert again == domain and hash(again) == hash(domain)
    if n > 1:
        assert GridDomain(dim, 0.1, (0.0,) * dim, ref_cells[1:]) != domain


@st.composite
def _box_specs(draw):
    """An explicit domain spec of one to four boxes, overlapping, touching or apart,
    minus up to two holes, on a grid of width 0.05, and its cells as integer tuples
    counted from the first box's low corner."""
    dim = draw(st.sampled_from([1, 2]))
    box = st.tuples(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim),
                    st.lists(st.integers(1, 7), min_size=dim, max_size=dim))
    boxes, holes = draw(st.lists(box, min_size=1, max_size=4)), draw(st.lists(box, max_size=2))

    def as_spec(lo, size):
        return {"lo": [0.05 * a for a in lo], "hi": [0.05 * (a + n) for a, n in zip(lo, size)]}

    def cells(lo, size):
        return set(itertools.product(*(range(a - b, a - b + n)
                                       for a, b, n in zip(lo, boxes[0][0], size))))

    want = set().union(*(cells(*b) for b in boxes)).difference(*(cells(*b) for b in holes))
    assume(want)
    return ({"dim": dim, "h": 0.05, "boxes": [as_spec(*b) for b in boxes],
             "subtract": [as_spec(*b) for b in holes]}, sorted(want))


@settings(max_examples=150, deadline=None)
@given(_box_specs())
def test_spec_union_matches_a_cells_reference(case):
    # the boxes merge as run tables, against the domain of the (n, dim) cells they hold
    spec, want = case
    domain = domain_from_spec(spec)
    assert domain == GridDomain(spec["dim"], 0.05, tuple(spec["boxes"][0]["lo"]), np.array(want))


@st.composite
def _holed_specs(draw):
    """A spec of one to four boxes in 1D or 2D, overlapping, touching or apart, some
    2**54 cells from the first along an axis, where neighbouring centres coincide,
    minus up to four holes.  Each hole edge lies on a cell's centre or face, or one ulp
    off either, so some holes have zero or negative extent or meet no line; a hole
    may also remove everything or have the wrong dimension."""
    dim = draw(st.sampled_from([1, 2]))
    far = [draw(st.sampled_from([0, 0, 2**54])) for _ in range(dim)]
    h = 1.0 if any(far) else draw(st.sampled_from([0.05, 0.1, 0.3]))
    unit = 4 if any(far) else 1  # far corners are whole numbers of cells in floats
    cell = st.integers(-8, 8)

    def box(offset):  # the low cell and size of a box, counted in cells of width h
        return ([unit * draw(cell) + k for k in offset],
                [unit * draw(st.integers(1, 7)) for _ in offset])

    cells = [box([0] * dim)] + [box(draw(st.sampled_from([[0] * dim, far])))
                                for _ in range(draw(st.integers(0, 3)))]
    boxes = [{"lo": [h * k for k in lo], "hi": [h * (k + n) for k, n in zip(lo, size)]}
             for lo, size in cells]
    origin = boxes[0]["lo"]

    def edges(d):  # on or next to a box's faces or centres along axis d
        lo, size = draw(st.sampled_from(cells))
        k = lo[d] - cells[0][0][d] + draw(st.integers(-2, size[d] + 1))  # a cell from origin
        ends = ((j + draw(st.sampled_from([0.0, 0.5]))) * h + origin[d]  # a face or a centre
                for j in (k, k + draw(st.integers(-2, size[d] + 2))))
        return [draw(st.sampled_from([x, math.nextafter(x, -math.inf),
                                      math.nextafter(x, math.inf)])) for x in ends]

    holes = []
    for _ in range(draw(st.integers(0, 4))):
        hole = dict(zip(("lo", "hi"), map(list, zip(*(edges(d) for d in range(dim))))))
        kind = draw(st.sampled_from(["edges"] * 8 + ["everything", "wrong dimension"]))
        if kind == "everything":
            hole = {"lo": [-1e300] * dim, "hi": [1e300] * dim}
        elif kind == "wrong dimension":
            hole["hi"].append(0.0)
        holes.append(hole)
    return {"dim": dim, "h": h, "boxes": boxes, "subtract": holes}


def _outcome(build):
    """What ``build()`` returns, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_holed_specs())
def test_holes_cut_in_the_union_sweep_match_a_centres_reference(spec):
    # the sweep cuts the cells whose centres, as centers_of computes them, lie strictly
    # inside a hole, bit for bit, and raises what the reference raises
    union = domain_from_spec({key: spec[key] for key in ("dim", "h", "boxes")})
    holes = [(hole["lo"], hole["hi"]) for hole in spec["subtract"]]
    assert _outcome(lambda: domain_from_spec(spec)) == _outcome(
        lambda: subtract_boxes(union, holes))


def test_overlapping_boxes_merge_peak_memory(monkeypatch):
    # four identical 500x500 boxes at h = 1e-3, 1M summed cells within the default
    # budget: merged through their (n, dim) cells and shifted copies, their
    # 250k-cell union peaked at 53.5 MiB traced; merged as run tables, at 0.37 MiB.
    # Less one hole or nine, cut through a 250k-cell mask and the rows it kept, it
    # peaked at 4.3 MiB; cut inside the sweep, at 0.57 and 0.86 MiB
    monkeypatch.delenv("SIL_CELL_BUDGET", raising=False)
    box = {"lo": [0, 0], "hi": [0.5, 0.5]}
    one = [{"lo": [0.1, 0.1], "hi": [0.4, 0.4]}]
    nine = [{"lo": [0.05 + 0.15 * i, 0.05 + 0.15 * j], "hi": [0.15 + 0.15 * i, 0.15 + 0.15 * j]}
            for i in range(3) for j in range(3)]
    for holes in ([], one, nine):
        tracemalloc.start()
        try:
            domain = domain_from_spec({"dim": 2, "h": 1e-3, "boxes": [box] * 4, "subtract": holes})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert domain == subtract_boxes(make_box((0.0, 0.0), (0.5, 0.5), 1e-3),
                                        [(hole["lo"], hole["hi"]) for hole in holes])
        assert peak / 2**20 <= 1


@st.composite
def _touching_runs(draw):
    """A 2D mask drawn a run at a time: each run lies anywhere on its line, or
    just past a corner of a run on the line before (touching it at a corner
    only), or over one end cell of such a run (sharing one face with it)."""
    width = 16
    mask = np.zeros((draw(st.integers(1, 8)), width), dtype=bool)
    for k, line in enumerate(mask):
        before = mask[k - 1] if k else np.zeros(width, dtype=bool)
        edges = np.flatnonzero(np.diff(np.concatenate([[False], before, [False]])))
        runs = list(zip(edges[::2].tolist(), edges[1::2].tolist()))  # [a, b) on the line before
        for _ in range(draw(st.integers(0, 3))):
            length = draw(st.integers(1, 5))
            kind = draw(st.sampled_from(["free", "corner", "one cell"] if runs else ["free"]))
            if kind == "free":
                start = draw(st.integers(0, width - 1))
            else:
                a, b = draw(st.sampled_from(runs))
                after = draw(st.booleans())
                reach = 0 if kind == "corner" else 1
                start = b - reach if after else a - length + reach
            line[max(start, 0):max(start + length, 0)] = True
    assume(mask.any())
    return mask


@pytest.mark.parametrize("lines, n_parts", [
    (["##..", "..##"], 2),   # runs touching at a corner only are separate parts
    (["..##", "##.."], 2),
    (["###.", "..##"], 1),   # one shared face joins them
    (["..##", "#.#."], 2),
    (["#.#", ".#.", "#.#"], 5),
    (["####", "#..#", "#.##"], 1),
])
def test_component_rows_of_touching_runs(lines, n_parts):
    mask = np.array([[c == "#" for c in line] for line in lines])
    domain = GridDomain(2, 0.1, (0.0, 0.0), np.argwhere(mask))
    assert len(domain.component_rows) == n_parts
    _assert_components(domain)


@settings(max_examples=150, deadline=None)
@given(_touching_runs(), st.integers(-3, 3))
def test_component_rows_match_a_flood_fill(mask, offset):
    domain = GridDomain(2, 0.1, (0.0, 0.0), np.argwhere(mask) + offset)
    cells = list(map(tuple, domain.cells.tolist()))
    row_of = {c: r for r, c in enumerate(cells)}
    assert [p.tolist() for p in domain.component_rows] == [
        [row_of[c] for c in part] for part in _bfs_components(cells)]


def _whole_box_centers(lo, hi, origin, h):
    """Cells and centres of the padded covering box, all at once, as first written."""
    o = np.asarray(origin)
    k_lo = (np.floor((lo - o) / h) - 1).astype(np.int64)
    k_hi = (np.floor((hi - o) / h) + 1).astype(np.int64)
    cells = grid_domain.box_cells(k_lo, k_hi)
    return cells, o + h * (cells + 0.5)


@settings(max_examples=60, deadline=None)
@given(_boxes_minus_boxes(), st.integers(0, 2**32 - 1))
def test_box_walks_match_the_whole_box_reference(blocks_of, domain, seed):
    # the image and the congruence defect from the whole covering box at once, as
    # first written, against the box walked at the default blocks and at 7 rows
    motion = random_rigid_motion(domain.dim, np.random.default_rng(seed))
    lo, hi = motion.image_box(*domain.bounding_box)
    origin = tuple(motion.transform(np.asarray(domain.origin)[None, :])[0])
    cells, centers = _whole_box_centers(lo, hi, origin, domain.h)
    image_cells = cells[domain.rows_of_points(motion.inverse_transform(centers)) >= 0]
    other = make_box((-0.3,) * domain.dim, (0.2,) * domain.dim, 0.03)
    h_ref = min(other.h, domain.h)
    lo1, hi1 = other.bounding_box
    _, centers = _whole_box_centers(np.minimum(lo1, lo), np.maximum(hi1, hi), other.origin, h_ref)
    differ = ((other.rows_of_points(centers) >= 0)
              != (domain.rows_of_points(motion.inverse_transform(centers)) >= 0))
    defect = float(np.count_nonzero(differ)) * h_ref**domain.dim
    for block in (grid_domain._BLOCK, 7):
        with blocks_of(block):
            if image_cells.size:
                image = apply_rigid_motion(domain, motion)
                assert image == GridDomain(domain.dim, domain.h, origin, image_cells)
                assert image.origin == origin
            else:
                with pytest.raises(ValueError, match="contains no cells"):
                    apply_rigid_motion(domain, motion)
            assert congruence_check(other, domain, motion, 0.1) == (defect <= 0.1, defect)


def test_box_walks_peak_memory():
    # traced peaks in n-float arrays of imaging a 400x400 box rotated by pi/6
    # (about 300k covering cells) and comparing it with the box, the cell keys
    # built; the whole covering box at once read 18.84 and 19.09, and imaging
    # through a mask over the covering box 1.30
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    motion = RigidMotion.rotation(math.pi / 6)
    domain.rows_of_indices(domain.run_cells)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        image = apply_rigid_motion(domain, motion)
        peak_image = tracemalloc.get_traced_memory()[1] - live
        image.rows_of_indices(image.run_cells)
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        ok, _ = congruence_check(image, domain, motion, 0.0)
        peak_check = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert ok and image.n_cells == domain.n_cells
    assert peak_image / (8 * domain.n_cells) <= 1.2
    assert peak_check / (8 * domain.n_cells) <= 2
