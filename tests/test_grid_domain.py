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
        inside = domain.contains_points(np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert inside.tolist() == [True, False]


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
    faces = sum(int(np.count_nonzero(rows < 0))
                for rows in itertools.chain(*domain.neighbor_rows))
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
    cand = cand[~domain.contains_indices(cand)]
    if cand.size == 0:
        return True
    surrounded = np.ones(cand.shape[0], dtype=bool)
    for d in range(domain.dim):
        step = np.zeros(domain.dim, dtype=np.int64)
        step[d] = 1
        surrounded &= domain.contains_indices(cand + step)
        surrounded &= domain.contains_indices(cand - step)
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
def test_rows_of_indices_block_size_invariant(domain, n, seed):
    # cells up to three past the bounding box: absent, out-of-box and active mix
    lo, hi = domain.index_bounds
    idx = np.random.default_rng(seed).integers(lo - 3, hi + 4, size=(n, domain.dim))
    whole = domain.rows_of_indices(idx)  # one block at the default size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_domain.row_blocks, "__defaults__", (7,))
        assert np.array_equal(domain.rows_of_indices(idx), whole)


class TestCellStorage:
    def test_sorted_input_is_copied_not_frozen(self):
        cells = np.argwhere(np.ones((4, 5), dtype=bool)).astype(np.int64)
        domain = GridDomain(2, 0.1, (0.0, 0.0), cells)
        assert cells.flags.writeable and not domain.cells.flags.writeable
        assert not np.shares_memory(cells, domain.cells)
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


def _reference_neighbor_rows(domain):
    """The neighbour rows as first written: int64 lookups of whole ``cells +/- e``."""
    return [(domain.rows_of_indices(domain.cells + e), domain.rows_of_indices(domain.cells - e))
            for e in np.eye(domain.dim, dtype=np.int64)]


def _reference_component_rows(domain):
    """``component_rows`` as first written: run pairs from ``np.unique``, an
    int64 ``argsort`` order."""
    run = np.cumsum(domain.run_starts) - 1
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


@settings(max_examples=80, deadline=None)
@given(_row_index_domains(), st.sampled_from([None, 7]))
def test_compact_row_index_matches_int64_reference(domain, block):
    with pytest.MonkeyPatch.context() as mp:
        if block and domain.n_cells < 2_000:  # many blocks, but not thousands
            mp.setattr(grid_domain.row_blocks, "__defaults__", (block,))
        rows = domain.neighbor_rows
        parts = domain.component_rows
    assert len(rows) == domain.dim
    for pair, ref in zip(rows, _reference_neighbor_rows(domain)):
        for got, want in zip(pair, ref):
            assert got.dtype == np.int32 and not got.flags.writeable
            assert np.array_equal(got, want)
    strides, keys = domain._key_data  # as the (n, dim) int64 copy computed them
    assert np.array_equal(keys, (domain.cells - domain.index_bounds[0]) @ strides)
    ref_parts = _reference_component_rows(domain)
    assert len(parts) == len(ref_parts)
    for got, want in zip(parts, ref_parts):
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want)


def test_compact_row_index_spans_blocks():
    # a run crossing a block edge along the last axis, and looked-up rows on
    # both sides of it along the first
    domain = make_box((0.0, 0.0), (1.0, 0.6), 1.0 / 256)  # 154-cell runs
    assert domain.n_cells > 2 * grid_domain._BLOCK
    for pair, ref in zip(domain.neighbor_rows, _reference_neighbor_rows(domain)):
        assert all(np.array_equal(got, want) for got, want in zip(pair, ref))


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


def test_neighbor_rows_peak_memory():
    # traced peak above the memory live at entry, in n-float arrays, on a
    # 400x400 box whose cell keys are built; the int64 lookups of whole
    # cells +/- e read 6.53, and their output alone is 4
    domain = make_box((0.0, 0.0), (1.0, 1.0), 0.0025)
    domain.rows_of_indices(domain.cells[:1])
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        domain.neighbor_rows
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak / (8 * domain.n_cells) <= 3
