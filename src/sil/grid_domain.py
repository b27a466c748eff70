"""Bounded open sets in R^1 and R^2 rasterized on uniform grids.

A domain is a set of active integer cells on a grid of width ``h``, stored as
its runs of consecutive cells along the last axis.
Cell ``k`` covers ``origin + h*k + [0, h)^dim`` and its node (sample point)
sits at the cell center.  A cell belongs to the rasterization of an analytic
set exactly when its center does, which keeps the measure error of smooth
regions at one boundary layer, ``O(h * perimeter)``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

DEFAULT_CELL_BUDGET = 1_000_000

_ORTHO_TOL = 1e-12

_BLOCK = 16_384


def row_blocks(n: int, size: int | None = None):
    """Slices of at most ``size`` (``_BLOCK`` as it reads at the call) consecutive rows covering
    ``range(n)``; per-point work runs one slice at a time, so temporaries do not scale with n."""
    size = _BLOCK if size is None else size
    return (slice(s, s + size) for s in range(0, n, size))


def cell_budget() -> int:
    """Maximum number of cells any rasterization may produce.

    Overridable through the ``SIL_CELL_BUDGET`` environment variable.
    """
    raw = os.environ.get("SIL_CELL_BUDGET", str(DEFAULT_CELL_BUDGET))
    try:
        budget = int(float(raw))
    except (ValueError, OverflowError):
        budget = 0
    if budget < 1:
        raise ValueError(f"SIL_CELL_BUDGET must be a positive number of cells, got {raw!r}")
    return budget


def _check_int32_rows(n: int) -> None:
    """Cached row arrays are int32, so a domain must have fewer than 2**31 cells."""
    if n >= 2**31:
        raise ValueError(f"a domain of {n} cells is too large for int32 rows (at most 2**31 - 1)")


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """The ``arrays``, each made read-only."""
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _check_budget(n: int, what: str) -> None:
    budget = cell_budget()
    if n > budget:
        raise ValueError(f"{what} needs {n} cells, exceeding the budget of {budget}")


_JSON_TYPES = {"a finite number": (int, float), "a finite number or null": (int, float, type(None)),
               "a number": (int, float), "an integer": int, "an integer or null": (int, type(None)),
               "a string": str, "an array": list, "an object": dict}

# each JSON object, by the name its messages print -> the keys it reads, in message order
_SPEC_KEYS = {"domain spec": ("dim", "h", "boxes", "subtract"), "box": ("lo", "hi"),
              "builtin domain spec": ("builtin", "h"), "motion": ("Q", "b", "sign"),
              "rigid entry": ("Q", "b", "sign", "component"), "tabulated": ("g", "xi"),
              "operator spec": ("source", "target", "h")}


def _json_value(value, kind: str, key: str):
    """``value`` if it has the JSON type ``kind``, a key of ``_JSON_TYPES``; otherwise
    a ValueError naming ``key``, so a malformed spec is a parse error, not a traceback.
    A boolean is no number, and only "a number" may be non-finite."""
    if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])
            or isinstance(value, float) and not math.isfinite(value) and kind != "a number"):
        raise ValueError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _json_object(value, what: str, form: Iterable[str] = ()) -> dict:
    """``value`` if it is a JSON object with no key but its named ``form`` and those of
    ``what`` in ``_SPEC_KEYS``: a misspelt key is a parse error, never left unread."""
    value = _json_value(value, "an object", what)
    keys = (*form, *_SPEC_KEYS[what])
    if unknown := [key for key in value if key not in keys]:
        raise ValueError(f"{what!r} has an unknown key {unknown[0]!r}; "
                         f"it reads only {', '.join(keys)}")
    return value


def _as_point(x, dim: int | None = None) -> tuple[float, ...]:
    pt = (float(x),) if np.isscalar(x) else tuple(float(v) for v in x)
    if dim is not None and len(pt) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {pt}")
    return pt


@dataclass(frozen=True, init=False, eq=False)
class GridDomain:
    """Nonempty finite set of active cells on a uniform grid, stored as its runs:
    lexsorted, the cells fall into runs of consecutive cells along the last axis,
    each a block of rows.  ``run_cells`` (R, dim) int64 holds the first cell of each
    run, lexsorted, and ``run_rows`` (R + 1,) int64 its first row, then n; the table
    is unique to the set of cells."""

    dim: int
    h: float
    origin: tuple[float, ...]
    run_cells: np.ndarray
    run_rows: np.ndarray

    def __init__(self, dim: int, h: float, origin, cells):
        """The domain of the integer ``cells``, (n, dim) in any order; a repeat counts once."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, dim)
        self.__post_init__(dim, h, origin, *_union_runs(*_cut_runs(cells)))

    @classmethod
    def of_runs(cls, dim: int, h: float, origin, run_cells, run_rows) -> "GridDomain":
        """The domain of a run table, as described above, with no (n, dim) array."""
        domain = cls.__new__(cls)
        domain.__post_init__(dim, h, origin, run_cells, run_rows)
        return domain

    def __post_init__(self, dim, h, origin, run_cells, run_rows):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if not (h > 0):
            raise ValueError(f"cell width must be positive, got {h}")
        if run_cells.shape[0] == 0:
            raise ValueError("a domain must contain at least one cell")
        for name, value in (("dim", dim), ("h", h), ("origin", _as_point(origin, dim)),
                            ("run_cells", run_cells), ("run_rows", run_rows)):
            object.__setattr__(self, name, value)
        _read_only(run_cells, run_rows)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridDomain):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.h == other.h
            and self.origin == other.origin
            and bool(np.array_equal(self.run_rows, other.run_rows))
            and bool(np.array_equal(self.run_cells, other.run_cells))
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.h, self.origin, self.run_cells.tobytes(),
                     self.run_rows.tobytes()))

    # -- basic geometry ---------------------------------------------------

    @property
    def n_cells(self) -> int:
        return int(self.run_rows[-1])

    @property
    def measure(self) -> float:
        """Lebesgue measure of the rasterization, |active| * h^dim."""
        return self.n_cells * self.h**self.dim

    @property
    def cells(self) -> np.ndarray:
        """(n, dim) int64 lexsorted active cells; computed, not cached."""
        return self.cells_of(slice(None))

    def cells_of(self, rows) -> np.ndarray:
        """Cells of the given rows (a slice, index, index array or row mask), as in
        ``cells``: each row's run cell, moved along the last axis by its offset in the run."""
        starts = self.run_rows
        if isinstance(rows, slice):
            lo, hi, step = rows.indices(self.n_cells)
            if step == 1 and lo < hi:  # the runs of rows lo and hi - 1, and those between
                first = starts.searchsorted(lo, side="right") - 1
                last = starts.searchsorted(hi - 1, side="right") - 1
                bounds = starts[first:last + 2].copy()  # the rows each run gives
                bounds[0], bounds[-1] = lo, hi
                heads = self.run_cells[first:last + 1].copy()  # each run's cell at row 0
                heads[:, -1] -= starts[first:last + 1]
                out = np.repeat(heads, np.diff(bounds), axis=0)
                out[:, -1] += np.arange(lo, hi)
                return out
            rows = np.arange(lo, hi, step)
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        if rows.size and rows.min() < 0:
            raise IndexError("cells_of takes rows from 0 to n - 1")
        run = np.searchsorted(starts, rows, side="right") - 1
        out = np.take(self.run_cells, run, axis=0)  # a copy, for a 0-d row too
        out[..., -1] += rows - starts[run]
        return out

    @property
    def centers(self) -> np.ndarray:
        """(n, dim) array of cell centers, the field nodes; computed, not cached."""
        return self.centers_of(slice(None))

    def centers_of(self, rows) -> np.ndarray:
        """Centers of the given rows, as ``cells_of`` takes them."""
        out = self.cells_of(rows) + 0.5
        out *= self.h
        out += self.origin  # in place, the same sums as origin + h * (cells + 0.5)
        return out

    @cached_property
    def index_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only lowest and highest cell index along each axis."""
        lo, hi = self.run_cells.min(axis=0), self.run_cells.max(axis=0)
        hi[-1] = (self.run_cells[:, -1] + np.diff(self.run_rows)).max() - 1
        return _read_only(lo, hi)

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed physical bounding box of the active cells."""
        return physical_box(self.origin, self.h, *self.index_bounds)

    @cached_property
    def _key_data(self) -> tuple[np.ndarray, ...]:
        """Read-only mixed-radix strides over the index box, then per run its first
        cell's key, one past its last cell's key, and its first row minus its key.
        The keys of a run's cells are consecutive, so a key's row is that shift
        plus the key."""
        lo, hi = self.index_bounds
        span = [b - a + 1 for a, b in zip(lo.tolist(), hi.tolist())]  # Python ints
        if (size := math.prod(span)) >= 2**63:
            raise ValueError(f"the index box {lo.tolist()} to {hi.tolist()} holds "
                             f"{size} cells, too many for int64 cell keys")
        strides = np.array([math.prod(span[d + 1:]) for d in range(self.dim)], dtype=np.int64)
        keys = (self.run_cells - lo) @ strides
        return _read_only(strides, keys, keys + np.diff(self.run_rows), self.run_rows[:-1] - keys)

    def rows_of_indices(self, idx: np.ndarray) -> np.ndarray:
        """Row positions of the given integer cells, -1 where absent."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, self.dim)
        lo, hi = self.index_bounds
        strides, keys, ends, shift = self._key_data
        out = np.empty(idx.shape[0], dtype=np.int64)
        for blk in row_blocks(idx.shape[0]):  # each block's key array becomes its rows
            in_box = np.all((idx[blk] >= lo) & (idx[blk] <= hi), axis=1)
            key = np.zeros(in_box.shape[0], dtype=np.int64)  # (idx - lo) @ strides, by column
            for d in range(self.dim):
                key += (idx[blk, d] - lo[d]) * strides[d]
            run = np.searchsorted(keys, key, side="right")
            run -= 1  # the last run starting at or before
            in_box &= (run >= 0) & (key < ends[run])
            key += shift[run]
            key[~in_box] = -1
            out[blk] = key
        return out

    def rows_of_points(self, pts: np.ndarray) -> np.ndarray:
        """Rows of the cells holding the physical points, -1 where absent."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        return self.rows_of_indices(np.floor((pts - np.asarray(self.origin)) / self.h))

    # -- neighborhood structure --------------------------------------------

    @cached_property
    def _run_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only numbers ``(earlier, later)`` of the pairs of runs sharing a face across
        lines, by later run, then earlier; none in 1D.  The line before a run holds its
        keys less a stride (which cannot wrap), so the runs there sharing a face with it
        end after its first key so moved and start before its end key so moved."""
        earlier = later = np.zeros(0, dtype=np.int64)
        if self.dim == 2:
            strides, keys, ends, _ = self._key_data
            down = keys - strides[0]
            first = ends.searchsorted(down, side="right")
            count = keys.searchsorted(down + np.diff(self.run_rows), side="left") - first
            later = np.repeat(np.arange(keys.size), count)
            earlier = np.arange(later.size) + np.repeat(first - (np.cumsum(count) - count), count)
        return _read_only(earlier, later)

    @cached_property
    def neighbor_rows(self) -> tuple[tuple[tuple[np.ndarray, ...], ...], ...]:
        """Per axis, the + and - face-neighbour tables that ``neighbors_of`` expands:
        read-only int32 ``(first, end, shift)`` segments in row order, led by ``(0, 0, 0)``.
        A row in ``[first, end)`` has the neighbour ``row + shift``, a row in no segment
        none.  Along the last axis each run gives a segment per side, along axis 0 each
        pair of runs sharing a face does; touching segments of one shift merge."""
        _check_int32_rows(self.n_cells)
        starts, ends = self.run_rows[:-1], self.run_rows[1:]
        axes = [(starts, ends - 1, 1), (starts + 1, ends, -1)]
        if self.dim == 2:  # the faces two runs share, as rows of the earlier run
            strides, keys, key_ends, offset = self._key_data  # offset: a run's rows less keys
            a, b = self._run_pairs
            lo = np.maximum(keys[a], keys[b] - strides[0]) + offset[a]
            hi = np.minimum(key_ends[a], key_ends[b] - strides[0]) + offset[a]
            shift = strides[0] + offset[b] - offset[a]
            by_a = np.argsort(a, kind="stable")
            axes[:0] = (lo[by_a], hi[by_a], shift[by_a]), (lo + shift, hi + shift, -shift)
        tables = []
        for side in axes:
            first, end, shift = (np.append(0, x).astype(np.int32)
                                 for x in np.broadcast_arrays(*side))
            new = np.append(True, (first[1:] != end[:-1]) | (shift[1:] != shift[:-1]))
            tables.append(_read_only(first[new], end[np.roll(new, -1)], shift[new]))
        return tuple(zip(tables[::2], tables[1::2]))

    def neighbors_of(self, table, rows) -> np.ndarray:
        """The ``intp`` neighbour rows, -1 for none, of the index array ``rows`` under one
        table of ``neighbor_rows``; a row -1 gives -1."""
        first, end, shift = table
        rows = np.asarray(rows, dtype=np.intp)
        k = np.maximum(first.searchsorted(rows, side="right") - 1, 0)  # -1 reads (0, 0, 0)
        out = rows + shift[k]
        out[rows >= end[k]] = -1
        return out

    def _spans(self, d: int, sides, blk: slice) -> list[tuple]:
        """The rows ``blk`` with a face neighbour along axis ``d`` on each of the ``sides`` (0
        for +, 1 for -) as spans ``(i, j, shifts, where)``: row ``r`` of ``[i, j)`` where ``where``
        holds has the neighbour ``r + shifts[k]`` on side ``sides[k]``.  Along the last axis one
        span, masked at the run ends; along axis 0 unmasked pieces of constant shifts."""
        lo, hi, _ = blk.indices(self.n_cells)
        if d == self.dim - 1:  # row 0 has no - neighbour and row n - 1 no +, so views fit
            i, j = max(lo, int(1 in sides)), min(hi, self.n_cells - (0 in sides))
            where, starts = np.ones(max(j - i, 0), dtype=bool), self.run_rows
            for t in (1 - s for s in sides):  # a run's last row has no + neighbour, its first no -
                where[starts[starts.searchsorted(i + t):starts.searchsorted(j + t)] - i - t] = False
            return [(i, j, [1 - 2 * s for s in sides], where)] if i < j else []
        first, end, *shifts = self._central if len(sides) == 2 else self.neighbor_rows[d][sides[0]]
        k, m = end.searchsorted(lo, side="right"), first.searchsorted(hi)  # the pieces met
        cut = [np.maximum(first[k:m], lo), np.minimum(end[k:m], hi), *(x[k:m] for x in shifts)]
        return [(a, b, s, True) for a, b, *s in zip(*(x.tolist() for x in cut))]

    @cached_property
    def _central(self) -> tuple[np.ndarray, ...]:
        """Read-only ``(first, end, plus, minus)``, the pieces of the rows with both axis-0
        neighbours, ``row + plus`` and ``row + minus``, cut at the two tables' segment ends."""
        tables = self.neighbor_rows[0]
        cuts = np.sort(np.concatenate([x for table in tables for x in table[:2]]), kind="stable")
        i, j = cuts[:-1], cuts[1:]
        plus, minus = (self.neighbors_of(table, i) for table in tables)
        keep = (i < j) & (plus >= 0) & (minus >= 0)
        return _read_only(*(x[keep] for x in (i, j, plus - i, minus - i)))

    @cached_property
    def _one_sided(self) -> list[tuple]:
        """Per axis, read-only ``(r, a, a2, s)`` of the rows ``r`` whose only neighbour along it,
        ``a`` on side ``s`` (1 for +, -1 for -), has one ``a2`` beyond, then ``(r1, a1, s1)`` of
        those whose neighbour has none; all lie in the boundary layer, so O(boundary)."""
        edge, axes = np.flatnonzero(self.boundary_layer_mask()), []
        for tables in self.neighbor_rows:
            plus, minus = (self.neighbors_of(table, edge) for table in tables)
            one = (plus >= 0) != (minus >= 0)
            r, a, fwd = edge[one], np.maximum(plus, minus)[one], plus[one] >= 0
            a2 = np.where(fwd, *(self.neighbors_of(table, a) for table in tables))
            s, two = np.where(fwd, 1, -1), a2 >= 0
            axes.append(_read_only(np.array([r, a, a2, s])[:, two], np.array([r, a, s])[:, ~two]))
        return axes

    @cached_property
    def component_rows(self) -> tuple[np.ndarray, ...]:
        """Ascending read-only int32 rows of each face-connected part, parts
        in order of their smallest cell; labelled once per domain."""
        _check_int32_rows(self.n_cells)
        lengths = np.diff(self.run_rows)
        root = np.arange(lengths.size)  # runs are numbered in cell order
        for a, b in zip(*(side.tolist() for side in self._run_pairs)):  # union-find
            while root[a] != a:  # path halving
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            root[max(a, b)] = min(a, b)  # each root stays the first run of its part
        while np.any(root[root] != root):
            root = root[root]
        labels = np.unique(root, return_inverse=True)[1]
        # the rows of a part are its runs' rows, runs in cell order
        by_part = np.argsort(labels, kind="stable")
        counts = lengths[by_part]
        order = np.arange(self.n_cells, dtype=np.int32)
        order += np.repeat((self.run_rows[by_part] - (np.cumsum(counts) - counts)).astype(np.int32),
                           counts)
        order.setflags(write=False)  # the parts are views of it
        return tuple(np.split(order, np.cumsum(np.bincount(labels, lengths).astype(np.int64))[:-1]))

    def boundary_layer_mask(self, width: int = 1) -> np.ndarray:
        """Cells within ``width`` face steps of a missing neighbor."""
        if width < 1:
            raise ValueError("width must be at least 1")
        count = np.zeros(self.n_cells, dtype=np.int8)  # the axes a row has both neighbours on
        for blk, d in itertools.product(row_blocks(self.n_cells), range(self.dim)):
            for i, j, _, where in self._spans(d, (0, 1), blk):
                count[i:j] += where
        return dilate_mask(self, count < self.dim, width - 1)


def dilate_mask(domain: GridDomain, mask: np.ndarray, steps: int) -> np.ndarray:
    """Cells of ``domain`` within ``steps`` face steps of a cell in ``mask``."""
    for _ in range(steps):
        grown = mask.copy()
        for blk, d, k in itertools.product(row_blocks(domain.n_cells), range(domain.dim), (0, 1)):
            for i, j, (s,), where in domain._spans(d, (k,), blk):  # +/- neighbours per axis
                np.logical_or(grown[i:j], mask[i + s:j + s], out=grown[i:j], where=where)
        mask = grown
    return mask


def physical_box(origin, h: float, k_lo, k_hi) -> tuple[np.ndarray, np.ndarray]:
    """Closed physical box covered by the cells of the index box ``[k_lo, k_hi]``."""
    o = np.asarray(origin)
    return o + h * k_lo, o + h * (k_hi + 1)


def box_blocks(k_lo, k_hi):
    """The lexsorted integer cells of the index box ``[k_lo, k_hi]``, ends included,
    a row block at a time."""
    k_lo = np.asarray(k_lo, dtype=np.int64)
    shape = np.maximum(np.asarray(k_hi, dtype=np.int64) - k_lo + 1, 0).tolist()
    n = math.prod(shape)
    for blk in row_blocks(n):  # shifted by axis in place, as adding k_lo to (m, dim) rows is slow
        yield np.stack([np.add(x, k, out=x) for x, k in zip(
            np.unravel_index(np.arange(*blk.indices(n)), shape), k_lo.tolist())], axis=1)


def box_cells(k_lo, k_hi) -> np.ndarray:
    """Lexsorted (n, dim) integer cells of the nonempty index box ``[k_lo, k_hi]``."""
    return np.concatenate(list(box_blocks(k_lo, k_hi)))


def _cut_runs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first cells and lengths of the runs that the (n, dim) int64 ``cells`` form in
    the order given: a run breaks where the last index does not step by 1 or another changes."""
    new = np.diff(cells[:, -1]) != 1
    for d in range(cells.shape[1] - 1):
        new |= np.diff(cells[:, d]) != 0
    first = np.flatnonzero(np.append(cells.shape[0] > 0, new))
    return np.take(cells, first, axis=0), np.diff(np.append(first, cells.shape[0]))


def _covering_box(lo, hi, origin, h: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest cell of the width-``h`` grid anchored at ``origin`` that
    cover the physical box ``[lo, hi]`` with one cell of padding per side."""
    o = np.asarray(origin)
    k_lo = np.floor((lo - o) / h) - 1
    k_hi = np.floor((hi - o) / h) + 1
    if not (np.abs(np.concatenate([k_lo, k_hi])) < 2.0**62).all():  # NaN fails it too
        raise ValueError(f"{what} has non-finite or out-of-range bounds")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    _check_budget(math.prod((k_hi - k_lo + 1).tolist()), what)
    return k_lo, k_hi


def make_box(lo, hi, h: float) -> GridDomain:
    """Rasterize the open box ``(lo, hi)`` with cell width ``h``."""
    lo = _as_point(lo)
    if len(lo) not in (1, 2):  # named before any cell is counted
        raise ValueError(f"dim must be 1 or 2, got {len(lo)}")
    hi = _as_point(hi, len(lo))
    if not (h > 0):
        raise ValueError(f"cell width must be positive, got {h}")
    counts = []
    for a, b in zip(lo, hi):
        if not (b > a and math.isfinite(b - a)):
            raise ValueError(f"box extent must be positive and finite, got ({a}, {b})")
        n = math.ceil((b - a) / h - 0.5)
        if n < 1:
            raise ValueError(f"box extent ({a}, {b}) is below one cell at h={h}")
        counts.append(n)
    _check_budget(math.prod(counts), "box rasterization")
    # one run per line along the last axis, each starting at last index 0
    run_cells = box_cells((0,) * len(counts), [n - 1 for n in counts[:-1]] + [0])
    run_rows = np.arange(run_cells.shape[0] + 1, dtype=np.int64) * counts[-1]
    return GridDomain.of_runs(len(lo), float(h), lo, run_cells, run_rows)


def _union_runs(starts, lengths, holes=(), h=None, origin=None) -> tuple[np.ndarray, np.ndarray]:
    """The run table, with no runs if no cell is left, of the union of the runs with first
    cells ``starts`` (R, dim) and ``lengths``, in any order, overlapping or touching, less
    the cells whose centres lie in one of the open ``holes`` (pairs of corners) on the
    width-``h`` grid at ``origin``.  One sweep over the runs line by line: a run adds 1 from
    its first cell to its last and a hole W = R + 1 on the line of each run it meets, so a
    cell is in where the depth lies in (0, W); a hole's cells along an axis come by
    bisection under the expression ``centers_of`` evaluates."""
    ends = starts.copy()
    ends[:, -1] += lengths
    weight, ones = starts.shape[0] + 1, np.ones(starts.shape[0], np.int64)
    pos, step = [starts, ends], [ones, -ones]
    if holes:  # the index box that bounds the holes' cells
        lo, hi = starts.min(axis=0).tolist(), (ends.max(axis=0) + 1).tolist()
    for hole in holes:
        cut = []  # per axis, the cells [a, b) of the index box with centres in the hole
        corners = (_as_point(x, len(lo)) for x in hole)
        for k_lo, k_hi, o, x_lo, x_hi in zip(lo, hi, origin, *corners):
            ks, centre = range(k_lo, k_hi), lambda k: (k + 0.5) * h + o
            cut.append((k_lo + bisect.bisect_right(ks, x_lo, key=centre),
                        k_lo + bisect.bisect_left(ks, x_hi, key=centre)))
        a, b = np.array(cut).T  # a hole with cells adds events on the line of each run it meets
        met = (a[-1] < b[-1]) & np.all((starts[:, :-1] >= a[:-1]) & (starts[:, :-1] < b[:-1]), 1)
        lines = np.compress(met, starts[:, :-1], axis=0)  # of the runs it meets
        pos += [np.column_stack((lines, np.full(len(lines), k))) for k in (a[-1], b[-1])]
        step += [np.full(len(lines), weight), np.full(len(lines), -weight)]
    pos, step = np.concatenate(pos), np.concatenate(step)
    # by cell, and at a cell by falling step, so the depth crosses (0, W) at most once there
    order = np.lexsort((-step, *pos.T[::-1]))
    pos, depth = np.take(pos, order, axis=0), np.cumsum(step[order])
    inside = np.append(0, (depth > 0) & (depth < weight))  # 0 or 1, led by the depth before all
    first, end = (np.compress(np.diff(inside) == k, pos, axis=0) for k in (1, -1))
    return first, np.append(0, np.cumsum(end[:, -1] - first[:, -1]))


def _boxes_minus_holes(boxes: list[GridDomain], holes: list[tuple]) -> GridDomain:
    """The union of the rasterized ``boxes``, on the grid of the first, less the cells
    whose centres lie in one of the open ``holes``, each a pair of corners."""
    dim, h, origin = boxes[0].dim, boxes[0].h, boxes[0].origin
    runs = []
    for k, box in enumerate(boxes):
        shift = (np.asarray(box.origin) - np.asarray(origin)) / h
        # its far corner lies at most n cells further, so the union's index box spans < 2**63
        if not (np.abs(shift) + box.n_cells < 2.0**62).all():
            raise ValueError(f"box {k} lies 2**62 or more cells from the first box's low corner")
        shift_int = np.round(shift).astype(np.int64)
        if np.abs(shift - shift_int).max() > 1e-9:
            raise ValueError("boxes must sit on a common grid (origins differ by non-multiples of h)")
        runs.append((box.run_cells + shift_int, np.diff(box.run_rows)))
    run_cells, run_rows = _union_runs(*(np.concatenate(x) for x in zip(*runs)), holes, h, origin)
    if run_cells.shape[0] == 0:
        raise ValueError("subtraction removed every cell of the domain")
    return GridDomain.of_runs(dim, h, origin, run_cells, run_rows)


def connected_components(domain: GridDomain) -> list[GridDomain]:
    """Partition of the active cells by face adjacency.

    The parts are returned in lexicographic order of their smallest cell,
    share ``dim``/``h``/``origin`` with the input, and split the active
    cells exactly (no cell lost or duplicated).
    """
    return [GridDomain(domain.dim, domain.h, domain.origin, domain.cells_of(rows))
            for rows in domain.component_rows]


def is_topologically_regular(domain: GridDomain) -> bool:
    """Grid proxy for "equal to the interior of the closure".

    Fails exactly when some inactive cell has all of its face neighbors
    active, i.e. the rasterization has a slit or puncture thinner than one
    cell that closure would swallow.
    """
    # a surrounded inactive cell is the missing +e_last neighbor of an active
    # cell, the last of its run, so the cell just past each run's end is all
    # that needs checking
    steps = np.eye(domain.dim, dtype=np.int64)
    cand = domain.run_cells.copy()
    cand[:, -1] += np.diff(domain.run_rows)
    surrounded = np.ones(cand.shape[0], dtype=bool)
    for e in steps:
        surrounded &= domain.rows_of_indices(cand + e) >= 0
        surrounded &= domain.rows_of_indices(cand - e) >= 0
    return not surrounded.any()


# -- rigid motions ---------------------------------------------------------


@dataclass(frozen=True)
class RigidMotion:
    """Orthogonal matrix plus translation, with a weight sign for operators."""

    Q: np.ndarray
    b: np.ndarray
    sign: int = 1

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.shape[0] != Q.shape[0]:
            raise ValueError("translation dimension does not match Q")
        if not (np.isfinite(Q).all() and np.isfinite(b).all()):
            raise ValueError("Q and b must be finite")
        dev = np.abs(Q.T @ Q - np.eye(Q.shape[0])).max()
        if not (dev <= _ORTHO_TOL):
            raise ValueError(f"Q is not orthogonal: max |Q^T Q - I| = {dev:.3e}")
        if not (abs(abs(float(np.linalg.det(Q))) - 1.0) <= _ORTHO_TOL):
            raise ValueError("Q must have |det Q| = 1")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")
        _read_only(Q, b)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @staticmethod
    def identity(dim: int) -> "RigidMotion":
        return RigidMotion(np.eye(dim), np.zeros(dim))

    @staticmethod
    def rotation(angle: float, b=(0.0, 0.0), sign: int = 1,
                 reflect: bool = False) -> "RigidMotion":
        """Planar rotation by ``angle``, optionally composed with a flip."""
        c, s = math.cos(angle), math.sin(angle)
        Q = np.array([[c, -s], [s, c]])
        if reflect:
            Q = Q @ np.diag([1.0, -1.0])
        return RigidMotion(Q, np.asarray(b, dtype=float), sign)

    def transform(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        return pts @ self.Q.T + self.b

    def inverse_transform(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dim)
        return (pts - self.b) @ self.Q

    def image_box(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Bounding box of the image of the box ``[lo, hi]``, from its corners."""
        img = self.transform(np.array(list(itertools.product(*zip(lo, hi)))))
        return img.min(axis=0), img.max(axis=0)

    def to_json_dict(self) -> dict:
        return {"Q": self.Q.tolist(), "b": self.b.tolist(), "sign": self.sign}

    @staticmethod
    def from_json_dict(d: dict, what: str = "motion") -> "RigidMotion":
        d = _json_object(d, what)
        Q, b = (_json_value(d.get(k), "an array", k) for k in ("Q", "b"))
        sign = d.get("sign", 1)  # a number other than -1 or 1 fails the sign check
        # numpy and `in` read true and "1" as 1, so every entry must be a JSON number; the
        # motion's own checks name a non-finite one or a wrong shape that numpy can read
        rows = [row if isinstance(row, list) else [row] for row in Q]
        for key, values in (("Q", itertools.chain(*rows)), ("b", b), ("sign", [sign])):
            for x in values:
                _json_value(x, "a number", key)
        if len({len(row) if isinstance(row, list) else -1 for row in Q}) > 1:
            raise ValueError(f"'Q' must be a square array of numbers, got {Q!r}")
        return RigidMotion(np.asarray(Q, dtype=float), np.asarray(b, dtype=float),
                           int(sign) if sign in (-1, 1) else sign)


def random_rigid_motion(dim: int, rng: np.random.Generator) -> RigidMotion:
    """Seeded motion for test sweeps: b in [-0.5, 0.5)^dim, random sign, reflected 1 in 2."""
    b = rng.uniform(-0.5, 0.5, size=dim)
    sign = 1 if rng.random() < 0.5 else -1
    reflect = rng.random() < 0.5
    if dim == 1:
        return RigidMotion(np.array([[-1.0 if reflect else 1.0]]), b, sign)
    return RigidMotion.rotation(rng.uniform(0.0, 2.0 * math.pi), b, sign, reflect=reflect)


def apply_rigid_motion(domain: GridDomain, motion: RigidMotion) -> GridDomain:
    """Rasterize the image ``{Qx + b : x in domain}`` on a grid of the same width.

    The output grid has origin ``Q @ origin + b`` so that the identity motion
    reproduces ``domain`` exactly and grid-aligned translations are lossless.
    """
    if motion.dim != domain.dim:
        raise ValueError("motion dimension does not match the domain")
    lo, hi = motion.image_box(*domain.bounding_box)
    origin_out = tuple(motion.transform(np.asarray(domain.origin)[None, :])[0])
    o, h = np.asarray(origin_out), domain.h
    k_lo, k_hi = _covering_box(lo, hi, o, h, "rigid-motion image")
    runs = []
    for cand in box_blocks(k_lo, k_hi):  # the covering cells whose centres map back in
        back = motion.inverse_transform(o + h * (cand + 0.5))
        runs.append(_cut_runs(np.compress(domain.rows_of_points(back) >= 0, cand, axis=0)))
    run_cells, run_rows = _union_runs(*(np.concatenate(x) for x in zip(*runs)))
    if run_cells.shape[0] == 0:
        raise ValueError("rigid-motion image contains no cells")
    return GridDomain.of_runs(domain.dim, h, origin_out, run_cells, run_rows)


def congruence_check(omega1: GridDomain, omega2: GridDomain,
                     motion: RigidMotion, tol: float) -> tuple[bool, float]:
    """Measure of ``motion(omega2) symm-diff omega1`` against a tolerance.

    The symmetric difference is sampled on the common refinement grid
    (width = min of both cell widths, anchored at ``omega1.origin``) so that
    neither rasterization is favored.  Returns ``(defect <= tol, defect)``.
    """
    if omega1.dim != omega2.dim:
        raise ValueError("domains have different dimensions")
    if motion.dim != omega1.dim:
        raise ValueError("motion dimension does not match the domains")
    if not (0 <= tol < np.inf):
        raise ValueError(f"tol must lie in [0, inf), got {tol}")
    h_ref = min(omega1.h, omega2.h)
    lo1, hi1 = omega1.bounding_box
    img_lo, img_hi = motion.image_box(*omega2.bounding_box)
    o = np.asarray(omega1.origin)
    differ = 0  # refinement cells in exactly one of the two, counted a row block at a time
    for cand in box_blocks(*_covering_box(np.minimum(lo1, img_lo), np.maximum(hi1, img_hi),
                                             o, h_ref, "congruence refinement grid")):
        centers = o + h_ref * (cand + 0.5)
        in_a = omega1.rows_of_points(centers) >= 0
        in_b = omega2.rows_of_points(motion.inverse_transform(centers)) >= 0
        differ += int(np.count_nonzero(in_a != in_b))
    defect = float(differ) * h_ref**omega1.dim
    return defect <= tol, defect


# -- builtin analytic domains ------------------------------------------------


def fat_cantor_intervals(total_removed: float, min_length: float) -> list[tuple[float, float]]:
    """Middle intervals removed from (0, 1) by the fat-Cantor construction.

    Stage ``n`` removes ``2^n`` centered intervals of length
    ``(total_removed / 2) * 4^-n``; stages stop once the pieces fall below
    ``min_length``, which is all a grid of that width can resolve.
    """
    if not (0.0 < total_removed < 1.0):
        raise ValueError("total removed mass must lie in (0, 1)")
    removed: list[tuple[float, float]] = []
    pieces = [(0.0, 1.0)]
    n = 0
    while True:
        length = (total_removed / 2.0) * 0.25**n
        if length < min_length:
            break
        next_pieces = []
        for a, b in pieces:
            mid = 0.5 * (a + b)
            removed.append((mid - length / 2.0, mid + length / 2.0))
            next_pieces.append((a, mid - length / 2.0))
            next_pieces.append((mid + length / 2.0, b))
        pieces = next_pieces
        n += 1
    return removed


def make_fat_cantor_complement(total_removed: float, h: float) -> GridDomain:
    """Open subset of (0, 1) with closure [0, 1] and measure 1 - total_removed."""
    base = make_box(0.0, 1.0, h)
    intervals = fat_cantor_intervals(total_removed, min_length=h)
    return _boxes_minus_holes([base], [((a,), (b,)) for a, b in intervals])


def example_4_8_interval() -> tuple[float, float]:
    """Endpoints of the image of (1, 2) under y -> -artanh(exp(-2 y))."""
    return (-float(np.arctanh(np.exp(-2.0))), -float(np.arctanh(np.exp(-4.0))))


_FAT_CANTOR_RE = re.compile(r"^fat_cantor\(([0-9.eE+-]+)\)$")

# JSON builtin name -> (default cell width, rasterizer at a cell width h); a rasterizer
# looks make_box up when called, so perfbench's tracer, which rebinds it, sees the call
_DOMAIN_BUILTINS = {
    "example_4_8_omega1": (1e-3, lambda h: make_box(*example_4_8_interval(), h)),
    "example_4_8_omega2": (1e-3, lambda h: make_box(1.0, 2.0, h)),
    "example_5_4_omega1": (0.01, lambda h: make_box((0.0, -1.0), (1.0, 1.0), h)),
    # two congruent blocks, (0,1) x ((-2,-1) union (1,2))
    "example_5_4_omega2": (0.01, lambda h: _boxes_minus_holes(
        [make_box((0.0, -2.0), (1.0, 2.0), h)], [((0.0, -1.0), (1.0, 1.0))])),
}


def _builtin_domain(name: str, h: float | None = None) -> GridDomain:
    """The builtin domain ``name`` at cell width ``h``, by default its own."""
    default_h, rasterize = _DOMAIN_BUILTINS[name]
    return rasterize(default_h if h is None else h)


def example_4_8_omega1(h: float | None = None) -> GridDomain:
    return _builtin_domain("example_4_8_omega1", h)


def example_4_8_omega2(h: float | None = None) -> GridDomain:
    return _builtin_domain("example_4_8_omega2", h)


def example_5_4_omega1(h: float | None = None) -> GridDomain:
    return _builtin_domain("example_5_4_omega1", h)


def example_5_4_omega2(h: float | None = None) -> GridDomain:
    return _builtin_domain("example_5_4_omega2", h)


def domain_from_spec(spec, default_h: float | None = None) -> GridDomain:
    """Build a domain from its JSON description.

    Accepts a builtin name (``"example_5_4_omega2"``, ``"fat_cantor(0.5)"``),
    a dict ``{"builtin": name, "h": ...}``, or the explicit form
    ``{"dim": 2, "h": 0.01, "boxes": [{"lo": [...], "hi": [...]}],
    "subtract": [...]}``.
    """
    if isinstance(spec, str):
        spec = {"builtin": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"domain spec must be a string or an object, got {type(spec).__name__}")
    if "builtin" in spec:
        if mixed := [key for key in ("boxes", "subtract") if key in spec]:
            raise ValueError(f"a domain spec names one form: 'builtin' cannot go with {mixed}")
        _json_object(spec, "builtin domain spec")
        name = _json_value(spec["builtin"], "a string", "builtin")
        h = _json_value(spec.get("h", default_h), "a finite number or null", "h")
        if m := _FAT_CANTOR_RE.match(name):
            return make_fat_cantor_complement(float(m.group(1)), 1e-4 if h is None else h)
        if name not in _DOMAIN_BUILTINS:
            raise ValueError(f"unknown builtin domain {name!r}")
        return _builtin_domain(name, h)
    _json_object(spec, "domain spec")
    h = float(_json_value(spec.get("h"), "a finite number", "h"))
    boxes = [_spec_box(b) for b in _json_value(spec.get("boxes"), "an array", "boxes")]
    holes = [_spec_box(b) for b in _json_value(spec.get("subtract", []), "an array", "subtract")]
    if not boxes:
        raise ValueError("domain spec needs at least one box")
    dim = _json_value(spec.get("dim", len(boxes[0][0])), "an integer", "dim")
    parts = [make_box(lo, hi, h) for lo, hi in _spec_corners(boxes, dim, "box")]
    _check_budget(sum(p.n_cells for p in parts), "domain spec")
    return _boxes_minus_holes(parts, _spec_corners(holes, dim, "hole"))


def _spec_box(box) -> tuple[list, list]:
    """The ``lo`` and ``hi`` corners of a JSON box, each an array of numbers."""
    box = _json_object(box, "box")
    return tuple([_json_value(x, "a finite number", k)
                  for x in _json_value(box.get(k), "an array", k)] for k in _SPEC_KEYS["box"])


def _spec_corners(boxes: list, dim: int, what: str) -> list:
    """``boxes``, once each of their corners is checked to have ``dim`` coordinates."""
    for i, box in enumerate(boxes):
        for key, corner in zip(_SPEC_KEYS["box"], box):
            if len(corner) != dim:
                raise ValueError(f"{what} {i}'s {key!r} must be a point of dimension {dim}, "
                                 f"got {corner}")
    return boxes
