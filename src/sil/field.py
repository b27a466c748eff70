"""Scalar and vector functions sampled at the nodes of a GridDomain.

Integrals are midpoint sums over cell centers, gradients are central
differences where both face neighbors exist and second-order one-sided
stencils otherwise, so smooth quantities carry an O(h^2) discretization
error away from re-entrant boundaries.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import grid_domain as _gd
from .grid_domain import GridDomain, box_blocks, row_blocks


def _same_domain(a, b) -> None:
    if a.domain is not b.domain and a.domain != b.domain:
        raise ValueError("fields live on different domains")


@dataclass(frozen=True)
class Field:
    """One real value per active cell, aligned with ``domain.cells``."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.shape[0] != self.domain.n_cells:
            raise ValueError(
                f"expected {self.domain.n_cells} values, got {vals.shape[0]}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_function(domain: GridDomain, fn: Callable[[np.ndarray], np.ndarray]) -> "Field":
        """Sample a row-wise ``fn``, (b, dim) -> (b,), at the cell centers a block at a time."""
        vals = np.empty(domain.n_cells)
        for blk in row_blocks(domain.n_cells):
            vals[blk] = fn(domain.centers_of(blk))
        return Field(domain, vals)

    @staticmethod
    def constant(domain: GridDomain, value: float) -> "Field":
        return Field(domain, np.full(domain.n_cells, float(value)))

    # pointwise algebra -----------------------------------------------------

    def __add__(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, self.values + other.values)

    def __mul__(self, other) -> "Field":
        return Field(self.domain, self.values * float(other))

    __rmul__ = __mul__

    def __abs__(self) -> "Field":
        return Field(self.domain, np.abs(self.values))

    def minimum(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, np.minimum(self.values, other.values))

    def at(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at arbitrary points.

        Stencil corners that fall outside the domain are dropped and the
        remaining weights renormalized, so constants interpolate exactly up
        to the rasterized boundary.  Points with no active corner node give 0.
        """
        return _interpolate(self.domain, self.values[:, None], pts)[0][:, 0]

    def at_with_coverage(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated values plus the mask of points with an active stencil."""
        vals, covered = _interpolate(self.domain, self.values[:, None], pts)
        return vals[:, 0], covered

    def to_csv(self, path) -> None:
        _write_csv(path, self.domain, self.values[:, None], ["value"])

    @staticmethod
    def from_csv(path, domain: GridDomain) -> "Field":
        data = _read_csv(path, domain, 1)
        return Field(domain, data[:, 0])


@dataclass(frozen=True)
class VectorField:
    """One real dim-vector per active cell."""

    domain: GridDomain
    values: np.ndarray  # (n, dim)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(self.domain.n_cells,
                                                            self.domain.dim)
        if not np.isfinite(vals).all():
            raise ValueError("vector field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def at(self, pts: np.ndarray) -> np.ndarray:
        return _interpolate(self.domain, self.values, pts)[0]

    def to_csv(self, path) -> None:
        names = [f"v{d}" for d in range(self.domain.dim)]
        _write_csv(path, self.domain, self.values, names)

    @staticmethod
    def from_csv(path, domain: GridDomain) -> "VectorField":
        return VectorField(domain, _read_csv(path, domain, domain.dim))


# -- calculus ----------------------------------------------------------------


def gradient(u: Field) -> VectorField:
    """Finite-difference gradient.

    Central differences where both face neighbors are active; otherwise a
    three-point (or two-point) one-sided stencil into the domain; isolated
    cells along an axis get a zero component.
    """
    out = np.empty((u.domain.n_cells, u.domain.dim))
    for blk in row_blocks(u.domain.n_cells):
        out[blk] = gradient_rows([u], blk)[0]
    return VectorField(u.domain, out)


def gradient_rows(fields, blk: slice) -> list[np.ndarray]:
    """Rows ``blk`` of ``gradient(f).values`` for each of the ``fields``, which share a
    domain and its stencils; temporaries scale with the block."""
    domain, h = fields[0].domain, fields[0].domain.h
    lo, hi, _ = blk.indices(domain.n_cells)
    outs = [np.empty((hi - lo, domain.dim)) for _ in fields]
    for d, (three, two) in enumerate(domain._one_sided):
        spans = domain._spans(d, (0, 1), blk)  # then the block's one-sided rows, by bisection
        (r, a, a2, s), (r1, a1, s1) = (rows[:, slice(*rows[0].searchsorted((lo, hi)))]
                                       for rows in (three, two))
        for v, out in zip((f.values for f in fields), outs):
            g = np.zeros(hi - lo)  # contiguous, then copied to the column of out
            for i, j, (p, m), where in spans:  # central differences of shifted views
                np.subtract(v[i + p:j + p], v[i + m:j + m], out=g[i - lo:j - lo], where=where)
            g /= 2.0 * h  # one-sided stencils next: negated coefficients keep an exact +0.0
            g[r - lo] = (-3.0 * s * v[r] + 4.0 * s * v[a] - s * v[a2]) / (2.0 * h)
            g[r1 - lo] = (s1 * v[a1] - s1 * v[r1]) / h
            out[:, d] = g
    return outs


def _block_sums(n: int, summands, start: int = 0) -> np.ndarray | np.float64:
    """``np.sum`` of each leading index of ``summands(blk)`` (a C-contiguous array, or a tuple
    of arrays) over its last axis, rows ``start`` to ``n`` a row block at a time, bit for
    bit: a range longer than a block splits where numpy's pairwise sum splits it (at half
    its rows, rounded down to a multiple of 8), so no n-length buffer is made."""
    if (m := n - start) > max(_gd._BLOCK, 128):
        mid = start + m // 2 - (m // 2) % 8
        return _block_sums(mid, summands, start) + _block_sums(n, summands, mid)
    return np.add.reduce(summands(slice(start, n)), axis=-1)


def _finite(total: np.ndarray | np.float64, msg: str) -> np.ndarray | np.float64:
    """``total``, sums or one sum; an overflow is an input error, not an inf that becomes NaN."""
    if not np.isfinite(total).all():
        raise ValueError(msg)
    return total


@np.errstate(over="ignore", invalid="ignore")
def _pow_sum(domain: GridDomain, p: float, rows) -> np.ndarray | np.float64:
    """Midpoint sums of |rows(blk)|^p; rows come as (b,) scalars or as (..., b, dim) vectors."""
    def summand(blk):
        vals = rows(blk)
        return (np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=-1)) ** p

    return _finite(_block_sums(domain.n_cells, summand) * domain.h**domain.dim,
                   f"the power sum of |u|^p overflows at p = {p}")


def lp_pow_sum(u, p: float) -> float:
    """Midpoint sum of |u|^p over the domain (the p-th power of the norm)."""
    if not (1 <= p < np.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    return _pow_sum(u.domain, p, lambda blk: u.values[blk])


def lp_norm(u, p: float) -> float:
    """L^p norm of a Field or VectorField (euclidean magnitude pointwise)."""
    return lp_pow_sum(u, p) ** (1.0 / p)


def w1p_pow_sum(u: Field, p: float) -> float:
    return lp_pow_sum(u, p) + _pow_sum(u.domain, p, lambda blk: gradient_rows([u], blk)[0])


def w1p_norm(u: Field, p: float) -> float:
    """Sobolev norm (integral of |u|^p plus integral of |grad u|^p)^(1/p)."""
    return w1p_pow_sum(u, p) ** (1.0 / p)


def _worst(values, empty_msg: str = "no values to reduce") -> float:
    """Largest of ``values``, NaN when any of them is NaN.

    Every "worst defect <= tol" check reduces through here: the builtin
    ``max`` drops a NaN that is not its first argument, so a broken sample
    would vanish from the defect instead of failing it.
    """
    arr = np.fromiter(values, float)
    if arr.size == 0:
        raise ValueError(empty_msg)
    return float(arr.max())


# -- generators --------------------------------------------------------------


def exponential_probe(domain: GridDomain, axis: int, sign: int, p: float) -> Field:
    """Nodal samples of exp(+/- alpha x_axis) with alpha = (p-1)^(-1/p).

    These are exact classical solutions of the p-Laplace equation
    div(|grad u|^(p-2) grad u) = |u|^(p-2) u, and they are the probes the
    operator reconstruction sends through a black-box operator.
    """
    if not (p > 1):
        raise ValueError(f"probe exponent requires p > 1, got {p}")
    if not (0 <= axis < domain.dim):
        raise ValueError(f"axis {axis} out of range for dim {domain.dim}")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    alpha = probe_rate(p)
    try:
        with np.errstate(over="ignore"):  # an overflow leaves an inf, which Field rejects
            return Field.from_function(domain, lambda x: np.exp(sign * alpha * x[:, axis]))
    except ValueError:
        raise ValueError(f"the probe exp({sign:+d} * {alpha:.6g} x_{axis}) overflows") from None


def probe_rate(p: float) -> float:
    """Exponential rate (p-1)^(-1/p) of the probe solutions."""
    return (p - 1.0) ** (-1.0 / p)


def ball_fits(domain: GridDomain, center, radius: float) -> bool:
    """Whether every cell touched by the closed ball is active, tested a row block at a time."""
    center = np.asarray(center, dtype=float).reshape(domain.dim)
    o = np.asarray(domain.origin)
    k_lo = np.floor((center - radius - o) / domain.h).astype(np.int64)
    k_hi = np.floor((center + radius - o) / domain.h).astype(np.int64)
    for cand in box_blocks(k_lo, k_hi):
        box_lo = o + domain.h * cand
        nearest = np.clip(center, box_lo, box_lo + domain.h)
        touched = np.sum((nearest - center) ** 2, axis=1) <= radius**2
        if not (domain.rows_of_indices(np.compress(touched, cand, axis=0)) >= 0).all():
            return False
    return True


def bump(domain: GridDomain, center, radius: float) -> Field:
    """Quartic bump (1 - (r/R)^2)^2 supported on a ball inside the domain."""
    if not ball_fits(domain, center, radius):
        raise ValueError("bump support is not contained in the domain")
    center = np.asarray(center, dtype=float).reshape(domain.dim)

    def quartic(x):
        r2 = np.sum((x - center) ** 2, axis=1) / radius**2
        return np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)

    return Field.from_function(domain, quartic)


def hat(domain: GridDomain, center, halfwidth) -> Field:
    """Piecewise-linear tent, a product of 1 - |x_d - c_d| / w_d clipped at 0.

    The gradient kink makes the induced quadrature error genuinely first
    order in h, which the convergence checks rely on.
    """
    center = np.asarray(center, dtype=float).reshape(domain.dim)
    w = np.broadcast_to(np.asarray(halfwidth, dtype=float), (domain.dim,))
    if not (w > 0).all():
        raise ValueError("halfwidth must be positive")
    return Field.from_function(domain, lambda x: np.prod(
        np.clip(1.0 - np.abs(x - center) / w, 0.0, None), axis=1))


def random_smooth_field(domain: GridDomain, rng: np.random.Generator,
                        amplitude: float = 1.0) -> Field:
    """Random three-term trigonometric polynomial, frequencies up to 2, O(amplitude) values."""
    x = domain.centers
    vals = np.full(domain.n_cells, amplitude * rng.uniform(-0.5, 0.5))
    for _ in range(3):
        k = rng.integers(-2, 3, size=domain.dim)
        if not np.any(k):
            k[rng.integers(domain.dim)] = 1
        a = amplitude * rng.uniform(0.2, 1.0) / 3
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vals += a * np.cos(2.0 * np.pi * (x @ k) + phase)
    return Field(domain, vals)


# -- CSV dump format ----------------------------------------------------------


def _lead_names(dim: int) -> list[str]:
    return ["i", "j"][:dim] + ["x", "y"][:dim]


def _write_csv(path, domain: GridDomain, columns: np.ndarray, names: list[str]) -> None:
    # repr of the Python floats from .tolist() reads back bit-exact; 1,024-row
    # blocks keep few row strings alive at once
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_lead_names(domain.dim) + names) + "\r\n")
        for blk in row_blocks(domain.n_cells, 1024):
            fh.writelines(",".join(map(repr, k + x + v)) + "\r\n" for k, x, v in zip(
                domain.cells_of(blk).tolist(), domain.centers_of(blk).tolist(),
                columns[blk].tolist()))


def _read_csv(path, domain: GridDomain, n_values: int) -> np.ndarray:
    dim, n = domain.dim, domain.n_cells
    line = itertools.count(2)  # compress() below draws the next file line per body line
    try:
        with open(path, "rb") as raw:  # numpy reads \x1c-\x1f as spaces; int() and float() do not
            if any(sep in chunk for chunk in iter(lambda: raw.read(1 << 16), b"")
                   for sep in range(0x1c, 0x20)):
                raise ValueError("CSV holds an ASCII separator character (\\x1c to \\x1f)")
        with open(path, encoding="ascii") as fh:  # numpy's int parser can crash on non-ASCII
            header = fh.readline().rstrip("\n").split(",")
            if header[: 2 * dim] != _lead_names(dim) or len(header) != 2 * dim + n_values:
                raise ValueError(f"unexpected CSV header {header}")
            # a header-only file warns "input contained no data"; numpy 1.x reads
            # "1.5" in an integer column as 1, with a DeprecationWarning
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                table = np.loadtxt(itertools.compress(fh, line), delimiter=",", comments=None,
                                   ndmin=1, dtype=[("k", np.int64, (dim,)), ("x", float, (dim,)),
                                                   ("v", float, (n_values,))])
        if table.size and caught:
            raise ValueError(f"malformed CSV body: {caught[0].message}")
        rows = domain.rows_of_indices(table["k"])
        if (rows < 0).any():
            raise ValueError("CSV contains cells outside the domain")
        seen = np.zeros(n, dtype=bool)  # a mark array: np.unique would import numpy.ma
        seen[rows] = True
        distinct = np.count_nonzero(seen)
        if not rows.size == distinct == n:
            raise ValueError(f"CSV does not cover each of the {n} domain cells exactly once: "
                             f"{rows.size} rows, {distinct} distinct cells")
        if not (np.isfinite(table["x"]).all() and np.isfinite(table["v"]).all()):
            raise ValueError("CSV values must be finite")
        out = np.empty((n, n_values))
        out[rows] = table["v"]
        return out
    except ValueError as exc:  # name the file, as open() does, and numpy's row as its line
        raise ValueError(f"{path}: " + re.sub(r"at row \d+", f"at line {next(line) - 1}",
                                               str(exc))) from None


def _interpolate(domain: GridDomain, columns: np.ndarray, pts: np.ndarray,
                 corner_rows: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation, and the mask of points with an active corner; the rows of
    the corners of the points ``blk`` come from ``corner_rows(blk, floors)``, else a lookup."""
    corners = list(itertools.product((0, 1), repeat=domain.dim))
    corner_rows = corner_rows or (lambda blk, base: (domain.rows_of_indices(base + corner)
                                                     for corner in corners))
    pts = np.asarray(pts, dtype=float).reshape(-1, domain.dim)
    out = np.zeros((pts.shape[0], columns.shape[1]))
    covered = np.zeros(pts.shape[0], dtype=bool)
    for blk in row_blocks(pts.shape[0]):
        frac = pts[blk] - np.asarray(domain.origin)  # t, then t - floor(t), in place
        frac /= domain.h
        frac -= 0.5
        base = np.floor(frac).astype(np.int64)
        frac -= base
        acc = out[blk]  # view: the corner sums accumulate straight into out
        wsum = np.zeros(base.shape[0])
        gathered = np.empty_like(acc)  # each corner's rows of columns, in turn
        for corner, rows in zip(corners, corner_rows(blk, base)):
            w = np.ones(base.shape[0])
            for d, c in enumerate(corner):
                w *= frac[:, d] if c else 1.0 - frac[:, d]
            w[rows < 0] = 0.0  # an absent corner reads the (finite) last row at weight 0
            np.take(columns, rows, axis=0, out=gathered, mode="wrap")
            gathered *= w[:, None]
            acc += gathered
            wsum += w
        hit = covered[blk] = wsum > 0  # points without a hit stay exactly 0
        np.divide(acc, wsum[:, None], out=acc, where=hit[:, None])
    return out, covered


def _subsample_map(u: VectorField, rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``u.at`` for points within a third of a cell of the nodes of ``rows``, in their order;
    their corners are read from the neighbour tables once, a diagonal one either way round."""
    domain, dim = u.domain, u.domain.dim
    near = np.full((3,) * dim + rows.shape, -1, dtype=np.int32)  # by step + 1 along each axis
    near[(1,) * dim] = rows
    for d in (*range(dim), 0):  # axis 0 again: diagonal cells the other way round
        for s, table in zip((2, 0), domain.neighbor_rows[d]):
            side = near[(slice(None),) * d + (s,)]  # a view
            np.maximum(side, domain.neighbors_of(table, near[(slice(None),) * d + (1,)]), out=side)
    cells, flat = domain.cells_of(rows), near.reshape(-1)
    corners = list(itertools.product((0, 1), repeat=dim))
    for i, j in itertools.product((0, 2), repeat=2) if dim == 2 else ():
        pinch = (near[i, 1] < 0) & (near[1, j] < 0)  # blocked both ways: looked up
        near[i, j][pinch] = domain.rows_of_indices(cells[pinch] + (i - 1, j - 1))
    radix = 3 ** np.arange(dim)[::-1] * rows.size  # the flat position of a step + 1

    def corner_rows(blk, base):
        step = base - cells[blk]  # the floor less the node's cell, -1 or 0 per axis, plus 1
        step += 1
        if step.min() < 0 or step.max() > 1:  # not for points within a third of a cell
            return (domain.rows_of_indices(base + corner) for corner in corners)
        at = step @ radix
        at += np.arange(rows.size)[blk]
        return (flat[at + np.dot(corner, radix)] for corner in corners)

    return lambda pts: _interpolate(domain, u.values, pts, corner_rows)[0]
