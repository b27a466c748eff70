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

from .grid_domain import _BLOCK, GridDomain, box_cells, row_blocks


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
        """Sample ``fn`` at the cell centers; ``fn`` maps (n, dim) -> (n,)."""
        vals = np.broadcast_to(np.asarray(fn(domain.centers), dtype=float),
                               (domain.n_cells,))
        return Field(domain, vals.copy())

    @staticmethod
    def constant(domain: GridDomain, value: float) -> "Field":
        return Field(domain, np.full(domain.n_cells, float(value)))

    # pointwise algebra -----------------------------------------------------

    def __add__(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, self.values - other.values)

    def __neg__(self) -> "Field":
        return Field(self.domain, -self.values)

    def __mul__(self, other):
        if isinstance(other, Field):
            _same_domain(self, other)
            return Field(self.domain, self.values * other.values)
        return Field(self.domain, self.values * float(other))

    __rmul__ = __mul__

    def __abs__(self) -> "Field":
        return Field(self.domain, np.abs(self.values))

    def minimum(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, np.minimum(self.values, other.values))

    def maximum(self, other: "Field") -> "Field":
        _same_domain(self, other)
        return Field(self.domain, np.maximum(self.values, other.values))

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

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_domain(self, other)
        return VectorField(self.domain, self.values + other.values)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _same_domain(self, other)
        return VectorField(self.domain, self.values - other.values)

    def __mul__(self, other) -> "VectorField":
        return VectorField(self.domain, self.values * float(other))

    __rmul__ = __mul__

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
        out[blk] = gradient_rows(u, blk)
    return VectorField(u.domain, out)


def gradient_rows(u: Field, blk: slice) -> np.ndarray:
    """Rows ``blk`` of ``gradient(u).values``; temporaries scale with the block."""
    v, h = u.values, u.domain.h
    vb = v[blk]
    out = np.zeros((vb.shape[0], u.domain.dim))
    for d, (plus_all, minus_all) in enumerate(u.domain.neighbor_rows):
        # numpy gathers fastest with intp indices: cast the block's rows once
        plus, minus = plus_all[blk].astype(np.intp), minus_all[blk].astype(np.intp)
        g = out[:, d]  # view: the stencils below write straight into out
        has_p, has_m = plus >= 0, minus >= 0
        central = has_p & has_m
        g[central] = (v[plus[central]] - v[minus[central]]) / (2.0 * h)

        # the second neighbor along an axis is the first neighbor's neighbor;
        # r counts rows within the block, a is a row of the whole domain
        fwd = np.flatnonzero(has_p & ~has_m)
        p1 = plus[fwd]
        two = plus_all[p1] >= 0
        r, a = fwd[two], p1[two]
        g[r] = (-3.0 * vb[r] + 4.0 * v[a] - v[plus_all[a]]) / (2.0 * h)
        r, a = fwd[~two], p1[~two]
        g[r] = (v[a] - vb[r]) / h

        bwd = np.flatnonzero(has_m & ~has_p)
        m1 = minus[bwd]
        two = minus_all[m1] >= 0
        r, a = bwd[two], m1[two]
        g[r] = (3.0 * vb[r] - 4.0 * v[a] + v[minus_all[a]]) / (2.0 * h)
        r, a = bwd[~two], m1[~two]
        g[r] = (vb[r] - v[a]) / h
    return out


def _block_sums(n: int, summands, k: int = 1) -> list[float]:
    """``np.sum`` of each of ``k`` n-length arrays, given a row block at a time
    by ``summands(blk)`` (``k`` arrays, or one when ``k == 1``).  Temporaries
    scale with the block; each sum still runs over a whole array."""
    if n <= _BLOCK:  # one block: sum the arrays as given, with no buffer to fill
        terms = summands(slice(0, n))
        terms = (terms,) if k == 1 else terms
    else:
        terms = np.empty((k, n))
        for blk in row_blocks(n):
            terms[:, blk] = summands(blk)
    return [float(np.sum(t)) for t in terms]


def _finite(total: float, msg: str) -> float:
    """``total``; a sum that overflowed is an input error, not an inf that turns into NaN."""
    if not np.isfinite(total):
        raise ValueError(msg)
    return total


@np.errstate(over="ignore", invalid="ignore")
def _pow_sum(domain: GridDomain, p: float, rows) -> float:
    """Midpoint sum of |rows(blk)|^p, euclidean magnitude for vector rows."""
    def summand(blk):
        vals = rows(blk)
        return (np.abs(vals) if vals.ndim == 1 else np.linalg.norm(vals, axis=1)) ** p

    return _finite(_block_sums(domain.n_cells, summand)[0] * domain.h**domain.dim,
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
    return lp_pow_sum(u, p) + _pow_sum(u.domain, p, lambda blk: gradient_rows(u, blk))


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
    return Field(domain, np.exp(sign * alpha * domain.centers[:, axis]))


def probe_rate(p: float) -> float:
    """Exponential rate (p-1)^(-1/p) of the probe solutions."""
    return (p - 1.0) ** (-1.0 / p)


def ball_fits(domain: GridDomain, center, radius: float) -> bool:
    """Whether every cell touched by the closed ball is active."""
    center = np.asarray(center, dtype=float).reshape(domain.dim)
    o = np.asarray(domain.origin)
    k_lo = np.floor((center - radius - o) / domain.h).astype(np.int64)
    k_hi = np.floor((center + radius - o) / domain.h).astype(np.int64)
    cand = box_cells(k_lo, k_hi)
    box_lo = o + domain.h * cand
    nearest = np.clip(center, box_lo, box_lo + domain.h)
    touched = np.sum((nearest - center) ** 2, axis=1) <= radius**2
    return bool(domain.contains_indices(cand[touched]).all())


def bump(domain: GridDomain, center, radius: float) -> Field:
    """Quartic bump (1 - (r/R)^2)^2 supported on a ball inside the domain."""
    if not ball_fits(domain, center, radius):
        raise ValueError("bump support is not contained in the domain")
    center = np.asarray(center, dtype=float).reshape(domain.dim)
    vals = np.empty(domain.n_cells)
    for blk in row_blocks(domain.n_cells):
        r2 = np.sum((domain.centers[blk] - center) ** 2, axis=1) / radius**2
        vals[blk] = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
    return Field(domain, vals)


def hat(domain: GridDomain, center, halfwidth) -> Field:
    """Piecewise-linear tent, a product of 1 - |x_d - c_d| / w_d clipped at 0.

    The gradient kink makes the induced quadrature error genuinely first
    order in h, which the convergence checks rely on.
    """
    center = np.asarray(center, dtype=float).reshape(domain.dim)
    w = np.broadcast_to(np.asarray(halfwidth, dtype=float), (domain.dim,))
    if not (w > 0).all():
        raise ValueError("halfwidth must be positive")
    vals = np.empty(domain.n_cells)
    for blk in row_blocks(domain.n_cells):
        factors = np.clip(1.0 - np.abs(domain.centers[blk] - center) / w, 0.0, None)
        vals[blk] = np.prod(factors, axis=1)
    return Field(domain, vals)


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
                domain.cells[blk].tolist(), domain.centers[blk].tolist(), columns[blk].tolist()))


def _read_csv(path, domain: GridDomain, n_values: int) -> np.ndarray:
    dim, n = domain.dim, domain.n_cells
    line = itertools.count(2)  # compress() below draws the next file line per body line
    try:
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


def _interpolate(domain: GridDomain, columns: np.ndarray,
                 pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(pts, dtype=float).reshape(-1, domain.dim)
    out = np.zeros((pts.shape[0], columns.shape[1]))
    covered = np.zeros(pts.shape[0], dtype=bool)
    for blk in row_blocks(pts.shape[0]):
        t = (pts[blk] - np.asarray(domain.origin)) / domain.h - 0.5
        base = np.floor(t).astype(np.int64)
        frac = t - base
        acc = out[blk]  # view: the corner sums accumulate straight into out
        wsum = np.zeros(base.shape[0])
        for corner in itertools.product((0, 1), repeat=domain.dim):
            idx = base + np.asarray(corner, dtype=np.int64)
            w = np.ones(base.shape[0])
            for d, c in enumerate(corner):
                w *= frac[:, d] if c else 1.0 - frac[:, d]
            rows = domain.rows_of_indices(idx)
            ok = rows >= 0
            acc[ok] += w[ok, None] * columns[rows[ok]]
            wsum[ok] += w[ok]
        hit = covered[blk] = wsum > 0  # points without a hit stay exactly 0
        acc[hit] /= wsum[hit, None]
    return out, covered
