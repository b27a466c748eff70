"""Reference kernels shared by the test modules: the full-array code that the
blocked kernels of ``sil`` replaced, kept lookup-based so that they check the
neighbour tables rather than reuse them."""

import functools

import numpy as np

from sil.field import VectorField, _block_sums, gradient_rows, lp_pow_sum
from sil.forms import _grad_weight
from sil.grid_domain import GridDomain, _as_point, row_blocks


@functools.lru_cache(maxsize=4)
def _looked_up_neighbours(domain):
    """Per axis ``e``, the rows of every cell + e and - e, and of cell + 2e and - 2e where
    the cell has only the neighbour on that side, -1 where absent or not looked up; all
    found by cell lookup, once per domain for all its fields."""
    cells, out = domain.cells, []
    for e in np.eye(domain.dim, dtype=np.int64):
        plus, minus = domain.rows_of_indices(cells + e), domain.rows_of_indices(cells - e)
        second = []
        for near, far, step in ((plus, minus, 2 * e), (minus, plus, -2 * e)):
            rows = np.full(domain.n_cells, -1, dtype=np.int64)
            one_sided = (near >= 0) & (far < 0)
            rows[one_sided] = domain.rows_of_indices(cells[one_sided] + step)
            second.append(rows)
        out.append((plus, minus, *second))
    return out


def reference_gradient(u):
    """``gradient`` as one full-array stencil pass over looked-up neighbour rows:
    central differences where both face neighbours are active, else the three-point
    one-sided stencil where the second neighbour is active, else the two-point one."""
    v, h = u.values, u.domain.h
    out = np.zeros((u.domain.n_cells, u.domain.dim))
    for d, (plus, minus, plus2, minus2) in enumerate(_looked_up_neighbours(u.domain)):
        g = out[:, d]
        has_p, has_m = plus >= 0, minus >= 0
        central = has_p & has_m
        g[central] = (v[plus[central]] - v[minus[central]]) / (2.0 * h)

        fwd = has_p & ~has_m
        fwd2, fwd1 = fwd & (plus2 >= 0), fwd & (plus2 < 0)
        g[fwd2] = (-3.0 * v[fwd2] + 4.0 * v[plus[fwd2]] - v[plus2[fwd2]]) / (2.0 * h)
        g[fwd1] = (v[plus[fwd1]] - v[fwd1]) / h

        bwd = has_m & ~has_p
        bwd2, bwd1 = bwd & (minus2 >= 0), bwd & (minus2 < 0)
        g[bwd2] = (3.0 * v[bwd2] - 4.0 * v[minus[bwd2]] + v[minus2[bwd2]]) / (2.0 * h)
        g[bwd1] = (v[bwd1] - v[minus[bwd1]]) / h
    return out


def subtract_boxes(domain, boxes):
    """The cells of ``domain`` whose centres lie in none of the open ``boxes``,
    the centres computed a row block at a time; a corner of another dimension is
    named as a domain spec's hole."""
    for i, box in enumerate(boxes):
        for key, x in zip(("lo", "hi"), box):
            if len(x) != domain.dim:
                raise ValueError(f"hole {i}'s {key!r} must be a point of dimension "
                                 f"{domain.dim}, got {x}")
    boxes = [[np.asarray(_as_point(x)) for x in box] for box in boxes]
    keep = np.ones(domain.n_cells, dtype=bool)
    for blk in row_blocks(domain.n_cells):
        centers = domain.centers_of(blk)
        for lo, hi in boxes:
            keep[blk] &= ~np.all((centers > lo) & (centers < hi), axis=1)
    if not keep.any():
        raise ValueError("subtraction removed every cell of the domain")
    return GridDomain(domain.dim, domain.h, domain.origin, domain.cells[keep])


def reference_clarkson_slack(f, g, p):
    """The Clarkson slack of one pair of vector fields, from the power sums of the four
    whole fields f + g, f - g, f and g."""
    lhs = (lp_pow_sum(VectorField(f.domain, f.values + g.values), p)
           + lp_pow_sum(VectorField(f.domain, f.values - g.values), p))
    return float(lhs - (2.0 * lp_pow_sum(f, p) + 2.0 * lp_pow_sum(g, p)))


def two_walk_form_a(u, v, p):
    """``form_a`` as two blocked walks, the zero-order sum and then the gradient sum."""
    def grad_term(blk):
        du, dv = gradient_rows([u, v], blk)
        return _grad_weight(np.linalg.norm(du, axis=1), p - 2.0) * np.einsum("nd,nd->n", du, dv)

    n = u.domain.n_cells
    zero_order = _block_sums(n, lambda blk: np.sign(u.values[blk])
                             * np.abs(u.values[blk]) ** (p - 1.0) * v.values[blk])
    return (zero_order + _block_sums(n, grad_term)) * u.domain.h**u.domain.dim


def two_walk_form_b(u, v, w, p):
    """``form_b`` as two blocked walks, the zero-order sum and then both gradient sums."""
    def grad_terms(blk):
        du, dv, dw = gradient_rows([u, v, w], blk)
        mag = np.linalg.norm(du, axis=1)
        inner = np.einsum("nd,nd->n", du, dv) * np.einsum("nd,nd->n", du, dw)
        return (_grad_weight(mag, p - 4.0) * inner,
                _grad_weight(mag, p - 2.0) * np.einsum("nd,nd->n", dv, dw))

    n = u.domain.n_cells
    t1 = _block_sums(n, lambda blk: np.abs(u.values[blk]) ** (p - 2.0)
                     * (v.values[blk] * w.values[blk]))
    t2, t3 = _block_sums(n, grad_terms)
    return ((p - 1.0) * t1 + (p - 2.0) * t2 + t3) * u.domain.h**u.domain.dim
