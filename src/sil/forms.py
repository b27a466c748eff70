"""Variational forms behind the W^{1,p} norm and their derivative checks.

The bilinear-in-v form

    a_p(u, v) = int |u|^(p-2) u v + int |grad u|^(p-2) grad u . grad v

is the first Gateaux derivative of ||u||^p / p and also the weak form of the
p-Laplace equation div(|grad u|^(p-2) grad u) = |u|^(p-2) u.  For p > 2 its
derivative in u is the trilinear form

    b_p(u, v, w) = (p-1) int |u|^(p-2) v w
                 + (p-2) int |grad u|^(p-4) <grad u, grad v> <grad u, grad w>
                 + int |grad u|^(p-2) grad v . grad w.

All integrands follow the convention that a product is zero wherever one of
its factors is zero, which keeps the singular weights finite for p < 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (Field, VectorField, _block_sums, _same_domain, _worst, gradient_rows,
                    lp_pow_sum, w1p_norm, w1p_pow_sum)

DEFAULT_S_LADDER = (1e-2, 1e-3, 1e-4)


def _grad_weight(mag: np.ndarray, exponent: float) -> np.ndarray:
    # |grad u|^exponent with the zero-product convention at grad u = 0
    out = np.zeros_like(mag)
    pos = mag > 0.0
    out[pos] = mag[pos] ** exponent
    return out


def form_a(u: Field, v: Field, p: float) -> float:
    """The form a_p(u, v); a_p(u, u) equals the p-th power of the norm."""
    if not (1.0 < p < np.inf):
        raise ValueError(f"form requires p in (1, inf), got {p}")
    _same_domain(u, v)

    def grad_term(blk):
        du, dv = gradient_rows(u, blk), gradient_rows(v, blk)
        return _grad_weight(np.linalg.norm(du, axis=1), p - 2.0) * np.einsum("nd,nd->n", du, dv)

    n = u.domain.n_cells
    # one pass per term keeps a single n-length summand array alive
    (zero_order,) = _block_sums(n, lambda blk: np.sign(u.values[blk])
                                * np.abs(u.values[blk]) ** (p - 1.0) * v.values[blk])
    (grad_sum,) = _block_sums(n, grad_term)
    return (zero_order + grad_sum) * u.domain.h**u.domain.dim


def form_b(u: Field, v: Field, w: Field, p: float) -> float:
    """The trilinear form b_p(u, v, w), defined for p > 2 only."""
    if not (p > 2.0):
        raise ValueError(f"the trilinear form is undefined for p <= 2, got p = {p}")
    _same_domain(u, v)
    _same_domain(u, w)

    def grad_terms(blk):  # both share the three gradients of the block
        du, dv, dw = (gradient_rows(f, blk) for f in (u, v, w))
        mag = np.linalg.norm(du, axis=1)
        inner = np.einsum("nd,nd->n", du, dv) * np.einsum("nd,nd->n", du, dw)
        return (_grad_weight(mag, p - 4.0) * inner,
                _grad_weight(mag, p - 2.0) * np.einsum("nd,nd->n", dv, dw))

    n = u.domain.n_cells
    # products of v and w first so the result is symmetric in (v, w) exactly
    (t1,) = _block_sums(n, lambda blk: np.abs(u.values[blk]) ** (p - 2.0)
                        * (v.values[blk] * w.values[blk]))
    t2, t3 = _block_sums(n, grad_terms, 2)
    return ((p - 1.0) * t1 + (p - 2.0) * t2 + t3) * u.domain.h**u.domain.dim


@dataclass(frozen=True)
class GateauxReport:
    """Difference-quotient errors over a ladder of step sizes."""

    s_values: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float

    def __post_init__(self):
        s = tuple(float(v) for v in self.s_values)
        if len(s) == 0:
            raise ValueError("the step ladder must not be empty")
        if any(b >= a for a, b in zip(s, s[1:])):
            raise ValueError("step sizes must be strictly decreasing")
        if any(v <= 0 for v in s):
            raise ValueError("step sizes must be positive")
        errs = tuple(float(e) for e in self.errors)
        if any(e < 0 for e in errs):
            raise ValueError("errors must be nonnegative")
        object.__setattr__(self, "s_values", s)
        object.__setattr__(self, "errors", errs)

    def to_json_dict(self) -> dict:
        return {"s": list(self.s_values), "error": list(self.errors),
                "slope": self.slope}


def _fit_slope(s: tuple[float, ...], errors: tuple[float, ...]) -> float:
    s_arr = np.asarray(s)
    e_arr = np.asarray(errors)
    ok = e_arr > 0.0
    if ok.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(np.log(s_arr[ok]), np.log(e_arr[ok]), 1)
    return float(coeffs[0])


def gateaux_check_norm(u: Field, v: Field, p: float,
                       s_values=DEFAULT_S_LADDER) -> GateauxReport:
    """Compare (||u + s v||^p - ||u||^p) / s against p * a_p(u, v); a_p checks p."""
    _same_domain(u, v)
    s_values = tuple(sorted((float(s) for s in s_values), reverse=True))
    base = w1p_pow_sum(u, p)
    predicted = p * form_a(u, v, p)
    errors = []
    for s in s_values:
        quotient = (w1p_pow_sum(u + s * v, p) - base) / s
        errors.append(abs(quotient - predicted))
    return GateauxReport(s_values, tuple(errors), _fit_slope(s_values, tuple(errors)))


def gateaux_check_form(u: Field, v: Field, w: Field, p: float,
                       s_values=DEFAULT_S_LADDER) -> GateauxReport:
    """Compare (a_p(u + s v, w) - a_p(u, w)) / s against b_p(u, v, w); b_p checks p."""
    s_values = tuple(sorted((float(s) for s in s_values), reverse=True))
    base = form_a(u, w, p)
    predicted = form_b(u, v, w, p)
    errors = []
    for s in s_values:
        quotient = (form_a(u + s * v, w, p) - base) / s
        errors.append(abs(quotient - predicted))
    return GateauxReport(s_values, tuple(errors), _fit_slope(s_values, tuple(errors)))


def plap_residual(u: Field, p: float, tests) -> float:
    """Largest normalized weak residual max |a_p(u, phi)| / ||phi||_{W^{1,p}}.

    Every test function must vanish on the boundary layer of the domain; a
    weak solution of the p-Laplace equation drives this to zero under grid
    refinement while non-solutions stall at an O(1) value.
    """
    mask = u.domain.boundary_layer_mask()

    def residual(phi: Field) -> float:
        _same_domain(u, phi)
        if np.any(phi.values[mask] != 0.0):
            raise ValueError("test function does not vanish on the boundary layer")
        denom = w1p_norm(phi, p)
        if denom == 0.0:
            raise ValueError("test function is identically zero")
        return abs(form_a(u, phi, p)) / denom

    return _worst(map(residual, tests), "at least one test function is required")


def clarkson_check(f: VectorField, g: VectorField, p: float) -> float:
    """Signed slack of the vector Clarkson inequality.

    Returns ``(||f+g||_p^p + ||f-g||_p^p) - (2||f||_p^p + 2||g||_p^p)``,
    which is nonnegative for p >= 2 and nonpositive for p <= 2, with exact
    equality (the parallelogram law) at p = 2.
    """
    _same_domain(f, g)
    lhs = lp_pow_sum(f + g, p) + lp_pow_sum(f - g, p)
    rhs = 2.0 * lp_pow_sum(f, p) + 2.0 * lp_pow_sum(g, p)
    return float(lhs - rhs)
