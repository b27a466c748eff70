"""Spans around the public functions of each `sil` module, and per-layer metrics.

``install(recorder)`` wraps the traced names at run time and returns a
function that restores them; nothing under ``src/`` changes.  A wrapped
function is rebound in every ``sil.*`` module that imported it, so
``sil.forms.gradient`` and ``sil.field.gradient`` both record.  Spans stay
in memory with their operation (command) id and parent; counts are recorded
on the span at the same boundary.  ``layer_metrics`` turns the spans of one
pass into the per-layer numbers.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_HAT = "field.generators.hat_calls"  # marks a `hat` span; one per intertwining candidate
_BUMP_PAIR_DRAWS = 2  # `integers` draws per disjoint-bump-pair candidate


class Recorder:
    """In-memory spans ``[id, parent, op, name, start, end, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.op, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list, counts: dict | None) -> None:
        span[5] = time.perf_counter()
        span[6] = counts
        self._stack.pop()


def _wrap(recorder: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                counts = count(args, result)
            return result
        finally:
            recorder.close(span, counts)
    return traced


class _DrawCounter:
    """Passes every call through to a numpy Generator, counting one method."""

    def __init__(self, rng, method: str):
        self._rng = rng
        self._method = method
        self.draws = 0

    def __getattr__(self, attr):
        if attr == self._method:
            self.draws += 1
        return getattr(self._rng, attr)


def _wrap_draw_counting(recorder: Recorder, name: str, fn, method: str):
    """A sample battery; records its accepted samples and its ``method`` draws."""
    @functools.wraps(fn)
    def traced(first, rng, *args, **kwargs):
        span = recorder.open("suites.batteries")
        counter = _DrawCounter(rng, method)
        counts = None
        try:
            result = fn(first, counter, *args, **kwargs)
            counts = {f"{name}.draws": counter.draws, f"{name}.accepted": len(result)}
            return result
        finally:
            recorder.close(span, counts)
    return traced


def _size(path) -> int:
    return os.path.getsize(path)


def _n_points(result) -> int:
    """Points interpolated, from the values `at`/`at_with_coverage` return."""
    values = result[0] if isinstance(result, tuple) else result
    return values.shape[0]


def _targets():
    """(span name, owner, attribute, count) for every traced name."""
    from sil import cli, field, forms, grid_domain as gd, operators as op, suites

    G, F, V = gd.GridDomain, field.Field, field.VectorField
    return [
        ("grid_domain.rows_of_indices", G, "rows_of_indices",
         lambda a, r: {"grid_domain.rows_of_indices.keys": r.shape[0]}),
        ("grid_domain.stencil_setup", G, "neighbor_rows", None),
        ("grid_domain.stencil_setup", G, "boundary_layer_mask", None),
        ("grid_domain.rasterize", G, "__post_init__",
         lambda a, r: {"grid_domain.rasterize.cells": a[0].n_cells}),
        *[("grid_domain.rasterize", gd, n, None) for n in
          ("make_box", "domain_from_spec", "apply_rigid_motion", "make_fat_cantor_complement")],
        ("grid_domain.components", gd, "connected_components", None),
        ("grid_domain.components", gd, "is_topologically_regular", None),
        ("grid_domain.congruence_check", gd, "congruence_check",
         lambda a, r: {"grid_domain.congruence_check.cells": a[0].n_cells + a[1].n_cells}),
        ("field.gradient", field, "gradient",
         lambda a, r: {"field.gradient.cells": r.domain.n_cells}),
        *[("field.interpolate", owner, n,
           lambda a, r: {"field.interpolate.points": _n_points(r)})
          for owner, n in ((F, "at"), (F, "at_with_coverage"), (V, "at"))],
        *[("field.norms", field, n, None)
          for n in ("lp_pow_sum", "lp_norm", "w1p_pow_sum", "w1p_norm")],
        *[("field.generators", field, n, None)
          for n in ("exponential_probe", "bump", "random_smooth_field", "ball_fits")],
        ("field.generators", field, "hat", lambda a, r: {_HAT: 1}),
        *[("field.csv", owner, "to_csv",
           lambda a, r: {"field.csv.bytes_written": _size(a[1])}) for owner in (F, V)],
        *[("field.csv", owner, "from_csv",
           lambda a, r: {"field.csv.bytes_read": _size(a[0])}) for owner in (F, V)],
        ("forms.form_a", forms, "form_a", None),
        ("forms.form_b", forms, "form_b", None),
        ("forms.plap_residual", forms, "plap_residual",
         lambda a, r: {"forms.plap_residual.tests": len(a[2])}),
        ("forms.gateaux", forms, "gateaux_check_norm", None),
        ("forms.gateaux", forms, "gateaux_check_form", None),
        ("forms.clarkson_check", forms, "clarkson_check", None),
        *[("operators.spec_build", op, n, None) for n in
          ("operator_from_spec", "identity_operator", "example_4_8_operator",
           "example_5_4_operator", "rigid_operator")],
        ("operators.spec_build", op.OperatorSpec, "__post_init__", None),
        ("operators.apply", op, "apply_with_flags",
         lambda a, r: {"operators.apply.cells": a[0].target.n_cells}),
        ("operators.apply", op, "apply_to_function",
         lambda a, r: {"operators.apply.cells": a[0].target.n_cells}),
        ("operators.reconstruct", op, "reconstruct",
         lambda a, r: {"operators.reconstruct.cells": r.g_hat.domain.n_cells}),
        ("operators.rigid_motion_fit", op, "rigid_motion_fit",
         lambda a, r: {"operators.rigid_motion_fit.components": len(r.motions)}),
        ("operators.defect_sets", op, "defect_sets", None),
        ("operators.congruence_pipeline", op, "congruence_pipeline", None),
        *[("operators.defects", op, n, None) for n in
          ("isometry_defect", "disjointness_defect", "intertwining_defect", "preimage_field")],
        *[("suites.batteries", suites, n, None) for n in
          ("smooth_samples", "gateaux_sample_triple", "random_rigid_operator",
           "operator_defect_report")],
        # each bump-pair candidate draws two cell indices; each intertwining
        # candidate is one `hat`, counted from the battery's child spans
        ("suites.disjoint_bump_pairs", suites, "disjoint_bump_pairs", "integers"),
        ("suites.batteries", suites, "intertwining_trials",
         lambda a, r: {"suites.intertwining_trials.accepted": len(r)}),
        ("suites.run_suite", suites, "run_suite", None),
        ("cli.main", cli, "main", None),
        ("cli.report", cli, "_write_report",
         lambda a, r: {"cli.report.bytes_written": _size(a[0])}),
    ]


def _rebind_everywhere(original, replacement, undo: list) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sil" or mod_name.startswith("sil.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(recorder: Recorder):
    """Wrap every traced name; returns a function that restores them all."""
    undo: list = []
    for name, owner, attr, count in _targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(_wrap(recorder, name, original.func))
                replacement.__set_name__(owner, attr)
            elif isinstance(original, staticmethod):
                replacement = staticmethod(_wrap(recorder, name, original.__func__, count))
            else:
                replacement = _wrap(recorder, name, original, count)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
        else:
            original = getattr(owner, attr)
            if isinstance(count, str):
                replacement = _wrap_draw_counting(recorder, name, original, count)
            else:
                replacement = _wrap(recorder, name, original, count)
            _rebind_everywhere(original, replacement, undo)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# -- per-layer metrics ------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _op, _name, start, end, _c in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _parent, _op, _name, start, end, _c in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, counts and self times of one traced pass."""
    values: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    hats_under: dict[int, int] = {}

    def add(key, v):
        values[key] = values.get(key, 0) + v

    for span, own in zip(spans, self_times(spans)):
        _sid, parent, _op, name, start, end, counts = span
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own)
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        for key, v in (counts or {}).items():
            add(key, v)
        if counts and _HAT in counts:
            hats_under[parent] = hats_under.get(parent, 0) + 1
    values["suites.intertwining_trials.candidates"] = sum(
        hats_under.get(span[0], 0) for span in spans
        if "suites.intertwining_trials.accepted" in (span[6] or {}))
    draws = values.pop("suites.disjoint_bump_pairs.draws", 0)
    if draws % _BUMP_PAIR_DRAWS:
        raise ValueError(f"{draws} bump-pair draws is not a whole number of candidates")
    values["suites.disjoint_bump_pairs.candidates"] = draws // _BUMP_PAIR_DRAWS
    grad_time = inclusive.get("field.gradient", 0.0)
    values["field.gradient.cells_per_s"] = (
        values.get("field.gradient.cells", 0) / grad_time if grad_time else 0.0)
    for battery in ("suites.intertwining_trials", "suites.disjoint_bump_pairs"):
        tried, accepted = values[f"{battery}.candidates"], values.get(f"{battery}.accepted", 0)
        if accepted > tried:
            raise ValueError(f"{battery}: {accepted} accepted of {tried} candidates")
        values[f"{battery}.accept_ratio"] = accepted / tried if tried else 0.0
    return values
