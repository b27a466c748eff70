"""The benchmark tracer wraps ``sil`` functions by name at run time, so a
renamed or removed traced name breaks every traced benchmark run; installing
it over the current package shows that at test time."""

import os

import numpy as np

import sil.grid_domain
import sil.operators
import sil.suites
from sil import Field, GridDomain, identity_operator, make_box

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(_PERFBENCH)
    import tracing

    original = sil.operators.apply_with_flags
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        assert sil.operators.apply_with_flags is not original
        box = make_box((0.0, 0.0), (1.0, 1.0), 0.25)
        sil.operators.apply(identity_operator(box), Field(box, np.ones(box.n_cells)))
    finally:
        uninstall()
    assert sil.operators.apply_with_flags is original
    names = {span[3] for span in recorder.spans}
    assert {"operators.spec_build", "operators.apply"} <= names


def test_traced_domains_and_batteries_add_up(monkeypatch):
    # the tracer counts cells where a domain is made and samples where a battery
    # is made, so both stay right however lazily the domain and the batteries
    # build what they hold; traced names are called through their modules
    monkeypatch.syspath_prepend(_PERFBENCH)
    import tracing

    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        box = sil.grid_domain.make_box((0.0, 0.0), (1.0, 1.0), 0.05)
        holed = GridDomain(2, 0.05, (0.0, 0.0), box.cells[np.arange(box.n_cells) % 7 != 3])
        line = sil.grid_domain.make_box(0.0, 1.0, 0.01)
        rng = np.random.default_rng(3)
        for T in (identity_operator(box), identity_operator(line)):
            sil.operators.disjointness_defect(
                T, sil.suites.disjoint_bump_pairs(T.source, rng, 3), 3.0)
            sil.operators.intertwining_defect(T, sil.suites.intertwining_trials(T, rng, 3), 3.0)
    finally:
        uninstall()
    metrics = tracing.layer_metrics(recorder.spans)
    assert metrics["grid_domain.rasterize.cells"] == box.n_cells + holed.n_cells + line.n_cells
    for battery in ("suites.intertwining_trials", "suites.disjoint_bump_pairs"):
        assert 0 < metrics[f"{battery}.accepted"] <= metrics[f"{battery}.candidates"]
