"""The benchmark tracer wraps ``sil`` functions by name at run time, so a
renamed or removed traced name breaks every traced benchmark run; installing
it over the current package shows that at test time."""

import os

import numpy as np

import sil.operators
from sil import Field, identity_operator, make_box

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
