"""The benchmark's tracer must resolve every function it wraps.

`bench/tracing.py` looks up its traced functions by name; a rename or a
deletion in the package would otherwise surface only as a KeyError or
AttributeError in a traced benchmark run.
"""

from pathlib import Path

import laurentforms.cli  # loads every module the tracer wraps
import laurentforms.forms

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_binds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = laurentforms.forms.determinant
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert laurentforms.forms.determinant is not original
    finally:
        tracer.uninstall()
    assert laurentforms.forms.determinant is original
