"""The bench's per-layer tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps the detequiv functions it times by name, and
a name that is renamed or removed is reported as an absent metric instead
of failing.  This test loads the tracer by path, as the bench does, and
fails on any absent metric, and on any change to the list of names the
tracer cannot bind: a lost binding may leave its metric installed through
another name and read 0 from then on.
"""

import importlib.util
from pathlib import Path

import detequiv.cli  # noqa: F401  (imports every module the tracer wraps)

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_has_its_traced_names():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        _, absent = tracing.layer_metrics(tracer, 0, 0.0)
    finally:
        tracer.uninstall()
    assert absent == [], (absent, tracer.absent)


def test_the_unbound_traced_names_are_exactly_the_known_ones():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["detequiv.recovery.quick_consequences",
                             "detequiv.recovery.build_cocycle_case2"]
