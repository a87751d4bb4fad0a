"""The benchmark tracer still finds every function its per-layer metrics read.

perfbench/tracer.py wraps rosenlab functions by name and drops the metrics
of a function it does not find, so deleting or renaming a traced function
would silently shrink the benchmark's per-layer report.
"""

from pathlib import Path

# the tracer wraps only modules already loaded, and this loads all of them
import rosenlab  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_metric_function_is_installed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    hooks = tracer.Tracer()
    try:
        hooks.install()
        named = {row[4] for row in tracer.LAYER_METRICS}
        assert sorted(named - set(hooks.installed)) == []
    finally:
        hooks.uninstall()
