"""The benchmark tracer's hooks read arguments where the functions keep them.

perfbench/tracer.py hooks read some arguments by position when a call
passes them positionally. If a hooked function moved or renamed one of
them, the hook would read another argument or fail, and the per-layer
counts would be wrong without any error in the rosenlab tests.
"""

import inspect
from pathlib import Path

import pytest

import rosenlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hooked function -> {index: name} of the arguments its hook reads
HOOK_ARGUMENTS = {
    "fieldsim.circulant_spectrum": {0: "plan"},
    "fieldsim.simulate_field": {0: "plan"},
    "fieldsim.functional_integral": {0: "field", 2: "window", 3: "r"},
    "fieldsim.normalized_statistic": {2: "r"},
    "rosenblatt.sample": {0: "series", 1: "n"},
    "geometry.ball_ft_radial": {1: "z"},
    "specfun.y_d_kernel": {1: "z"},
    "covmodels.covariance_eval": {1: "r"},
}


def test_every_hook_that_reads_arguments_is_listed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    # build_kernel's hook reads only the result
    assert sorted(tracer.Tracer().hooks()) == sorted([*HOOK_ARGUMENTS, "rosenblatt.build_kernel"])


@pytest.mark.parametrize("name", sorted(HOOK_ARGUMENTS))
def test_hooked_arguments_keep_their_positions(name):
    module, function = name.split(".")
    params = list(inspect.signature(getattr(getattr(rosenlab, module), function)).parameters)
    assert {i: params[i] for i in HOOK_ARGUMENTS[name]} == HOOK_ARGUMENTS[name]
