"""The benchmark tracer counts the window sites rosenlab sums over.

perfbench/tracer.py reports fieldsim.window_sites through its own ball-site
counter, _count_window_sites. If that counter and rosenlab's lattice window
disagreed, the per-layer count would drift from the work done without any
error in the rosenlab tests.
"""

from pathlib import Path

import numpy as np
import pytest

from rosenlab.fieldsim import GridField, lattice_window_volume
from rosenlab.geometry import ball

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("d, h", [(1, 0.25), (2, 1.0)])
def test_the_tracer_counts_the_sites_of_lattice_window_volume(monkeypatch, d, h):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    extent = 64.0
    n = int(2 * extent / h)
    field = GridField(np.zeros((n,) * d), h, -extent + 0.5 * h)
    for r in (2.0, 3.0, 5.5, 8.0, 16.0, 32.0, 64.0):
        volume = lattice_window_volume(field, ball(d), r)
        assert tracer._count_window_sites(field, ball(d), r) == volume / h**d
