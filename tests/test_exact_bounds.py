"""Spectrum accounting is exact where a field sits on a power bound.

PowerBounds converts its bounds with Python's float **, fields convert with
numpy's vectorized **, and the two may round 10 ** (x / 10) to neighbouring
floats (25 and -118 dBm among them on SIMD builds of numpy). A cell on a
bound must still count as exactly that bound, so an idle slice denies 0.0
and a blocked one leaves 0.0 available.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spectrumspace import (
    PowerBounds,
    PropagationConfig,
    SpectrumSpaceDims,
    available_spectrum,
    denied_consumption,
    harvest_metrics,
    opportunity_map,
    rx_consumption,
)

from helpers import make_grid, make_link, make_scenario, random_scenario

DIMS = SpectrumSpaceDims(b_hat=2, t_hat=2)
STEEP = PropagationConfig(path_loss_exponent=4.0)


def bounded(bounds: PowerBounds):
    """A working link on band 0, a hopeless one on band 1, both in quantum 0 only.

    Under the steep path loss, slice (0, 0) opens from about 37 dBm next to
    its receiver's cell to about 84 dBm at the far end, so it reaches p_max
    for every p_max up to there, and p_min in the receiver's cell. Slice
    (1, 0) is on the floor everywhere, and quantum 1 protects nobody.
    """
    return make_scenario(
        [make_link("a", (50.0, 50.0), (60.0, 50.0), 0.0),
         make_link("z", (550.0, 50.0), (650.0, 50.0), -60.0, band=1)],
        grid=make_grid(24, 1, 100.0), dims=DIMS, bounds=bounds, prop=STEEP)


def blocked(bounds: PowerBounds):
    """The hopeless link alone: every cell of its slice sits on the floor."""
    return make_scenario([make_link("z", (50.0, 50.0), (150.0, 50.0), -60.0)],
                         grid=make_grid(5, 5, 100.0), bounds=bounds)


def test_fully_blocked_scenario_leaves_exactly_nothing():
    bounds = PowerBounds(p_max_dbm=30.0, p_min_dbm=-118.0)
    assert available_spectrum(blocked(bounds)).value == 0.0


def test_idle_receiver_slice_denies_exactly_nothing():
    bounds = PowerBounds(p_max_dbm=25.0, p_min_dbm=-125.0)
    space = rx_consumption("a-rx", bounded(bounds))
    for key in [(0, 1), (1, 0), (1, 1)]:
        assert np.all(space.slices[key] == 0.0)
    assert np.any(space.slices[(0, 0)] > 0.0)


@given(p_max=st.integers(0, 400).map(lambda k: k / 4.0),
       p_min=st.integers(-600, -240).map(lambda k: k / 4.0))
@example(p_max=25.0, p_min=-118.0)
def test_cells_on_a_bound_count_exactly(p_max, p_min):
    bounds = PowerBounds(p_max_dbm=p_max, p_min_dbm=p_min)
    scn = bounded(bounds)
    denied = denied_consumption(scn)
    available = available_spectrum(scn)
    for key, cells in denied.slices.items():
        values = opportunity_map(scn, *key).values_dbm
        assert np.all(cells >= 0.0)
        assert np.all(cells[values == p_max] == 0.0)
        assert np.all(cells[values == p_min] == bounds.p_cmax_linear)
        assert available.breakdown[key] >= 0.0
    assert available.breakdown[(1, 0)] == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_perfect_harvest_recovers_exactly_the_available_spectrum(seed):
    scn = random_scenario(seed)
    available = available_spectrum(scn)
    for key, amount in available.breakdown.items():
        truth = opportunity_map(scn, *key)
        assert harvest_metrics(truth, truth, scn.grid, scn.bounds).recovered.value == amount
