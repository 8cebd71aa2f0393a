"""A cell query reads exactly its field cell.

A grant's cap and a listen-before-talk decision are read at one cell, while
the `opportunity` and `occupancy` commands export whole fields. Both go
through the same arithmetic, so for every cell they give the same float, not
merely one within rounding of it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from spectrumspace import (
    LinkBudget,
    aggregate_opportunity,
    available_spectrum,
    occupancy_at_cell,
    occupancy_map,
)

from helpers import make_grid, o_limiting_rx, random_scenario, sectored_scenario


# Each example checks every cell of every slice of a world of up to 20x20 cells.
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), make=st.sampled_from([random_scenario, sectored_scenario]))
def test_every_cell_equals_its_field_cell(seed, make):
    scn = make(seed)
    budget = LinkBudget(scn)
    for band in range(scn.dims.b_hat):
        for quantum in range(scn.dims.t_hat):
            occupancy = occupancy_map(scn, band, quantum).values_dbm
            opportunity = budget.opportunity_map(band, quantum).values_dbm
            for iy, ix in np.ndindex(occupancy.shape):
                assert occupancy_at_cell(scn, band, quantum, (ix, iy)) == occupancy[iy, ix]
                value, limiting = budget.opportunity_at_cell(band, quantum, (ix, iy))
                assert value == opportunity[iy, ix]
                assert limiting == o_limiting_rx(scn, band, quantum, None, ix, iy)


@given(seed=st.integers(0, 10_000), x=st.floats(0.0, 1.0, exclude_max=True),
       y=st.floats(0.0, 1.0, exclude_max=True))
def test_one_cell_world_aggregates_its_available_spectrum(seed, x, y):
    # One cell cut from a random scenario, every entity kept: its opportunity
    # field is that one cell, so aggregating the cell integrates the field.
    scn = random_scenario(seed)
    grid = scn.grid
    ix, iy = int(x * grid.n_x), int(y * grid.n_y)
    origin = (grid.origin[0] + ix * grid.cell_size, grid.origin[1] + iy * grid.cell_size)
    world = dataclasses.replace(scn, grid=make_grid(1, 1, grid.cell_size, origin))
    _, quantity = aggregate_opportunity(world, world.grid.cell_center(0, 0))
    assert quantity == available_spectrum(world)
