"""Entrant caps folded a few rows at a time give every cell its straight-loop bits.

A later receiver's caps are folded into a slice's array max(1, 4096 // n_x)
rows at a time, so a grid whose row count is not a multiple of that ends in
a shorter block, and a row of more than 4,096 cells is a block of its own.
Each grid drawn here has one of those edges; every cell of every field, the
available spectrum and every receiver's charge must still be the
straight-loop oracle's.
"""

from hypothesis import example, given, settings, strategies as st

from spectrumspace import (
    SpectrumQuantity,
    SpectrumSpaceDims,
    available_spectrum,
    opportunity_map,
    receiver_accounting,
)

from helpers import make_grid, make_link, make_scenario, o_opportunity_field, o_slice_quantity, same_bits

BLOCK_CELLS = 4096


@st.composite
def edge_shapes(draw):
    """(n_x, n_y): blocks of one row (of more than 4,096 cells when n_x > 4096), or a last block
    shorter than the others."""
    n_x = draw(st.integers(1, 5000))
    rows = max(1, BLOCK_CELLS // n_x)
    if rows == 1:
        return n_x, draw(st.integers(1, 3))
    return n_x, rows * draw(st.integers(0, 2)) + draw(st.integers(1, rows - 1))


def linked_world(n_x: int, n_y: int, spots: list[tuple[float, float]]):
    """Three links on one band of two quanta, so each quantum folds a later receiver's caps: two
    are active in both quanta and one in quantum 0 only. Each receiver sits 30 m east of its
    transmitter, at a spot given as fractions of the grid's extent."""
    cell = 10.0
    width, height = n_x * cell, n_y * cell
    links = [make_link(f"l{i}", (u * width, v * height), (u * width + 30.0, v * height), 20.0,
                       quanta=(0,) if i == 1 else (0, 1))
             for i, (u, v) in enumerate(spots)]
    return make_scenario(links, grid=make_grid(n_x, n_y, cell), dims=SpectrumSpaceDims(b_hat=1, t_hat=2))


SPOTS = st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 1.0)), min_size=3, max_size=3)


@settings(max_examples=20, deadline=None)
@given(shape=edge_shapes(), spots=SPOTS)
@example(shape=(4097, 1), spots=[(0.1, 0.5), (0.5, 0.5), (0.8, 0.5)])
@example(shape=(300, 14), spots=[(0.1, 0.1), (0.5, 0.9), (0.8, 0.5)])
def test_block_edges_keep_the_straight_loop_bits(shape, spots):
    scn = linked_world(*shape, spots)
    keys = [(0, 0), (0, 1)]
    fields = {key: o_opportunity_field(scn, *key) for key in keys}
    for key, expected in fields.items():
        assert same_bits(opportunity_map(scn, *key).values_dbm, expected)

    open_space = {key: o_slice_quantity(fields[key], scn, False) for key in keys}
    available, charges = receiver_accounting(scn, None)
    assert available == available_spectrum(scn) == totalled(open_space)
    for rx in scn.receivers():
        denied = {key: o_slice_quantity(o_opportunity_field(scn, *key, [rx.id]), scn, True)
                  if rx.active_in(*key) else 0.0 for key in keys}
        assert charges[rx.id] == totalled(denied)


def totalled(breakdown: dict) -> SpectrumQuantity:
    """Per-slice amounts and their total, added in slice order as quantify adds them."""
    total = 0.0
    for amount in breakdown.values():
        total += amount
    return SpectrumQuantity(total, breakdown)

