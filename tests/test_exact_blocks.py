"""Entrant caps folded a few rows at a time give every cell its straight-loop bits.

A later receiver's caps are folded into a slice's array max(1, 4096 // n_x)
rows at a time, so a grid whose row count is not a multiple of that ends in
a shorter block, and a row of more than 4,096 cells is a block of its own.
Each grid drawn here has one of those edges; every cell of every field, the
available spectrum and every receiver's charge must still be the
straight-loop oracle's.

A receiver's entrant gain is built, and its caps folded, only over its cap
window: the box of cells outside which its caps are at least p_max plus a
1 dB guard. The window's edges must keep the same bits: a host cell left
outside its receiver's own window, a zero margin (the whole grid), a window
that misses the grid, a sectored receiver's main-lobe gain, and a cap just
above p_max near the window's border. In each, opportunity_map,
available_spectrum, receiver_accounting, denied_consumption and
rx_consumption must give the oracle's fields and quantities.
"""

import importlib
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from spectrumspace import (
    AntennaPattern,
    LinkBudget,
    SpectrumQuantity,
    SpectrumSpaceDims,
    available_spectrum,
    denied_consumption,
    linear_to_db,
    opportunity_map,
    quantify,
    receiver_accounting,
    rx_consumption,
)
from spectrumspace.propagation import entrant_gain_field_linear

from helpers import (
    PROP,
    make_grid,
    make_link,
    make_scenario,
    o_db,
    o_lin,
    o_opportunity_field,
    o_pl,
    o_slice_quantity,
    same_bits,
)

quantify_module = importlib.import_module("spectrumspace.quantify")

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


# The window cases: a 40 x 30 grid of 20 m cells, one band of two quanta. The case's receiver
# "c-rx" is active in both; link "o" is active in quantum 1 only, so there it lowers c-rx's margin
# and folds its own caps beside c-rx's.
CELL = 20.0
NOISE_DBM = -100.0
BORDER = (5, 0)  # (ix, iy) offset from c-rx's cell of the cell whose cap sits just above p_max


def other_link(rx_pos):
    """Link o: a 20 dBm transmitter 45 m north of c-rx, which hears about -53 dBm from it, and a
    receiver 0.5 m east of that transmitter, so robust that its own window is a few cells."""
    tx_pos = (rx_pos[0], rx_pos[1] + 45.0)
    return make_link("o", tx_pos, (tx_pos[0] + 0.5, tx_pos[1]), 20.0, quanta=(1,), beta_db=3.0)


def margin_link(rx_pos, margin_mw):
    """Link c: a 20 dBm transmitter 10 m west of its receiver, beta solved so the receiver's
    margin alone on the air is about ``margin_mw``."""
    signal = o_lin(20.0 - o_pl(10.0, PROP))
    beta_db = o_db(signal / (margin_mw + o_lin(NOISE_DBM)))
    return make_link("c", (rx_pos[0] - 10.0, rx_pos[1]), rx_pos, 20.0, quanta=(0, 1), beta_db=beta_db,
                     noise_dbm=NOISE_DBM)


def window_world(case: str):
    if case == "host outside its window":
        # the transmitter within the 1 m clamp: a margin near -23 dBm, so d* is 5 m, and the
        # receiver 0.5 m from its cell's corner, 9.5 m from the cell's center on each axis
        link = make_link("c", (201.0, 200.5), (200.5, 200.5), 20.0, quanta=(0, 1), beta_db=3.0)
    elif case == "zero margin":
        link = make_link("c", (30.0, 30.0), (400.0, 300.0), -60.0, quanta=(0, 1))
    elif case == "off the grid":
        link = margin_link((-400.0, 300.0), 1e-5)
    elif case == "sectored main lobe":
        # facing east, toward its transmitter 30 m away: 12 dB of main-lobe gain widens the
        # window about fourfold
        pattern = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=60.0,
                                 main_gain_db=12.0, back_gain_db=-20.0)
        link = make_link("c", (440.0, 310.0), (410.0, 310.0), 20.0, quanta=(0, 1), rx_pattern=pattern)
    else:
        # 100 m east of the receiver an omni entrant's gain is 1e-8, so a margin of 1e-5 mW
        # (-50 dBm) puts the cap there at p_max; the margin is a hair more, so in quantum 0 the
        # cap is just above p_max. Link o halves the margin in quantum 1, where the caps reach
        # p_max 141 m out, so the window, that of the least margin, reaches 158 m.
        link = margin_link((410.0, 310.0), 1e-5 * (1.0 + 1e-9))
    return make_scenario([link, other_link(link.receivers[0].position)], grid=make_grid(40, 30, CELL),
                         dims=SpectrumSpaceDims(b_hat=1, t_hat=2))


def c_window(scn, rx=None):
    """The rows and columns of c-rx's cap window (or of ``rx`` with c-rx's least margin), as the
    walks build it."""
    margin = LinkBudget(scn)._least_margins([(0, 0), (0, 1)])["c-rx"]
    rows, cols = quantify_module._cap_window(scn, rx or scn.receiver("c-rx"), margin)
    return range(*rows.indices(scn.grid.n_y)), range(*cols.indices(scn.grid.n_x))


def check_case(case, scn):
    """Each case's scenario really puts c-rx's window where the case says."""
    rx = scn.receiver("c-rx")
    rows, cols = c_window(scn)
    whole = (rows, cols) == (range(scn.grid.n_y), range(scn.grid.n_x))
    if case == "host outside its window":
        ix, iy = scn.grid.cell_of(rx.position)
        assert ix not in cols and iy not in rows
    elif case == "zero margin":
        assert whole
        for quantum in (0, 1):
            assert "c-rx" in opportunity_map(scn, 0, quantum).zero_margin_rx_ids
    elif case == "off the grid":
        assert not scn.grid.contains(rx.position) and len(cols) == 0
    elif case == "sectored main lobe":
        omni_cols = c_window(scn, replace(rx, pattern=AntennaPattern()))[1]
        assert not whole and len(cols) > 3 * len(omni_cols)
    else:
        ix, iy = scn.grid.cell_of(rx.position)
        found = LinkBudget(scn).slice(0, 0)
        margin = found.margin[found.receivers.index(rx)]
        gain = entrant_gain_field_linear(rx.position, rx.pattern, scn.grid, scn.propagation)
        cap_dbm = linear_to_db(margin / gain[iy + BORDER[1], ix + BORDER[0]])
        assert scn.bounds.p_max_dbm < cap_dbm < scn.bounds.p_max_dbm + 1e-6
        assert ix + BORDER[0] in cols and not whole


WINDOW_CASES = ["host outside its window", "zero margin", "off the grid", "sectored main lobe",
                "cap just above p_max"]


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_window_edges_keep_the_straight_loop_bits(case):
    scn = window_world(case)
    check_case(case, scn)
    keys = [(0, 0), (0, 1)]
    for protected in (None, ["c-rx"]):
        fields = {key: o_opportunity_field(scn, *key, protected) for key in keys}
        for key, expected in fields.items():
            assert same_bits(opportunity_map(scn, *key, protected).values_dbm, expected)
        open_space = totalled({key: o_slice_quantity(fields[key], scn, False) for key in keys})
        denied = totalled({key: o_slice_quantity(fields[key], scn, True) for key in keys})
        available, charges = receiver_accounting(scn, protected)
        assert available == available_spectrum(scn, protected) == open_space
        assert quantify(denied_consumption(scn, protected), scn.grid) == denied
        for rx in scn.receivers():
            solo = {key: o_slice_quantity(o_opportunity_field(scn, *key, [rx.id]), scn, True)
                    if rx.active_in(*key) else 0.0 for key in keys}
            assert charges[rx.id] == quantify(rx_consumption(rx, scn), scn.grid) == totalled(solo)


def test_a_window_wider_than_a_float_is_the_whole_grid():
    """A valid pattern gain can put d* past the float range: 10 ** x overflows, and the window is
    the whole grid, as for an infinite d*."""
    pattern = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=60.0, main_gain_db=4000.0,
                             back_gain_db=-20.0)
    scn = make_scenario([make_link("c", (440.0, 310.0), (410.0, 310.0), 20.0, rx_pattern=pattern)],
                        grid=make_grid(40, 30, CELL), prop=replace(PROP, path_loss_exponent=1.0))
    assert quantify_module._cap_window(scn, scn.receiver("c-rx"), 1e-5) == (slice(None), slice(None))
