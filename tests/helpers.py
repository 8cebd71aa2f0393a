"""Scenario builders and straight-loop reference implementations.

The o_* functions recompute engine results with plain Python loops and the
math module so the vectorized implementations are checked against an
independent code path. Generators are seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from spectrumspace import (
    AccessRequest,
    AntennaPattern,
    Grid,
    LinkBudget,
    PowerBounds,
    PropagationConfig,
    Receiver,
    RFNetwork,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    linear_to_db,
    validate_scenario,
)

BOUNDS = PowerBounds(p_max_dbm=30.0, p_min_dbm=-125.0)
PROP = PropagationConfig()  # log-distance, n=2, d0=1 m, 40 dB reference loss


def make_grid(n_x=10, n_y=10, cell_size=100.0, origin=(0.0, 0.0)) -> Grid:
    return Grid(origin=origin, cell_size=cell_size, n_x=n_x, n_y=n_y)


def make_scenario(networks=(), grid=None, dims=None, bounds=BOUNDS, prop=PROP) -> Scenario:
    return validate_scenario(Scenario(
        grid=grid or make_grid(),
        dims=dims or SpectrumSpaceDims(),
        bounds=bounds,
        propagation=prop,
        networks=tuple(networks),
    ))


def make_link(net_id, tx_pos, rx_pos, power_dbm, band=0, quanta=(0,), beta_db=10.0,
              noise_dbm=-100.0, tx_pattern=None, rx_pattern=None) -> RFNetwork:
    """One network with a single tx/rx pair."""
    quanta = frozenset(quanta)
    tx = Transmitter(
        id=f"{net_id}-tx", network_id=net_id, position=tx_pos,
        tx_power_dbm=power_dbm, band=band, quanta=quanta,
        pattern=tx_pattern or AntennaPattern(),
    )
    rx = Receiver(
        id=f"{net_id}-rx", network_id=net_id, position=rx_pos,
        band=band, quanta=quanta, beta_db=beta_db, noise_floor_dbm=noise_dbm,
        linked_tx_id=tx.id, pattern=rx_pattern or AntennaPattern(),
    )
    return RFNetwork(id=net_id, transmitters=(tx,), receivers=(rx,))


# ---------------------------------------------------------------------------
# straight-loop reference implementations


def o_lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def o_db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else float("-inf")


def o_pl(distance: float, cfg: PropagationConfig) -> float:
    n = 2.0 if cfg.model == "free-space" else cfg.path_loss_exponent
    d = max(distance, cfg.min_distance_clamp_m)
    return cfg.reference_loss_db + 10.0 * n * math.log10(d / cfg.reference_distance_m)


def o_pattern_gain(pattern: AntennaPattern, bearing: float) -> float:
    if pattern.kind == "omni":
        return 0.0
    off = abs((bearing - pattern.boresight_deg + 180.0) % 360.0 - 180.0)
    return pattern.main_gain_db if off <= pattern.beamwidth_deg / 2.0 else pattern.back_gain_db


def o_bearing(a, b) -> float:
    return math.degrees(math.atan2(b[1] - a[1], b[0] - a[0]))


def o_gain_db(tx_pos, tx_pattern, rx_pos, rx_pattern, cfg) -> float:
    g = o_pattern_gain(tx_pattern, o_bearing(tx_pos, rx_pos))
    g += o_pattern_gain(rx_pattern, o_bearing(rx_pos, tx_pos))
    return g - o_pl(math.hypot(rx_pos[0] - tx_pos[0], rx_pos[1] - tx_pos[1]), cfg)


def o_received_lin(tx: Transmitter, point, rx_pattern, cfg) -> float:
    return o_lin(tx.tx_power_dbm + o_gain_db(tx.position, tx.pattern, point, rx_pattern, cfg))


def o_signal_interference(scn: Scenario, rx: Receiver, quantum: int) -> tuple[float, float]:
    signal, interference = 0.0, 0.0
    for tx in scn.transmitters():
        if tx.band == rx.band and quantum in tx.quanta:
            p = o_received_lin(tx, rx.position, rx.pattern, scn.propagation)
            if tx.id == rx.linked_tx_id:
                signal = p
            else:
                interference += p
    return signal, interference


def o_sinr_db(scn: Scenario, rx: Receiver, quantum: int) -> float:
    signal, interference = o_signal_interference(scn, rx, quantum)
    return o_db(signal / (o_lin(rx.noise_floor_dbm) + interference))


def o_margin_lin(scn: Scenario, rx: Receiver, quantum: int) -> float:
    signal, interference = o_signal_interference(scn, rx, quantum)
    return max(0.0, signal / o_lin(rx.beta_db) - o_lin(rx.noise_floor_dbm) - interference)


def _o_protected(scn: Scenario, protected_ids, band, quantum) -> list[Receiver]:
    out = []
    for rx in scn.receivers():
        if protected_ids is not None and rx.id not in protected_ids:
            continue
        if rx.band == band and quantum in rx.quanta:
            out.append(rx)
    return out


def o_occupancy_cell(scn: Scenario, band, quantum, ix, iy) -> float:
    center = scn.grid.cell_center(ix, iy)
    total = 0.0
    for tx in scn.transmitters():
        if tx.band == band and quantum in tx.quanta:
            total += o_received_lin(tx, center, AntennaPattern(), scn.propagation)
    b = scn.bounds
    return min(max(o_db(total), b.p_min_dbm), b.p_max_dbm)


def o_opportunity_cell(scn: Scenario, band, quantum, protected_ids, ix, iy) -> float:
    """Opportunity in dBm at one cell, protected_ids=None for all receivers."""
    b = scn.bounds
    rxs = _o_protected(scn, protected_ids, band, quantum)
    if not rxs:
        return b.p_max_dbm
    for rx in rxs:
        if scn.grid.contains(rx.position) and scn.grid.cell_of(rx.position) == (ix, iy):
            return b.p_min_dbm
    center = scn.grid.cell_center(ix, iy)
    best = math.inf
    for rx in rxs:
        margin = o_margin_lin(scn, rx, quantum)
        gain_db = o_pattern_gain(rx.pattern, o_bearing(rx.position, center)) - o_pl(
            math.hypot(center[0] - rx.position[0], center[1] - rx.position[1]), scn.propagation
        )
        best = min(best, margin / o_lin(gain_db))
    return min(max(o_db(best), b.p_min_dbm), b.p_max_dbm)


def o_limiting_rx(scn: Scenario, band, quantum, protected_ids, ix, iy) -> str | None:
    """The receiver that sets o_opportunity_cell: the first with the lowest entrant cap."""
    rxs = _o_protected(scn, protected_ids, band, quantum)
    for rx in rxs:
        if scn.grid.contains(rx.position) and scn.grid.cell_of(rx.position) == (ix, iy):
            return rx.id
    center = scn.grid.cell_center(ix, iy)
    best, limiting = math.inf, None
    for rx in rxs:
        gain_db = o_pattern_gain(rx.pattern, o_bearing(rx.position, center)) - o_pl(
            math.hypot(center[0] - rx.position[0], center[1] - rx.position[1]), scn.propagation
        )
        cap = o_margin_lin(scn, rx, quantum) / o_lin(gain_db)
        if cap < best:
            best, limiting = cap, rx.id
    return limiting


def o_admit(scn: Scenario, requests, margin_db: float, protected_ids=None) -> list[tuple]:
    """Sequential quantified admission with straight loops over o_opportunity_cell.

    Requests go in (priority, id) order; each admitted entrant joins the
    "entrants" network at its cell center before the next request is priced.
    Returns one (request_id, bands, powers_dbm, refusal limiting rx ids) per
    request; bands and powers are empty for a refused request, and the
    limiting ids are empty for an admitted one.
    """
    b = scn.bounds
    results = []
    for req in sorted(requests, key=lambda r: (r.priority, r.request_id)):
        ix, iy = scn.grid.cell_of(req.position)
        caps, limits = [], []
        for band in sorted(req.acceptable_bands):
            guarded, limiting = math.inf, None
            for q in sorted(req.quanta):
                opp = o_opportunity_cell(scn, band, q, protected_ids, ix, iy)
                value = max(b.p_min_dbm, opp - margin_db)
                if value < guarded:
                    guarded, limiting = value, o_limiting_rx(scn, band, q, protected_ids, ix, iy)
            cap = min(req.desired_dbm, guarded)
            if cap < req.min_useful_dbm:
                limits.append(limiting)
            else:
                caps.append((cap, band))
        if len(caps) < req.required_bands:
            results.append((req.request_id, [], [], limits))
            continue
        chosen = sorted(caps, key=lambda c: (-c[0], c[1]))[: req.required_bands]
        for cap, band in chosen:
            tx = Transmitter(
                id=req.request_id if req.required_bands == 1 else f"{req.request_id}:b{band}",
                network_id="entrants", position=scn.grid.cell_center(ix, iy),
                tx_power_dbm=cap, band=band, quanta=req.quanta,
            )
            nets = list(scn.networks)
            at = [i for i, net in enumerate(nets) if net.id == "entrants"]
            if at:
                net = nets[at[0]]
                nets[at[0]] = RFNetwork(id=net.id, transmitters=net.transmitters + (tx,),
                                        receivers=net.receivers)
            else:
                nets.append(RFNetwork(id="entrants", transmitters=(tx,)))
            scn = Scenario(grid=scn.grid, dims=scn.dims, bounds=scn.bounds,
                           propagation=scn.propagation, networks=tuple(nets))
        results.append((req.request_id, [band for _, band in chosen],
                        [cap for cap, _ in chosen], []))
    return results


def o_available(scn: Scenario, protected_ids=None) -> float:
    """Available spectrum in W*m^2 across all slices, straight loops."""
    total = 0.0
    p_min_lin = o_lin(scn.bounds.p_min_dbm)
    for band in range(scn.dims.b_hat):
        for quantum in range(scn.dims.t_hat):
            for iy in range(scn.grid.n_y):
                for ix in range(scn.grid.n_x):
                    opp = o_opportunity_cell(scn, band, quantum, protected_ids, ix, iy)
                    total += (o_lin(opp) - p_min_lin) * scn.grid.cell_area / 1000.0
    return total


def o_tx_consumption_value(scn: Scenario, tx: Transmitter) -> float:
    """quantify(tx_consumption) recomputed with loops, W*m^2."""
    b = scn.bounds
    total = 0.0
    for band in range(scn.dims.b_hat):
        for quantum in range(scn.dims.t_hat):
            if not (tx.band == band and quantum in tx.quanta):
                continue
            for iy in range(scn.grid.n_y):
                for ix in range(scn.grid.n_x):
                    received = o_received_lin(
                        tx, scn.grid.cell_center(ix, iy), AntennaPattern(), scn.propagation
                    )
                    clipped = min(max(received, o_lin(b.p_min_dbm)), o_lin(b.p_max_dbm))
                    total += (clipped - o_lin(b.p_min_dbm)) * scn.grid.cell_area / 1000.0
    return total


def o_rx_consumption_value(scn: Scenario, rx: Receiver) -> float:
    """quantify(rx_consumption) recomputed with loops, W*m^2."""
    b = scn.bounds
    total = 0.0
    for band in range(scn.dims.b_hat):
        for quantum in range(scn.dims.t_hat):
            for iy in range(scn.grid.n_y):
                for ix in range(scn.grid.n_x):
                    opp = o_opportunity_cell(scn, band, quantum, {rx.id}, ix, iy)
                    total += (o_lin(b.p_max_dbm) - o_lin(opp)) * scn.grid.cell_area / 1000.0
    return total


# ---------------------------------------------------------------------------
# whole-grid field oracles: the fields' numpy expressions before the kernel
# computed in place, on full (n_y, n_x) coordinate arrays, one new array per step


def o_center_arrays(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    x0, y0 = grid.origin
    xs = x0 + (np.arange(grid.n_x) + 0.5) * grid.cell_size
    ys = y0 + (np.arange(grid.n_y) + 0.5) * grid.cell_size
    return np.meshgrid(xs, ys)


def o_gain_field_db(src, src_pattern: AntennaPattern, grid: Grid, cfg: PropagationConfig) -> np.ndarray:
    """Gain in dB from a point to every cell center, omni at the cell."""
    x, y = src
    px, py = o_center_arrays(grid)
    dist = np.hypot(px - x, py - y)
    gain = 0.0
    if src_pattern.kind != "omni":
        gain = src_pattern.gain_db(np.degrees(np.arctan2(py - y, px - x)))
    n = 2.0 if cfg.model == "free-space" else cfg.path_loss_exponent
    d = np.maximum(np.asarray(dist, dtype=float), cfg.min_distance_clamp_m)
    loss = cfg.reference_loss_db + 10.0 * n * np.log10(d / cfg.reference_distance_m)
    return gain - loss


def o_entrant_field(rx_pos, rx_pattern: AntennaPattern, grid: Grid, cfg: PropagationConfig) -> np.ndarray:
    """entrant_gain_field_linear's cells."""
    return 10.0 ** (o_gain_field_db(rx_pos, rx_pattern, grid, cfg) / 10.0)


def o_tx_field(tx: Transmitter, grid: Grid, cfg: PropagationConfig) -> np.ndarray:
    """tx_gain_db_field's cells."""
    return o_gain_field_db(tx.position, tx.pattern, grid, cfg)


def o_occupancy_linear(scn: Scenario, band: int, quantum: int) -> np.ndarray:
    """occupancy_linear's cells: a zero sum per network, idle or not, added to a zero total."""
    total = np.zeros((scn.grid.n_y, scn.grid.n_x))
    for net in scn.networks:
        net_sum = np.zeros_like(total)
        for tx in net.transmitters:
            if tx.band == band and quantum in tx.quanta:
                net_sum += 10.0 ** ((tx.tx_power_dbm + o_tx_field(tx, scn.grid, scn.propagation)) / 10.0)
        total += net_sum
    return total


def o_opportunity_field(scn: Scenario, band: int, quantum: int, protected_ids=None) -> np.ndarray:
    """opportunity_map's cells, bit for bit: each cell's entrant caps folded in a straight loop.

    Per cell, the lowest margin / gain over the slice's protected receivers,
    in Python floats (division is correctly rounded, as numpy's is); a zero
    gain sets no cap. The gains are o_entrant_field's and the margins the
    link budget's, since o_margin_lin matches those only to rounding. The
    caps are turned into clipped dBm as one array, and every cell hosting a
    protected receiver is p_min.
    """
    b = scn.bounds
    found = LinkBudget(scn, protected_ids).slice(band, quantum)
    if not found.receivers:
        return np.full((scn.grid.n_y, scn.grid.n_x), float(b.p_max_dbm))
    gains = [o_entrant_field(rx.position, rx.pattern, scn.grid, scn.propagation).tolist()
             for rx in found.receivers]
    caps = []
    for iy in range(scn.grid.n_y):
        row = []
        for ix in range(scn.grid.n_x):
            best = math.inf
            for margin, gain in zip(found.margin, gains):
                if gain[iy][ix] != 0.0:
                    best = min(best, margin / gain[iy][ix])
            row.append(best)
        caps.append(row)
    values = np.clip(linear_to_db(np.array(caps)), b.p_min_dbm, b.p_max_dbm)
    for cell in found.cells:
        if cell is not None:
            values[cell[1], cell[0]] = b.p_min_dbm
    return values


def o_slice_quantity(field_dbm: np.ndarray, scn: Scenario, denied: bool) -> float:
    """One slice's W*m^2 from an opportunity field: its cells in mW, each bound cell as the bound's
    own linear value, less p_min (or taken from p_max when ``denied``), summed by numpy."""
    b = scn.bounds
    linear = 10.0 ** (field_dbm / 10.0)
    linear[field_dbm == b.p_min_dbm] = b.p_min_linear
    linear[field_dbm == b.p_max_dbm] = b.p_max_linear
    cells = b.p_max_linear - linear if denied else linear - b.p_min_linear
    return float(np.sum(cells)) * scn.grid.cell_area / 1000.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 bits, so -0.0 differs from +0.0 and NaN equals itself."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def o_field_csv(field) -> bytes:
    """export_field's bytes, formatted one value at a time with an f-string."""
    lines = [f"# band={field.band} quantum={field.quantum} unit=dBm"]
    for row in field.values_dbm:
        lines.append(",".join(f"{v:.4f}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# seeded generators


def random_scenario(seed: int, max_n: int = 20, b_hat: int | None = None,
                    t_hat: int | None = None, n_networks: int | None = None) -> Scenario:
    """A valid scenario whose receivers all start above their SINR threshold.

    Receivers that would begin below beta (plus a small headroom) are dropped;
    dropping a receiver cannot disturb any other receiver.
    """
    rng = np.random.default_rng(seed)
    n_x = int(rng.integers(4, max_n + 1))
    n_y = int(rng.integers(4, max_n + 1))
    cell_size = float(rng.choice([50.0, 100.0, 200.0]))
    grid = make_grid(n_x, n_y, cell_size)
    dims = SpectrumSpaceDims(
        b_hat=b_hat or int(rng.integers(1, 3)),
        t_hat=t_hat or int(rng.integers(1, 3)),
    )
    x_max = n_x * cell_size
    y_max = n_y * cell_size

    networks = []
    for i in range(n_networks or int(rng.integers(1, 4))):
        txs, rxs = [], []
        for j in range(int(rng.integers(1, 3))):
            pos = (float(rng.uniform(0, x_max)), float(rng.uniform(0, y_max)))
            band = int(rng.integers(0, dims.b_hat))
            quanta = frozenset(
                int(q) for q in rng.choice(dims.t_hat, size=int(rng.integers(1, dims.t_hat + 1)),
                                           replace=False)
            )
            tx = Transmitter(
                id=f"n{i}t{j}", network_id=f"n{i}", position=pos,
                tx_power_dbm=float(rng.uniform(-5.0, 28.0)), band=band, quanta=quanta,
            )
            txs.append(tx)
            angle = float(rng.uniform(0, 2 * math.pi))
            radius = float(rng.uniform(40.0, 400.0))
            rxs.append(Receiver(
                id=f"n{i}r{j}", network_id=f"n{i}",
                position=(pos[0] + radius * math.cos(angle), pos[1] + radius * math.sin(angle)),
                band=band, quanta=quanta, beta_db=float(rng.uniform(3.0, 12.0)),
                noise_floor_dbm=float(rng.uniform(-105.0, -95.0)), linked_tx_id=tx.id,
            ))
        networks.append(RFNetwork(id=f"n{i}", transmitters=tuple(txs), receivers=tuple(rxs)))

    draft = Scenario(grid=grid, dims=dims, bounds=BOUNDS, propagation=PROP,
                     networks=tuple(networks))
    pruned = []
    for net in draft.networks:
        keep = tuple(
            rx for rx in net.receivers
            if all(o_sinr_db(draft, rx, q) >= rx.beta_db + 0.1 for q in sorted(rx.quanta))
        )
        pruned.append(RFNetwork(id=net.id, transmitters=net.transmitters, receivers=keep))
    return make_scenario(pruned, grid=grid, dims=dims)


def random_requests(seed: int, scenario: Scenario, n: int = 10) -> list[AccessRequest]:
    rng = np.random.default_rng(seed)
    x_min, y_min, x_max, y_max = scenario.grid.extent
    dims = scenario.dims
    requests = []
    for i in range(n):
        desired = float(rng.uniform(-10.0, 25.0))
        n_acceptable = int(rng.integers(1, dims.b_hat + 1))
        acceptable = frozenset(
            int(b) for b in rng.choice(dims.b_hat, size=n_acceptable, replace=False)
        )
        required = 1 if len(acceptable) == 1 or rng.random() < 0.7 else 2
        quanta = frozenset(
            int(q) for q in rng.choice(dims.t_hat, size=int(rng.integers(1, dims.t_hat + 1)),
                                       replace=False)
        )
        requests.append(AccessRequest(
            request_id=f"req{i:02d}",
            position=(float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))),
            desired_dbm=desired,
            min_useful_dbm=max(desired - float(rng.uniform(10.0, 60.0)), BOUNDS.p_min_dbm + 5.0),
            required_bands=required,
            acceptable_bands=acceptable,
            quanta=quanta,
            priority=int(rng.integers(0, 3)),
        ))
    return requests


def sectored_scenario(seed: int) -> Scenario:
    """random_scenario (T=2) with every antenna sectored, plus two links in band 0.

    The "zero" receiver's own link is below beta (zero margin) in quantum 0;
    the "host" receiver is healthy in both quanta. Both sit inside the grid,
    so each hosts a cell.
    """
    base = random_scenario(seed, t_hat=2)
    rng = np.random.default_rng(seed + 1000)

    def sector() -> AntennaPattern:
        return AntennaPattern(kind="sectored", boresight_deg=float(rng.uniform(0.0, 360.0)),
                              beamwidth_deg=float(rng.uniform(30.0, 180.0)),
                              main_gain_db=float(rng.uniform(0.0, 12.0)),
                              back_gain_db=float(rng.uniform(-20.0, 0.0)))

    networks = [
        RFNetwork(
            id=net.id,
            transmitters=tuple(replace(tx, pattern=sector()) for tx in net.transmitters),
            receivers=tuple(replace(rx, pattern=sector()) for rx in net.receivers),
        )
        for net in base.networks
    ]
    x_min, y_min, x_max, y_max = base.grid.extent
    center = ((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
    corner = (x_min + 0.25 * base.grid.cell_size, y_min + 0.25 * base.grid.cell_size)
    networks.append(make_link("zero", corner, center, -60.0, rx_pattern=sector()))
    # a narrow beam east keeps the host link from drowning the random receivers
    beam = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=10.0,
                          main_gain_db=10.0, back_gain_db=-60.0)
    facing = replace(sector(), boresight_deg=180.0)
    networks.append(make_link("host", center, (center[0] + 30.0, center[1]), 25.0,
                              quanta=(0, 1), tx_pattern=beam, rx_pattern=facing))
    return make_scenario(networks, grid=base.grid, dims=base.dims)


def crowded_scenario() -> Scenario:
    """A 250 x 250 grid of 40 m cells, 2 bands x 3 quanta, every pattern omni.

    Network "crowd" has three links in band 0, active in quanta {0, 1, 2},
    {0, 1} and {1, 2}: two or three of its transmitters are active in each
    band-0 slice, and its first transmitter's field is shared by all three.
    Two single links follow, one in band 0 and one in band 1.
    """
    links = [make_link(f"crowd{k}", (2000.0 + 1500.0 * k, 3000.0), (2000.0 + 1500.0 * k, 3300.0), 20.0,
                       quanta=quanta)
             for k, quanta in enumerate([(0, 1, 2), (0, 1), (1, 2)])]
    crowd = RFNetwork(
        id="crowd",
        transmitters=tuple(replace(link.transmitters[0], network_id="crowd") for link in links),
        receivers=tuple(replace(link.receivers[0], network_id="crowd") for link in links),
    )
    networks = [
        crowd,
        make_link("solo0", (7000.0, 7000.0), (7200.0, 7000.0), 20.0, quanta=(0, 1, 2)),
        make_link("solo1", (5000.0, 5000.0), (5200.0, 5000.0), 20.0, band=1, quanta=(0, 2)),
    ]
    return make_scenario(networks, grid=make_grid(250, 250, 40.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=3))
