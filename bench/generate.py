"""Seeded scenario files for the generated benchmark workloads.

Modelled on ``tests/helpers.random_scenario``: every network is one tx/rx
pair placed uniformly over the grid with the helper's power, distance, beta
and noise ranges, and a receiver that would start below beta + 0.1 dB
(checked with the straight-loop oracle) is not kept, while its transmitter
stays on the air. Receivers do not interfere with each other, so keeping or
dropping one changes no other link: every kept receiver is protected from
the start.

Unlike the test helper, sizes are fixed per workload. Links are dealt evenly
over the (band, quanta) slice classes, exactly ``n_protected`` receivers are
kept (the same number in every class), and requests are dealt evenly over
band sets and quanta, with exactly ``n_two_band`` asking for two bands. Two
seeds then differ in geometry and powers, not in how much work a command
does. The document is written through ``scenario_io.document_to_dict`` as
strict JSON; the same seed gives a byte-identical file.

Run ``python3 bench/generate.py admission-dense 7 out.json`` to write one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

import program

HEADROOM_DB = 0.1
MAX_ATTEMPTS = 20
RECEIVER_DRAWS = 20


@dataclass(frozen=True)
class WorkloadSpec:
    n_x: int
    n_y: int
    cell_size: float
    b_hat: int
    t_hat: int
    n_links: int
    n_protected: int
    n_requests: int
    n_two_band: int
    margin_db: float
    sensitivity_dbm: float


# admission-dense keeps the shape of the ROADMAP probe (one-pair links, about
# half of them with a protected receiver, ~15% two-band requests) at a size where
# admit, enforce and compare-osa take about a second each, so one run repeats
# every subcommand several times. Its sensing threshold makes the
# listen-before-talk baseline admit roughly half the requests.
SPECS = {
    "admission-dense": WorkloadSpec(
        n_x=50, n_y=50, cell_size=200.0, b_hat=2, t_hat=2,
        n_links=60, n_protected=36, n_requests=48, n_two_band=7,
        margin_db=3.0, sensitivity_dbm=-77.0,
    ),
    "raster-wide": WorkloadSpec(
        n_x=250, n_y=250, cell_size=40.0, b_hat=3, t_hat=2,
        n_links=27, n_protected=18, n_requests=4, n_two_band=1,
        margin_db=3.0, sensitivity_dbm=-70.0,
    ),
}


def _subsets(n: int) -> list[frozenset[int]]:
    """Every non-empty subset of range(n), in bitmask order."""
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]


def _slice_classes(spec: WorkloadSpec) -> list[tuple[int, frozenset[int]]]:
    """Every (band, quanta set) a link can occupy, in a fixed order."""
    return [(band, quanta) for quanta in _subsets(spec.t_hat) for band in range(spec.b_hat)]


def _receiver(rng, sp, net_id: str, tx):
    angle = float(rng.uniform(0, 2 * math.pi))
    radius = float(rng.uniform(40.0, 400.0))
    return sp.Receiver(
        id=f"{net_id}-rx", network_id=net_id,
        position=(tx.position[0] + radius * math.cos(angle),
                  tx.position[1] + radius * math.sin(angle)),
        band=tx.band, quanta=tx.quanta, beta_db=float(rng.uniform(3.0, 12.0)),
        noise_floor_dbm=float(rng.uniform(-105.0, -95.0)), linked_tx_id=tx.id,
    )


def _protected_scenario(rng, spec: WorkloadSpec, sp, oracle):
    """n_links one-pair networks with n_protected receivers, or None.

    Transmitters are dealt round-robin over the slice classes. While a class
    still lacks receivers, each of its links draws a receiver up to
    RECEIVER_DRAWS times and keeps the first that starts at least
    HEADROOM_DB above beta; every other link keeps only its transmitter.
    """
    grid = sp.Grid(origin=(0.0, 0.0), cell_size=spec.cell_size, n_x=spec.n_x, n_y=spec.n_y)
    dims = sp.SpectrumSpaceDims(b_hat=spec.b_hat, t_hat=spec.t_hat)
    x_max, y_max = grid.extent[2], grid.extent[3]
    classes = _slice_classes(spec)
    transmitters = []
    for i in range(spec.n_links):
        band, quanta = classes[i % len(classes)]
        transmitters.append(sp.Transmitter(
            id=f"n{i:03d}-tx", network_id=f"n{i:03d}",
            position=(float(rng.uniform(0, x_max)), float(rng.uniform(0, y_max))),
            tx_power_dbm=float(rng.uniform(-5.0, 28.0)), band=band, quanta=quanta,
        ))
    draft = sp.Scenario(grid=grid, dims=dims, bounds=oracle.BOUNDS, propagation=oracle.PROP,
                        networks=tuple(sp.RFNetwork(id=tx.network_id, transmitters=(tx,))
                                       for tx in transmitters))

    def starts_protected(rx) -> bool:
        return all(oracle.o_sinr_db(draft, rx, q) >= rx.beta_db + HEADROOM_DB
                   for q in sorted(rx.quanta))

    per_class = spec.n_protected // len(classes)
    kept = {key: 0 for key in classes}
    networks = []
    for tx in transmitters:
        receivers = ()
        key = (tx.band, tx.quanta)
        if kept[key] < per_class:
            for _ in range(RECEIVER_DRAWS):
                rx = _receiver(rng, sp, tx.network_id, tx)
                if starts_protected(rx):
                    receivers = (rx,)
                    kept[key] += 1
                    break
        networks.append(sp.RFNetwork(id=tx.network_id, transmitters=(tx,), receivers=receivers))
    if sum(kept.values()) < spec.n_protected:
        return None
    return sp.validate_scenario(replace(draft, networks=tuple(networks)))


def _requests(rng, spec: WorkloadSpec, scenario, sp):
    """Requests whose band and quanta sets are dealt round-robin, then shuffled."""
    x_min, y_min, x_max, y_max = scenario.grid.extent
    patterns = sorted(_subsets(spec.t_hat), key=sorted)
    band_sets = _subsets(spec.b_hat)
    double = [s for s in band_sets if len(s) >= 2]
    shapes = [(2, double[i % len(double)], patterns[i % len(patterns)])
              for i in range(spec.n_two_band)]
    shapes += [(1, band_sets[i % len(band_sets)], patterns[(i // len(band_sets)) % len(patterns)])
               for i in range(spec.n_requests - spec.n_two_band)]
    requests = []
    for i, k in enumerate(rng.permutation(len(shapes))):
        required, acceptable, quanta = shapes[int(k)]
        desired = float(rng.uniform(-10.0, 25.0))
        requests.append(sp.AccessRequest(
            request_id=f"req{i:03d}",
            position=(float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))),
            desired_dbm=desired,
            min_useful_dbm=max(desired - float(rng.uniform(10.0, 60.0)),
                               scenario.bounds.p_min_dbm + 5.0),
            required_bands=required,
            acceptable_bands=acceptable,
            quanta=quanta,
            priority=int(rng.integers(0, 3)),
        ))
    return tuple(requests)


def generate_document(workload: str, seed: int):
    """The ScenarioDocument of a generated workload for one seed."""
    sp = program.load()
    from spectrumspace.scenario_io import PolicyParams, ScenarioDocument

    oracle = program.oracle()
    spec = SPECS[workload]
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        scenario = _protected_scenario(rng, spec, sp, oracle)
        if scenario is not None:
            break
    else:
        raise RuntimeError(f"{workload}: fewer than {spec.n_protected} protected receivers "
                           f"in {MAX_ATTEMPTS} draws for seed {seed}")
    return ScenarioDocument(
        scenario=scenario,
        requests=_requests(rng, spec, scenario, sp),
        policy=PolicyParams(margin_db=spec.margin_db, sensitivity_dbm=spec.sensitivity_dbm,
                            tolerance_db=0.5, price_rate=1.5),
    )


def document_text(workload: str, seed: int) -> str:
    """Strict JSON text of a generated workload; byte-identical for equal seeds."""
    doc = generate_document(workload, seed)
    from spectrumspace.scenario_io import document_to_dict

    data = document_to_dict(doc)
    return json.dumps(data, indent=1, sort_keys=True, allow_nan=False) + "\n"


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in SPECS:
        print(f"usage: generate.py {{{','.join(SPECS)}}} SEED OUT.json", file=sys.stderr)
        return 2
    text = document_text(argv[0], int(argv[1]))
    with open(argv[2], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
