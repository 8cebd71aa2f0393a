"""Log-distance path loss and point-to-point link gains.

The deterministic log-distance model is the only one built in; free-space is
the same curve with the exponent pinned to 2. Everything downstream consumes
gains through the functions here, so swapping in a measured-gain table later
only means replacing this module's lookups.
"""

from __future__ import annotations

import numpy as np

from .model import OMNI, OMNI_KIND, SECTORED_KIND, AntennaPattern, Grid, Record, db_to_linear_in_place

__all__ = [
    "FREE_SPACE",
    "LOG_DISTANCE",
    "PropagationConfig",
    "Targets",
    "entrant_gain_field_linear",
    "gain_db",
    "gains_db",
    "link_gain_db",
    "prepare_targets",
    "tx_gain_db_field",
]

FREE_SPACE = "free-space"
LOG_DISTANCE = "log-distance"


class PropagationConfig(Record):
    """Parameters of the log-distance path-loss curve.

    PL(d) = reference_loss_db + 10 * n * log10(max(d, clamp) / d0).
    The clamp keeps the near-field singularity out of co-located links.
    """

    model: str = LOG_DISTANCE
    path_loss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    min_distance_clamp_m: float = 1.0

    @property
    def exponent(self) -> float:
        return 2.0 if self.model == FREE_SPACE else self.path_loss_exponent


def _path_loss_in_place(d: np.ndarray, config: PropagationConfig) -> np.ndarray:
    """The one path-loss formula, computed over the distances ``d`` the caller owns.

    reference_loss_db + 10.0 * exponent * log10(max(d, clamp) / d0), each
    step the ufunc numpy's operators would call, scalars first where they
    stand first.
    """
    np.maximum(d, config.min_distance_clamp_m, out=d)
    np.divide(d, config.reference_distance_m, out=d)
    np.log10(d, out=d)
    np.multiply(10.0 * config.exponent, d, out=d)
    return np.add(config.reference_loss_db, d, out=d)


def gain_db(src: tuple[float, float], src_pattern: AntennaPattern, dst, dst_pattern: AntennaPattern,
            config: PropagationConfig):
    """Directional gain in dB from a source point to destination points: the one gain formula.

    ``dst`` is (x, y) with numbers or arrays, broadcast together. Returns the
    source pattern toward each destination, plus the destination pattern back
    toward the source, minus path loss; an omni pattern's 0 dB is not computed.
    Path loss and the difference are computed over hypot's new array, which
    is returned (a float for scalar points); ``dst`` is never written.
    """
    x, y = src
    px, py = dst
    dist = np.asarray(np.hypot(px - x, py - y))
    gain = 0.0
    if src_pattern.kind != OMNI_KIND:
        gain = src_pattern.gain_db(np.degrees(np.arctan2(py - y, px - x)))
    if dst_pattern.kind != OMNI_KIND:
        gain = gain + dst_pattern.gain_db(np.degrees(np.arctan2(y - py, x - px)))
    db = np.subtract(gain, _path_loss_in_place(dist, config), out=dist)
    return float(db) if db.ndim == 0 else db


def link_gain_db(tx, rx_point: tuple[float, float], config: PropagationConfig,
                 rx_pattern: AntennaPattern = OMNI) -> float:
    """Directional link gain in dB between a transmitter and a point.

    Args:
      tx: anything with ``position`` and ``pattern`` attributes.
      rx_point: receiving location.
      config: propagation parameters.
      rx_pattern: receiving antenna pattern; omni for a bare probe point.

    Returns:
      tx pattern gain toward the point, plus rx pattern gain back toward the
      transmitter, minus path loss. Always negative in practice.
    """
    return float(gain_db(tx.position, tx.pattern, rx_point, rx_pattern, config))


class Targets:
    """Many transmitters or receivers, prepared once as gains_db's destinations.

    ``xs`` and ``ys`` hold their positions. ``pattern`` is OMNI when every
    entry is omni, else one AntennaPattern of per-entry arrays, an omni entry
    as a 0 dB full circle. Two preparations are equal when their arrays hold
    the same values.
    """

    __slots__ = ("xs", "ys", "pattern")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, pattern: AntennaPattern = OMNI):
        self.xs, self.ys, self.pattern = xs, ys, pattern

    def _arrays(self) -> tuple:
        p = self.pattern
        return (self.xs, self.ys) if p is OMNI else \
            (self.xs, self.ys, p.boresight_deg, p.beamwidth_deg, p.main_gain_db, p.back_gain_db)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Targets):
            return NotImplemented
        mine, theirs = self._arrays(), other._arrays()
        return len(mine) == len(theirs) and all(np.array_equal(a, b) for a, b in zip(mine, theirs))


def prepare_targets(entities) -> Targets:
    """Objects with ``position`` and ``pattern``, as gains_db's destinations."""
    xs, ys = np.array([e.position for e in entities], dtype=float).reshape(-1, 2).T
    patterns = [OMNI if e.pattern.kind == OMNI_KIND else e.pattern for e in entities]
    if all(p is OMNI for p in patterns):
        return Targets(xs, ys)
    return Targets(xs, ys, AntennaPattern(SECTORED_KIND, *np.array(
        [(p.boresight_deg, p.beamwidth_deg, p.main_gain_db, p.back_gain_db) for p in patterns]).T))


def gains_db(src: tuple[float, float], src_pattern: AntennaPattern, targets: Targets,
             config: PropagationConfig) -> np.ndarray:
    """Gain in dB from a point to each of many prepared transmitters or receivers, in one gain_db call.

    gain_db is reciprocal bit for bit, so entry i is also that entity's gain
    toward the point.
    """
    return gain_db(src, src_pattern, (targets.xs, targets.ys), targets.pattern, config)


def tx_gain_db_field(tx, grid: Grid, config: PropagationConfig) -> np.ndarray:
    """Gain in dB from a transmitter to every cell center, omni probe at the cell.

    Returns a new (n_y, n_x) array aligned with the grid.
    """
    return gain_db(tx.position, tx.pattern, grid.center_axes(), OMNI, config)


def entrant_gain_field_linear(rx_position: tuple[float, float], rx_pattern: AntennaPattern,
                              grid: Grid, config: PropagationConfig,
                              window: tuple[slice, slice] | None = None) -> np.ndarray:
    """Linear gain from an omni entrant at each cell center to one receiver.

    The receiver's own pattern weights each arrival direction, so a sectored
    receiver is harder to disturb from behind. Returns a new (n_y, n_x) array,
    or with a ``window`` of (row, column) slices a new array of just those
    cells. The window's cells are computed from the same cell centers by the
    same elementwise chain, so each has the bits of its cell of the whole
    field. quantify builds a receiver's gain only over its cap window: outside
    it every entrant cap is at least p_max plus a 1 dB guard, far beyond the
    chain's rounding, so the whole field's caps would finish there at p_max,
    as the cells it never builds do.
    """
    xs, ys = grid.center_axes()
    if window is not None:
        rows, cols = window
        xs, ys = xs[:, cols], ys[rows]
    return db_to_linear_in_place(gain_db(rx_position, rx_pattern, (xs, ys), OMNI, config))
