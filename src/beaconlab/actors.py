"""User-side actors: phones that move and scan, and personal tags they carry.

Proximity is decided per scan window by pooling every frame that shares an
identity and averaging the per-frame distance estimates. The device cannot
tell emitters apart, which is exactly what the flooding attack exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InvalidInput
from .model import MIN_KEY_BYTES, BeaconId, Observation, _check_tx_power
from .radio import estimate_distance

DEFAULT_PROXIMITY_THRESHOLD_M = 5.0
DEFAULT_SCAN_WINDOW_S = 3.0
DEFAULT_RETRIGGER_S = 30.0
DEFAULT_LOOKUP_BUDGET = 100


@dataclass(frozen=True)
class AppSpec:
    ref: str
    authorized: bool = False
    malicious: bool = False


@dataclass(frozen=True)
class UserDevice:
    """A phone following a waypoint path, scanning in fixed windows."""

    ref: str
    path: tuple[tuple[float, tuple[float, float]], ...]
    proximity_threshold_m: float = DEFAULT_PROXIMITY_THRESHOLD_M
    scan_window_s: float = DEFAULT_SCAN_WINDOW_S
    apps: tuple[AppSpec, ...] = ()
    lookup_budget: int = DEFAULT_LOOKUP_BUDGET
    content_retrigger_s: float = DEFAULT_RETRIGGER_S

    def __post_init__(self) -> None:
        if not self.ref:
            raise InvalidInput("device ref must be non-empty")
        if not self.path:
            raise InvalidInput(f"device {self.ref}: path needs at least one waypoint")
        times = [t for t, _ in self.path]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInput(f"device {self.ref}: waypoint times must strictly increase")
        if self.proximity_threshold_m <= 0:
            raise InvalidInput(f"device {self.ref}: proximity threshold must be positive")
        if self.scan_window_s <= 0:
            raise InvalidInput(f"device {self.ref}: scan window must be positive")
        if self.lookup_budget <= 0:
            raise InvalidInput(f"device {self.ref}: lookup budget must be positive")
        if self.content_retrigger_s < 0:
            raise InvalidInput(f"device {self.ref}: retrigger interval cannot be negative")

    def position_at(self, t: float) -> tuple[float, float]:
        """Piecewise-linear interpolation; clamps before/after the path."""
        path = self.path
        if len(path) == 1 or t <= path[0][0]:
            return path[0][1]
        if t >= path[-1][0]:
            return path[-1][1]
        for (t0, p0), (t1, p1) in zip(path, path[1:]):
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                return (p0[0] + frac * (p1[0] - p0[0]), p0[1] + frac * (p1[1] - p0[1]))
        return path[-1][1]

    def within_threshold(self, point: tuple[float, float], t: float) -> bool:
        """Ground truth: the device stands within its proximity threshold of point at t."""
        return math.dist(self.position_at(t), point) <= self.proximity_threshold_m

    def has_malicious_authorized_app(self) -> bool:
        return any(a.malicious and a.authorized for a in self.apps)


@dataclass(frozen=True)
class PersonalTag:
    """A wearable advertiser that moves with the device carrying it."""

    ref: str
    carried_by: str
    adv_interval_ms: float = 1000.0
    tx_power_1m: float = -59.0
    static_id: Optional[BeaconId] = None
    key: Optional[bytes] = None

    def __post_init__(self) -> None:
        if not self.ref:
            raise InvalidInput("tag ref must be non-empty")
        if self.adv_interval_ms <= 0:
            raise InvalidInput(f"tag {self.ref}: adv_interval_ms must be positive")
        _check_tx_power(f"tag {self.ref}: tx_power_1m", self.tx_power_1m)
        if (self.static_id is None) == (self.key is None):
            raise InvalidInput(f"tag {self.ref}: give exactly one of static_id or key")
        if self.key is not None and len(self.key) < MIN_KEY_BYTES:
            raise InvalidInput(f"tag {self.ref}: key must be at least {MIN_KEY_BYTES} bytes")


def proximity_decision(
    window: Sequence[Observation],
    threshold_m: float,
    path_loss_exponent: float,
) -> bool:
    """True (near) iff the mean of per-frame distance estimates is <= threshold.

    Each frame contributes an estimate from its own claimed transmit power, so
    a handful of frames claiming absurd power can drag the mean anywhere.
    """
    if not window:
        raise InvalidInput("proximity decision needs at least one observation")
    if threshold_m <= 0:
        raise InvalidInput("threshold must be positive")
    return mean_distance(window, path_loss_exponent) <= threshold_m


def mean_distance(frames: Sequence[Observation], path_loss_exponent: float) -> float:
    """Mean of the frames' distance estimates; inf when an estimate overflows."""
    total = 0.0
    for obs in frames:
        try:
            total += estimate_distance(obs.claimed_tx_power, obs.rssi, path_loss_exponent)
        except OverflowError:  # farther than any float: no estimate can pull it back
            return math.inf
    return total / len(frames)
