"""Selective jamming guardian for personal tags.

The guardian travels with the tag's carrier. Every tag frame is, with
probability reaction_reliability, jammed for unauthorized receivers inside
the jam radius; whitelisted receivers always get a relayed copy, wherever
they are. Infrastructure beacons are out of scope: a guardian protects a
personal tag, never a deployed beacon, and the simulator leaves all
non-tag traffic untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import InvalidInput, UnknownRef, ValidationError
from .radio import uniform_draw

if TYPE_CHECKING:  # only for annotations; scenario imports this module
    from .scenario import Scenario


DEFAULT_GUARDIAN_REF = "guardian"


@dataclass(frozen=True)
class GuardianConfig:
    ref: str
    protected_tag: str
    jam_radius_m: float = 10.0
    authorized: frozenset[str] = frozenset()
    reaction_reliability: float = 1.0

    def __post_init__(self) -> None:
        if not self.ref:
            raise InvalidInput("guardian ref must be non-empty")
        if self.jam_radius_m <= 0:
            raise InvalidInput(f"guardian {self.ref}: jam radius must be positive")
        if not (0.0 <= self.reaction_reliability <= 1.0):
            raise InvalidInput(f"guardian {self.ref}: reliability must be in [0, 1]")


def apply_guardian(scenario: "Scenario", config: GuardianConfig) -> "Scenario":
    """Attach a guardian to a scenario; pure, returns a new scenario.

    The protected ref must name a personal tag. Pointing a guardian at an
    infrastructure beacon is rejected: jamming the owner's own service is
    not what this defence does.
    """
    tag_refs = {t.ref for t in scenario.tags}
    if config.protected_tag in {b.ref for b in scenario.deployment.beacons}:
        raise ValidationError(
            f"guardian {config.ref}: {config.protected_tag!r} is an infrastructure "
            "beacon, not a personal tag"
        )
    if config.protected_tag not in tag_refs:
        raise UnknownRef(f"guardian {config.ref}: no tag named {config.protected_tag!r}")
    device_refs = {d.ref for d in scenario.devices}
    for ref in config.authorized:
        if ref not in device_refs:
            raise UnknownRef(f"guardian {config.ref}: authorized ref {ref!r} is not a device")
    return replace(scenario, guardian=config)


def jam_succeeds(seed: int, config: GuardianConfig, frame_seq: int) -> bool:
    """Per-frame reaction draw; reliability 1.0 never misses, 0.0 never fires."""
    if config.reaction_reliability >= 1.0:
        return True
    if config.reaction_reliability <= 0.0:
        return False
    return uniform_draw(seed, "jam", config.protected_tag, frame_seq) < config.reaction_reliability
