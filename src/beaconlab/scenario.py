"""Scenario documents: the world the simulator runs.

A scenario bundles a deployment with devices, personal tags, attack profiles,
an optional guardian, radio parameters and the set of enabled defences.
Scenario objects are immutable; attack installation returns modified copies
and tracks how many declared profiles have been materialized so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .actors import AppSpec, PersonalTag, UserDevice
from .attacks import AttackerReceiver, AttackProfile, InjectedEmitter
from .attacks import normalize_kind, normalize_sniff_mode
from .ephemeral import MAX_WINDOW_IDS, EphemeralParams, filter_size
from .errors import InvalidInput, SchemaError, ValidationError
from .guardian import DEFAULT_GUARDIAN_REF, GuardianConfig, apply_guardian
from .model import DEPLOYMENT_KEYS, DeploymentMap, load_deployment
from .model import _beacon_id, _build, _check_keys, _fields, _flag, _hex, _integer, _list
from .model import _mapping, _names, _number, _parse_document, _position, _positions, _text
from .radio import RadioParams
from .threatmatrix import CAPABILITIES, DEFENCES

DEFAULT_ATTACKER_CAPS = frozenset({"C1", "C2", "C3", "C6", "C7"})
# C5 comes with physical_access and C4 with firmware_access
DEFAULT_ATTACKER = {
    "capabilities": DEFAULT_ATTACKER_CAPS, "physical_access": False, "firmware_access": True,
}


@dataclass(frozen=True)
class Scenario:
    deployment: DeploymentMap
    devices: tuple[UserDevice, ...] = ()
    tags: tuple[PersonalTag, ...] = ()
    attacks: tuple[AttackProfile, ...] = ()
    guardian: Optional[GuardianConfig] = None
    radio: RadioParams = field(default_factory=RadioParams)
    ephemeral: EphemeralParams = field(default_factory=EphemeralParams)
    defences: frozenset[str] = frozenset()
    attacker_caps: frozenset[str] = DEFAULT_ATTACKER_CAPS
    duration_s: float = 60.0
    # attack installation artifacts; filled by attacks.install_pending
    injected: tuple[InjectedEmitter, ...] = ()
    extra_receivers: tuple[AttackerReceiver, ...] = ()
    upload_targets: tuple[tuple[int, str], ...] = ()
    installed_count: int = 0
    # the world before any attack rewired it; None until an install mutates it
    reference_deployment: Optional[DeploymentMap] = None

    def __post_init__(self) -> None:
        # `run` loops until duration_s is reached
        if not 0.0 < self.duration_s < math.inf:
            raise InvalidInput(f"duration_s must be positive and finite, got {self.duration_s!r}")
        devices = {d.ref for d in self.devices}
        for tag in self.tags:
            if tag.carried_by not in devices:
                raise InvalidInput(f"tag {tag.ref!r}: carrier {tag.carried_by!r} is not a device")

    @property
    def reference(self) -> DeploymentMap:
        """Ground-truth deployment: what the owner set up, pre-attack."""
        return self.reference_deployment or self.deployment


def _path(raw, where: str) -> tuple:
    waypoints = _list(raw, where)
    if not waypoints:
        raise SchemaError(f"{where} must be a non-empty list")
    path = []
    for wp in waypoints:
        if not isinstance(wp, (list, tuple)) or len(wp) != 2:
            raise SchemaError(f"{where}: waypoint must be [t, [x, y]], got {wp!r}")
        path.append((_number(wp[0], where), _position(wp[1], where)))
    return tuple(path)


_APP_READERS = {"ref": _text, "authorized": _flag, "malicious": _flag}


def _apps(raw, where: str) -> tuple[AppSpec, ...]:
    return tuple(
        AppSpec(**{"ref": f"app{i}", **_fields(app, f"{where}[{i}]", _APP_READERS)})
        for i, app in enumerate(_list(raw, where))
    )


_DEVICE_READERS = {
    "ref": _text, "path": _path, "x": _number, "y": _number, "apps": _apps,
    "proximity_threshold_m": _number, "scan_window_s": _number, "lookup_budget": _integer,
    "content_retrigger_s": _number,
}


def _parse_device(raw, where: str) -> UserDevice:
    fields = _fields(raw, where, _DEVICE_READERS, ("ref",))
    point = tuple(fields.pop(axis) for axis in ("x", "y") if axis in fields)
    if "path" not in fields and len(point) == 2:
        fields["path"] = ((0.0, point),)
    elif "path" not in fields or point:
        raise SchemaError(f"{where}: needs 'path' or 'x'/'y'")
    return _build(UserDevice, where, **fields)


_TAG_READERS = {
    "ref": _text, "carried_by": _text, "adv_interval_ms": _number, "tx_power_1m": _number,
    "id_hex": _beacon_id, "key_hex": _hex,
}


def _parse_tag(raw, where: str, id_width: int) -> PersonalTag:
    fields = _fields(raw, where, _TAG_READERS, ("ref", "carried_by"))
    if "id_hex" in fields:
        static_id = fields["static_id"] = fields.pop("id_hex")
        if len(static_id) != id_width:
            raise ValidationError(f"{where}: id width {len(static_id)} != deployment {id_width}")
    if "key_hex" in fields:
        fields["key"] = fields.pop("key_hex")
    return _build(PersonalTag, where, **fields)


_ATTACK_READERS = {
    "kind": _text, "sniff_mode": _text, "attacker_positions": _positions,
    "harvest_window_s": _number, "max_range_m": _number,
}


def _parse_attack(raw, where: str) -> AttackProfile:
    # every other key is a param of the kind, which AttackProfile reads through its table
    entry = _mapping(raw, where)
    params = {k: v for k, v in entry.items() if k not in _ATTACK_READERS}
    fields = _fields(
        {k: v for k, v in entry.items() if k in _ATTACK_READERS}, where, _ATTACK_READERS, ("kind",)
    )
    fields["kind"] = normalize_kind(fields["kind"])
    if "sniff_mode" in fields:
        fields["sniff_mode"] = normalize_sniff_mode(fields["sniff_mode"])
    if "max_range_m" in fields:
        fields["max_range"] = fields.pop("max_range_m")
    return _build(AttackProfile, where, params=params, **fields)


_RADIO_READERS = {
    "path_loss_exponent": _number, "noise_sigma": _number, "max_range_m": _number,
    "seed": _integer,
}
_EPHEMERAL_READERS = {
    "slot_duration_s": _number, "window_slots": _integer, "bloom_fp_target": _number,
    "bloom_m": _integer, "bloom_k": _integer,
}
_ATTACKER_READERS = {"capabilities": _names, "physical_access": _flag, "firmware_access": _flag}
_GUARDIAN_READERS = {
    "ref": _text, "protected_tag": _text, "jam_radius_m": _number, "authorized": _names,
    "reaction_reliability": _number,
}
_SCENARIO_KEYS = DEPLOYMENT_KEYS + (
    "devices", "tags", "attacks", "radio", "ephemeral", "attacker", "defences", "guardian",
    "duration_s",
)


def ephemeral_block(doc: dict, deployment: DeploymentMap) -> EphemeralParams:
    """The params a document's `ephemeral:` block gives, the defaults without
    one: the slot length, the window and the Bloom sizing, which `filter_size`
    checks for a filter of the deployment's IDs in one window (a window of
    more than MAX_WINDOW_IDS is refused where its IDs are derived).
    `load_scenario` and `detect` both read the block here, so a run and
    `detect` resolve rotating IDs alike."""
    eph = _fields(doc.get("ephemeral"), "ephemeral", _EPHEMERAL_READERS)
    params = _build(EphemeralParams, "ephemeral", id_width=deployment.id_width, **eph)
    n_ids = len(deployment.owner_keys) * len(params.window(0))
    _build(filter_size, "ephemeral", n_items=n_ids if n_ids <= MAX_WINDOW_IDS else 0,
           m_bits=params.bloom_m, k_hashes=params.bloom_k, fp_target=params.bloom_fp_target)
    return params


def load_scenario(document) -> Scenario:
    """Parse and validate a full scenario document (text or mapping)."""
    doc = _parse_document(document)
    deployment = load_deployment(doc)
    _check_keys(doc, "scenario", _SCENARIO_KEYS)

    devices: list[UserDevice] = []
    seen = set()
    for i, entry in enumerate(_list(doc.get("devices"), "devices")):
        device = _parse_device(entry, f"devices[{i}]")
        if device.ref in seen:
            raise ValidationError(f"duplicate device ref {device.ref!r}")
        seen.add(device.ref)
        devices.append(device)

    tags: list[PersonalTag] = []
    tag_refs = set()
    for i, entry in enumerate(_list(doc.get("tags"), "tags")):
        tag = _parse_tag(entry, f"tags[{i}]", deployment.id_width)
        if tag.ref in tag_refs or tag.ref in seen:
            raise ValidationError(f"duplicate ref {tag.ref!r}")
        tag_refs.add(tag.ref)
        tags.append(tag)

    attacks = tuple(
        _parse_attack(entry, f"attacks[{i}]")
        for i, entry in enumerate(_list(doc.get("attacks"), "attacks"))
    )

    radio = _fields(doc.get("radio"), "radio", _RADIO_READERS)
    if "max_range_m" in radio:
        radio["max_range"] = radio.pop("max_range_m")

    eph = ephemeral_block(doc, deployment)
    given = {}
    if doc.get("duration_s") is not None:
        given["duration_s"] = _number(doc["duration_s"], "duration_s")

    attacker = {**DEFAULT_ATTACKER, **_fields(doc.get("attacker"), "attacker", _ATTACKER_READERS)}
    caps = {c.upper() for c in attacker["capabilities"]}
    for c in sorted(caps):
        if c not in CAPABILITIES:
            raise ValidationError(f"attacker: unknown capability {c!r}")
    if attacker["physical_access"]:
        caps.add("C5")
    if attacker["firmware_access"]:
        caps.add("C4")

    if doc.get("defences") is None:
        defences = set()
        if deployment.has_ephemeral():
            defences.add("TV")
        if doc.get("guardian") is not None:
            defences.add("SJ")
    else:
        defences = {d.upper() for d in _names(doc["defences"], "defences")}
        unknown = defences - DEFENCES.keys()
        if unknown:
            raise ValidationError(f"unknown defences: {sorted(unknown)}")

    scenario = _build(
        Scenario,
        "scenario",
        deployment=deployment,
        devices=tuple(devices),
        tags=tuple(tags),
        attacks=attacks,
        radio=_build(RadioParams, "radio", **radio),
        ephemeral=eph,
        defences=frozenset(defences),
        attacker_caps=frozenset(caps),
        **given,
    )

    if doc.get("guardian") is not None:
        guardian = _fields(doc["guardian"], "guardian", _GUARDIAN_READERS, ("protected_tag",))
        config = _build(GuardianConfig, "guardian", **{"ref": DEFAULT_GUARDIAN_REF, **guardian})
        scenario = apply_guardian(scenario, config)
    return scenario
