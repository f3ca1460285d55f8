"""Scenario documents: the world the simulator runs.

A scenario bundles a deployment with devices, personal tags, attack profiles,
an optional guardian, radio parameters and the set of enabled defences.
Scenario objects are immutable; attack installation returns modified copies
and tracks how many declared profiles have been materialized so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .actors import (
    DEFAULT_LOOKUP_BUDGET,
    DEFAULT_PROXIMITY_THRESHOLD_M,
    DEFAULT_RETRIGGER_S,
    DEFAULT_SCAN_WINDOW_S,
    AppSpec,
    PersonalTag,
    UserDevice,
)
from .attacks import (
    ATTACK_KINDS,
    AttackerReceiver,
    AttackProfile,
    InjectedEmitter,
    LUNCH_TIME,
    PERVASIVE,
    normalize_kind,
)
from .ephemeral import EphemeralParams
from .errors import InvalidInput, SchemaError, ValidationError
from .guardian import GuardianConfig, apply_guardian
from .model import BeaconId, DeploymentMap, load_deployment, _parse_document
from .radio import RadioParams

DEFENCE_CODES = ("TV", "OD", "SJ")

DEFAULT_ATTACKER_CAPS = frozenset({"C1", "C2", "C3", "C6", "C7"})


@dataclass(frozen=True)
class Scenario:
    deployment: DeploymentMap
    devices: tuple[UserDevice, ...] = ()
    tags: tuple[PersonalTag, ...] = ()
    attacks: tuple[AttackProfile, ...] = ()
    guardian: Optional[GuardianConfig] = None
    radio: RadioParams = field(default_factory=RadioParams)
    ephemeral: EphemeralParams = field(default_factory=EphemeralParams)
    bloom_fp_target: float = 0.01
    bloom_m: Optional[int] = None
    bloom_k: Optional[int] = None
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

    @property
    def reference(self) -> DeploymentMap:
        """Ground-truth deployment: what the owner set up, pre-attack."""
        return self.reference_deployment or self.deployment

    def device(self, ref: str) -> UserDevice:
        for d in self.devices:
            if d.ref == ref:
                return d
        raise KeyError(ref)

    def tag(self, ref: str) -> PersonalTag:
        for t in self.tags:
            if t.ref == ref:
                return t
        raise KeyError(ref)


def _parse_position(raw, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise SchemaError(f"{where}: position must be [x, y], got {raw!r}")
    try:
        return (float(raw[0]), float(raw[1]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: position coordinates must be numbers") from exc


def _parse_duration(raw) -> float:
    """duration_s as a positive finite float: `run` loops until it is reached."""
    try:
        duration = float(raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"duration_s must be a number, got {raw!r}") from exc
    if not math.isfinite(duration) or duration <= 0:
        raise ValidationError(f"duration_s must be positive and finite, got {raw!r}")
    return duration


def _parse_device(entry: Mapping) -> UserDevice:
    if not isinstance(entry, Mapping):
        raise SchemaError(f"device entry must be a mapping, got {entry!r}")
    ref = str(entry.get("ref", ""))
    where = f"device {ref or '?'}"
    if "path" in entry:
        raw_path = entry["path"]
        if not isinstance(raw_path, list) or not raw_path:
            raise SchemaError(f"{where}: path must be a non-empty list")
        path = []
        for wp in raw_path:
            if not isinstance(wp, (list, tuple)) or len(wp) != 2:
                raise SchemaError(f"{where}: waypoint must be [t, [x, y]]")
            path.append((float(wp[0]), _parse_position(wp[1], where)))
        path_t = tuple(path)
    elif "x" in entry and "y" in entry:
        path_t = ((0.0, (float(entry["x"]), float(entry["y"]))),)
    else:
        raise SchemaError(f"{where}: needs 'path' or 'x'/'y'")
    apps = []
    for app in entry.get("apps", []) or []:
        if not isinstance(app, Mapping):
            raise SchemaError(f"{where}: app entries must be mappings")
        apps.append(
            AppSpec(
                ref=str(app.get("ref", f"app{len(apps)}")),
                authorized=bool(app.get("authorized", False)),
                malicious=bool(app.get("malicious", False)),
            )
        )
    try:
        return UserDevice(
            ref=ref,
            path=path_t,
            proximity_threshold_m=float(
                entry.get("proximity_threshold_m", DEFAULT_PROXIMITY_THRESHOLD_M)
            ),
            scan_window_s=float(entry.get("scan_window_s", DEFAULT_SCAN_WINDOW_S)),
            apps=tuple(apps),
            lookup_budget=int(entry.get("lookup_budget", DEFAULT_LOOKUP_BUDGET)),
            content_retrigger_s=float(entry.get("content_retrigger_s", DEFAULT_RETRIGGER_S)),
        )
    except InvalidInput as exc:
        raise ValidationError(str(exc)) from exc


def _parse_tag(entry: Mapping, id_width: int) -> PersonalTag:
    if not isinstance(entry, Mapping):
        raise SchemaError(f"tag entry must be a mapping, got {entry!r}")
    ref = str(entry.get("ref", ""))
    where = f"tag {ref or '?'}"
    static_id = None
    key = None
    if "id_hex" in entry:
        static_id = BeaconId.from_hex(str(entry["id_hex"]))
        if len(static_id) != id_width:
            raise ValidationError(f"{where}: id width {len(static_id)} != deployment {id_width}")
    if "key_hex" in entry:
        try:
            key = bytes.fromhex(str(entry["key_hex"]))
        except ValueError as exc:
            raise SchemaError(f"{where}: bad key_hex") from exc
    if "carried_by" not in entry:
        raise SchemaError(f"{where}: missing carried_by")
    try:
        return PersonalTag(
            ref=ref,
            carried_by=str(entry["carried_by"]),
            adv_interval_ms=float(entry.get("adv_interval_ms", 1000.0)),
            tx_power_1m=float(entry.get("tx_power_1m", -59.0)),
            static_id=static_id,
            key=key,
        )
    except InvalidInput as exc:
        raise ValidationError(str(exc)) from exc


_PROFILE_STRUCT_KEYS = {
    "kind",
    "sniff_mode",
    "attacker_positions",
    "harvest_window_s",
    "max_range_m",
}


def _parse_attack(entry: Mapping, index: int) -> AttackProfile:
    if not isinstance(entry, Mapping):
        raise SchemaError(f"attack entry {index} must be a mapping")
    if "kind" not in entry:
        raise SchemaError(f"attack entry {index}: missing 'kind'")
    kind = normalize_kind(str(entry["kind"]))
    if kind not in ATTACK_KINDS:
        raise SchemaError(f"attack entry {index}: unknown kind {entry['kind']!r}")
    sniff = str(entry.get("sniff_mode", LUNCH_TIME)).lower().replace("-", "_")
    if sniff in ("lunchtime", "lunch"):
        sniff = LUNCH_TIME
    if sniff not in (LUNCH_TIME, PERVASIVE):
        raise SchemaError(f"attack entry {index}: unknown sniff_mode {entry['sniff_mode']!r}")
    positions = tuple(
        _parse_position(p, f"attack entry {index}") for p in entry.get("attacker_positions", []) or []
    )
    hw = entry.get("harvest_window_s")
    max_range = entry.get("max_range_m")
    params = {k: v for k, v in entry.items() if k not in _PROFILE_STRUCT_KEYS}
    return AttackProfile(
        kind=kind,
        sniff_mode=sniff,
        attacker_positions=positions,
        harvest_window_s=float(hw) if hw is not None else None,
        max_range=float(max_range) if max_range is not None else None,
        params=params,
    )


def load_scenario(document) -> Scenario:
    """Parse and validate a full scenario document (text or mapping)."""
    doc = _parse_document(document)
    deployment = load_deployment(doc)

    devices: list[UserDevice] = []
    seen = set()
    for entry in doc.get("devices", []) or []:
        device = _parse_device(entry)
        if not device.ref:
            raise SchemaError("device entry missing 'ref'")
        if device.ref in seen:
            raise ValidationError(f"duplicate device ref {device.ref!r}")
        seen.add(device.ref)
        devices.append(device)

    tags: list[PersonalTag] = []
    tag_refs = set()
    for entry in doc.get("tags", []) or []:
        tag = _parse_tag(entry, deployment.id_width)
        if not tag.ref:
            raise SchemaError("tag entry missing 'ref'")
        if tag.ref in tag_refs or tag.ref in seen:
            raise ValidationError(f"duplicate ref {tag.ref!r}")
        if tag.carried_by not in seen:
            raise ValidationError(f"tag {tag.ref!r}: carrier {tag.carried_by!r} is not a device")
        tag_refs.add(tag.ref)
        tags.append(tag)

    attacks = tuple(
        _parse_attack(entry, i) for i, entry in enumerate(doc.get("attacks", []) or [])
    )

    raw_radio = doc.get("radio", {}) or {}
    if not isinstance(raw_radio, Mapping):
        raise SchemaError("'radio' must be a mapping")
    try:
        radio = RadioParams(
            path_loss_exponent=float(raw_radio.get("path_loss_exponent", 2.0)),
            noise_sigma=float(raw_radio.get("noise_sigma", 2.0)),
            max_range=float(raw_radio.get("max_range_m", 50.0)),
            seed=int(raw_radio.get("seed", 0)),
        )
    except InvalidInput as exc:
        raise ValidationError(f"radio: {exc}") from exc

    raw_eph = doc.get("ephemeral", {}) or {}
    if not isinstance(raw_eph, Mapping):
        raise SchemaError("'ephemeral' must be a mapping")
    try:
        eph = EphemeralParams(
            slot_duration_s=float(raw_eph.get("slot_duration_s", 60.0)),
            window_slots=int(raw_eph.get("window_slots", 2)),
            id_width=deployment.id_width,
        )
    except InvalidInput as exc:
        raise ValidationError(f"ephemeral: {exc}") from exc
    bloom_m = raw_eph.get("bloom_m")
    bloom_k = raw_eph.get("bloom_k")

    raw_attacker = doc.get("attacker", {}) or {}
    if not isinstance(raw_attacker, Mapping):
        raise SchemaError("'attacker' must be a mapping")
    caps = set(str(c) for c in raw_attacker.get("capabilities", sorted(DEFAULT_ATTACKER_CAPS)))
    for c in caps:
        if c not in {f"C{i}" for i in range(1, 8)}:
            raise ValidationError(f"attacker: unknown capability {c!r}")
    if bool(raw_attacker.get("physical_access", False)):
        caps.add("C5")
    if bool(raw_attacker.get("firmware_access", True)):
        caps.add("C4")

    raw_defences = doc.get("defences")
    if raw_defences is None:
        defences = set()
        if deployment.has_ephemeral():
            defences.add("TV")
        if doc.get("guardian"):
            defences.add("SJ")
    else:
        if not isinstance(raw_defences, list):
            raise SchemaError("'defences' must be a list")
        defences = {str(d).upper() for d in raw_defences}
        unknown = defences - set(DEFENCE_CODES)
        if unknown:
            raise ValidationError(f"unknown defences: {sorted(unknown)}")

    scenario = Scenario(
        deployment=deployment,
        devices=tuple(devices),
        tags=tuple(tags),
        attacks=attacks,
        guardian=None,
        radio=radio,
        ephemeral=eph,
        bloom_fp_target=float(raw_eph.get("bloom_fp_target", 0.01)),
        bloom_m=int(bloom_m) if bloom_m is not None else None,
        bloom_k=int(bloom_k) if bloom_k is not None else None,
        defences=frozenset(defences),
        attacker_caps=frozenset(caps),
        duration_s=_parse_duration(doc.get("duration_s", 60.0)),
    )

    raw_guardian = doc.get("guardian")
    if raw_guardian:
        if not isinstance(raw_guardian, Mapping):
            raise SchemaError("'guardian' must be a mapping")
        if "protected_tag" not in raw_guardian:
            raise SchemaError("guardian: missing protected_tag")
        try:
            config = GuardianConfig(
                ref=str(raw_guardian.get("ref", "guardian")),
                protected_tag=str(raw_guardian["protected_tag"]),
                jam_radius_m=float(raw_guardian.get("jam_radius_m", 10.0)),
                authorized=frozenset(str(r) for r in raw_guardian.get("authorized", []) or []),
                reaction_reliability=float(raw_guardian.get("reaction_reliability", 1.0)),
            )
        except InvalidInput as exc:
            raise ValidationError(f"guardian: {exc}") from exc
        scenario = apply_guardian(scenario, config)
    return scenario


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())
