"""Domain model: beacon identities, deployments, observations and traces.

A deployment is the owner's view of the world: where beacons sit, which ID
they broadcast (fixed or rotating), what content each one unlocks, and which
beacons count as physically adjacent. Everything here is immutable; loaders
validate once and the rest of the package trusts the invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Union

import yaml

from .errors import InvalidInput, SchemaError, ValidationError

DEFAULT_ID_WIDTH = 20


@dataclass(frozen=True)
class BeaconId:
    """Opaque fixed-width identifier carried in advertisement frames."""

    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes) or len(self.data) == 0:
            raise InvalidInput("beacon id must be non-empty bytes")

    @classmethod
    def from_hex(cls, text: str) -> "BeaconId":
        try:
            return cls(bytes.fromhex(text))
        except ValueError as exc:
            raise InvalidInput(f"bad beacon id hex: {text!r}") from exc

    def hex(self) -> str:
        return self.data.hex()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # keep logs readable
        return f"BeaconId({self.data.hex()})"


@dataclass(frozen=True)
class ContentRef:
    """What a beacon unlocks: a locator plus a human label."""

    locator: str
    label: str = ""

    def __post_init__(self) -> None:
        if not self.locator:
            raise InvalidInput("content locator must be non-empty")


@dataclass(frozen=True)
class StaticId:
    """Broadcast the same identifier forever."""

    id: BeaconId


@dataclass(frozen=True)
class EphemeralId:
    """Derive the identifier per time slot from the key stored under key_ref."""

    key_ref: str


IdMode = Union[StaticId, EphemeralId]


@dataclass(frozen=True)
class BeaconConfig:
    ref: str
    x: float
    y: float
    tx_power_1m: float  # dBm measured at 1 m
    adv_interval_ms: float
    id_mode: IdMode
    auth_protected: bool = False

    def __post_init__(self) -> None:
        if not self.ref:
            raise InvalidInput("beacon ref must be non-empty")
        if not (-100.0 <= self.tx_power_1m <= 0.0):
            raise InvalidInput(
                f"beacon {self.ref}: tx_power_1m {self.tx_power_1m} outside [-100, 0] dBm"
            )
        if self.adv_interval_ms <= 0:
            raise InvalidInput(f"beacon {self.ref}: adv_interval_ms must be positive")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


class Observation(NamedTuple):
    """One received advertisement as seen by a device: no emitter identity."""

    time: float
    receiver_ref: str
    id: BeaconId
    rssi: float
    claimed_tx_power: float


@dataclass(frozen=True)
class Trace:
    """Time-ordered observations collected by a single receiving device."""

    device_ref: str
    observations: tuple[Observation, ...]

    def __post_init__(self) -> None:
        times = [o.time for o in self.observations]
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvalidInput(f"trace for {self.device_ref} is not time-ordered")

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class DeploymentMap:
    """Beacons plus the owner-side lookup structures built from them.

    adjacency is symmetric and irreflexive, keyed by beacon ref. content_map
    resolves static IDs directly; content_by_ref serves beacons whose broadcast
    ID rotates and is only resolvable back to a ref by the verifier.
    """

    beacons: tuple[BeaconConfig, ...]
    content_map: Mapping[BeaconId, ContentRef] = field(default_factory=dict)
    content_by_ref: Mapping[str, ContentRef] = field(default_factory=dict)
    adjacency: Mapping[str, frozenset[str]] = field(default_factory=dict)
    owner_keys: Mapping[str, bytes] = field(default_factory=dict)
    id_width: int = DEFAULT_ID_WIDTH

    def beacon(self, ref: str) -> BeaconConfig:
        for b in self.beacons:
            if b.ref == ref:
                return b
        raise KeyError(ref)

    def refs(self) -> tuple[str, ...]:
        return tuple(b.ref for b in self.beacons)

    def neighbors(self, ref: str) -> frozenset[str]:
        return self.adjacency.get(ref, frozenset())

    def static_ids(self) -> dict[BeaconId, str]:
        """Map each fixed broadcast ID back to its beacon ref."""
        out: dict[BeaconId, str] = {}
        for b in self.beacons:
            if isinstance(b.id_mode, StaticId):
                out[b.id_mode.id] = b.ref
        return out

    def has_ephemeral(self) -> bool:
        return any(isinstance(b.id_mode, EphemeralId) for b in self.beacons)


def adjacency_from_positions(deployment: DeploymentMap, radius: float) -> DeploymentMap:
    """Rebuild adjacency as 'within radius meters', replacing any existing edges."""
    if radius <= 0:
        raise InvalidInput("adjacency radius must be positive")
    edges: dict[str, set[str]] = {b.ref: set() for b in deployment.beacons}
    for i, a in enumerate(deployment.beacons):
        for b in deployment.beacons[i + 1 :]:
            if math.dist(a.position, b.position) <= radius:
                edges[a.ref].add(b.ref)
                edges[b.ref].add(a.ref)
    adjacency = {ref: frozenset(nbrs) for ref, nbrs in edges.items()}
    return replace(deployment, adjacency=adjacency)


# ---------------------------------------------------------------------------
# document loading

# libyaml's parser where PyYAML was built with it: the same safe documents as
# yaml.SafeLoader, parsed about eight times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text):
    """yaml.safe_load with libyaml when available; errors are yaml.YAMLError."""
    return yaml.load(text, Loader=_YAML_LOADER)


def _parse_document(document) -> dict:
    if isinstance(document, Mapping):
        return dict(document)
    if isinstance(document, (str, bytes)):
        try:
            parsed = _load_yaml(document)
        except yaml.YAMLError as exc:
            raise SchemaError(f"unparseable document: {exc}") from exc
        if not isinstance(parsed, Mapping):
            raise SchemaError("document root must be a mapping")
        return dict(parsed)
    raise SchemaError(f"unsupported document type {type(document).__name__}")


def _require(entry: Mapping, key: str, where: str):
    if key not in entry:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return entry[key]


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_beacon(entry: Mapping, id_width: int) -> tuple[BeaconConfig, bytes | None]:
    if not isinstance(entry, Mapping):
        raise SchemaError(f"beacon entry must be a mapping, got {entry!r}")
    ref = str(_require(entry, "ref", "beacon"))
    where = f"beacon {ref}"
    mode = str(entry.get("id_mode", "static")).lower()
    key: bytes | None = None
    id_mode: IdMode
    if mode == "static":
        beacon_id = BeaconId.from_hex(str(_require(entry, "id_hex", where)))
        if len(beacon_id) != id_width:
            raise ValidationError(
                f"{where}: id is {len(beacon_id)} bytes, deployment id width is {id_width}"
            )
        id_mode = StaticId(beacon_id)
    elif mode == "ephemeral":
        key_hex = str(_require(entry, "key_hex", where))
        try:
            key = bytes.fromhex(key_hex)
        except ValueError as exc:
            raise SchemaError(f"{where}: bad key_hex") from exc
        if len(key) < 16:
            raise ValidationError(f"{where}: ephemeral key must be at least 16 bytes")
        id_mode = EphemeralId(key_ref=ref)
    else:
        raise SchemaError(f"{where}: unknown id_mode {mode!r}")
    try:
        config = BeaconConfig(
            ref=ref,
            x=_as_float(_require(entry, "x", where), where),
            y=_as_float(_require(entry, "y", where), where),
            tx_power_1m=_as_float(_require(entry, "tx_power_1m", where), where),
            adv_interval_ms=_as_float(_require(entry, "adv_interval_ms", where), where),
            id_mode=id_mode,
            auth_protected=bool(entry.get("auth_protected", False)),
        )
    except InvalidInput as exc:
        raise ValidationError(str(exc)) from exc
    return config, key


def load_deployment(document) -> DeploymentMap:
    """Build a validated DeploymentMap from a config document (text or mapping).

    Unknown top-level keys are ignored so a full scenario document is accepted.
    Raises SchemaError for malformed input and ValidationError, naming the
    offending entity, for semantic problems.
    """
    doc = _parse_document(document)
    id_width = int(doc.get("id_width", DEFAULT_ID_WIDTH))
    if id_width <= 0:
        raise ValidationError("id_width must be positive")

    raw_beacons = doc.get("beacons")
    if not isinstance(raw_beacons, list) or not raw_beacons:
        raise SchemaError("document needs a non-empty 'beacons' list")

    beacons: list[BeaconConfig] = []
    owner_keys: dict[str, bytes] = {}
    seen_refs: set[str] = set()
    seen_ids: dict[BeaconId, str] = {}
    for entry in raw_beacons:
        config, key = _parse_beacon(entry, id_width)
        if config.ref in seen_refs:
            raise ValidationError(f"duplicate beacon ref {config.ref!r}")
        seen_refs.add(config.ref)
        if isinstance(config.id_mode, StaticId):
            other = seen_ids.get(config.id_mode.id)
            if other is not None:
                raise ValidationError(
                    f"beacons {other!r} and {config.ref!r} share static id "
                    f"{config.id_mode.id.hex()}"
                )
            seen_ids[config.id_mode.id] = config.ref
        if key is not None:
            owner_keys[config.ref] = key
        beacons.append(config)

    content_map: dict[BeaconId, ContentRef] = {}
    content_by_ref: dict[str, ContentRef] = {}
    for entry in doc.get("content", []) or []:
        if not isinstance(entry, Mapping):
            raise SchemaError(f"content entry must be a mapping, got {entry!r}")
        content = ContentRef(
            locator=str(_require(entry, "locator", "content entry")),
            label=str(entry.get("label", "")),
        )
        if "id_hex" in entry:
            cid = BeaconId.from_hex(str(entry["id_hex"]))
            if cid in content_map:
                raise ValidationError(f"duplicate content entry for id {cid.hex()}")
            content_map[cid] = content
        elif "ref" in entry:
            ref = str(entry["ref"])
            if ref not in seen_refs:
                raise ValidationError(f"content entry references unknown beacon {ref!r}")
            if ref in content_by_ref:
                raise ValidationError(f"duplicate content entry for beacon {ref!r}")
            content_by_ref[ref] = content
        else:
            raise SchemaError("content entry needs 'id_hex' or 'ref'")

    # static beacons are reachable by both id and ref lookups
    for b in beacons:
        if isinstance(b.id_mode, StaticId):
            if b.id_mode.id not in content_map:
                raise ValidationError(f"static beacon {b.ref!r} has no content entry")
            content_by_ref.setdefault(b.ref, content_map[b.id_mode.id])
        else:
            if b.ref not in content_by_ref:
                raise ValidationError(
                    f"ephemeral beacon {b.ref!r} needs a ref-keyed content entry"
                )

    deployment = DeploymentMap(
        beacons=tuple(beacons),
        content_map=content_map,
        content_by_ref=content_by_ref,
        adjacency={b.ref: frozenset() for b in beacons},
        owner_keys=owner_keys,
        id_width=id_width,
    )

    radius = doc.get("adjacency_radius_m")
    edges = doc.get("adjacency")
    if radius is not None and edges:
        raise SchemaError("give either 'adjacency' or 'adjacency_radius_m', not both")
    if radius is not None:
        deployment = adjacency_from_positions(deployment, _as_float(radius, "adjacency_radius_m"))
    elif edges:
        if not isinstance(edges, list):
            raise SchemaError("'adjacency' must be a list of ref pairs")
        built: dict[str, set[str]] = {b.ref: set() for b in beacons}
        for pair in edges:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError(f"adjacency entry {pair!r} is not a pair")
            a, b = str(pair[0]), str(pair[1])
            for end in (a, b):
                if end not in seen_refs:
                    raise ValidationError(
                        f"adjacency edge ({a}, {b}) references unknown beacon {end!r}"
                    )
            if a == b:
                raise ValidationError(f"adjacency edge ({a}, {b}) is a self-loop")
            built[a].add(b)
            built[b].add(a)
        deployment = replace(
            deployment, adjacency={ref: frozenset(nbrs) for ref, nbrs in built.items()}
        )
    return deployment
