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
MAX_ID_WIDTH = 32  # a rotating ID is an HMAC-SHA256 digest cut to the width
MIN_KEY_BYTES = 16  # the shortest key a rotating ID may be derived from


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
        except (ValueError, TypeError) as exc:  # TypeError: text is not a str
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


def _check_id_width(width: int) -> None:
    """A broadcast ID is 1 to MAX_ID_WIDTH bytes wide."""
    if not 0 < width <= MAX_ID_WIDTH:
        raise InvalidInput(f"id_width must be in 1..{MAX_ID_WIDTH} bytes, got {width}")


def _check_tx_power(where: str, tx_power_1m: float) -> None:
    """A transmitter's power at 1 m must lie in [-100, 0] dBm."""
    if not (-100.0 <= tx_power_1m <= 0.0):
        raise InvalidInput(f"{where} {tx_power_1m} outside [-100, 0] dBm")


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
        _check_tx_power(f"beacon {self.ref}: tx_power_1m", self.tx_power_1m)
        if self.adv_interval_ms <= 0:
            raise InvalidInput(f"beacon {self.ref}: adv_interval_ms must be positive")

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


class Observation(NamedTuple):
    """One received advertisement as seen by a device: no emitter identity."""

    time: float
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
        # `not a <= b` also holds when either time is NaN
        if any(not a <= b for a, b in zip(times, times[1:])):
            raise InvalidInput(f"trace for {self.device_ref!r} is not time-ordered")

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class DeploymentMap:
    """Beacons plus the owner-side lookup structures built from them.

    adjacency is symmetric and irreflexive, keyed by beacon ref. content_by_ref
    maps every beacon to its content; a rotating ID resolves back to its ref
    only through the verifier.
    """

    beacons: tuple[BeaconConfig, ...]
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
#
# Every document field goes through a reader below: reader(raw, where) returns
# the typed value, or raises SchemaError for a wrong type and ValidationError
# for a value no run can use. Only the keys a block gives reach the dataclass,
# so each default lives on the dataclass alone.

# libyaml's parser where PyYAML was built with it: the same safe documents as
# yaml.SafeLoader, parsed about eight times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the top-level keys load_deployment reads; it ignores all others
DEPLOYMENT_KEYS = ("id_width", "beacons", "content", "adjacency", "adjacency_radius_m")


def _parse_document(document) -> dict:
    if isinstance(document, Mapping):
        return dict(document)
    if not isinstance(document, (str, bytes)):
        raise SchemaError(f"unsupported document type {type(document).__name__}")
    try:
        parsed = yaml.load(document, Loader=_YAML_LOADER)
    except (yaml.YAMLError, RecursionError) as exc:
        # the pure-Python loader recurses once per nesting level
        raise SchemaError(f"unparseable document: {exc}") from exc
    return dict(_mapping(parsed, "document root"))


def _mapping(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise SchemaError(f"{where} must be a mapping, got {raw!r}")
    return raw


def _list(raw, where: str) -> list:
    """A list; null reads as an empty one."""
    if raw is None:
        return []
    if not isinstance(raw, (list, tuple)):
        raise SchemaError(f"{where} must be a list, got {raw!r}")
    return raw


def _check_keys(entry: Mapping, where: str, known) -> None:
    """A misspelled key raises, so it never leaves a default in its place unnoticed."""
    for key in entry:
        if key not in known:
            raise SchemaError(f"{where}: unknown key {key!r}; known keys: {', '.join(known)}")


def _fields(raw, where: str, readers: Mapping, required=()) -> dict:
    """Read each key a block gives through its reader; null counts as not given."""
    entry = _mapping({} if raw is None else raw, where)
    _check_keys(entry, where, readers)
    for key in required:
        if entry.get(key) is None:
            raise SchemaError(f"{where}: missing required key {key!r}")
    return {
        key: readers[key](value, f"{where}: {key}")
        for key, value in entry.items()
        if value is not None
    }


def _number(raw, where: str) -> float:
    """A finite float. A numeric string reads as its number; a bool is not one."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise SchemaError(f"{where} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except (ValueError, OverflowError):  # not numeric, or an int beyond the float range
        raise SchemaError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {raw!r}")
    return value


def _integer(raw, where: str) -> int:
    """An int. A float or a numeric string reads only when it is whole; a
    string of an int reads exactly, not through a float."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    value = _number(raw, where)
    if not value.is_integer():
        raise SchemaError(f"{where} must be a whole number, got {raw!r}")
    return int(value)


def _flag(raw, where: str) -> bool:
    """A YAML bool: the string 'false' is not false."""
    if not isinstance(raw, bool):
        raise SchemaError(f"{where} must be true or false, got {raw!r}")
    return raw


def _text(raw, where: str) -> str:
    """A name or label: a string, or a number written without quotes."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise SchemaError(f"{where} must be a string, got {raw!r}")
    return str(raw)


def _names(raw, where: str) -> frozenset[str]:
    return frozenset(_text(item, where) for item in _list(raw, where))


def _hex(raw, where: str) -> bytes:
    """Non-empty bytes written as a hex string."""
    try:
        data = bytes.fromhex(raw) if isinstance(raw, str) else b""
    except ValueError:
        data = b""
    if not data:
        raise SchemaError(f"{where} must be a non-empty hex string, got {raw!r}")
    return data


def _beacon_id(raw, where: str) -> BeaconId:
    """A hex string, or a BeaconId already read: dataclasses.replace passes one back."""
    return raw if isinstance(raw, BeaconId) else BeaconId(_hex(raw, where))


def _position(raw, where: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise SchemaError(f"{where} must be [x, y], got {raw!r}")
    return (_number(raw[0], where), _number(raw[1], where))


def _positions(raw, where: str) -> tuple[tuple[float, float], ...]:
    return tuple(_position(p, where) for p in _list(raw, where))


def _build(cls, where: str, **fields):
    """cls(**fields), its InvalidInput raised again as a ValidationError at where."""
    try:
        return cls(**fields)
    except InvalidInput as exc:
        raise ValidationError(f"{where}: {exc}") from exc


_BEACON_READERS = {
    "ref": _text, "x": _number, "y": _number, "tx_power_1m": _number, "adv_interval_ms": _number,
    "id_mode": _text, "id_hex": _beacon_id, "key_hex": _hex, "auth_protected": _flag,
}
_BEACON_REQUIRED = ("ref", "x", "y", "tx_power_1m", "adv_interval_ms")


def _parse_beacon(raw, where: str, id_width: int) -> tuple[BeaconConfig, bytes | None]:
    fields = _fields(raw, where, _BEACON_READERS, _BEACON_REQUIRED)
    mode = fields.pop("id_mode", "static").lower()
    beacon_id = fields.pop("id_hex", None)
    key = fields.pop("key_hex", None)
    if mode == "static":
        if beacon_id is None:
            raise SchemaError(f"{where}: missing required key 'id_hex'")
        if len(beacon_id) != id_width:
            raise ValidationError(
                f"{where}: id is {len(beacon_id)} bytes, deployment id width is {id_width}"
            )
        id_mode: IdMode = StaticId(beacon_id)
    elif mode == "ephemeral":
        if key is None:
            raise SchemaError(f"{where}: missing required key 'key_hex'")
        if len(key) < MIN_KEY_BYTES:
            raise ValidationError(f"{where}: ephemeral key must be at least {MIN_KEY_BYTES} bytes")
        id_mode = EphemeralId(key_ref=fields["ref"])
    else:
        raise SchemaError(f"{where}: unknown id_mode {mode!r}")
    return _build(BeaconConfig, where, id_mode=id_mode, **fields), key


_CONTENT_READERS = {"locator": _text, "label": _text, "id_hex": _beacon_id, "ref": _text}


def load_deployment(document) -> DeploymentMap:
    """Build a validated DeploymentMap from a config document (text or mapping).

    Unknown top-level keys are ignored so a full scenario document is accepted.
    Raises SchemaError for malformed input and ValidationError, naming the
    offending entity, for semantic problems.
    """
    doc = _parse_document(document)
    id_width = DEFAULT_ID_WIDTH
    if doc.get("id_width") is not None:
        id_width = _integer(doc["id_width"], "id_width")
    _build(_check_id_width, "deployment", width=id_width)

    raw_beacons = _list(doc.get("beacons"), "beacons")
    if not raw_beacons:
        raise SchemaError("document needs a non-empty 'beacons' list")

    beacons: list[BeaconConfig] = []
    owner_keys: dict[str, bytes] = {}
    seen_refs: set[str] = set()
    seen_ids: dict[BeaconId, str] = {}
    for i, entry in enumerate(raw_beacons):
        config, key = _parse_beacon(entry, f"beacons[{i}]", id_width)
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

    content_map: dict[BeaconId, ContentRef] = {}  # static IDs, until each beacon has its ref
    content_by_ref: dict[str, ContentRef] = {}
    for i, entry in enumerate(_list(doc.get("content"), "content")):
        where = f"content[{i}]"
        fields = _fields(entry, where, _CONTENT_READERS, ("locator",))
        cid = fields.pop("id_hex", None)
        ref = fields.pop("ref", None)
        if (cid is None) == (ref is None):
            raise SchemaError(f"{where}: needs one of 'id_hex' or 'ref'")
        content = _build(ContentRef, where, **fields)
        if cid is not None:
            if cid in content_map:
                raise ValidationError(f"duplicate content entry for id {cid.hex()}")
            content_map[cid] = content
        else:
            if ref not in seen_refs:
                raise ValidationError(f"content entry references unknown beacon {ref!r}")
            if ref in content_by_ref:
                raise ValidationError(f"duplicate content entry for beacon {ref!r}")
            content_by_ref[ref] = content

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
        content_by_ref=content_by_ref,
        adjacency={b.ref: frozenset() for b in beacons},
        owner_keys=owner_keys,
        id_width=id_width,
    )

    radius = doc.get("adjacency_radius_m")
    edges = _list(doc.get("adjacency"), "adjacency")
    if radius is not None and edges:
        raise SchemaError("give either 'adjacency' or 'adjacency_radius_m', not both")
    if radius is not None:
        return adjacency_from_positions(deployment, _number(radius, "adjacency_radius_m"))
    built: dict[str, set[str]] = {b.ref: set() for b in beacons}
    for pair in edges:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"adjacency entry {pair!r} is not a pair")
        a, b = (_text(end, "adjacency") for end in pair)
        for end in (a, b):
            if end not in seen_refs:
                raise ValidationError(
                    f"adjacency edge ({a}, {b}) references unknown beacon {end!r}"
                )
        if a == b:
            raise ValidationError(f"adjacency edge ({a}, {b}) is a self-loop")
        built[a].add(b)
        built[b].add(a)
    return replace(deployment, adjacency={ref: frozenset(nbrs) for ref, nbrs in built.items()})
