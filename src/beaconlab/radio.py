"""Radio propagation primitives and the simulation event record.

Signal strength follows a log-distance path loss model with optional Gaussian
shadowing; distances below one meter clamp to the one-meter reference so the
inverse stays defined. Shadowing draws are keyed counter-mode hashes of
(seed, emitter, frame, receiver), which makes every draw independent of event
interleaving: adding or removing an actor never perturbs anyone else's noise.

A keyed draw hashes, with SHA-256, a frame key and then a link key:

    frame_key(seed, frame) = seed and frame (or counter), each a big-endian
                             signed 64-bit int: 16 bytes
    link_key(a, b)         = a.encode() + b"\0" + b.encode()

A shadowing draw's link is (emitter ref, receiver ref); a `uniform_draw`'s
is (purpose, ref). The loop builds each link's key once per run and each
frame's key once per frame.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from itertools import count, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InvalidInput

_TWO_PI = 2.0 * math.pi
_U64 = float(2**64)

# The largest path_loss_exponent and noise_sigma. At any finite distance the
# mean loss is at most about 3,083 * exponent dB and a shadowing draw at most
# about 9.42 * sigma, so under this bound every RSSI is a finite float.
MAX_RADIO_SCALE = 1e300


@dataclass(frozen=True)
class RadioParams:
    path_loss_exponent: float = 2.0
    noise_sigma: float = 2.0  # dB shadowing standard deviation
    max_range: float = 50.0  # meters; no reception beyond this
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.path_loss_exponent <= MAX_RADIO_SCALE:
            raise InvalidInput(f"path_loss_exponent must be in (0, {MAX_RADIO_SCALE:g}]")
        if not 0 <= self.noise_sigma <= MAX_RADIO_SCALE:
            raise InvalidInput(f"noise_sigma must be in [0, {MAX_RADIO_SCALE:g}]")
        if self.max_range <= 0:
            raise InvalidInput("max_range must be positive")
        if not -(1 << 63) <= self.seed < 1 << 63:  # a frame key packs it in 64 bits
            raise InvalidInput(f"seed must be in [-2**63, 2**63 - 1], got {self.seed!r}")


def mean_rssi(tx_power_1m: float, distance: float, path_loss_exponent: float) -> float:
    """Expected RSSI at distance meters; the sub-meter region clamps to 1 m."""
    if distance <= 0:
        raise InvalidInput(f"distance must be positive, got {distance}")
    return tx_power_1m - 10.0 * path_loss_exponent * math.log10(max(distance, 1.0))


def estimate_distance(claimed_tx_power: float, rssi: float, path_loss_exponent: float) -> float:
    """Invert the path loss model using the transmit power the frame claims."""
    if path_loss_exponent <= 0:
        raise InvalidInput("path_loss_exponent must be positive")
    return 10.0 ** ((claimed_tx_power - rssi) / (10.0 * path_loss_exponent))


_FRAME_KEY = struct.Struct(">qq")
_WORDS = struct.Struct(">QQ")


def frame_key(seed: int, frame: int) -> bytes:
    """The part of a keyed draw's input that names the seed and the frame."""
    return _FRAME_KEY.pack(seed, frame)


def link_key(first: str, second: str) -> bytes:
    """The part of a keyed draw's input that names the link: two refs."""
    return first.encode() + b"\x00" + second.encode()


def _keyed_words(frame: bytes, link: bytes) -> tuple[int, int]:
    """Two uniform 64-bit words from SHA-256 of a frame key and a link key."""
    return _WORDS.unpack_from(hashlib.sha256(frame + link).digest())


def shadowing_db(frame: bytes, link: bytes, sigma: float) -> float:
    """Deterministic per-link shadowing draw, N(0, sigma) via Box-Muller, for
    the frame key `frame_key(seed, frame)` and the link key
    `link_key(emitter ref, receiver ref)`."""
    if sigma == 0:
        return 0.0
    w1, w2 = _keyed_words(frame, link)
    u1 = (w1 + 1) / (_U64 + 2)
    u2 = w2 / _U64
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def uniform_draw(seed: int, purpose: str, ref: str, counter: int) -> float:
    """Deterministic U[0,1) draw keyed by purpose, independent of event order."""
    return _keyed_words(frame_key(seed, counter), link_key(purpose, ref))[0] / _U64


# ---------------------------------------------------------------------------
# event record

BROADCAST = "Broadcast"
RECEIVE = "Receive"
CONTENT_DELIVERED = "ContentDelivered"
NO_ACTION = "NoAction"
JAMMED = "Jammed"
FLAGGED = "Flagged"

# Each kind's data fields, in sorted order: an event keeps its values in this
# order, and its JSON line lists them in it. A field whose value is None is
# absent from the line (a NoAction for an empty window names no beacon).
EVENT_FIELDS = {
    BROADCAST: ("claimed_tx", "emitter", "frame", "id"),
    RECEIVE: ("claimed_tx", "emitter", "id", "receiver", "rssi"),
    CONTENT_DELIVERED: ("beacon", "content", "correct", "device"),
    NO_ACTION: ("beacon", "device", "reason"),
    JAMMED: ("blocked", "frame", "tag"),
    FLAGGED: ("device", "n_frames", "n_rejected", "reason"),
}
# The one field a line may leave out: an empty scan window names no beacon.
OPTIONAL_FIELDS = frozenset({(NO_ACTION, "beacon")})

# What each data field holds, by name; the same name holds the same type in
# every kind. A number is an int or a finite float, a count an int of at least
# 0; a bool is neither.
FIELD_TYPES = {
    "beacon": "str", "blocked": "list of str", "claimed_tx": "number", "content": "str",
    "correct": "bool", "device": "str", "emitter": "str", "frame": "count", "id": "str",
    "n_frames": "count", "n_rejected": "count", "reason": "str", "receiver": "str",
    "rssi": "number", "tag": "str",
}
_IS_TYPE = {
    "str": lambda v: type(v) is str,
    "bool": lambda v: type(v) is bool,
    "count": lambda v: type(v) is int and v >= 0,
    "number": lambda v: type(v) is int or type(v) is float and v - v == 0.0,
    "list of str": lambda v: type(v) is list and all(type(x) is str for x in v),
}


def _field_refusal(kind: str, name: str, value) -> Optional[str]:
    """Why `Event.from_json` refuses value in kind's field name, or None if
    value is a FIELD_TYPES[name]."""
    type_name = FIELD_TYPES[name]
    if _IS_TYPE[type_name](value):
        return None
    return f"{kind} {name} must be a {type_name}, got {value!r}"


# scan window outcomes, in rough order of how badly the user's day went
OUTCOME_DELIVERED = "delivered"
OUTCOME_DEBOUNCED = "debounced"
OUTCOME_FAR = "far"
OUTCOME_FLAGGED = "flagged"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_EMPTY = "empty"

# json.dumps(obj, sort_keys=True) builds a fresh encoder on every call; this
# one has exactly its options, so it renders the same bytes.
_dumps_sorted = json.JSONEncoder(sort_keys=True).encode

_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """`json.loads(line)`, without its per-call wrappers on the common path.

    A line that `raw_decode` rejects or does not consume whole (surrounding
    whitespace, a byte-order mark, extra data) goes through `json.loads`, so
    it parses or fails exactly as it would there; but a value nested too
    deeply fails as a JSONDecodeError, not json.loads' RecursionError.
    """
    try:
        try:
            value, end = _raw_decode(line)
        except ValueError:
            return json.loads(line)
        return value if end == len(line) else json.loads(line)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", line, 0) from None


# ---------------------------------------------------------------------------
# line rendering: templates, the one value renderer and its column form

_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def render_value(value) -> str:
    """The text `json.dumps(value, sort_keys=True)` writes for value.

    A str, a finite float and an int skip the encoder. Types are matched
    exactly, so a bool (an int subclass), None, NaN, the infinities and every
    other value go through it.
    """
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is float:
        if value - value == 0.0:  # finite
            return _float_repr(value)
    elif cls is int:
        return _int_repr(value)
    return _dumps_sorted(value)


def render_column(column: Sequence, field_type: str) -> Optional[Iterator[str]]:
    """`render_value` of each value of column, in order, or None if some value
    is not a field_type (a type of FIELD_TYPES).

    One C-level pass reads the column's exact types. A column of str, of int
    (a bool is not one) or of floats that are all finite takes that type's
    renderer and is checked by its type, a count column by its minimum too;
    any other column goes through `render_value` and is checked value by value.
    """
    types = set(map(type, column))
    if types == {str}:
        return map(encode_basestring_ascii, column) if field_type == "str" else None
    if types == {float} and all(map(_isfinite, column)):
        return map(_float_repr, column) if field_type == "number" else None
    if types == {int}:
        if field_type == "number" or field_type == "count" and min(column) >= 0:
            return map(_int_repr, column)
        return None
    return map(render_value, column) if all(map(_IS_TYPE[field_type], column)) else None


def json_template(fields: tuple) -> str:
    """A %-template for a JSON object with these keys, which must be sorted.

    Filled with rendered values, it is the line `json.dumps(..., sort_keys=True)`
    writes for that object.
    """
    return "{" + ", ".join(f"{encode_basestring_ascii(name)}: %s" for name in fields) + "}"


def _event_template(kind: str, fields: tuple) -> str:
    # the line's own keys in sorted order: data, kind, seq, t
    return ('{"data": ' + json_template(fields)
            + f', "kind": {encode_basestring_ascii(kind)}, "seq": %s, "t": %s}}')


_EVENT_TEMPLATES = {kind: _event_template(kind, fields) for kind, fields in EVENT_FIELDS.items()}


def event_line(time, seq, kind: str, values: tuple) -> str:
    """One event's JSON line, without its newline; a None value's field is left out."""
    template = _EVENT_TEMPLATES.get(kind)
    if template is None or len(values) != len(EVENT_FIELDS[kind]):
        raise InvalidInput(f"no {kind!r} event template for {len(values)} values")
    if None in values:
        present = [(name, v) for name, v in zip(EVENT_FIELDS[kind], values) if v is not None]
        template = _event_template(kind, tuple(name for name, _ in present))
        values = tuple(v for _, v in present)
    return template % tuple(map(render_value, values + (seq, time)))


_LINE_KEYS = {"data", "kind", "seq", "t"}


class Event(NamedTuple):
    time: float
    seq: int
    kind: str
    values: tuple  # in the order of EVENT_FIELDS[kind]

    @property
    def data(self) -> dict:
        """The fields that hold a value, by name."""
        return {name: v for name, v in zip(EVENT_FIELDS[self.kind], self.values) if v is not None}

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse one line.

        A line that is not JSON raises ValueError. One that is not an event of
        a known kind, with a number `t`, a count `seq` and each of that kind's
        fields holding a value of its FIELD_TYPES type, raises InvalidInput.
        """
        raw = _decode_line(line)
        if not isinstance(raw, dict) or raw.keys() != _LINE_KEYS:
            raise InvalidInput("an event is an object with the keys data, kind, seq and t")
        time, seq, kind, data = raw["t"], raw["seq"], raw["kind"], raw["data"]
        fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise InvalidInput(f"unknown event kind {kind!r}")
        if not isinstance(data, dict):
            raise InvalidInput(f"{kind} data must be an object, got {data!r}")
        extra = sorted(data.keys() - fields)
        if extra:
            raise InvalidInput(f"{kind} has no field {extra[0]!r}")
        if not _IS_TYPE["number"](time):
            raise InvalidInput(f"t must be a finite number, got {time!r}")
        if not _IS_TYPE["count"](seq):
            raise InvalidInput(f"seq must be an int of at least 0, got {seq!r}")
        for name in fields:
            if name not in data:
                if (kind, name) not in OPTIONAL_FIELDS:
                    raise InvalidInput(f"{kind} is missing field {name!r}")
            else:
                refusal = _field_refusal(kind, name, data[name])
                if refusal is not None:
                    raise InvalidInput(refusal)
        return cls(time, seq, kind, tuple(map(data.get, fields)))


# Event(...) without the Python frame of the generated __new__
_new_event = tuple.__new__


class EventLog:
    """A run's events, in three parallel columns: `times`, `kinds` and
    `values` (each a tuple in the order of EVENT_FIELDS[kind]).

    An event's seq is its 0-based position, so it is not stored. Read the
    columns or iterate the log, which builds each Event as it goes. `append`
    checks each event's kind and count of values; the simulator's loop
    appends to the three columns itself and checks every row's kind and count
    once, after the loop (`sim._check_rows`).
    """

    __slots__ = ("times", "kinds", "values")

    def __init__(self) -> None:
        self.times: list = []
        self.kinds: list[str] = []
        self.values: list[tuple] = []

    def append(self, time: float, kind: str, *values) -> None:
        """Record an event, its values in the order of EVENT_FIELDS[kind]."""
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            raise InvalidInput(f"unknown event kind {kind!r}")
        if len(values) != len(fields):
            raise InvalidInput(f"a {kind} event has {len(fields)} values {fields}, got {len(values)}")
        self.times.append(time)
        self.kinds.append(kind)
        self.values.append(values)

    def __iter__(self) -> Iterator[Event]:
        rows = zip(self.times, count(), self.kinds, self.values)
        return map(_new_event, repeat(Event), rows)

    def __len__(self) -> int:
        return len(self.times)
