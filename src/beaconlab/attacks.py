"""Attack profiles: declarative adversary behaviour plus effect metrics.

Eight attack kinds, A1 through A8, matching the threat matrix. A profile
describes what the adversary does; installing it onto a scenario is pure and
either mutates the world up front (re-programming, reshuffling) or injects
emitters and receivers the event loop will drive (replay, flooding, draining,
surveillance). Installation is gated by the matrix's required capabilities:
the matrix is the single source of truth for what each attack needs.

Replayed frames are bit-identical to harvested ones; nothing in a frame lets
a receiver tell the clone from the original.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional

from .errors import CapabilityError, InvalidInput, SchemaError, UnknownRef, ValidationError
from .model import BeaconId, StaticId
from .model import _beacon_id, _check_tx_power, _integer, _list, _number, _position, _positions
from .model import _text
from .radio import BROADCAST, OUTCOME_DEBOUNCED, OUTCOME_DELIVERED
from .threatmatrix import default_matrix

if TYPE_CHECKING:
    from .ephemeral import EphemeralParams
    from .scenario import Scenario
    from .sim import RunResult

LUNCH_TIME = "lunch_time"  # one harvest pass, then the recording goes stale
PERVASIVE = "pervasive"  # continuous eavesdropping for the whole run

_KIND_ALIASES = {
    "a1": "A1", "piggyback": "A1", "piggybacking": "A1",
    "a2": "A2", "spoof": "A2", "spoofing": "A2",
    "a3": "A3", "silence": "A3", "silencing": "A3",
    "a4": "A4", "reprogram": "A4", "reprogramming": "A4", "re_programming": "A4",
    "a5": "A5", "reshuffle": "A5", "reshuffling": "A5", "cracking": "A5",
    "a6": "A6", "profiling": "A6", "user_profiling": "A6",
    "a7": "A7", "presence": "A7", "presence_inference": "A7",
    "a8": "A8", "drain": "A8", "draining": "A8", "resource_draining": "A8",
}

SILENCE_TX_BOOST_DB = 14.0  # default claimed power above the target's
SILENCE_PHYS_DROP_DB = 20.0  # default physical power below the target's
SILENCE_FLOOD_DIVISOR = 10.0  # default flood interval = adv_interval / 10

_MATRIX = default_matrix()


# ---------------------------------------------------------------------------
# params
#
# Each param is read once, when the profile is made, by reader(raw, where):
# the reader returns the typed value, raises SchemaError for a wrong type and
# InvalidInput for a value outside its range. What needs the scenario (which
# beacon, device or tag a name means, the capability gates, A4's ID width)
# is checked at install.


def _checked(read, holds, rule: str):
    """A reader: read, then raise InvalidInput unless holds(value), as rule says."""
    def reader(raw, where: str):
        value = read(raw, where)
        if not holds(value):
            raise InvalidInput(f"{where} {rule}, got {value!r}")
        return value
    return reader


_positive = _checked(_number, lambda v: v > 0, "must be positive")
_non_negative = _checked(_number, lambda v: v >= 0, "cannot be negative")
_count = _checked(_integer, lambda v: v >= 1, "must be at least 1")
_some_positions = _checked(_positions, bool, "must be a non-empty list")
# a frame's claimed power at 1 m is one signed byte
_claimed_power = _checked(_number, lambda v: -128 <= v <= 127, "must lie in [-128, 127] dBm")
_action = _checked(
    lambda raw, where: _text(raw, where).lower(), lambda v: v in ("swap", "remove"),
    "must be swap or remove",
)


def _tx_power(raw, where: str) -> float:
    value = _number(raw, where)
    _check_tx_power(where, value)
    return value


def _two_refs(raw, where: str) -> tuple[str, str]:
    refs = tuple(_text(ref, where) for ref in _list(raw, where))
    if len(refs) != 2:
        raise SchemaError(f"{where} must name exactly two beacons, got {raw!r}")
    if refs[0] == refs[1]:
        raise InvalidInput(f"{where}: the two beacons must differ")
    return refs


_REQUIRED = object()  # the default of a param the profile must give


class KindSpec(NamedTuple):
    """One attack kind: the metric metrics.csv reports for it, and its params.

    params maps each name to (reader, default). A default of None stands for
    a value worked out at install from the scenario, as noted beside it.
    """

    headline: str
    params: Mapping[str, tuple[Callable, object]]


KINDS = {
    "A1": KindSpec("live_coverage", {}),
    "A2": KindSpec("wrong_content_rate_near_fake", {
        "source_beacon": (_text, _REQUIRED), "fake_position": (_position, _REQUIRED),
        # the source beacon's own
        "interval_ms": (_positive, None), "emitter_tx_power_1m": (_tx_power, None),
    }),
    "A3": KindSpec("suppression_rate", {
        "target_beacon": (_text, _REQUIRED),
        # worked out from the target beacon with the SILENCE_* constants
        "claimed_tx_power": (_claimed_power, None), "flood_interval_ms": (_positive, None),
        "emitter_tx_power_1m": (_tx_power, None),
        "emitter_position": (_position, None),  # the target's position
    }),
    "A4": KindSpec("unavailability", {
        "target_beacon": (_text, _REQUIRED), "new_id_hex": (_beacon_id, _REQUIRED),
    }),
    # swap needs beacons, remove needs beacon
    "A5": KindSpec("unavailability", {
        "action": (_action, _REQUIRED), "beacons": (_two_refs, None), "beacon": (_text, None),
    }),
    "A6": KindSpec("localization_fraction", {"target_device": (_text, _REQUIRED)}),
    "A7": KindSpec("detection_count", {
        "target_tag": (_text, _REQUIRED), "surveillance_positions": (_some_positions, _REQUIRED),
        "presence_gap_s": (_non_negative, 30.0),
    }),
    "A8": KindSpec("mean_budget_utilization", {
        "n_ids": (_count, _REQUIRED), "interval_ms": (_positive, 100.0),
        "position": (_position, None),  # the first device's first waypoint, else the origin
        "claimed_tx_power": (_claimed_power, None),  # the drain's physical power
    }),
}


def normalize_kind(kind: str) -> str:
    text = kind.strip().lower().replace("-", "_").replace(" ", "_")
    return _KIND_ALIASES.get(text, kind.strip().upper())


def normalize_sniff_mode(mode: str) -> str:
    text = mode.strip().lower().replace("-", "_")
    return LUNCH_TIME if text in ("lunchtime", "lunch") else text


def required_capabilities(kind: str) -> frozenset[str]:
    entry = _MATRIX.attacks.get(kind)
    if entry is None:
        raise UnknownRef(f"unknown attack kind {kind!r}")
    return entry.required_caps


@dataclass(frozen=True)
class AttackProfile:
    """One attack, with every param of its kind read once into params.

    A param the profile is not given holds its default from KINDS.
    """

    kind: str
    sniff_mode: str = LUNCH_TIME
    attacker_positions: tuple[tuple[float, float], ...] = ()
    harvest_window_s: Optional[float] = None
    max_range: Optional[float] = None  # attacker antenna reach; None = radio default
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = KINDS.get(self.kind)
        if spec is None:
            raise InvalidInput(f"unknown attack kind {self.kind!r}")
        if self.sniff_mode not in (LUNCH_TIME, PERVASIVE):
            raise InvalidInput(f"unknown sniff mode {self.sniff_mode!r}")
        unknown = set(self.params) - set(spec.params)
        if unknown:
            raise InvalidInput(f"{self.kind} profile has unknown params: {sorted(unknown)}")
        typed = {}
        for key, (read, default) in spec.params.items():
            raw = self.params.get(key)
            if raw is None and default is _REQUIRED:
                raise InvalidInput(f"{self.kind} profile requires param {key!r}")
            typed[key] = default if raw is None else read(raw, f"{self.kind} {key}")
        if self.kind == "A5":
            needed = "beacons" if typed["action"] == "swap" else "beacon"
            if typed[needed] is None:
                raise InvalidInput(f"A5 {typed['action']} requires param {needed!r}")
        object.__setattr__(self, "params", typed)


def harvest_window(profile: AttackProfile, eph: "EphemeralParams") -> float:
    """When a lunch-time harvest ends: the profile's window, else one ID slot."""
    if profile.harvest_window_s is not None:
        return profile.harvest_window_s
    return eph.slot_duration_s


@dataclass(frozen=True)
class InjectedEmitter:
    """An adversarial transmitter driven by the event loop."""

    ref: str
    profile_index: int
    mode: str  # fake | flood | drain
    x: float
    y: float
    tx_power_1m: float
    interval_ms: float
    claimed_tx_power: Optional[float] = None  # None: replay the harvested claim
    source_ref: Optional[str] = None  # beacon whose identity gets replayed
    n_ids: int = 0  # drain mode: size of the synthetic id pool


@dataclass(frozen=True)
class AttackerReceiver:
    """An adversarial sniffer; contributes observations, never content lookups."""

    ref: str
    profile_index: int
    x: float
    y: float
    role: str  # harvest | surveillance
    max_range: Optional[float] = None
    target: Optional[BeaconId] = None  # surveillance: the watched tag's fixed ID; None if keyed


def drain_id(profile_index: int, i: int, id_width: int) -> BeaconId:
    """Deterministic synthetic identity for the resource-draining pool."""
    digest = hashlib.sha256(f"beaconlab.drain.{profile_index}.{i}".encode()).digest()
    return BeaconId(digest[:id_width])


# ---------------------------------------------------------------------------
# installation


def _gate(scenario: "Scenario", profile: AttackProfile) -> None:
    missing = required_capabilities(profile.kind) - scenario.attacker_caps
    if missing:
        raise CapabilityError(
            missing, f"{profile.kind} needs capabilities the scenario's attacker "
            f"lacks: {', '.join(sorted(missing))}"
        )


def _named(kind: str, what: str, items, ref: str):
    for item in items:
        if item.ref == ref:
            return item
    raise UnknownRef(f"{kind}: no {what} named {ref!r}")


def _given(value, default):
    return default if value is None else value


def _rewired(deployment, changes: Mapping[str, dict]):
    """deployment, each beacon named in changes replaced by a copy with those fields."""
    beacons = tuple(
        replace(b, **changes[b.ref]) if b.ref in changes else b for b in deployment.beacons
    )
    return replace(deployment, beacons=beacons)


def _install(scenario: "Scenario", profile: AttackProfile, index: int) -> "Scenario":
    _gate(scenario, profile)
    kind = profile.kind
    params = profile.params
    injected = list(scenario.injected)
    receivers = list(scenario.extra_receivers)
    uploads = list(scenario.upload_targets)
    deployment = scenario.deployment

    def beacon(ref):
        return _named(kind, "beacon", scenario.deployment.beacons, ref)

    def add_receivers(positions, role="harvest", target=None):
        # a run tells its receivers apart by ref: a device's trace is the
        # Receive rows whose receiver is the device
        for j, (x, y) in enumerate(positions):
            ref = f"atk{index}.rx{j}"
            if any(d.ref == ref for d in scenario.devices):
                raise ValidationError(f"{kind}: sniffer {ref!r} has the ref of a device")
            receivers.append(AttackerReceiver(ref, index, x, y, role, profile.max_range, target))

    if kind == "A1":
        add_receivers(profile.attacker_positions or tuple(b.position for b in deployment.beacons))

    elif kind == "A2":
        source = beacon(params["source_beacon"])
        add_receivers(profile.attacker_positions or (source.position,))
        x, y = params["fake_position"]
        injected.append(InjectedEmitter(
            f"atk{index}.fake", index, "fake", x, y,
            tx_power_1m=_given(params["emitter_tx_power_1m"], source.tx_power_1m),
            interval_ms=_given(params["interval_ms"], source.adv_interval_ms),
            source_ref=source.ref,
        ))

    elif kind == "A3":
        target = beacon(params["target_beacon"])
        add_receivers(profile.attacker_positions or (target.position,))
        x, y = _given(params["emitter_position"], target.position)
        tx, interval = target.tx_power_1m, target.adv_interval_ms
        injected.append(InjectedEmitter(
            f"atk{index}.flood", index, "flood", x, y,
            tx_power_1m=_given(params["emitter_tx_power_1m"], tx - SILENCE_PHYS_DROP_DB),
            interval_ms=_given(params["flood_interval_ms"], interval / SILENCE_FLOOD_DIVISOR),
            claimed_tx_power=_given(params["claimed_tx_power"], tx + SILENCE_TX_BOOST_DB),
            source_ref=target.ref,
        ))

    elif kind == "A4":
        target = beacon(params["target_beacon"])
        if target.auth_protected:
            raise CapabilityError(
                ["C4"],
                f"A4: beacon {target.ref!r} requires authenticated re-programming (C4)",
            )
        new_id = params["new_id_hex"]
        if len(new_id) != deployment.id_width:
            raise InvalidInput(
                f"A4: new id is {len(new_id)} bytes, deployment width is {deployment.id_width}"
            )
        deployment = _rewired(deployment, {target.ref: {"id_mode": StaticId(new_id)}})

    elif kind == "A5" and params["action"] == "swap":
        first, second = (beacon(ref) for ref in params["beacons"])
        deployment = _rewired(deployment, {
            first.ref: {"x": second.x, "y": second.y}, second.ref: {"x": first.x, "y": first.y},
        })

    elif kind == "A5":
        target = beacon(params["beacon"])
        beacons = tuple(b for b in deployment.beacons if b.ref != target.ref)
        deployment = replace(deployment, beacons=beacons)

    elif kind == "A6":
        device = _named(kind, "device", scenario.devices, params["target_device"])
        if not device.has_malicious_authorized_app():
            raise CapabilityError(
                ["C7"],
                f"A6: device {device.ref!r} has no authorized malicious app installed (C7)",
            )
        uploads.append((index, device.ref))

    elif kind == "A7":
        tag = _named(kind, "tag", scenario.tags, params["target_tag"])
        add_receivers(params["surveillance_positions"], "surveillance", tag.static_id)

    elif kind == "A8":
        first_stop = scenario.devices[0].path[0][1] if scenario.devices else (0.0, 0.0)
        x, y = _given(params["position"], first_stop)
        injected.append(InjectedEmitter(
            f"atk{index}.drain", index, "drain", x, y, tx_power_1m=-59.0,
            interval_ms=params["interval_ms"], claimed_tx_power=params["claimed_tx_power"],
            n_ids=params["n_ids"],
        ))

    reference = scenario.reference_deployment
    if reference is None and deployment is not scenario.deployment:
        reference = scenario.deployment
    return replace(
        scenario,
        deployment=deployment,
        injected=tuple(injected),
        extra_receivers=tuple(receivers),
        upload_targets=tuple(uploads),
        installed_count=index + 1,
        reference_deployment=reference,
    )


def install_pending(scenario: "Scenario") -> "Scenario":
    """Materialize every declared-but-uninstalled profile, in declaration order."""
    out = scenario
    for index in range(scenario.installed_count, len(scenario.attacks)):
        out = _install(out, out.attacks[index], index)
    return out


# ---------------------------------------------------------------------------
# effect metrics


def delivery_correctness(result: "RunResult") -> tuple[Optional[float], int]:
    """Fraction of deliveries matching the pre-attack ground truth."""
    delivered = [w for w in result.window_records if w.outcome == OUTCOME_DELIVERED]
    if not delivered:
        return None, 0
    good = sum(1 for w in delivered if w.correct)
    return good / len(delivered), len(delivered)


def _merge_intervals(times: list[float], gap: float) -> list[tuple[float, float]]:
    if not times:
        return []
    times = sorted(times)
    merged = [[times[0], times[0]]]
    for t in times[1:]:
        if t - merged[-1][1] <= gap:
            merged[-1][1] = t
        else:
            merged.append([t, t])
    return [(a, b) for a, b in merged]


def attack_metrics(result: "RunResult", profile_index: int) -> dict:
    """Kind-specific effect metrics for one installed profile."""
    profile = result.scenario.attacks[profile_index]
    kind = profile.kind
    reference = result.scenario.reference
    devices = {d.ref: d for d in result.scenario.devices}
    metrics: dict = {"kind": kind, "sniff_mode": profile.sniff_mode}

    if kind == "A1":
        # every ID the profile's sniffers learned, from whichever emitter
        learned = {raw for ids in result.knowledge.get(profile_index, {}).values() for raw in ids}
        # a beacon is covered once the sniffers learned any ID it broadcast
        learned_hex = {raw.hex() for raw in learned}
        log = result.events
        sent_learned = {values[1] for row_kind, values in zip(log.kinds, log.values)
                        if row_kind == BROADCAST and values[3] in learned_hex}
        covered = 0
        live = 0
        eph = result.scenario.ephemeral
        live_slots = eph.window(eph.slot_of(result.duration))
        for beacon in reference.beacons:
            covered += beacon.ref in sent_learned
            if isinstance(beacon.id_mode, StaticId):
                if beacon.id_mode.id.data in learned:
                    live += 1
            else:
                key = reference.owner_keys[beacon.ref]
                if any(result.schedule.id_at(key, s).data in learned for s in live_slots):
                    live += 1
        n = len(reference.beacons)
        metrics["coverage"] = covered / n if n else 0.0
        metrics["live_coverage"] = live / n if n else 0.0
        metrics["n_harvested"] = len(learned)
        metrics["rival_content"] = {
            raw.hex(): f"rival://{raw.hex()[:8]}" for raw in sorted(learned)
        }

    elif kind == "A2":
        fake_pos = profile.params["fake_position"]
        delivered = [w for w in result.window_records if w.outcome == OUTCOME_DELIVERED]
        wrong = [w for w in delivered if not w.correct]
        metrics["n_deliveries"] = len(delivered)
        metrics["wrong_content_rate"] = len(wrong) / len(delivered) if delivered else 0.0
        near_fake = [
            w for w in delivered if devices[w.device_ref].within_threshold(fake_pos, w.t_end)
        ]
        wrong_near = [w for w in near_fake if not w.correct]
        metrics["n_deliveries_near_fake"] = len(near_fake)
        metrics["wrong_content_rate_near_fake"] = (
            len(wrong_near) / len(near_fake) if near_fake else 0.0
        )

    elif kind == "A3":
        target_ref = profile.params["target_beacon"]
        target_pos = reference.beacon(target_ref).position
        expected = 0
        missed = 0
        for w in result.window_records:
            if target_ref not in w.emitters:
                continue
            if not devices[w.device_ref].within_threshold(target_pos, w.t_end):
                continue
            expected += 1
            if not w.near:
                missed += 1
        metrics["expected_triggers"] = expected
        metrics["suppression_rate"] = missed / expected if expected else 0.0

    elif kind in ("A4", "A5"):
        params = profile.params
        if kind == "A4":
            affected = [params["target_beacon"]]
        elif params["action"] == "swap":
            affected = params["beacons"]
        else:
            affected = [params["beacon"]]
        positions = [reference.beacon(ref).position for ref in affected]
        relevant = 0
        served = 0
        for w in result.window_records:
            device = devices[w.device_ref]
            if any(device.within_threshold(p, w.t_end) for p in positions):
                relevant += 1
                served += w.outcome in (OUTCOME_DELIVERED, OUTCOME_DEBOUNCED)
        metrics["relevant_windows"] = relevant
        metrics["unavailability"] = 1.0 - served / relevant if relevant else 0.0
        rate, n = delivery_correctness(result)
        metrics["wrong_content_rate"] = 1.0 - rate if rate is not None else 0.0
        metrics["n_deliveries"] = n

    elif kind == "A6":
        target = devices[profile.params["target_device"]]
        eph = result.scenario.ephemeral
        if profile.sniff_mode == PERVASIVE:
            end = result.duration
        else:  # no frame is sent after the run ends, however long the window
            end = max(min(harvest_window(profile, eph), result.duration) - 1e-9, 0.0)
        # the resolver's rule over what the adversary sniffed: a static ID
        # first, then an owner ID the run derived in a slot up to the end
        static = {bid.data: ref for bid, ref in reference.static_ids().items()}
        slots = range(0, eph.slot_of(end) + 1)
        uploads = result.upload_logs.get(profile_index, [])
        hits = 0
        for t, raw in uploads:
            ref = static.get(raw) or result.schedule.owner(BeaconId(raw), slots)
            if ref is None:
                continue
            pos = target.position_at(t)
            nearest = min(reference.beacons, key=lambda b: math.dist(pos, b.position)).ref
            if ref == nearest or ref in reference.neighbors(nearest):
                hits += 1
        metrics["n_uploads"] = len(uploads)
        metrics["localization_fraction"] = hits / len(uploads) if uploads else 0.0

    elif kind == "A7":
        detections = result.detections.get(profile_index, [])
        gap = profile.params["presence_gap_s"]
        times = [t for t, _, _ in detections]
        metrics["detection_count"] = len(detections)
        metrics["presence_intervals"] = _merge_intervals(times, gap)

    elif kind == "A8":
        shares = []  # of the lookup budget, in each window that heard an ID
        for w in result.window_records:
            if w.n_ids:
                budget = devices[w.device_ref].lookup_budget
                shares.append(min(w.n_ids, budget) / budget)
        metrics["mean_budget_utilization"] = sum(shares) / len(shares) if shares else 0.0
        metrics["n_ids"] = profile.params["n_ids"]

    return metrics
