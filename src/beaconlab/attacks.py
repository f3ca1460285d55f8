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
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from .errors import CapabilityError, InvalidInput, UnknownRef
from .model import BeaconId, EphemeralId, StaticId
from .model import _beacon_id, _integer, _number, _position, _positions
from .threatmatrix import default_matrix

if TYPE_CHECKING:
    from .scenario import Scenario
    from .sim import RunResult

LUNCH_TIME = "lunch_time"  # one harvest pass, then the recording goes stale
PERVASIVE = "pervasive"  # continuous eavesdropping for the whole run

ATTACK_KINDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")

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

_ALLOWED_PARAMS = {
    "A1": set(),
    "A2": {"source_beacon", "fake_position", "interval_ms", "emitter_tx_power_1m"},
    "A3": {
        "target_beacon",
        "claimed_tx_power",
        "flood_interval_ms",
        "emitter_tx_power_1m",
        "emitter_position",
    },
    "A4": {"target_beacon", "new_id_hex"},
    "A5": {"action", "beacons", "beacon"},
    "A6": {"target_device"},
    "A7": {"target_tag", "surveillance_positions", "presence_gap_s"},
    "A8": {"n_ids", "interval_ms", "position", "claimed_tx_power"},
}

_MATRIX = default_matrix()


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
    kind: str
    sniff_mode: str = LUNCH_TIME
    attacker_positions: tuple[tuple[float, float], ...] = ()
    harvest_window_s: Optional[float] = None
    max_range: Optional[float] = None  # attacker antenna reach; None = radio default
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise InvalidInput(f"unknown attack kind {self.kind!r}")
        if self.sniff_mode not in (LUNCH_TIME, PERVASIVE):
            raise InvalidInput(f"unknown sniff mode {self.sniff_mode!r}")
        unknown = set(self.params) - _ALLOWED_PARAMS[self.kind]
        if unknown:
            raise InvalidInput(f"{self.kind} profile has unknown params: {sorted(unknown)}")


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


class AttackerObservation(NamedTuple):
    time: float
    receiver_ref: str
    receiver_pos: tuple[float, float]
    id: BeaconId
    rssi: float
    claimed_tx_power: float


@dataclass(frozen=True)
class HarvestEntry:
    position_estimate: tuple[float, float]
    first_seen: float
    last_seen: float
    claimed_tx_power: float
    mean_rssi: float


@dataclass(frozen=True)
class HarvestedDb:
    entries: Mapping[BeaconId, HarvestEntry]

    def __contains__(self, beacon_id: BeaconId) -> bool:
        return beacon_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def harvest(
    observations: Iterable[AttackerObservation],
    sniff_mode: str,
    harvest_window_s: float,
) -> HarvestedDb:
    """Condense sniffer observations into the adversary's ID database.

    Lunch-time mode only keeps frames from [0, harvest_window). The position
    estimate for an ID is the recording receiver with the strongest mean RSSI.
    """
    if sniff_mode not in (LUNCH_TIME, PERVASIVE):
        raise InvalidInput(f"unknown sniff mode {sniff_mode!r}")
    acc: dict[BeaconId, dict] = {}
    for obs in observations:
        if sniff_mode == LUNCH_TIME and obs.time >= harvest_window_s:
            continue
        slot = acc.get(obs.id)
        if slot is None:
            slot = acc[obs.id] = {
                "first": obs.time,
                "last": obs.time,
                "claimed": obs.claimed_tx_power,
                "rx": {},
            }
        slot["first"] = min(slot["first"], obs.time)
        if obs.time >= slot["last"]:
            slot["last"] = obs.time
            slot["claimed"] = obs.claimed_tx_power
        total, count, pos = slot["rx"].get(obs.receiver_ref, (0.0, 0, obs.receiver_pos))
        slot["rx"][obs.receiver_ref] = (total + obs.rssi, count + 1, obs.receiver_pos)
    entries = {}
    for bid, slot in acc.items():
        best_ref = max(
            slot["rx"], key=lambda ref: (slot["rx"][ref][0] / slot["rx"][ref][1], ref)
        )
        total, count, pos = slot["rx"][best_ref]
        entries[bid] = HarvestEntry(
            position_estimate=pos,
            first_seen=slot["first"],
            last_seen=slot["last"],
            claimed_tx_power=slot["claimed"],
            mean_rssi=total / count,
        )
    return HarvestedDb(entries=entries)


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


def _need(profile: AttackProfile, key: str):
    value = profile.params.get(key)
    if value is None:
        raise InvalidInput(f"{profile.kind} profile requires param {key!r}")
    return value


def _param(profile: AttackProfile, key: str, default):
    """A numeric param, or default when the profile does not give it."""
    value = profile.params.get(key)
    return default if value is None else _number(value, f"{profile.kind} {key}")


def _beacon_or_raise(scenario: "Scenario", ref: str, kind: str):
    try:
        return scenario.deployment.beacon(str(ref))
    except KeyError:
        raise UnknownRef(f"{kind}: no beacon named {ref!r}") from None


def _install(scenario: "Scenario", profile: AttackProfile, index: int) -> "Scenario":
    _gate(scenario, profile)
    kind = profile.kind
    params = profile.params
    injected = list(scenario.injected)
    receivers = list(scenario.extra_receivers)
    uploads = list(scenario.upload_targets)
    deployment = scenario.deployment

    def add_receivers(positions, role="harvest"):
        for j, pos in enumerate(positions):
            receivers.append(
                AttackerReceiver(
                    ref=f"atk{index}.rx{j}",
                    profile_index=index,
                    x=pos[0],
                    y=pos[1],
                    role=role,
                    max_range=profile.max_range,
                )
            )

    if kind == "A1":
        positions = profile.attacker_positions or tuple(
            b.position for b in deployment.beacons
        )
        add_receivers(positions)

    elif kind == "A2":
        source = _beacon_or_raise(scenario, _need(profile, "source_beacon"), kind)
        fake_pos = _position(_need(profile, "fake_position"), "A2 fake_position")
        add_receivers(profile.attacker_positions or (source.position,))
        injected.append(
            InjectedEmitter(
                ref=f"atk{index}.fake",
                profile_index=index,
                mode="fake",
                x=fake_pos[0],
                y=fake_pos[1],
                tx_power_1m=_param(profile, "emitter_tx_power_1m", source.tx_power_1m),
                interval_ms=_param(profile, "interval_ms", source.adv_interval_ms),
                claimed_tx_power=None,
                source_ref=source.ref,
            )
        )

    elif kind == "A3":
        target = _beacon_or_raise(scenario, _need(profile, "target_beacon"), kind)
        claimed = _param(profile, "claimed_tx_power", target.tx_power_1m + SILENCE_TX_BOOST_DB)
        flood = _param(
            profile, "flood_interval_ms", target.adv_interval_ms / SILENCE_FLOOD_DIVISOR
        )
        if flood <= 0:
            raise InvalidInput("A3: flood_interval_ms must be positive")
        tx = _param(profile, "emitter_tx_power_1m", target.tx_power_1m - SILENCE_PHYS_DROP_DB)
        pos = params.get("emitter_position")
        pos = _position(pos, "A3 emitter_position") if pos is not None else target.position
        add_receivers(profile.attacker_positions or (target.position,))
        injected.append(
            InjectedEmitter(
                ref=f"atk{index}.flood",
                profile_index=index,
                mode="flood",
                x=pos[0],
                y=pos[1],
                tx_power_1m=tx,
                interval_ms=flood,
                claimed_tx_power=claimed,
                source_ref=target.ref,
            )
        )

    elif kind == "A4":
        target = _beacon_or_raise(scenario, _need(profile, "target_beacon"), kind)
        if target.auth_protected:
            raise CapabilityError(
                ["C4"],
                f"A4: beacon {target.ref!r} requires authenticated re-programming (C4)",
            )
        new_id = _beacon_id(_need(profile, "new_id_hex"), "A4 new_id_hex")
        if len(new_id) != deployment.id_width:
            raise InvalidInput(
                f"A4: new id is {len(new_id)} bytes, deployment width is {deployment.id_width}"
            )
        beacons = tuple(
            replace(b, id_mode=StaticId(new_id)) if b.ref == target.ref else b
            for b in deployment.beacons
        )
        deployment = replace(deployment, beacons=beacons)

    elif kind == "A5":
        action = str(_need(profile, "action")).lower()
        if action == "swap":
            pair = _need(profile, "beacons")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidInput("A5 swap: 'beacons' must name exactly two beacons")
            first = _beacon_or_raise(scenario, pair[0], kind)
            second = _beacon_or_raise(scenario, pair[1], kind)
            if first.ref == second.ref:
                raise InvalidInput("A5 swap: the two beacons must differ")
            beacons = []
            for b in deployment.beacons:
                if b.ref == first.ref:
                    beacons.append(replace(b, x=second.x, y=second.y))
                elif b.ref == second.ref:
                    beacons.append(replace(b, x=first.x, y=first.y))
                else:
                    beacons.append(b)
            deployment = replace(deployment, beacons=tuple(beacons))
        elif action == "remove":
            target = _beacon_or_raise(scenario, _need(profile, "beacon"), kind)
            beacons = tuple(b for b in deployment.beacons if b.ref != target.ref)
            deployment = replace(deployment, beacons=beacons)
        else:
            raise InvalidInput(f"A5: unknown action {action!r} (swap or remove)")

    elif kind == "A6":
        ref = str(_need(profile, "target_device"))
        try:
            device = scenario.device(ref)
        except KeyError:
            raise UnknownRef(f"A6: no device named {ref!r}") from None
        if not device.has_malicious_authorized_app():
            raise CapabilityError(
                ["C7"],
                f"A6: device {ref!r} has no authorized malicious app installed (C7)",
            )
        uploads.append((index, ref))

    elif kind == "A7":
        ref = str(_need(profile, "target_tag"))
        if all(t.ref != ref for t in scenario.tags):
            raise UnknownRef(f"A7: no tag named {ref!r}")
        positions = _positions(_need(profile, "surveillance_positions"), "A7 positions")
        if not positions:
            raise InvalidInput("A7: surveillance_positions must be a non-empty list")
        add_receivers(positions, role="surveillance")

    elif kind == "A8":
        n_ids = _integer(_need(profile, "n_ids"), "A8 n_ids")
        if n_ids < 1:
            raise InvalidInput("A8: n_ids must be at least 1")
        interval = _param(profile, "interval_ms", 100.0)
        if interval <= 0:
            raise InvalidInput("A8: interval_ms must be positive")
        pos = params.get("position")
        if pos is not None:
            pos = _position(pos, "A8 position")
        elif scenario.devices:
            pos = scenario.devices[0].path[0][1]
        else:
            pos = (0.0, 0.0)
        injected.append(
            InjectedEmitter(
                ref=f"atk{index}.drain",
                profile_index=index,
                mode="drain",
                x=pos[0],
                y=pos[1],
                tx_power_1m=-59.0,
                interval_ms=interval,
                claimed_tx_power=_param(profile, "claimed_tx_power", None),
                n_ids=n_ids,
            )
        )

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


def apply_attack(scenario: "Scenario", profile: AttackProfile) -> "Scenario":
    """Append a profile and install its artifacts. Pure: the input is untouched."""
    prepared = install_pending(scenario)
    index = len(prepared.attacks)
    prepared = replace(prepared, attacks=prepared.attacks + (profile,))
    return _install(prepared, profile, index)


# ---------------------------------------------------------------------------
# effect metrics


def delivery_correctness(result: "RunResult") -> tuple[Optional[float], int]:
    """Fraction of deliveries matching the pre-attack ground truth."""
    delivered = [w for w in result.window_records if w.outcome == "delivered"]
    if not delivered:
        return None, 0
    good = sum(1 for w in delivered if w.correct)
    return good / len(delivered), len(delivered)


def _device_map(result: "RunResult"):
    return {d.ref: d for d in result.scenario.devices}


def _profile_harvest_window(result: "RunResult", profile: AttackProfile) -> float:
    if profile.harvest_window_s is not None:
        return profile.harvest_window_s
    return result.scenario.ephemeral.slot_duration_s


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


def _beacon_id_db(result: "RunResult", profile: AttackProfile) -> dict[BeaconId, str]:
    """The adversary's ID-to-beacon knowledge for profiling-style attacks."""
    reference = result.scenario.reference
    eph = result.scenario.ephemeral
    if profile.sniff_mode == PERVASIVE:
        last = eph.slot_of(result.duration)
        slots = range(0, last + 1)
    else:
        hw = _profile_harvest_window(result, profile)
        slots = range(0, eph.slot_of(max(hw - 1e-9, 0.0)) + 1)
    table: dict[BeaconId, str] = {}
    for beacon in reference.beacons:
        if isinstance(beacon.id_mode, StaticId):
            table[beacon.id_mode.id] = beacon.ref
        elif isinstance(beacon.id_mode, EphemeralId):
            key = reference.owner_keys[beacon.ref]
            for slot in slots:
                table[result.schedule.id_at(key, slot)] = beacon.ref
    return table


def _nearest_beacon(reference, pos) -> Optional[str]:
    best = None
    best_d = math.inf
    for beacon in reference.beacons:
        d = math.dist(pos, beacon.position)
        if d < best_d:
            best_d = d
            best = beacon.ref
    return best


def attack_metrics(result: "RunResult", profile_index: int) -> dict:
    """Kind-specific effect metrics for one installed profile."""
    profile = result.scenario.attacks[profile_index]
    kind = profile.kind
    reference = result.scenario.reference
    metrics: dict = {"kind": kind, "sniff_mode": profile.sniff_mode}

    if kind == "A1":
        db = harvest(
            result.attacker_obs.get(profile_index, []),
            profile.sniff_mode,
            _profile_harvest_window(result, profile),
        )
        covered = 0
        live = 0
        eph = result.scenario.ephemeral
        live_slots = eph.window(eph.slot_of(result.duration))
        for beacon in reference.beacons:
            seen = result.broadcast_ids.get(beacon.ref, set())
            if any(BeaconId(raw) in db for raw in seen):
                covered += 1
            if isinstance(beacon.id_mode, StaticId):
                if beacon.id_mode.id in db:
                    live += 1
            else:
                key = reference.owner_keys[beacon.ref]
                if any(result.schedule.id_at(key, s) in db for s in live_slots):
                    live += 1
        n = len(reference.beacons)
        metrics["coverage"] = covered / n if n else 0.0
        metrics["live_coverage"] = live / n if n else 0.0
        metrics["n_harvested"] = len(db)
        metrics["rival_content"] = {
            bid.hex(): f"rival://{bid.hex()[:8]}" for bid in db.entries
        }

    elif kind == "A2":
        devices = _device_map(result)
        fake_pos = _position(profile.params["fake_position"], "A2 fake_position")
        delivered = [w for w in result.window_records if w.outcome == "delivered"]
        wrong = [w for w in delivered if not w.correct]
        metrics["n_deliveries"] = len(delivered)
        metrics["wrong_content_rate"] = len(wrong) / len(delivered) if delivered else 0.0
        near_fake = [
            w
            for w in delivered
            if math.dist(devices[w.device_ref].position_at(w.t_end), fake_pos)
            <= devices[w.device_ref].proximity_threshold_m
        ]
        wrong_near = [w for w in near_fake if not w.correct]
        metrics["n_deliveries_near_fake"] = len(near_fake)
        metrics["wrong_content_rate_near_fake"] = (
            len(wrong_near) / len(near_fake) if near_fake else 0.0
        )

    elif kind == "A3":
        devices = _device_map(result)
        target_ref = str(profile.params["target_beacon"])
        target_pos = reference.beacon(target_ref).position
        expected = 0
        missed = 0
        for w in result.window_records:
            if target_ref not in w.emitters:
                continue
            device = devices[w.device_ref]
            if math.dist(device.position_at(w.t_end), target_pos) > device.proximity_threshold_m:
                continue
            expected += 1
            if not w.near:
                missed += 1
        metrics["expected_triggers"] = expected
        metrics["suppression_rate"] = missed / expected if expected else 0.0

    elif kind in ("A4", "A5"):
        if kind == "A4":
            affected = [str(profile.params["target_beacon"])]
        else:
            action = str(profile.params["action"]).lower()
            if action == "swap":
                affected = [str(r) for r in profile.params["beacons"]]
            else:
                affected = [str(profile.params["beacon"])]
        positions = [reference.beacon(ref).position for ref in affected]
        served_keys = {
            (w.device_ref, w.t_end)
            for w in result.window_records
            if w.outcome in ("delivered", "debounced")
        }
        relevant = 0
        served = 0
        for device in result.scenario.devices:
            window = device.scan_window_s
            k = 1
            while k * window <= result.duration:
                t_end = k * window
                pos = device.position_at(t_end)
                if any(math.dist(pos, p) <= device.proximity_threshold_m for p in positions):
                    relevant += 1
                    if (device.ref, t_end) in served_keys:
                        served += 1
                k += 1
        metrics["relevant_windows"] = relevant
        metrics["unavailability"] = 1.0 - served / relevant if relevant else 0.0
        rate, n = delivery_correctness(result)
        metrics["wrong_content_rate"] = 1.0 - rate if rate is not None else 0.0
        metrics["n_deliveries"] = n

    elif kind == "A6":
        devices = _device_map(result)
        target = devices[str(profile.params["target_device"])]
        table = _beacon_id_db(result, profile)
        uploads = result.upload_logs.get(profile_index, [])
        hits = 0
        for t, id_hex in uploads:
            ref = table.get(BeaconId(bytes.fromhex(id_hex)))
            if ref is None:
                continue
            nearest = _nearest_beacon(reference, target.position_at(t))
            if nearest is None:
                continue
            if ref == nearest or ref in reference.neighbors(nearest):
                hits += 1
        metrics["n_uploads"] = len(uploads)
        metrics["localization_fraction"] = hits / len(uploads) if uploads else 0.0

    elif kind == "A7":
        detections = result.detections.get(profile_index, [])
        gap = _param(profile, "presence_gap_s", 30.0)
        times = [t for t, _, _ in detections]
        metrics["detection_count"] = len(detections)
        metrics["presence_intervals"] = _merge_intervals(times, gap)

    elif kind == "A8":
        records = result.budget_records
        if records:
            metrics["mean_budget_utilization"] = sum(r.utilization for r in records) / len(records)
        else:
            metrics["mean_budget_utilization"] = 0.0
        metrics["n_ids"] = int(profile.params["n_ids"])

    return metrics
