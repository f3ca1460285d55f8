"""Discrete-event simulation of a beacon deployment under attack.

The loop drives three emitter families (infrastructure beacons, personal
tags, injected adversarial transmitters) and two receiver families (user
devices, adversarial sniffers). Physics uses the effective deployment, which
an attack may have rewired; content lookup and ground truth always use the
owner's reference deployment, because re-programming a beacon does not edit
the owner's database.

Every random draw is a keyed hash of (seed, actor, frame), so runs are
reproducible byte for byte and adding an actor never shifts anyone else's
noise. Heap ties break on insertion order, which is itself deterministic.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .actors import UserDevice, mean_distance, proximity_decision
from .attacks import InjectedEmitter, LUNCH_TIME, delivery_correctness, drain_id, harvest_window
from .attacks import install_pending
from .ephemeral import IdSchedule, RotatingResolver
from .errors import InvalidInput, ValidationError
from .guardian import jam_succeeds
from .model import BeaconId, Observation, StaticId
from .radio import BROADCAST, CONTENT_DELIVERED, EVENT_FIELDS, FLAGGED, JAMMED, NO_ACTION, RECEIVE
from .radio import EventLog
from .radio import OUTCOME_BUDGET, OUTCOME_DEBOUNCED, OUTCOME_DELIVERED, OUTCOME_EMPTY
from .radio import OUTCOME_FAR, OUTCOME_FLAGGED, frame_key, link_key, mean_rssi, shadowing_db
from .scenario import Scenario

_EPS = 1e-9
_by_time = operator.attrgetter("time")
# Observation(...) and WindowRecord(...) without the Python frame of the
# generated __new__: the loop passes every field, defaults included
_new_tuple = tuple.__new__

# The most events a run may log, at about 190 bytes an event some 1.9 GB: a
# run whose bound is above it is refused before its loop. The largest run in
# the tests and the benchmark, AC-2's 7,200 s replay, is bounded at 145,220.
MAX_EVENTS = 10_000_000


class WindowRecord(NamedTuple):
    """One device scan window: what was heard and what the app did. The beacon
    it resolved and the content it delivered are in the window's event row."""

    device_ref: str
    t_end: float
    n_frames: int
    n_ids: int  # distinct IDs heard
    n_rejected: int
    emitters: frozenset[str]  # true frame origins, for analysis only
    near: bool
    outcome: str
    correct: bool = True


@dataclass
class RunResult:
    """A finished run. Its event log is the one record of each reception."""

    scenario: Scenario
    duration: float
    events: EventLog
    window_records: tuple[WindowRecord, ...]
    schedule: IdSchedule
    # profile index -> true emitter ref -> ID -> what the profile's harvest
    # sniffers learned of it: the adversary's one ID database
    knowledge: dict[int, dict[str, dict[bytes, _Knowledge]]] = field(default_factory=dict)
    upload_logs: dict[int, list[tuple[float, bytes]]] = field(default_factory=dict)
    detections: dict[int, list[tuple[float, str, float]]] = field(default_factory=dict)

    def summary(self) -> dict:
        rate, n_deliveries = delivery_correctness(self)
        outcomes = Counter(w.outcome for w in self.window_records)
        return {
            "duration_s": self.duration,
            "n_events": len(self.events),
            "n_windows": len(self.window_records),
            "outcomes": dict(sorted(outcomes.items())),
            "n_deliveries": n_deliveries,
            "correct_delivery_rate": rate,
        }


@dataclass
class _Emitter:
    """One transmitter, with what the loop works out for it before the run."""

    ref: str
    family: str  # beacon | tag | injected
    interval_s: float
    tx_power_1m: float
    obj: object
    position: Optional[tuple[float, float]]  # None: moves with the device carrying it
    fixed_id: Optional[tuple[BeaconId, str]] = None  # (id, id hex) when it never changes
    key: Optional[bytes] = None  # rotating-ID key
    frame: int = 0
    # (id, id hex) by pool index, for a drain
    ids: dict = field(default_factory=dict)
    # (role, ref, position, spot, reach, jam exempt, distance, mean rssi,
    # sink, link key), one per receiver that can hear it; see `run`
    links: list = field(default_factory=list)
    receptions: int | float = 0  # at most how many Receive events its links log


@dataclass
class _Knowledge:
    """What one attack profile's sniffers know about one true emitter's IDs."""

    last_seen: float
    rssi_sum: float
    n: int
    claimed: float


_EMIT, _WINDOW = 0, 1
_NO_EMITTERS: frozenset[str] = frozenset()
_PHONE = "phone"  # a receiver role beside the sniffers' harvest and surveillance


def _fixed_position(device: UserDevice) -> Optional[tuple[float, float]]:
    return device.path[0][1] if len(device.path) == 1 else None


def _position(spot: list, t: float) -> tuple[float, float]:
    """A walking phone's position at t, from its spot [time, position, device]:
    worked out again only when t is not the spot's time."""
    if spot[0] != t:
        spot[0] = t
        spot[1] = spot[2].position_at(t)
    return spot[1]


def _with_hex(bid: BeaconId) -> tuple[BeaconId, str]:
    return bid, bid.hex()


def _ticks(duration: float, step: float) -> int | float:
    """At most how many ticks fall at 0, step, 2 step, ... before duration:
    ⌈duration / step⌉ and one at least, or inf when that overflows a float."""
    try:
        return max(1, math.ceil(duration / step))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _at(end, t: float) -> tuple[float, float]:
    return end.position_at(t) if isinstance(end, UserDevice) else end


def _frames_in_reach(a, b, reach: float, step: float, frames: int | float,
                     duration: float) -> int | float:
    """At most how many of an emitter's frames, one every step s from 0, find
    the two ends a and b of a link within reach; an end is a point or a
    UserDevice. Between the waypoint times of either path the gap between the
    ends moves linearly, so each piece of time is one quadratic. The reach is
    widened by a part in a billion and each span by a frame at either end, so
    rounding never undercounts."""
    cuts = {t for end in (a, b) if isinstance(end, UserDevice)
            for t, _ in end.path if 0.0 < t < duration}
    times = sorted(cuts | {0.0, duration})
    gaps = []
    for t in times:
        (ax, ay), (bx, by) = _at(a, t), _at(b, t)
        gaps.append((ax - bx, ay - by))
    r2 = (reach * (1 + 1e-9) + 1e-9) ** 2
    count = 0
    last = -1  # the last frame counted: adjacent spans count a frame once
    for t0, t1, (x, y), (x1, y1) in zip(times, times[1:], gaps, gaps[1:]):
        dx, dy = x1 - x, y1 - y
        qa, qb, qc = dx * dx + dy * dy, 2.0 * (x * dx + y * dy), x * x + y * y - r2
        if qa == 0.0:
            if qc > 0.0:
                continue
            lo, hi = 0.0, 1.0
        else:
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0:
                continue
            root = math.sqrt(disc)
            lo, hi = max(0.0, (-qb - root) / (2.0 * qa)), min(1.0, (-qb + root) / (2.0 * qa))
            if lo > hi:
                continue
        if frames == math.inf:
            return math.inf
        first = max(last + 1, math.floor((t0 + lo * (t1 - t0)) / step))
        final = min(frames - 1, math.floor((t0 + hi * (t1 - t0)) / step) + 1)
        if final >= first:
            count += final - first + 1
            last = final
    return count


def _check_event_bound(emitters: list[_Emitter], devices, duration: float,
                       jammed_tag) -> int | float:
    """At most how many events the run logs; above MAX_EVENTS a
    ValidationError, raised before the loop starts. Each frame logs a
    Broadcast and, from the jammed tag, one Jammed; each frame a link can hear
    one Receive (`_Emitter.receptions`); each scan window one event. The
    error names what makes the most ticks."""
    total = 0
    most, culprit = -1, ""
    for em in emitters:
        frames = _ticks(duration, em.interval_s)
        total += frames * (1 + (em.ref == jammed_tag and em.family == "tag")) + em.receptions
        if frames > most:
            most, culprit = frames, (f"emitter {em.ref!r} broadcasts up to {frames:,} frames, "
                                     f"one every {em.interval_s!r} s")
    for device in devices:
        windows = _ticks(duration + _EPS, device.scan_window_s)
        total += windows
        if windows > most:
            most, culprit = windows, (f"device {device.ref!r} scans up to {windows:,} windows "
                                      f"of {device.scan_window_s!r} s")
    if total > MAX_EVENTS:
        raise ValidationError(f"the run could log up to {total:,} events, more than the "
                              f"limit of {MAX_EVENTS:,}: {culprit}")
    return total


def _check_rows(log: EventLog) -> None:
    """Raise InvalidInput naming the kind if a row of log has a kind
    EVENT_FIELDS does not know, or a count of values other than that kind's
    fields: what `EventLog.append` checks per event, in one pass."""
    for kind, n in sorted(set(zip(log.kinds, map(len, log.values)))):
        fields = EVENT_FIELDS.get(kind)
        if fields is None:
            raise InvalidInput(f"the run logged an event of unknown kind {kind!r}")
        if n != len(fields):
            raise InvalidInput(f"the run logged a {kind} event of {n} values; "
                               f"a {kind} event has {len(fields)} values {fields}")


def run(scenario: Scenario) -> RunResult:
    """Simulate the scenario for its configured duration.

    Raises ValidationError, before the loop, when the run could log more than
    MAX_EVENTS events (see `_check_event_bound`). The loop appends its rows to
    the log's columns itself, not through `EventLog.append`, and one pass after
    it checks them (see `_check_rows`): a row whose kind is unknown or whose
    values do not match that kind's fields raises InvalidInput naming the kind.
    With TV off, an owner ID resolves once the run has broadcast it.
    """
    scenario = install_pending(scenario)
    reference = scenario.reference
    effective = scenario.deployment
    radio = scenario.radio
    eph = scenario.ephemeral
    duration = scenario.duration_s
    id_width = reference.id_width
    schedule = IdSchedule(reference.owner_keys, eph)
    resolver = RotatingResolver(reference.static_ids(), schedule, tv="TV" in scenario.defences)

    devices = scenario.devices
    device_by_ref = {d.ref: d for d in devices}

    guardian = scenario.guardian if "SJ" in scenario.defences else None
    protected_tag = guardian.protected_tag if guardian is not None else None

    profiles = scenario.attacks
    lunch_cutoff = {
        i: harvest_window(profile, eph)
        for i, profile in enumerate(profiles)
        if profile.sniff_mode == LUNCH_TIME
    }

    emitters: list[_Emitter] = []
    for b in effective.beacons:
        em = _Emitter(b.ref, "beacon", b.adv_interval_ms / 1000.0, b.tx_power_1m, b, b.position)
        if isinstance(b.id_mode, StaticId):
            em.fixed_id = _with_hex(b.id_mode.id)
        else:
            em.key = reference.owner_keys[b.ref]
        emitters.append(em)
    for t in scenario.tags:
        em = _Emitter(t.ref, "tag", t.adv_interval_ms / 1000.0, t.tx_power_1m, t,
                      _fixed_position(device_by_ref[t.carried_by]), key=t.key)
        if t.static_id is not None:
            em.fixed_id = _with_hex(t.static_id)
        emitters.append(em)
    for inj in scenario.injected:
        emitters.append(_Emitter(inj.ref, "injected", inj.interval_ms / 1000.0, inj.tx_power_1m,
                                 inj, (inj.x, inj.y)))

    # a row is (time, kind, values in radio.EVENT_FIELDS[kind] order), one
    # append to each column; `_check_rows` checks them after the loop
    log = EventLog()
    time_append, kind_append, values_append = (
        log.times.append, log.kinds.append, log.values.append)
    buffers: dict[str, list[tuple[Observation, str]]] = {d.ref: [] for d in devices}
    window_records: list[WindowRecord] = []
    upload_logs: dict[int, list[tuple[float, bytes]]] = {}
    detections: dict[int, list[tuple[float, str, float]]] = {
        i: [] for i, profile in enumerate(profiles) if profile.kind == "A7"
    }
    knowledge: dict[int, dict[str, dict[bytes, _Knowledge]]] = {}
    # (profile index, true emitter ref) -> (the newest slot the profile's
    # sniffers heard it in, the IDs last seen in that slot): a replayer's pick
    newest: dict[tuple[int, str], tuple[int, set[bytes]]] = {}
    # one frozenset per distinct set of true emitters, shared by the window
    # records that heard it: a 1,800 s replay run has 6 in 12,000 windows
    emitter_sets: dict[frozenset, frozenset] = {}
    delivered_at: dict[tuple[str, str], float] = {}
    upload_for: dict[str, list[int]] = {}
    for idx, ref in scenario.upload_targets:
        upload_for.setdefault(ref, []).append(idx)
        upload_logs.setdefault(idx, [])
    # ground truth: where the owner serves each content locator from
    served_from: dict[str, list[tuple[float, float]]] = {}
    for b in reference.beacons:
        content = reference.content_by_ref.get(b.ref)
        if content is not None:
            served_from.setdefault(content.locator, []).append(b.position)

    max_range = radio.max_range
    exponent = radio.path_loss_exponent
    seed = radio.seed
    sigma = radio.noise_sigma

    # Every receiver as (role, ref, position, device, reach, jam exempt, sink):
    # the phones first, then the sniffers in install order, which fixes the
    # event order. The position is None for a phone that moves. Only a phone
    # the guardian authorized is exempt from its jamming. The sink is where a
    # reception goes: its window buffer for a phone, (target ID, detections)
    # for a surveillance sniffer, (lunch-time cutoff, profile index) for a
    # harvest sniffer. The log's Receive row is a phone's one lasting record.
    receivers = [
        (_PHONE, d.ref, _fixed_position(d), d, max_range,
         guardian is not None and d.ref in guardian.authorized, buffers[d.ref])
        for d in devices
    ]
    for rx in scenario.extra_receivers:
        i = rx.profile_index
        if rx.role == "surveillance":
            sink = (rx.target, detections[i])
        else:
            sink = (lunch_cutoff.get(i), i)
        reach = rx.max_range if rx.max_range is not None else max_range
        receivers.append((rx.role, rx.ref, (rx.x, rx.y), None, reach, False, sink))

    # Each walking phone's spot, [time, position, device]: the position at the
    # time the loop last asked for it. An emitter's frame k falls at k times
    # its interval from 0, so beacons and tags broadcast at shared instants,
    # and every link of those frames that ends at the phone reads one position.
    spots = {d.ref: [-1.0, None, d] for d in devices if _fixed_position(d) is None}

    # A link whose two ends both stand still keeps one distance for the whole
    # run: work it out once, and drop the pairs that are out of range. Any
    # other link works its distance and mean rssi out per frame, and is
    # dropped when its two ends never come within reach. Each emitter counts
    # the receptions its links can make, for the run's event bound. Each link
    # keeps the key of its shadowing draws.
    for em in emitters:
        frames = _ticks(duration, em.interval_s)
        em_end = em.position if em.position is not None else device_by_ref[em.obj.carried_by]
        for role, ref, rx_pos, device, reach, exempt, sink in receivers:
            if role == _PHONE and em.family == "tag" and em.obj.carried_by == ref:
                continue  # a phone ignores its own paired accessory
            d = rssi = None
            if em.position is not None and rx_pos is not None:
                d = math.dist(em.position, rx_pos)
                if d > reach:
                    continue
                rssi = mean_rssi(em.tx_power_1m, max(d, 1.0), exponent)
                heard = frames
            else:
                heard = _frames_in_reach(em_end, device if rx_pos is None else rx_pos, reach,
                                         em.interval_s, frames, duration)
                if not heard:
                    continue
            em.receptions += heard
            spot = spots[ref] if rx_pos is None else None
            em.links.append((role, ref, rx_pos, spot, reach, exempt, d, rssi, sink,
                             link_key(em.ref, ref)))
    _check_event_bound(emitters, devices, duration, protected_tag)

    id_and_hex = schedule.id_and_hex
    slot_of = eph.slot_of

    def injected_frame(em: _Emitter):
        """An injected emitter's (id, id hex, claimed_tx) for this tick, or
        None when it stays silent."""
        inj: InjectedEmitter = em.obj
        if inj.mode == "drain":
            index = em.frame % inj.n_ids
            cached = em.ids.get(index)
            if cached is None:
                cached = em.ids[index] = _with_hex(drain_id(inj.profile_index, index, id_width))
            claimed = inj.claimed_tx_power if inj.claimed_tx_power is not None else inj.tx_power_1m
            return cached[0], cached[1], claimed
        top = newest.get((inj.profile_index, inj.source_ref))
        if top is None:
            return None  # nothing harvested yet: the replayer stays quiet
        known = knowledge[inj.profile_index][inj.source_ref]
        # the newest slot's IDs are the ones whose key leads in its first part
        raw = max(
            top[1],
            key=lambda k: (slot_of(known[k].last_seen), known[k].rssi_sum / known[k].n, k.hex()),
        )
        entry = known[raw]
        claimed = inj.claimed_tx_power if inj.claimed_tx_power is not None else entry.claimed
        return BeaconId(raw), raw.hex(), claimed

    def broadcast(t: float, em: _Emitter) -> None:
        tx = em.tx_power_1m
        pos = em.position
        if em.family == "injected":
            frame = injected_frame(em)
            if frame is None:
                return
            bid, id_hex, claimed = frame
        else:
            key = em.key
            if key is None:
                bid, id_hex = em.fixed_id
            else:
                bid, id_hex = id_and_hex(key, slot_of(t))
            if pos is None:
                pos = _position(spots[em.obj.carried_by], t)
            claimed = tx
        em_ref = em.ref
        n = em.frame
        time_append(t)
        kind_append(BROADCAST)
        values_append((claimed, em_ref, n, id_hex))

        jammed = False
        if em_ref == protected_tag and em.family == "tag":
            jammed = jam_succeeds(seed, guardian, n)
        blocked: list[str] = []
        noise_key = frame_key(seed, n)

        for role, ref, rx_pos, spot, reach, exempt, d, rssi, sink, link in em.links:
            if d is None:
                if spot is not None:  # `_position`, inlined
                    if spot[0] != t:
                        spot[0] = t
                        spot[1] = spot[2].position_at(t)
                    rx_pos = spot[1]
                d = math.dist(pos, rx_pos)
                if d > reach:
                    continue
            if jammed and d <= guardian.jam_radius_m and not exempt:
                blocked.append(ref)
                continue
            if rssi is None:
                rssi = mean_rssi(tx, max(d, 1.0), exponent)
            rssi += shadowing_db(noise_key, link, sigma)
            time_append(t)
            kind_append(RECEIVE)
            values_append((claimed, em_ref, id_hex, ref, rssi))
            if role == _PHONE:
                sink.append((_new_tuple(Observation, (t, bid, rssi, claimed)), em_ref))
            elif role == "surveillance":
                target, found = sink
                if target is not None and bid == target:
                    found.append((t, ref, rssi))
            else:
                cutoff, i = sink
                if cutoff is not None and t >= cutoff:
                    continue
                store = knowledge.setdefault(i, {}).setdefault(em_ref, {})
                entry = store.get(bid.data)
                if entry is None:
                    store[bid.data] = _Knowledge(t, rssi, 1, claimed)
                else:
                    entry.rssi_sum += rssi
                    entry.n += 1
                    if t < entry.last_seen:
                        continue
                    entry.last_seen = t
                    entry.claimed = claimed
                slot = slot_of(t)
                top = newest.get((i, em_ref))
                if top is None or slot > top[0]:
                    newest[i, em_ref] = (slot, {bid.data})
                elif slot == top[0]:
                    top[1].add(bid.data)

        if jammed:
            time_append(t)
            kind_append(JAMMED)
            values_append((sorted(blocked), n, em_ref))

    def process_window(t_end: float, device: UserDevice) -> tuple[tuple, str, tuple]:
        """The window's WindowRecord fields, all 9, and its event's kind and values."""
        dev = device.ref
        # the buffer is time-ordered: the window is the prefix before t_end
        buffer = buffers[dev]
        cutoff = t_end - _EPS
        n_frames = len(buffer)
        while n_frames and buffer[n_frames - 1][0].time >= cutoff:
            n_frames -= 1
        if not n_frames:
            return ((dev, t_end, 0, 0, 0, _NO_EMITTERS, False, OUTCOME_EMPTY, True),
                    NO_ACTION, (None, dev, OUTCOME_EMPTY))
        window = buffer[:n_frames]
        del buffer[:n_frames]

        true_emitters = frozenset([src for _, src in window])
        true_emitters = emitter_sets.setdefault(true_emitters, true_emitters)
        by_id: dict[bytes, list[Observation]] = {}  # in order of first hearing
        for obs, _ in window:
            frames = by_id.get(obs.id.data)
            if frames is None:
                by_id[obs.id.data] = [obs]
            else:
                frames.append(obs)
        n_ids = len(by_id)
        budget = device.lookup_budget
        for idx in upload_for.get(dev, ()):
            upload_logs[idx].extend((t_end, raw) for raw in by_id)

        groups: dict[str, list[Observation]] = {}
        n_rejected = 0
        for frames in itertools.islice(by_id.values(), budget):
            ref = resolver.resolve(frames[0].id, t_end)
            if ref is None:
                n_rejected += len(frames)
            else:
                groups.setdefault(ref, []).extend(frames)
        heard = (dev, t_end, n_frames, n_ids, n_rejected, true_emitters)

        if not groups:
            outcome = OUTCOME_BUDGET if n_ids > budget else OUTCOME_FLAGGED
            return (*heard, False, outcome, True), FLAGGED, (dev, n_frames, n_rejected, outcome)

        if len(groups) == 1:
            ref, frames = next(iter(groups.items()))
        else:
            ref = min(groups, key=lambda r: (mean_distance(groups[r], exponent), r))
            frames = groups[ref]
        if n_ids > 1:  # frames of one ID are already in time order
            frames.sort(key=_by_time)
        near = proximity_decision(frames, device.proximity_threshold_m, exponent)
        if not near:
            return (*heard, False, OUTCOME_FAR, True), NO_ACTION, (ref, dev, OUTCOME_FAR)

        content = reference.content_by_ref.get(ref)
        if content is None:
            return ((*heard, True, OUTCOME_FLAGGED, True),
                    FLAGGED, (dev, n_frames, n_rejected, "no_content"))

        last = delivered_at.get((dev, content.locator))
        if last is not None and device.content_retrigger_s > 0 and \
                t_end - last < device.content_retrigger_s - _EPS:
            return (*heard, True, OUTCOME_DEBOUNCED, True), NO_ACTION, (ref, dev, OUTCOME_DEBOUNCED)

        correct = any(device.within_threshold(p, t_end)
                      for p in served_from.get(content.locator, ()))
        delivered_at[(dev, content.locator)] = t_end
        return ((*heard, True, OUTCOME_DELIVERED, correct),
                CONTENT_DELIVERED, (ref, content.locator, correct, dev))

    # Heap entries are (time, push order, kind, emitter or device index, window
    # number); the push order breaks time ties deterministically.
    order = itertools.count()
    heap: list = [(0.0, next(order), _EMIT, i, 0) for i in range(len(emitters))]
    for i, device in enumerate(devices):
        if device.scan_window_s <= duration + _EPS:
            heap.append((device.scan_window_s, next(order), _WINDOW, i, 1))
    heapq.heapify(heap)

    # The loop makes no reference cycles, but it keeps every event and window
    # record it makes, and each full pass of the cyclic collector
    # walks all of them again: on the AC-2 replay study that was a third of the
    # run. Pause the collector for the loop and put it back as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        while heap:
            t, _, kind, i, k = heapq.heappop(heap)
            if kind == _EMIT:
                em = emitters[i]
                broadcast(t, em)
                em.frame += 1
                nxt = em.frame * em.interval_s
                if nxt < duration - _EPS:
                    heapq.heappush(heap, (nxt, next(order), _EMIT, i, 0))
            else:
                device = devices[i]
                record, event_kind, values = process_window(t, device)
                window_records.append(_new_tuple(WindowRecord, record))
                time_append(t)
                kind_append(event_kind)
                values_append(values)
                nxt = (k + 1) * device.scan_window_s
                if nxt <= duration + _EPS:
                    heapq.heappush(heap, (nxt, next(order), _WINDOW, i, k + 1))
    finally:
        if collecting:
            gc.enable()
    _check_rows(log)
    return RunResult(
        scenario=scenario,
        duration=duration,
        events=log,
        window_records=tuple(window_records),
        schedule=schedule,
        knowledge=knowledge,
        upload_logs=upload_logs,
        detections=detections,
    )
