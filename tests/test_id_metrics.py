"""A1's and A6's metrics against a brute-force oracle.

The oracle is the slow, obvious rule: a beacon's IDs are what the Broadcast
events of the log say it sent, and the adversary's ID table maps every ID of
every rotating beacon for each slot 0..c, derived afresh through
`ephemeral_id`, where c is the slot of the harvest's end. The metrics read
the run's `IdSchedule` and event log instead; at the default 20-byte width
no two IDs collide, so the two must agree on every drawn run.
"""

import math

from hypothesis import given, settings, strategies as st

from beaconlab import StaticId, attack_metrics, load_scenario, run
from beaconlab.attacks import PERVASIVE, harvest_window
from beaconlab.ephemeral import ephemeral_id
from beaconlab.radio import BROADCAST
from test_sim import small_docs


def oracle_a1(result, profile_index: int) -> tuple[float, float]:
    """(coverage, live_coverage): a beacon is covered when the sniffers
    learned an ID it broadcast, and live when they learned its ID of a slot
    in the acceptance window of the run's last slot."""
    learned = {raw for ids in result.knowledge.get(profile_index, {}).values() for raw in ids}
    sent: dict[str, set[bytes]] = {}
    for e in result.events:
        if e.kind == BROADCAST:
            sent.setdefault(e.data["emitter"], set()).add(bytes.fromhex(e.data["id"]))
    reference = result.scenario.reference
    eph = result.scenario.ephemeral
    covered = live = 0
    for b in reference.beacons:
        covered += not learned.isdisjoint(sent.get(b.ref, ()))
        if isinstance(b.id_mode, StaticId):
            live_ids = {b.id_mode.id.data}
        else:
            key = reference.owner_keys[b.ref]
            live_ids = {ephemeral_id(key, s, reference.id_width).data
                        for s in eph.window(eph.slot_of(result.duration))}
        live += not learned.isdisjoint(live_ids)
    n = len(reference.beacons)
    return covered / n, live / n


def oracle_a6(result, profile_index: int) -> float:
    """localization_fraction: the share of uploads whose ID the table maps to
    the beacon nearest the target, or to one of its neighbours."""
    profile = result.scenario.attacks[profile_index]
    reference = result.scenario.reference
    eph = result.scenario.ephemeral
    if profile.sniff_mode == PERVASIVE:
        end = result.duration
    else:
        end = max(min(harvest_window(profile, eph), result.duration) - 1e-9, 0.0)
    table: dict[bytes, str] = {}
    for b in reference.beacons:
        if isinstance(b.id_mode, StaticId):
            table[b.id_mode.id.data] = b.ref
        else:
            key = reference.owner_keys[b.ref]
            for slot in range(0, eph.slot_of(end) + 1):
                table[ephemeral_id(key, slot, reference.id_width).data] = b.ref
    target = next(d for d in result.scenario.devices if d.ref == profile.params["target_device"])
    uploads = result.upload_logs.get(profile_index, [])
    hits = 0
    for t, raw in uploads:
        ref = table.get(raw)
        if ref is None:
            continue
        pos = target.position_at(t)
        nearest = min(reference.beacons, key=lambda b: math.dist(pos, b.position)).ref
        hits += ref == nearest or ref in reference.neighbors(nearest)
    return hits / len(uploads) if uploads else 0.0


@st.composite
def profiling_docs(draw):
    """`small_docs` plus A1 and A6, and a malicious app on p0 for A6."""
    doc = draw(small_docs())
    doc["devices"][0]["apps"] = [{"ref": "spy", "authorized": True, "malicious": True}]
    modes = st.sampled_from(["lunch_time", "pervasive"])
    a1 = {"kind": "A1", "sniff_mode": draw(modes)}
    if draw(st.booleans()):
        a1["attacker_positions"] = [[30.0, 1.0]]  # beside A2's fake, when there is one
    a6 = {"kind": "A6", "sniff_mode": draw(modes), "target_device": "p0"}
    return {**doc, "attacks": [*doc["attacks"], a1, a6]}


@settings(max_examples=60, deadline=None)
@given(profiling_docs())
def test_a1_and_a6_equal_the_brute_force_oracle(doc):
    result = run(load_scenario(doc))
    a1, a6 = len(doc["attacks"]) - 2, len(doc["attacks"]) - 1
    m1 = attack_metrics(result, a1)
    assert (m1["coverage"], m1["live_coverage"]) == oracle_a1(result, a1)
    assert attack_metrics(result, a6)["localization_fraction"] == oracle_a6(result, a6)
