import pytest

from beaconlab import (
    AttackerObservation,
    AttackProfile,
    BeaconId,
    CapabilityError,
    InvalidInput,
    StaticId,
    UnknownRef,
    apply_attack,
    drain_id,
    harvest,
    install_pending,
    load_scenario,
    normalize_kind,
    required_capabilities,
)
from beaconlab.attacks import LUNCH_TIME, PERVASIVE
from conftest import AA, BB, CC, static_beacon


def doc(**overrides):
    base = {
        "beacons": [static_beacon("b1", 0, AA), static_beacon("b2", 20, BB)],
        "content": [
            {"id_hex": AA, "locator": "app://one"},
            {"id_hex": BB, "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
        "duration_s": 30.0,
        "radio": {"seed": 1, "noise_sigma": 0.0},
    }
    base.update(overrides)
    return base


def obs(t, rx, pos, id_hex=AA, rssi=-60.0, claimed=-59.0):
    return AttackerObservation(t, rx, pos, BeaconId(bytes.fromhex(id_hex)), rssi, claimed)


class TestKinds:
    def test_normalize_aliases(self):
        assert normalize_kind("spoofing") == "A2"
        assert normalize_kind("Re-Programming") == "A4"
        assert normalize_kind(" a8 ") == "A8"
        assert normalize_kind("presence inference") == "A7"
        assert normalize_kind("x9") == "X9"  # passthrough for the profile to reject

    def test_required_capabilities(self):
        assert required_capabilities("A1") == {"C1", "C2", "C7"}
        assert required_capabilities("A4") == {"C4"}
        assert required_capabilities("A8") == {"C3", "C6"}
        with pytest.raises(UnknownRef):
            required_capabilities("X9")

    def test_profile_validation(self):
        with pytest.raises(InvalidInput):
            AttackProfile(kind="X9")
        with pytest.raises(InvalidInput):
            AttackProfile(kind="A1", sniff_mode="sometimes")
        with pytest.raises(InvalidInput, match="unknown params"):
            AttackProfile(kind="A1", params={"target_beacon": "b1"})


class TestHarvest:
    def test_lunch_window_is_half_open(self):
        frames = [obs(0.0, "rx0", (0, 0)), obs(59.9, "rx0", (0, 0)), obs(60.0, "rx0", (0, 0))]
        db = harvest(frames, LUNCH_TIME, 60.0)
        entry = db.entries[BeaconId(bytes.fromhex(AA))]
        assert entry.first_seen == 0.0
        assert entry.last_seen == 59.9

    def test_pervasive_keeps_everything(self):
        frames = [obs(0.0, "rx0", (0, 0)), obs(500.0, "rx0", (0, 0))]
        db = harvest(frames, PERVASIVE, 60.0)
        assert db.entries[BeaconId(bytes.fromhex(AA))].last_seen == 500.0

    def test_position_estimate_prefers_strongest_receiver(self):
        frames = [
            obs(0.0, "rx0", (0.0, 0.0), rssi=-60.0),
            obs(1.0, "rx1", (5.0, 0.0), rssi=-50.0),
            obs(2.0, "rx0", (0.0, 0.0), rssi=-60.0),
        ]
        db = harvest(frames, PERVASIVE, 0.0)
        assert db.entries[BeaconId(bytes.fromhex(AA))].position_estimate == (5.0, 0.0)

    def test_claimed_power_tracks_the_latest_frame(self):
        frames = [obs(0.0, "rx0", (0, 0), claimed=-59.0), obs(9.0, "rx0", (0, 0), claimed=-45.0)]
        db = harvest(frames, PERVASIVE, 0.0)
        assert db.entries[BeaconId(bytes.fromhex(AA))].claimed_tx_power == -45.0

    def test_unknown_mode(self):
        with pytest.raises(InvalidInput):
            harvest([], "wiretap", 0.0)


class TestDrainIds:
    def test_deterministic_distinct_and_sized(self):
        assert drain_id(0, 7, 20) == drain_id(0, 7, 20)
        assert drain_id(0, 7, 20) != drain_id(0, 8, 20)
        assert drain_id(0, 7, 20) != drain_id(1, 7, 20)
        assert len(drain_id(0, 0, 4)) == 4


class TestInstall:
    def test_a1_defaults_to_receivers_at_every_beacon(self):
        scenario = apply_attack(load_scenario(doc()), AttackProfile(kind="A1"))
        assert [(r.x, r.y) for r in scenario.extra_receivers] == [(0.0, 0.0), (20.0, 0.0)]
        assert all(r.role == "harvest" for r in scenario.extra_receivers)

    def test_a2_defaults_mirror_the_source_beacon(self):
        profile = AttackProfile(
            kind="A2", params={"source_beacon": "b1", "fake_position": [40.0, 0.0]}
        )
        scenario = apply_attack(load_scenario(doc()), profile)
        fake = scenario.injected[0]
        assert (fake.x, fake.y) == (40.0, 0.0)
        assert fake.tx_power_1m == -59.0
        assert fake.interval_ms == 1000.0
        assert fake.claimed_tx_power is None  # replays the harvested claim
        assert fake.source_ref == "b1"
        assert (scenario.extra_receivers[0].x, scenario.extra_receivers[0].y) == (0.0, 0.0)

    def test_a2_requires_params(self):
        with pytest.raises(InvalidInput, match="fake_position"):
            apply_attack(
                load_scenario(doc()), AttackProfile(kind="A2", params={"source_beacon": "b1"})
            )
        with pytest.raises(UnknownRef):
            apply_attack(
                load_scenario(doc()),
                AttackProfile(
                    kind="A2", params={"source_beacon": "ghost", "fake_position": [0, 0]}
                ),
            )

    def test_a3_flood_defaults(self):
        profile = AttackProfile(kind="A3", params={"target_beacon": "b1"})
        scenario = apply_attack(load_scenario(doc()), profile)
        flood = scenario.injected[0]
        assert flood.claimed_tx_power == -45.0  # target +14 dB
        assert flood.tx_power_1m == -79.0  # target -20 dB
        assert flood.interval_ms == 100.0  # target interval / 10
        assert (flood.x, flood.y) == (0.0, 0.0)  # co-located with the target

    def test_a4_rewrites_the_broadcast_id_and_keeps_ground_truth(self):
        profile = AttackProfile(kind="A4", params={"target_beacon": "b1", "new_id_hex": CC})
        scenario = apply_attack(load_scenario(doc()), profile)
        rewritten = scenario.deployment.beacon("b1")
        assert isinstance(rewritten.id_mode, StaticId)
        assert rewritten.id_mode.id.hex() == CC
        assert scenario.reference.beacon("b1").id_mode.id.hex() == AA

    def test_a4_respects_authentication(self):
        locked = doc(
            beacons=[static_beacon("b1", 0, AA, auth_protected=True), static_beacon("b2", 20, BB)]
        )
        profile = AttackProfile(kind="A4", params={"target_beacon": "b1", "new_id_hex": CC})
        with pytest.raises(CapabilityError) as exc:
            apply_attack(load_scenario(locked), profile)
        assert set(exc.value.missing) == {"C4"}

    def test_a4_enforces_id_width(self):
        profile = AttackProfile(kind="A4", params={"target_beacon": "b1", "new_id_hex": "cccc"})
        with pytest.raises(InvalidInput, match="width"):
            apply_attack(load_scenario(doc()), profile)

    def test_a5_swap_exchanges_positions(self):
        profile = AttackProfile(kind="A5", params={"action": "swap", "beacons": ["b1", "b2"]})
        insider = doc(attacker={"physical_access": True})
        scenario = apply_attack(load_scenario(insider), profile)
        assert scenario.deployment.beacon("b1").position == (20.0, 0.0)
        assert scenario.deployment.beacon("b2").position == (0.0, 0.0)
        assert scenario.reference.beacon("b1").position == (0.0, 0.0)

    def test_a5_remove_drops_the_beacon(self):
        profile = AttackProfile(kind="A5", params={"action": "remove", "beacon": "b2"})
        scenario = apply_attack(load_scenario(doc(attacker={"physical_access": True})), profile)
        assert [b.ref for b in scenario.deployment.beacons] == ["b1"]
        assert len(scenario.reference.beacons) == 2

    def test_a5_rejects_degenerate_requests(self):
        base = load_scenario(doc(attacker={"physical_access": True}))
        with pytest.raises(InvalidInput, match="differ"):
            apply_attack(
                base, AttackProfile(kind="A5", params={"action": "swap", "beacons": ["b1", "b1"]})
            )
        with pytest.raises(InvalidInput, match="swap or remove"):
            apply_attack(base, AttackProfile(kind="A5", params={"action": "paint"}))

    def test_a5_needs_physical_access(self):
        capped = doc(attacker={"physical_access": False})
        profile = AttackProfile(kind="A5", params={"action": "remove", "beacon": "b2"})
        with pytest.raises(CapabilityError) as exc:
            apply_attack(load_scenario(capped), profile)
        assert set(exc.value.missing) == {"C5"}

    def test_a6_needs_the_authorized_malicious_app(self):
        profile = AttackProfile(kind="A6", params={"target_device": "phone"})
        with pytest.raises(CapabilityError) as exc:
            apply_attack(load_scenario(doc()), profile)
        assert set(exc.value.missing) == {"C7"}
        compromised = doc(
            devices=[
                {
                    "ref": "phone",
                    "path": [[0.0, [0.0, 1.0]]],
                    "apps": [{"ref": "mapper", "authorized": True, "malicious": True}],
                }
            ]
        )
        scenario = apply_attack(load_scenario(compromised), profile)
        assert scenario.upload_targets == ((0, "phone"),)

    def test_a7_surveillance_receivers(self):
        tagged = doc(
            tags=[{"ref": "fob", "carried_by": "phone", "adv_interval_ms": 500.0, "id_hex": CC}]
        )
        profile = AttackProfile(
            kind="A7", params={"target_tag": "fob", "surveillance_positions": [[1.0, 2.0]]}
        )
        scenario = apply_attack(load_scenario(tagged), profile)
        rx = scenario.extra_receivers[0]
        assert rx.role == "surveillance"
        assert (rx.x, rx.y) == (1.0, 2.0)
        with pytest.raises(UnknownRef):
            apply_attack(
                load_scenario(doc()),
                AttackProfile(
                    kind="A7", params={"target_tag": "fob", "surveillance_positions": [[0, 0]]}
                ),
            )
        with pytest.raises(InvalidInput, match="non-empty"):
            apply_attack(
                load_scenario(tagged),
                AttackProfile(kind="A7", params={"target_tag": "fob", "surveillance_positions": []}),
            )

    def test_a8_defaults_to_the_first_device(self):
        profile = AttackProfile(kind="A8", params={"n_ids": 500})
        scenario = apply_attack(load_scenario(doc()), profile)
        drain = scenario.injected[0]
        assert (drain.x, drain.y) == (0.0, 1.0)
        assert drain.interval_ms == 100.0
        assert drain.n_ids == 500
        with pytest.raises(InvalidInput):
            apply_attack(load_scenario(doc()), AttackProfile(kind="A8", params={"n_ids": 0}))

    def test_apply_attack_is_pure(self):
        base = load_scenario(doc())
        applied = apply_attack(base, AttackProfile(kind="A1"))
        assert base.injected == () and base.extra_receivers == ()
        assert base.attacks == () and applied.installed_count == 1

    def test_install_pending_is_idempotent(self):
        declared = doc(attacks=[{"kind": "A1"}])
        scenario = install_pending(load_scenario(declared))
        assert scenario.installed_count == 1
        assert install_pending(scenario) is scenario
