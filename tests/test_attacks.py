from dataclasses import replace

import pytest

from beaconlab import (
    AttackProfile,
    BeaconLabError,
    CapabilityError,
    InvalidInput,
    StaticId,
    UnknownRef,
    ValidationError,
    attack_metrics,
    drain_id,
    install_pending,
    load_scenario,
    normalize_kind,
    required_capabilities,
    run,
)
from beaconlab.attacks import PERVASIVE
from conftest import AA, BB, CC, KEY1, ephemeral_beacon, static_beacon


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


def rotating_doc(attack):
    """One beacon whose ID changes every 60 s, sending once a second for 300 s."""
    return doc(
        beacons=[ephemeral_beacon("b1", 0, KEY1)],
        content=[{"ref": "b1", "locator": "app://one"}],
        ephemeral={"slot_duration_s": 60.0},
        duration_s=300.0,
        attacks=[{"kind": "A1", **attack}],
    )


def slot_ids(result, slots):
    return {result.schedule.id_at(bytes.fromhex(KEY1), s).data for s in slots}


class TestSniffedIds:
    @pytest.mark.parametrize("window", [{}, {"harvest_window_s": 60.0}], ids=["slot", "given"])
    def test_lunch_time_cutoff_is_half_open(self, window):
        # the frame sent at 60 s, the cutoff, is the first to carry slot 1's ID
        result = run(load_scenario(rotating_doc(window)))
        learned = result.knowledge[0]["b1"]
        assert set(learned) == slot_ids(result, [0])
        entry = learned[next(iter(learned))]
        assert (entry.last_seen, entry.n) == (59.0, 60)
        assert attack_metrics(result, 0)["n_harvested"] == 1

    def test_pervasive_learns_ids_from_every_slot(self):
        result = run(load_scenario(rotating_doc({"sniff_mode": "pervasive"})))
        assert set(result.knowledge[0]["b1"]) == slot_ids(result, range(5))
        assert attack_metrics(result, 0)["n_harvested"] == 5


def test_a6_window_past_the_run_end_changes_nothing():
    # A6 looks an upload up among the slots up to the harvest's end, here
    # about 10^10 of them, and only the IDs the run derived can match
    base = rotating_doc({})
    base["devices"][0]["apps"] = [{"ref": "spy", "authorized": True, "malicious": True}]
    metrics = [
        attack_metrics(run(load_scenario(
            {**base, "attacks": [{"kind": "A6", "target_device": "phone", "harvest_window_s": w}]}
        )), 0)
        for w in (300.0, 1e12)
    ]
    assert metrics[0] == metrics[1] and metrics[0]["localization_fraction"] == 1.0


@pytest.mark.parametrize("rotating", [False, True], ids=["static", "rotating"])
def test_a1_covers_a_beacon_heard_only_through_its_replayer(rotating):
    # the A1 sniffers stand 100 m from b1, out of its reach, beside the A2
    # fake replaying it: an ID counts for b1 because b1 broadcast it, whoever
    # the sniffers heard it from. A1 harvests slot 0 only, so a rotating b1's
    # ID is stale by the run's last window.
    base = rotating_doc({"attacker_positions": [[100.0, 1.0]]})
    if not rotating:
        base.update(beacons=[static_beacon("b1", 0, AA)],
                    content=[{"id_hex": AA, "locator": "app://one"}])
    result = run(load_scenario({
        **base,
        "attacks": [{"kind": "A2", "sniff_mode": "pervasive", "source_beacon": "b1",
                     "fake_position": [100.0, 0.0]}, *base["attacks"]],
    }))
    assert set(result.knowledge[1]) == {"atk0.fake"}
    metrics = attack_metrics(result, 1)
    assert metrics["coverage"] == 1.0
    assert metrics["live_coverage"] == (0.0 if rotating else 1.0)


class TestParams:
    def test_read_once_typed_and_defaulted(self):
        profile = AttackProfile(kind="A8", params={"n_ids": "7", "position": ["1", 2]})
        assert profile.params == {
            "n_ids": 7, "interval_ms": 100.0, "position": (1.0, 2.0), "claimed_tx_power": None,
        }

    def test_a_made_profile_can_be_made_again(self):
        profile = AttackProfile(kind="A4", params={"target_beacon": "b1", "new_id_hex": CC})
        again = replace(profile, sniff_mode=PERVASIVE)
        assert again.params == profile.params and again.sniff_mode == PERVASIVE

    @pytest.mark.parametrize("kind, params, key", [
        # each of these overflowed the distance estimate in the run
        ("A3", {"target_beacon": "b1", "claimed_tx_power": 1e308}, "claimed_tx_power"),
        ("A2", {"source_beacon": "b1", "fake_position": [0, 1], "emitter_tx_power_1m": -1e308},
         "emitter_tx_power_1m"),
        ("A8", {"n_ids": 2, "interval_ms": 0}, "interval_ms"),
        ("A7", {"target_tag": "fob", "surveillance_positions": [[0, 0]], "presence_gap_s": -1},
         "presence_gap_s"),
        ("A5", {"action": "swap", "beacons": ["b1"]}, "beacons"),
        ("A5", {"action": "remove"}, "beacon"),
    ], ids=["claim", "power", "interval", "gap", "one-ref", "no-ref"])
    def test_out_of_range_values_raise_when_the_profile_is_made(self, kind, params, key):
        with pytest.raises(BeaconLabError, match=key):
            AttackProfile(kind=kind, params=params)


class TestDrainIds:
    def test_deterministic_distinct_and_sized(self):
        assert drain_id(0, 7, 20) == drain_id(0, 7, 20)
        assert drain_id(0, 7, 20) != drain_id(0, 8, 20)
        assert drain_id(0, 7, 20) != drain_id(1, 7, 20)
        assert len(drain_id(0, 0, 4)) == 4


def loaded(attack, **overrides):
    """doc() with one declared attack, loaded: its params read, nothing installed."""
    return load_scenario(doc(attacks=[attack], **overrides))


def attacked(attack, **overrides):
    """The scenario a run simulates: loaded, then its attack installed."""
    return install_pending(loaded(attack, **overrides))


def load_error(attack, **overrides):
    """The error an attack's params raise when the profile is made; load_scenario
    raises it again as a ValidationError at the attack's place."""
    with pytest.raises(ValidationError) as exc:
        loaded(attack, **overrides)
    assert str(exc.value) == f"attacks[0]: {exc.value.__cause__}"
    return exc.value.__cause__


class TestInstall:
    def test_a1_defaults_to_receivers_at_every_beacon(self):
        scenario = attacked({"kind": "A1"})
        assert [(r.x, r.y) for r in scenario.extra_receivers] == [(0.0, 0.0), (20.0, 0.0)]
        assert all(r.role == "harvest" for r in scenario.extra_receivers)

    def test_a2_defaults_mirror_the_source_beacon(self):
        scenario = attacked({"kind": "A2", "source_beacon": "b1", "fake_position": [40.0, 0.0]})
        fake = scenario.injected[0]
        assert (fake.x, fake.y) == (40.0, 0.0)
        assert fake.tx_power_1m == -59.0
        assert fake.interval_ms == 1000.0
        assert fake.claimed_tx_power is None  # replays the harvested claim
        assert fake.source_ref == "b1"
        assert (scenario.extra_receivers[0].x, scenario.extra_receivers[0].y) == (0.0, 0.0)

    def test_a2_requires_params(self):
        error = load_error({"kind": "A2", "source_beacon": "b1"})
        assert isinstance(error, InvalidInput) and "fake_position" in str(error)
        scenario = loaded({"kind": "A2", "source_beacon": "ghost", "fake_position": [0, 0]})
        with pytest.raises(UnknownRef):
            install_pending(scenario)

    def test_a3_flood_defaults(self):
        scenario = attacked({"kind": "A3", "target_beacon": "b1"})
        flood = scenario.injected[0]
        assert flood.claimed_tx_power == -45.0  # target +14 dB
        assert flood.tx_power_1m == -79.0  # target -20 dB
        assert flood.interval_ms == 100.0  # target interval / 10
        assert (flood.x, flood.y) == (0.0, 0.0)  # co-located with the target

    def test_a4_rewrites_the_broadcast_id_and_keeps_ground_truth(self):
        scenario = attacked({"kind": "A4", "target_beacon": "b1", "new_id_hex": CC})
        rewritten = scenario.deployment.beacon("b1")
        assert isinstance(rewritten.id_mode, StaticId)
        assert rewritten.id_mode.id.hex() == CC
        assert scenario.reference.beacon("b1").id_mode.id.hex() == AA

    def test_a4_respects_authentication(self):
        locked = [static_beacon("b1", 0, AA, auth_protected=True), static_beacon("b2", 20, BB)]
        scenario = loaded({"kind": "A4", "target_beacon": "b1", "new_id_hex": CC}, beacons=locked)
        with pytest.raises(CapabilityError) as exc:
            install_pending(scenario)
        assert set(exc.value.missing) == {"C4"}

    def test_a4_enforces_id_width(self):
        scenario = loaded({"kind": "A4", "target_beacon": "b1", "new_id_hex": "cccc"})
        with pytest.raises(InvalidInput, match="width"):
            install_pending(scenario)

    def test_a5_swap_exchanges_positions(self):
        scenario = attacked({"kind": "A5", "action": "swap", "beacons": ["b1", "b2"]},
                            attacker={"physical_access": True})
        assert scenario.deployment.beacon("b1").position == (20.0, 0.0)
        assert scenario.deployment.beacon("b2").position == (0.0, 0.0)
        assert scenario.reference.beacon("b1").position == (0.0, 0.0)

    def test_a5_remove_drops_the_beacon(self):
        scenario = attacked({"kind": "A5", "action": "remove", "beacon": "b2"},
                            attacker={"physical_access": True})
        assert [b.ref for b in scenario.deployment.beacons] == ["b1"]
        assert len(scenario.reference.beacons) == 2

    def test_a5_rejects_degenerate_requests(self):
        insider = {"attacker": {"physical_access": True}}
        error = load_error({"kind": "A5", "action": "swap", "beacons": ["b1", "b1"]}, **insider)
        assert isinstance(error, InvalidInput) and "differ" in str(error)
        error = load_error({"kind": "A5", "action": "paint"}, **insider)
        assert isinstance(error, InvalidInput) and "swap or remove" in str(error)

    def test_a5_needs_physical_access(self):
        scenario = loaded({"kind": "A5", "action": "remove", "beacon": "b2"},
                          attacker={"physical_access": False})
        with pytest.raises(CapabilityError) as exc:
            install_pending(scenario)
        assert set(exc.value.missing) == {"C5"}

    def test_a6_needs_the_authorized_malicious_app(self):
        attack = {"kind": "A6", "target_device": "phone"}
        with pytest.raises(CapabilityError) as exc:
            install_pending(loaded(attack))
        assert set(exc.value.missing) == {"C7"}
        compromised = [
            {
                "ref": "phone",
                "path": [[0.0, [0.0, 1.0]]],
                "apps": [{"ref": "mapper", "authorized": True, "malicious": True}],
            }
        ]
        scenario = attacked(attack, devices=compromised)
        assert scenario.upload_targets == ((0, "phone"),)

    def test_a7_surveillance_receivers(self):
        tagged = [{"ref": "fob", "carried_by": "phone", "adv_interval_ms": 500.0, "id_hex": CC}]
        scenario = attacked(
            {"kind": "A7", "target_tag": "fob", "surveillance_positions": [[1.0, 2.0]]}, tags=tagged
        )
        rx = scenario.extra_receivers[0]
        assert rx.role == "surveillance"
        assert (rx.x, rx.y) == (1.0, 2.0)
        untagged = loaded({"kind": "A7", "target_tag": "fob", "surveillance_positions": [[0, 0]]})
        with pytest.raises(UnknownRef):
            install_pending(untagged)
        error = load_error(
            {"kind": "A7", "target_tag": "fob", "surveillance_positions": []}, tags=tagged
        )
        assert isinstance(error, InvalidInput) and "non-empty" in str(error)

    @pytest.mark.parametrize("attack", [
        {"kind": "A1"},  # harvest sniffers
        {"kind": "A7", "target_tag": "fob", "surveillance_positions": [[1.0, 2.0]]},
    ])
    def test_a_sniffer_may_not_take_the_ref_of_a_device(self, attack):
        # a run reads a device's trace from the Receive rows logged under its
        # ref: a sniffer of the same name would write into that trace
        devices = [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]},
                   {"ref": "atk0.rx0", "path": [[0.0, [20.0, 0.0]]]}]
        tags = [{"ref": "fob", "carried_by": "phone", "adv_interval_ms": 500.0, "id_hex": CC}]
        with pytest.raises(ValidationError,
                           match=rf"^{attack['kind']}: sniffer 'atk0\.rx0' has the ref of a device$"):
            install_pending(loaded(attack, devices=devices, tags=tags))

    def test_a8_defaults_to_the_first_device(self):
        scenario = attacked({"kind": "A8", "n_ids": 500})
        drain = scenario.injected[0]
        assert (drain.x, drain.y) == (0.0, 1.0)
        assert drain.interval_ms == 100.0
        assert drain.n_ids == 500
        assert isinstance(load_error({"kind": "A8", "n_ids": 0}), InvalidInput)

    def test_install_pending_leaves_its_input_untouched(self):
        # A1 and A2 add receivers, A2 adds an emitter and A4 rewires the deployment
        declared = load_scenario(doc(attacks=[
            {"kind": "A1"},
            {"kind": "A2", "source_beacon": "b1", "fake_position": [40.0, 0.0]},
            {"kind": "A4", "target_beacon": "b2", "new_id_hex": CC},
        ]))
        deployment = declared.deployment
        scenario = install_pending(declared)
        assert (declared.injected, declared.extra_receivers) == ((), ())
        assert declared.deployment is deployment and deployment.beacon("b2").id_mode.id.hex() == BB
        assert declared.installed_count == 0
        assert (len(scenario.injected), len(scenario.extra_receivers)) == (1, 3)
        assert scenario.deployment.beacon("b2").id_mode.id.hex() == CC
        assert scenario.installed_count == 3

    def test_install_pending_is_idempotent(self):
        declared = doc(attacks=[{"kind": "A1"}])
        scenario = install_pending(load_scenario(declared))
        assert scenario.installed_count == 1
        assert install_pending(scenario) is scenario


class TestMetrics:
    def test_a4_counts_every_window_the_run_made(self):
        # 3 * 0.1 is a hair above 0.3 s; the loop still closes that window
        d = doc(
            devices=[{"ref": "phone", "path": [[0.0, [0.0, 1.0]]], "scan_window_s": 0.1}],
            duration_s=0.3,
            attacks=[{"kind": "A4", "target_beacon": "b1", "new_id_hex": CC}],
        )
        result = run(load_scenario(d))
        assert len(result.window_records) == 3
        metrics = attack_metrics(result, 0)
        assert metrics["relevant_windows"] == 3
        assert metrics["unavailability"] == 1.0
