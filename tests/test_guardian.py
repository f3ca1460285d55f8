import pytest

from beaconlab import (
    GuardianConfig,
    InvalidInput,
    PersonalTag,
    UnknownRef,
    UserDevice,
    ValidationError,
    apply_guardian,
    jam_succeeds,
    load_scenario,
)
from conftest import AA, BB, KEY1


def tag_scenario_doc():
    return {
        "beacons": [
            {"ref": "b1", "x": 10, "y": 0, "tx_power_1m": -59.0,
             "adv_interval_ms": 1000.0, "id_hex": AA},
        ],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "adjacency_radius_m": 25,
        "devices": [
            {"ref": "alice", "path": [[0.0, [0.0, 1.0]]]},
            {"ref": "dave", "path": [[0.0, [10.0, 1.0]]]},
        ],
        "tags": [
            {"ref": "fob", "carried_by": "alice", "adv_interval_ms": 500.0,
             "id_hex": BB},
        ],
        "duration_s": 30.0,
        "radio": {"seed": 3, "noise_sigma": 0.0},
    }


class TestGuardianConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            GuardianConfig("", "fob", 10.0)
        with pytest.raises(InvalidInput):
            GuardianConfig("g", "fob", 0.0)
        with pytest.raises(InvalidInput):
            GuardianConfig("g", "fob", 10.0, reaction_reliability=1.5)


class TestApplyGuardian:
    def test_attaches_and_is_pure(self):
        scenario = load_scenario(tag_scenario_doc())
        config = GuardianConfig("g", "fob", 10.0, authorized=frozenset({"alice"}))
        guarded = apply_guardian(scenario, config)
        assert guarded.guardian is config
        assert scenario.guardian is None

    def test_rejects_infrastructure_target(self):
        scenario = load_scenario(tag_scenario_doc())
        with pytest.raises(ValidationError, match="infrastructure"):
            apply_guardian(scenario, GuardianConfig("g", "b1", 10.0))

    def test_rejects_unknown_tag(self):
        scenario = load_scenario(tag_scenario_doc())
        with pytest.raises(UnknownRef):
            apply_guardian(scenario, GuardianConfig("g", "ghost", 10.0))

    def test_rejects_unknown_authorized_device(self):
        scenario = load_scenario(tag_scenario_doc())
        config = GuardianConfig("g", "fob", 10.0, authorized=frozenset({"nobody"}))
        with pytest.raises(UnknownRef):
            apply_guardian(scenario, config)


class TestJamDraws:
    def test_degenerate_reliabilities(self):
        always = GuardianConfig("g", "fob", 10.0, reaction_reliability=1.0)
        never = GuardianConfig("g", "fob", 10.0, reaction_reliability=0.0)
        assert all(jam_succeeds(9, always, i) for i in range(50))
        assert not any(jam_succeeds(9, never, i) for i in range(50))

    def test_deterministic_per_seed_and_frame(self):
        config = GuardianConfig("g", "fob", 10.0, reaction_reliability=0.5)
        draws = [jam_succeeds(1, config, i) for i in range(200)]
        assert draws == [jam_succeeds(1, config, i) for i in range(200)]
        assert draws != [jam_succeeds(2, config, i) for i in range(200)]

    def test_leak_rate_matches_reliability(self):
        # 1000 Bernoulli(0.1) misses: [71, 129] covers ~99.8% two-sided
        config = GuardianConfig("g", "fob", 10.0, reaction_reliability=0.9)
        misses = sum(not jam_succeeds(4, config, i) for i in range(1000))
        assert 71 <= misses <= 129
