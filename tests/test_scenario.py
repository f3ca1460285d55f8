"""Scenario loading: every malformed document ends in a typed error."""

import copy
from dataclasses import replace

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beaconlab import (
    BeaconLabError,
    EphemeralParams,
    GuardianConfig,
    InvalidInput,
    PersonalTag,
    RadioParams,
    Scenario,
    SchemaError,
    ValidationError,
    attack_metrics,
    load_matrix,
    load_scenario,
    run,
)
from beaconlab.attacks import KINDS
from beaconlab.cli import main
from beaconlab.scenario import DEFAULT_ATTACKER_CAPS
from beaconlab.threatmatrix import default_matrix
from conftest import AA, BB, CC, KEY1, KEY2, ephemeral_beacon, static_beacon


def _doc_text(duration: str) -> str:
    doc = {
        "beacons": [static_beacon("b1", 0, AA)],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
    }
    return yaml.safe_dump(doc) + f"duration_s: {duration}\n"


class TestDuration:
    @pytest.mark.parametrize("text, error", [
        (".inf", ValidationError),  # run would never reach the end
        (".nan", ValidationError),
        ("-.inf", ValidationError),
        ("0", ValidationError),
        ("-5", ValidationError),
        ("abc", SchemaError),
        ("[1]", SchemaError),
        ("{a: 1}", SchemaError),
    ])
    def test_rejected_with_a_typed_error(self, text, error):
        with pytest.raises(error, match="duration_s") as info:
            load_scenario(_doc_text(text))
        assert isinstance(info.value, BeaconLabError)

    @pytest.mark.parametrize("text, expected", [("12.5", 12.5), ("30", 30.0), ("'45'", 45.0)])
    def test_finite_positive_values_load(self, text, expected):
        assert load_scenario(_doc_text(text)).duration_s == expected


def _rich_doc() -> dict:
    """A valid scenario that gives every block and most keys the loader reads."""
    return {
        "id_width": 20,
        "beacons": [
            static_beacon("b1", 0, AA, auth_protected=False),
            ephemeral_beacon("b2", 20, KEY1),
        ],
        "content": [
            {"id_hex": AA, "locator": "app://one", "label": "one"},
            {"ref": "b2", "locator": "app://two"},
        ],
        "adjacency": [["b1", "b2"]],
        "devices": [
            {"ref": "phone", "path": [[0.0, [0.0, 1.0]], [10.0, [20.0, 1.0]]],
             "proximity_threshold_m": 5.0, "scan_window_s": 3.0, "lookup_budget": 100,
             "content_retrigger_s": 30.0,
             "apps": [{"ref": "mapper", "authorized": True, "malicious": True}]},
            {"ref": "dave", "x": 1.0, "y": 2.0},
        ],
        "tags": [
            {"ref": "fob", "carried_by": "phone", "id_hex": BB, "adv_interval_ms": 1000.0,
             "tx_power_1m": -59.0},
            {"ref": "key", "carried_by": "dave", "key_hex": KEY2},
        ],
        "attacks": [
            {"kind": "A1", "sniff_mode": "pervasive"},
            {"kind": "A2", "sniff_mode": "lunch-time", "attacker_positions": [[0.0, 0.0]],
             "harvest_window_s": 60.0, "max_range_m": 30.0,
             "source_beacon": "b1", "fake_position": [40.0, 0.0],
             "interval_ms": 500.0, "emitter_tx_power_1m": -59.0},
            {"kind": "A3", "target_beacon": "b1", "claimed_tx_power": -45.0,
             "flood_interval_ms": 100.0, "emitter_tx_power_1m": -79.0,
             "emitter_position": [0.0, 0.0]},
            {"kind": "A4", "target_beacon": "b1", "new_id_hex": CC},
            {"kind": "A5", "action": "swap", "beacons": ["b1", "b2"]},
            {"kind": "A5", "action": "remove", "beacon": "b2"},
            {"kind": "A6", "target_device": "phone"},
            {"kind": "A7", "target_tag": "fob", "surveillance_positions": [[3.0, 0.0]],
             "presence_gap_s": 30.0},
            {"kind": "A8", "n_ids": 3, "interval_ms": 100.0, "position": [0.0, 1.0],
             "claimed_tx_power": -40.0},
        ],
        "radio": {"path_loss_exponent": 2.0, "noise_sigma": 1.0, "max_range_m": 50.0,
                  "seed": 3},
        "ephemeral": {"slot_duration_s": 60.0, "window_slots": 2, "bloom_m": 512, "bloom_k": 4},
        "attacker": {"capabilities": ["C1", "C2", "C3", "C6", "C7"],
                     "physical_access": True, "firmware_access": True},
        "defences": ["TV", "SJ"],
        "guardian": {"ref": "g", "protected_tag": "fob", "jam_radius_m": 10.0,
                     "authorized": ["dave"], "reaction_reliability": 1.0},
        "duration_s": 30.0,
    }


def _paths(node, prefix=()):
    """Every field, block and list entry below node, as key/index paths."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_ANY_VALUE = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(min_value=-3, max_value=2**70),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
        st.sampled_from(["false", "true", "1.5", "A2", "lunch", AA, KEY1, "b1", "phone"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


# An interval far below a millisecond asks for a run of millions of events.
# `sim.MAX_EVENTS` refuses one that could log more than 10 million, but a run
# near that bound takes tens of seconds: keep the examples short.
_MIN_INTERVAL_MS = 10.0


def _bounded(scenario) -> bool:
    return all(
        profile.params.get(key) is None or profile.params[key] >= _MIN_INTERVAL_MS
        for profile in scenario.attacks
        for key in ("interval_ms", "flood_interval_ms")
    )


def _loads_or_typed_error(load, doc):
    try:
        load(doc)
    except BeaconLabError:
        pass


_MATRIX_DOC = {
    "motives": {"M6": "Vandalism"},
    "capabilities": {"C8": {"description": "Ladder", "skill": "L"}},
    "defences": {"FW": "Firmware signing"},
    "attacks": [
        {"id": "X1", "name": "Test attack", "motives": ["M6"], "goals": ["C"],
         "target": "Owner", "required_caps": ["C8"], "defences": ["FW"],
         "impacts": [{"description": "something", "level": "L", "party": "U"}]},
    ],
}


class TestAnyOneFieldReplaced:
    """Whatever one field, block or entry holds, loading returns or raises BeaconLabError."""

    def test_rich_doc_loads(self):
        scenario = load_scenario(_rich_doc())
        assert scenario.attacker_caps == frozenset({"C1", "C2", "C3", "C4", "C5", "C6", "C7"})
        assert scenario.guardian is not None and scenario.ephemeral.bloom_m == 512

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(_paths(_rich_doc()))), _ANY_VALUE)
    def test_scenario(self, path, value):
        _loads_or_typed_error(load_scenario, _replaced(_rich_doc(), path, value))

    def test_rich_doc_runs_every_attack_kind(self):
        result = run(load_scenario(_rich_doc()))
        kinds = [attack_metrics(result, i)["kind"] for i in range(len(result.scenario.attacks))]
        assert set(kinds) == set(KINDS)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([p for p in _paths(_rich_doc()) if p[0] == "attacks"]), _ANY_VALUE)
    def test_attack_fields_fail_at_load_or_not_at_all(self, path, value):
        try:
            scenario = load_scenario(_replaced(_rich_doc(), path, value))
        except BeaconLabError:
            return
        assume(_bounded(scenario))
        try:
            result = run(scenario)
            for i in range(len(result.scenario.attacks)):
                attack_metrics(result, i)
        except BeaconLabError as exc:
            # which beacon, device or tag a name means, the capability gates and
            # A4's ID width need the scenario, so they are checked at install
            assert not isinstance(exc, (SchemaError, ValidationError)), exc

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(_paths(_MATRIX_DOC))), _ANY_VALUE)
    def test_matrix(self, path, value):
        _loads_or_typed_error(load_matrix, _replaced(_MATRIX_DOC, path, value))


@pytest.mark.parametrize("sizing", [{"bloom_m": 8}, {"bloom_k": 3}])
def test_a_bloom_size_given_by_half_is_refused_at_load(sizing):
    # without its partner, bloom_m or bloom_k loaded and the run's filters
    # were sized from bloom_fp_target
    doc = {**_rich_doc(), "ephemeral": sizing}
    with pytest.raises(ValidationError, match=r"^ephemeral: Bloom m and k are given both or "
                                              r"neither, got m=(8 and k=None|None and k=3)$"):
        load_scenario(doc)


@pytest.mark.parametrize("slot", [float("nan"), 0.0])
def test_a_bad_slot_is_reported_before_half_a_bloom_size(slot):
    # the slot and window are checked before the Bloom sizing
    doc = {**_rich_doc(), "ephemeral": {"slot_duration_s": slot, "bloom_m": 8}}
    with pytest.raises(ValidationError, match=r"^ephemeral: slot_duration_s must be "):
        load_scenario(doc)


@pytest.mark.parametrize("target", [0.0, 1.0, 2.5, -0.01])
def test_a_bloom_target_outside_0_1_is_refused_at_load_with_owner_keys(target):
    # `filter_size` sizes a filter of the window's IDs from the target; before,
    # the target loaded and a run under TV failed at its first filter build
    doc = {**_rich_doc(), "ephemeral": {"bloom_fp_target": target}}
    with pytest.raises(ValidationError, match=r"^ephemeral: fp_target must be in \(0, 1\)$"):
        load_scenario(doc)
    static = {"beacons": [static_beacon("b1", 0, AA)],
              "content": [{"id_hex": AA, "locator": "app://one"}],
              "ephemeral": {"bloom_fp_target": target}}
    assert load_scenario(static).ephemeral.bloom_fp_target == target  # no owner keys: no filter


def test_matrix_doc_loads():
    assert set(load_matrix(_MATRIX_DOC).attacks) == {"X1"}


# Each of these loaded with a wrong meaning, or failed with an untyped error.
_REPROS = {
    "physical-access-string": (("attacker", "physical_access"), "false"),
    "auth-protected-string": (("beacons", 0, "auth_protected"), "false"),
    "fractional-lookup-budget": (("devices", 0, "lookup_budget"), 2.5),
    "scan-window-list": (("devices", 0, "scan_window_s"), [1]),
    "attacks-not-a-list": (("attacks",), 5),
    "radio-seed-string": (("radio", "seed"), "x"),
    "id-width-string": (("id_width",), "x"),
    "misspelled-radio-key": (("radio", "sigma_db"), 0.0),
    "misspelled-guardian-key": (("guardian", "reliability"), 1.0),
    "unknown-top-level-key": (("durations",), 30.0),
    "unknown-device-key": (("devices", 0, "scan_s"), 3.0),
    "unknown-app-key": (("devices", 0, "apps", 0, "trusted"), True),
    "unknown-tag-key": (("tags", 0, "interval_ms"), 100.0),
    "unknown-ephemeral-key": (("ephemeral", "slot_s"), 30.0),
    "unknown-attacker-key": (("attacker", "firmware"), False),
    "authorized-app-string": (("devices", 0, "apps", 0, "authorized"), "no"),
    "tag-key-unquoted-number": (("tags", 1, "key_hex"), int(KEY1)),
}


@pytest.mark.parametrize("path, value", list(_REPROS.values()), ids=list(_REPROS))
def test_repro_raises_a_schema_error_naming_the_key(path, value):
    key = next(k for k in reversed(path) if isinstance(k, str))
    with pytest.raises(SchemaError, match=key):
        load_scenario(_replaced(_rich_doc(), path, value))


# Each of these loaded, then failed only in run or attack_metrics.
_LATE_ATTACK_REPROS = {
    "a7-gap-string": ({"kind": "A7", "target_tag": "fob", "surveillance_positions": [[3.0, 0.0]],
                       "presence_gap_s": "x"}, "presence_gap_s"),
    "a8-n-ids-string": ({"kind": "A8", "n_ids": "many"}, "n_ids"),
    "a2-no-fake-position": ({"kind": "A2", "source_beacon": "b1"}, "fake_position"),
    "a2-fake-position-string": ({"kind": "A2", "source_beacon": "b1", "fake_position": [1, "x"]},
                                "fake_position"),
    "a5-paint": ({"kind": "A5", "action": "paint"}, "action"),
    "a3-negative-flood": ({"kind": "A3", "target_beacon": "b1", "flood_interval_ms": -1},
                          "flood_interval_ms"),
}


@pytest.mark.parametrize("attack, key", list(_LATE_ATTACK_REPROS.values()),
                         ids=list(_LATE_ATTACK_REPROS))
def test_bad_attack_param_raises_from_load_scenario(attack, key):
    with pytest.raises(BeaconLabError, match=key):
        load_scenario({**_rich_doc(), "attacks": [attack]})


def test_scenario_codes_are_the_threat_matrix_codes():
    matrix = default_matrix()
    assert set(KINDS) == set(matrix.attacks)
    base = yaml.safe_load(_doc_text("10"))

    def loads(**block) -> bool:
        try:
            load_scenario({**base, **block})
        except ValidationError:
            return False
        return True

    caps = {f"C{i}" for i in range(10)} | set(matrix.capabilities)
    assert {c for c in caps if loads(attacker={"capabilities": [c]})} == set(matrix.capabilities)
    defences = {"TV", "OD", "SJ", "BF", "XX"} | set(matrix.defences)
    assert {d for d in defences if loads(defences=[d])} == set(matrix.defences)


def test_capability_codes_fold_case_and_the_smallest_unknown_is_named():
    base = yaml.safe_load(_doc_text("10"))
    scenario = load_scenario({**base, "attacker": {"capabilities": ["c1", "C2", "c6"]}})
    assert {"C1", "C2", "C6"} <= scenario.attacker_caps
    unknown = [f"zz{i:02d}" for i in range(30)]
    with pytest.raises(ValidationError, match="unknown capability 'ZZ00'"):
        load_scenario({**base, "attacker": {"capabilities": ["c1", *reversed(unknown)]}})


def test_tag_tx_power_has_the_beacon_range():
    with pytest.raises(ValidationError, match="tx_power_1m"):
        load_scenario(_replaced(_rich_doc(), ("tags", 0, "tx_power_1m"), 50))


def test_a_tag_is_carried_by_a_device():
    with pytest.raises(ValidationError, match="carrier 'nobody' is not a device"):
        load_scenario(_replaced(_rich_doc(), ("tags", 0, "carried_by"), "nobody"))
    scenario = load_scenario(_rich_doc())
    stray = replace(scenario.tags[0], carried_by="nobody")
    with pytest.raises(InvalidInput, match="carrier 'nobody' is not a device"):
        replace(scenario, tags=(stray,) + scenario.tags[1:])
    with pytest.raises(InvalidInput, match="is not a device"):
        replace(scenario, devices=())


@pytest.mark.parametrize("path, value", [
    (("devices", 0, "apps", 0, "authorized"), False),
    (("beacons", 0, "auth_protected"), True),
    (("devices", 0, "lookup_budget"), 2.0),
    (("radio", "seed"), "7"),
])
def test_well_typed_values_still_load(path, value):
    load_scenario(_replaced(_rich_doc(), path, value))


def test_only_given_keys_reach_the_dataclasses():
    doc = _rich_doc()
    for block in ("radio", "ephemeral", "attacker", "guardian", "defences", "duration_s"):
        del doc[block]
    doc["tags"] = [{"ref": "fob", "carried_by": "phone", "id_hex": BB}]
    doc["guardian"] = {"protected_tag": "fob"}
    scenario = load_scenario(doc)
    assert scenario.radio == RadioParams()
    assert scenario.ephemeral == EphemeralParams()
    assert scenario.duration_s == Scenario.duration_s
    assert scenario.ephemeral.bloom_fp_target is None
    assert scenario.tags[0].adv_interval_ms == PersonalTag.adv_interval_ms
    assert scenario.guardian.jam_radius_m == GuardianConfig.jam_radius_m
    assert scenario.attacker_caps == DEFAULT_ATTACKER_CAPS | {"C4"}


@pytest.mark.parametrize("manifest, message", [
    ({"devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]], "scan_window_s": [1]}]},
     "scan_window_s"),
    ({"attacks": 5}, "attacks"),
    ({"radio": {"seed": "x"}}, "seed"),
    ({"attacks": [{"kind": "A8", "n_ids": "many"}]}, "n_ids"),  # read when loaded
    ({"attacks": [{"kind": "A7", "target_tag": "fob", "surveillance_positions": [[0.0, 0.0]],
                   "presence_gap_s": "x"}]}, "presence_gap_s"),
])
def test_simulate_on_a_bad_manifest_exits_1_without_a_traceback(tmp_path, capsys, manifest,
                                                                 message):
    doc = {
        "beacons": [static_beacon("b1", 0, AA)],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
        "duration_s": 5.0,
        **manifest,
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
