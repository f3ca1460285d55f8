import gc
import json
import tracemalloc

import pytest
import yaml

from beaconlab import (
    AttackProfile,
    ValidationError,
    apply_attack,
    attack_metrics,
    delivery_correctness,
    ephemeral,
    load_scenario,
    run,
)
from beaconlab.cli import main
from beaconlab.radio import BROADCAST, CONTENT_DELIVERED, RECEIVE
from beaconlab.sim import (
    OUTCOME_BUDGET,
    OUTCOME_DEBOUNCED,
    OUTCOME_DELIVERED,
    OUTCOME_EMPTY,
    OUTCOME_FAR,
    OUTCOME_FLAGGED,
)
from conftest import AA, BB, CC, static_beacon
from test_acceptance import _replay_doc
from test_golden import _walking_doc


def doc(**overrides):
    base = {
        "beacons": [static_beacon("b1", 0, AA), static_beacon("b2", 20, BB)],
        "content": [
            {"id_hex": AA, "locator": "app://one"},
            {"id_hex": BB, "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
        "duration_s": 12.0,
        "radio": {"seed": 11, "noise_sigma": 0.0},
    }
    base.update(overrides)
    return base


def event_lines(result):
    return [e.to_json() for e in result.events]


class TestDeterminism:
    def test_equal_seeds_are_byte_identical(self):
        d = doc(radio={"seed": 5, "noise_sigma": 2.0})
        assert event_lines(run(load_scenario(d))) == event_lines(run(load_scenario(d)))

    def test_different_seeds_differ(self):
        noisy = {"noise_sigma": 2.0}
        a = run(load_scenario(doc(radio={"seed": 5, **noisy})))
        b = run(load_scenario(doc(radio={"seed": 6, **noisy})))
        assert event_lines(a) != event_lines(b)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_cyclic_collector_as_it_was(self, enabled):
        before = gc.isenabled()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            run(load_scenario(doc()))
            assert gc.isenabled() == enabled
        finally:
            if before:
                gc.enable()
            else:
                gc.disable()


class TestEventStream:
    def test_every_receive_has_a_matching_broadcast(self):
        result = run(load_scenario(doc(radio={"seed": 2, "noise_sigma": 2.0})))
        live = set()
        for event in result.events:
            if event.kind == BROADCAST:
                live.add((event.time, event.data["emitter"], event.data["id"]))
            elif event.kind == RECEIVE:
                key = (event.time, event.data["emitter"], event.data["id"])
                assert key in live
        assert live

    def test_times_stay_inside_the_run(self):
        result = run(load_scenario(doc()))
        assert all(0.0 <= e.time <= result.duration for e in result.events)

    def test_max_range_cuts_reception(self):
        far = doc(
            devices=[{"ref": "phone", "path": [[0.0, [200.0, 0.0]]]}],
            radio={"seed": 2, "noise_sigma": 0.0, "max_range_m": 50.0},
        )
        result = run(load_scenario(far))
        assert not [e for e in result.events if e.kind == RECEIVE]
        assert all(w.outcome == OUTCOME_EMPTY for w in result.window_records)

    def test_window_boundary_frame_counting(self):
        # 1 Hz advertising against a 2 s window: the frame stamped exactly at
        # the window edge belongs to the next window
        d = doc(
            beacons=[static_beacon("b1", 0, AA)],
            content=[{"id_hex": AA, "locator": "app://one"}],
            devices=[{"ref": "phone", "path": [[0.0, [0.0, 1.0]]],
                      "scan_window_s": 2.0}],
            duration_s=6.0,
        )
        result = run(load_scenario(d))
        counts = [w.n_frames for w in result.window_records]
        assert counts == [2, 2, 2]


class TestWindowPipeline:
    def test_delivery_then_debounce_then_retrigger(self):
        d = doc(
            beacons=[static_beacon("b1", 0, AA)],
            content=[{"id_hex": AA, "locator": "app://one"}],
            devices=[{"ref": "phone", "path": [[0.0, [0.0, 1.0]]],
                      "scan_window_s": 3.0, "content_retrigger_s": 30.0}],
            duration_s=36.0,
        )
        result = run(load_scenario(d))
        outcomes = [w.outcome for w in result.window_records]
        assert outcomes[0] == OUTCOME_DELIVERED
        assert set(outcomes[1:10]) == {OUTCOME_DEBOUNCED}
        assert outcomes[10] == OUTCOME_DELIVERED  # t=33, 30 s after the first
        assert delivery_correctness(result) == (1.0, 2)

    def test_unknown_ids_exhaust_the_budget(self):
        d = doc(
            devices=[{"ref": "phone", "path": [[0.0, [100.0, 0.0]]],
                      "lookup_budget": 10, "scan_window_s": 3.0}],
            attacks=[{"kind": "A8", "n_ids": 4096, "interval_ms": 50.0}],
            duration_s=9.0,
        )
        result = run(load_scenario(d))
        assert {w.outcome for w in result.window_records} == {OUTCOME_BUDGET}
        assert all(w.n_ids >= 10 for w in result.window_records)
        metrics = attack_metrics(result, 0)
        assert metrics["mean_budget_utilization"] == 1.0

    def test_few_unknown_ids_get_flagged_not_drained(self):
        d = doc(
            beacons=[static_beacon("b1", 0, AA)],
            content=[{"id_hex": AA, "locator": "app://one"}],
            devices=[{"ref": "phone", "path": [[0.0, [100.0, 0.0]]],
                      "scan_window_s": 3.0}],
            attacks=[{"kind": "A8", "n_ids": 2, "interval_ms": 500.0,
                      "position": [100.0, 0.0]}],
            duration_s=6.0,
        )
        result = run(load_scenario(d))
        assert {w.outcome for w in result.window_records} == {OUTCOME_FLAGGED}
        assert all(w.n_rejected == w.n_frames for w in result.window_records)

    def test_wrong_placement_is_recorded_as_incorrect(self):
        # swapping the two mounts makes every delivery at b1's spot serve
        # b2's content; the simulator must notice against the pre-attack map
        d = doc(
            attacker={"physical_access": True},
            attacks=[{"kind": "A5", "action": "swap", "beacons": ["b1", "b2"]}],
            duration_s=6.0,
        )
        result = run(load_scenario(d))
        delivered = [w for w in result.window_records if w.outcome == OUTCOME_DELIVERED]
        assert delivered and all(not w.correct for w in delivered)
        assert delivered[0].content == "app://two"
        rate, n = delivery_correctness(result)
        assert rate == 0.0 and n == len(delivered)

    def test_reprogrammed_id_is_rejected_by_the_service(self):
        d = doc(
            beacons=[static_beacon("b1", 0, AA)],
            content=[{"id_hex": AA, "locator": "app://one"}],
            attacks=[{"kind": "A4", "target_beacon": "b1", "new_id_hex": CC}],
            duration_s=6.0,
        )
        result = run(load_scenario(d))
        assert {w.outcome for w in result.window_records} == {OUTCOME_FLAGGED}
        assert all(w.n_rejected == w.n_frames for w in result.window_records)
        assert not [e for e in result.events if e.kind == CONTENT_DELIVERED]


class TestRadioExtremes:
    @pytest.mark.parametrize("radio", [{"noise_sigma": 1e10}, {"path_loss_exponent": 1e-300}])
    def test_a_distance_estimate_past_any_float_reads_as_far(self, tmp_path, capsys, radio):
        d = doc(radio=radio, duration_s=30.0)
        result = run(load_scenario(d))
        assert OUTCOME_FAR in {w.outcome for w in result.window_records}
        path = tmp_path / "radio.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("radio", [{"noise_sigma": 1e308}, {"path_loss_exponent": 1e308}])
    def test_a_radio_scale_that_could_write_non_finite_rssi_is_refused(self, tmp_path, capsys,
                                                                       radio):
        d = doc(radio=radio, duration_s=30.0)
        with pytest.raises(ValidationError, match="must be in"):
            load_scenario(d)
        path = tmp_path / "radio.yaml"
        path.write_text(yaml.safe_dump(d))
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestTagsAndReplay:
    def test_device_ignores_its_own_tag(self):
        d = doc(
            devices=[
                {"ref": "alice", "path": [[0.0, [0.0, 1.0]]]},
                {"ref": "bob", "path": [[0.0, [0.0, 2.0]]]},
            ],
            tags=[{"ref": "fob", "carried_by": "alice", "adv_interval_ms": 1000.0,
                   "id_hex": CC}],
            duration_s=5.0,
        )
        result = run(load_scenario(d))
        fob_rx = [e for e in result.events
                  if e.kind == RECEIVE and e.data["emitter"] == "fob"]
        receivers = {e.data["receiver"] for e in fob_rx}
        assert "alice" not in receivers
        assert "bob" in receivers

    def test_replayed_frames_are_bit_identical(self):
        d = doc(
            attacks=[{"kind": "A2", "source_beacon": "b1",
                      "fake_position": [40.0, 0.0]}],
            duration_s=10.0,
        )
        result = run(load_scenario(d))
        fake_ids = result.broadcast_ids.get("atk0.fake", set())
        assert fake_ids
        assert fake_ids <= result.broadcast_ids["b1"]

    def test_trace_round_trip_fields(self):
        result = run(load_scenario(doc()))
        trace = result.traces[0]
        assert trace.device_ref == "phone"
        assert len(trace) > 0
        assert json.dumps(result.summary())  # summary is JSON-shaped


@pytest.mark.parametrize("defences", [["TV", "SJ"], ["SJ"]])
def test_each_rotating_id_is_derived_once_per_run(monkeypatch, defences):
    # the walking document has a rotating beacon and a rotating tag, and A1
    # and A6 read the run's ID table after the loop
    derived = []
    original = ephemeral.ephemeral_id

    def counting(key, slot, id_width):
        derived.append((key, slot))
        return original(key, slot, id_width)

    monkeypatch.setattr(ephemeral, "ephemeral_id", counting)
    result = run(load_scenario({**_walking_doc(), "defences": defences}))
    for i in range(len(result.scenario.attacks)):
        attack_metrics(result, i)
    assert derived
    assert len(derived) == len(set(derived))


def test_a_replay_run_holds_less_than_300_bytes_per_event():
    # AC-2's rotating shape at a twelfth of its length: what a run keeps grows
    # with its events, so what it keeps per event bounds its memory
    scenario = load_scenario({**_replay_doc(rotating=True, seed=3), "duration_s": 600.0})
    tracemalloc.start()
    try:
        result = run(scenario)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(result.events) < 300
    # window records that heard the same emitters share one set
    sets = [w.emitters for w in result.window_records]
    assert len(set(map(id, sets))) == len(set(sets))
