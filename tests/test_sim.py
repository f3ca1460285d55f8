import gc
import json
import math
import random
import sys
import tracemalloc

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from beaconlab import (
    EphemeralParams,
    InvalidInput,
    ValidationError,
    attack_metrics,
    delivery_correctness,
    ephemeral,
    load_scenario,
    run,
)
from beaconlab.actors import UserDevice
from beaconlab.cli import main
from beaconlab import radio
from beaconlab.radio import BROADCAST, CONTENT_DELIVERED, RECEIVE, Event, EventLog, event_line
from beaconlab import sim
from beaconlab.storage import read_events_jsonl, read_traces_jsonl, write_traces_jsonl
from beaconlab.sim import (
    MAX_EVENTS,
    OUTCOME_BUDGET,
    OUTCOME_DEBOUNCED,
    OUTCOME_DELIVERED,
    OUTCOME_EMPTY,
    OUTCOME_FAR,
    OUTCOME_FLAGGED,
    WindowRecord,
)
from conftest import AA, BB, CC, DD, ephemeral_beacon, logged_traces, static_beacon
from test_acceptance import _replay_doc, _silencing_doc
from test_golden import SCENARIOS, _walking_doc


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
    return [event_line(*e) for e in result.events]


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
        first = next(e for e in result.events if e.kind == CONTENT_DELIVERED)
        assert first.data["content"] == "app://two"
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
        sent = {}
        for e in result.events:
            if e.kind == BROADCAST:
                sent.setdefault(e.data["emitter"], set()).add(e.data["id"])
        fake_ids = sent.get("atk0.fake", set())
        assert fake_ids
        assert fake_ids <= sent["b1"]

    def test_trace_round_trip_fields(self, tmp_path):
        result = run(load_scenario(doc()))
        path = str(tmp_path / "traces.jsonl")
        write_traces_jsonl(path, result.events, ["phone"])
        trace, = read_traces_jsonl(path)
        assert trace.device_ref == "phone"
        assert len(trace) > 0
        assert json.dumps(result.summary())  # summary is JSON-shaped


def test_a_walking_phone_s_position_is_worked_out_once_per_broadcast_time(monkeypatch):
    # four beacons and a tag advertise once a second from 0, so all their
    # frames share 30 instants; two phones walk past the beacons, one carrying
    # the tag, and a third stands still
    ids = (AA, BB, CC, DD)
    walk = {
        "beacons": [static_beacon(f"b{i}", 10.0 * i, h) for i, h in enumerate(ids)],
        "content": [{"id_hex": h, "locator": f"app://{i}"} for i, h in enumerate(ids)],
        "devices": [{"ref": "walker", "path": [[0.0, [0.0, 1.0]], [30.0, [30.0, 1.0]]]},
                    {"ref": "stroller", "path": [[0.0, [30.0, -1.0]], [30.0, [0.0, -1.0]]]},
                    {"ref": "sitter", "path": [[0.0, [15.0, 2.0]]]}],
        "tags": [{"ref": "fob", "carried_by": "walker", "id_hex": "ee" * 20}],
        "duration_s": 30.0,
        "radio": {"seed": 3},
    }
    callers = []
    position_at = UserDevice.position_at

    def counting(self, t):
        callers.append(sys._getframe(1).f_code.co_name)
        return position_at(self, t)

    monkeypatch.setattr(UserDevice, "position_at", counting)
    result = run(load_scenario(walk))
    # the event bound's reach (`sim._at`, per link) and the ground truth of a
    # delivered window (`within_threshold`) ask for positions outside the frames
    per_frame = [c for c in callers if c not in ("_at", "within_threshold")]
    times = {t for t, kind in zip(result.events.times, result.events.kinds) if kind == BROADCAST}
    assert len(times) == 30
    walking_phones, tag_carriers = 2, 1
    assert 0 < len(per_frame) <= (walking_phones + tag_carriers) * len(times)


@pytest.fixture
def derived(monkeypatch):
    """The (key, slot) of every `ephemeral_id` call, in call order."""
    calls = []
    original = ephemeral.ephemeral_id

    def counting(key, slot, id_width):
        calls.append((key, slot))
        return original(key, slot, id_width)

    monkeypatch.setattr(ephemeral, "ephemeral_id", counting)
    return calls


@pytest.mark.parametrize("defences", [["TV", "SJ"], ["SJ"]])
def test_each_rotating_id_is_derived_once_per_run(derived, defences):
    # the walking document has a rotating beacon and a rotating tag, and A1
    # and A6 look IDs up in the run's schedule after the loop
    result = run(load_scenario({**_walking_doc(), "defences": defences}))
    for i in range(len(result.scenario.attacks)):
        attack_metrics(result, i)
    assert derived
    assert len(derived) == len(set(derived))


@pytest.mark.parametrize("defences", [["TV", "SJ"], ["SJ"]])
def test_attack_metrics_derive_no_id_beyond_the_final_window(derived, defences):
    # a pervasive A6 over 1 ms slots: the run covers 120,000 slots, and A1's
    # live coverage may derive each owner key's IDs of the last window only
    doc = _walking_doc()
    doc["attacks"][-1] = {**doc["attacks"][-1], "sniff_mode": "pervasive"}
    doc.update(defences=defences, ephemeral={"slot_duration_s": 0.001, "window_slots": 1})
    result = run(load_scenario(doc))
    in_run = len(derived)
    metrics = [attack_metrics(result, i) for i in range(len(result.scenario.attacks))]
    assert metrics[-1]["n_uploads"] > 0
    assert len(derived) - in_run <= len(result.scenario.reference.owner_keys) * 3


def test_a_replay_run_holds_less_than_200_bytes_per_event():
    # AC-2's rotating shape at a twelfth of its length: what a run keeps grows
    # with its events, so what it keeps per event bounds its memory
    scenario = load_scenario({**_replay_doc(rotating=True, seed=3), "duration_s": 600.0})
    tracemalloc.start()
    try:
        result = run(scenario)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(result.events) < 200
    # window records that heard the same emitters share one set
    sets = [w.emitters for w in result.window_records]
    assert len(set(map(id, sets))) == len(set(sets))


def test_a_pervasive_replayer_s_work_grows_linearly_with_the_run():
    # with 0.5 s slots a pervasive sniffer harvests a new ID every slot; each
    # flood frame picks among the IDs of the newest slot heard, so the run's
    # Python calls grow with its length, not with its square
    def calls(duration):
        doc = _silencing_doc(True, 1, duration)
        doc["attacks"][0]["sniff_mode"] = "pervasive"
        doc["ephemeral"] = {"slot_duration_s": 0.5}
        scenario = load_scenario(doc)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            run(scenario)
        finally:
            sys.setprofile(None)
        return count

    short, long = calls(60.0), calls(240.0)
    assert long <= 4.5 * short, (short, long)


class TestEventBound:
    """A run that could log more than MAX_EVENTS events is refused with a
    ValidationError before its loop starts; the refused tests would run for
    hours, so appending an event fails them."""

    REPROS = {
        # b1 at 1e-9 ms would broadcast 1.2e13 frames in 12 s
        "advert interval": ({"beacons": [static_beacon("b1", 0, AA, interval=1e-9),
                                         static_beacon("b2", 20, BB)]},
                            "emitter 'b1' broadcasts up to 12,000,000,000,000 frames"),
        "drain interval": ({"attacks": [{"kind": "A8", "n_ids": 2, "interval_ms": 1e-6}]},
                           "emitter 'atk0.drain' broadcasts up to 12,000,000,001 frames"),
        "scan window": ({"devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]],
                                      "scan_window_s": 1e-9}]},
                        "device 'phone' scans up to 12,000,000,001 windows"),
        "underflowing interval": ({"beacons": [static_beacon("b1", 0, AA, interval=5e-324),
                                               static_beacon("b2", 20, BB)]},
                                  "emitter 'b1' broadcasts up to inf frames"),
    }

    @pytest.fixture
    def no_loop(self, monkeypatch):
        # the loop appends each event's time to the log's times column
        class Refusing(list):
            def append(self, _):
                raise AssertionError("the run's loop started")

        def refusing_log():
            log = EventLog()
            log.times = Refusing()
            return log

        monkeypatch.setattr(sim, "EventLog", refusing_log)

    @pytest.mark.parametrize("repro", sorted(REPROS))
    def test_a_tiny_interval_loads_and_its_run_is_refused(self, no_loop, repro):
        overrides, culprit = self.REPROS[repro]
        scenario = load_scenario(doc(**overrides))
        with pytest.raises(ValidationError, match="^the run could log up to .* events, more "
                                                  "than the limit of 10,000,000: " + culprit):
            run(scenario)

    @pytest.mark.parametrize("repro", sorted(REPROS))
    def test_simulate_refuses_it_with_exit_1(self, no_loop, tmp_path, capsys, repro):
        overrides, culprit = self.REPROS[repro]
        manifest = tmp_path / "m.yaml"
        manifest.write_text(yaml.safe_dump(doc(**overrides)))
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the run could log up to ") and culprit in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def bounds(self, monkeypatch):
        """The bound of each run, as `_check_event_bound` returns it."""
        seen = []
        check = sim._check_event_bound

        def spy(*args):
            seen.append(check(*args))
            return seen[-1]

        monkeypatch.setattr(sim, "_check_event_bound", spy)
        return seen

    def test_the_limit_is_the_module_constant(self, monkeypatch, tmp_path, capsys):
        # two beacons at 1 s for 12 s, each heard by the phone: 48 events, and
        # at most ceil(12 / 3) + 1 windows, as 12 s plus the loop's tolerance
        manifest = tmp_path / "m.yaml"
        manifest.write_text(yaml.safe_dump(doc()))
        argv = ["simulate", str(manifest), "--out", str(tmp_path / "out")]
        monkeypatch.setattr(sim, "MAX_EVENTS", 52)
        assert main(argv) == 1
        assert "up to 53 events, more than the limit of 52: emitter 'b1' broadcasts up to 12 " \
            "frames, one every 1.0 s" in capsys.readouterr().err
        monkeypatch.setattr(sim, "MAX_EVENTS", 53)
        assert main(argv) == 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_the_bound_admits_and_covers_each_pinned_run(self, bounds, name):
        n_events = len(run(load_scenario(SCENARIOS[name]())).events)
        # 1.00-1.14 times the count: a loose bound would refuse honest runs
        assert n_events <= bounds[0] <= min(1.2 * n_events, MAX_EVENTS)

    def test_moving_phones_count_only_the_frames_in_their_reach(self, bounds):
        # 20 beacons at 100 ms for 60 s, one phone walking past them and 1,000
        # walking a kilometre away: 41,176 events. Counting a reception per
        # frame for every link to a moving phone bounded it at 12,045,021,
        # above the limit.
        beacons = [static_beacon(f"b{k}", 5.0 * k, f"{k:040x}", interval=100.0)
                   for k in range(20)]
        walks = [[[0.0, [0.0, 1.0]], [60.0, [95.0, 1.0]]]]
        walks += [[[0.0, [0.0, 1000.0 + k]], [60.0, [95.0, 1000.0 + k]]] for k in range(1000)]
        scenario = load_scenario(doc(
            beacons=beacons,
            content=[{"id_hex": b["id_hex"], "locator": f"app://{b['ref']}"} for b in beacons],
            devices=[{"ref": f"p{k}", "path": path} for k, path in enumerate(walks)],
            duration_s=60.0,
        ))
        result = run(scenario)
        assert any(e.kind == RECEIVE for e in result.events)
        assert len(result.events) <= bounds[0] <= 1.2 * len(result.events)

    @pytest.mark.parametrize("seed", range(4))
    def test_frames_in_reach_covers_every_frame_in_reach(self, seed):
        # random walks against a point or another walk, counted frame by frame
        rng = random.Random(seed)

        def walk():
            times = sorted(rng.sample(range(-10, 70), rng.randint(1, 5)))
            return UserDevice("w", tuple((float(t), (rng.uniform(0, 60), rng.uniform(0, 60)))
                                         for t in times))

        for _ in range(50):
            a = walk()
            b = walk() if rng.random() < 0.5 else (rng.uniform(0, 60), rng.uniform(0, 60))
            reach, step, duration = rng.uniform(1, 40), rng.uniform(0.05, 3), 60.0
            frames = math.ceil(duration / step)
            at = [(a.position_at(k * step), b.position_at(k * step) if isinstance(b, UserDevice)
                   else b) for k in range(frames)]
            exact = sum(math.dist(p, q) <= reach for p, q in at)
            counted = sim._frames_in_reach(a, b, reach, step, frames, duration)
            # at most one frame too many at each end of a span, a span a piece
            pieces = len(a.path) + len(getattr(b, "path", ())) + 1
            assert exact <= counted <= exact + 2 * pieces


_OUTCOMES = {OUTCOME_BUDGET, OUTCOME_DEBOUNCED, OUTCOME_DELIVERED, OUTCOME_EMPTY, OUTCOME_FAR,
             OUTCOME_FLAGGED}


@st.composite
def small_docs(draw):
    """1-4 static or rotating beacons, standing or walking phones, maybe a
    tag under a guardian, some of A2, A3, A4, A7 and A8, TV on or off."""
    duration = draw(st.sampled_from([10.0, 25.0, 40.0]))
    beacons, content = [], []
    for i in range(draw(st.integers(1, 4))):
        ref, interval = f"b{i + 1}", draw(st.sampled_from([500.0, 900.0, 1000.0]))
        if draw(st.booleans()):
            beacons.append(ephemeral_beacon(ref, 12.0 * i, f"{i + 1:02x}" * 16,
                                            interval=interval))
            content.append({"ref": ref, "locator": f"app://{ref}"})
        else:
            id_hex = f"{i + 1:02x}" * 20
            beacons.append(static_beacon(ref, 12.0 * i, id_hex, interval=interval))
            content.append({"id_hex": id_hex, "locator": f"app://{ref}"})
    devices = []
    for k in range(draw(st.integers(1, 2))):
        x = draw(st.sampled_from([0.0, 10.0, 30.0, 200.0]))  # 200 m: empty windows
        path = [[0.0, [x, 1.0]]]
        if draw(st.booleans()):
            path.append([duration, [40.0 - x, 2.0]])
        devices.append({"ref": f"p{k}", "path": path, "scan_window_s": draw(
            st.sampled_from([1.0, 2.0, 3.0])), "lookup_budget": draw(st.sampled_from([1, 4]))})
    doc = {"beacons": beacons, "content": content, "adjacency_radius_m": 25,
           "devices": devices, "duration_s": duration,
           "radio": {"seed": draw(st.integers(0, 99)), "noise_sigma": 2.0},
           "ephemeral": {"slot_duration_s": 10.0, "window_slots": 1}}
    defences = ["TV"] if draw(st.booleans()) else []
    attacks = []
    if draw(st.booleans()):
        tag = {"ref": "fob", "carried_by": "p0", "adv_interval_ms": 600.0}
        tag.update({"key_hex": "ab" * 16} if draw(st.booleans()) else {"id_hex": "ee" * 20})
        doc["tags"] = [tag]
        doc["guardian"] = {"protected_tag": "fob", "jam_radius_m": 12.0,
                           "reaction_reliability": 0.6}
        defences.append("SJ")
        if draw(st.booleans()):
            attacks.append({"kind": "A7", "target_tag": "fob",
                            "surveillance_positions": [[5.0, 3.0]]})
    last = beacons[-1]["ref"]
    optional = {
        "A2": {"kind": "A2", "sniff_mode": draw(st.sampled_from(["pervasive", "lunch_time"])),
               "source_beacon": "b1", "fake_position": [30.0, 0.0]},
        "A3": {"kind": "A3", "target_beacon": last},
        "A4": {"kind": "A4", "target_beacon": last, "new_id_hex": "dd" * 20},
        "A8": {"kind": "A8", "n_ids": draw(st.integers(1, 6)), "interval_ms": 400.0,
               "position": [6.0, 2.0]},
    }
    attacks += [optional[k] for k in draw(st.lists(st.sampled_from(sorted(optional)),
                                                   unique=True, max_size=3))]
    return {**doc, "defences": defences, "attacks": attacks}


class TestLoopRows:
    """The loop appends its rows to the log's columns itself: each must be one
    that `EventLog.append` and the JSONL reader accept."""

    @settings(max_examples=40, deadline=None)
    @given(small_docs())
    def test_every_row_is_one_the_log_and_the_reader_accept(self, doc):
        result = run(load_scenario(doc))
        log = result.events
        assert len(log.times) == len(log.kinds) == len(log.values) > 0
        for event in log:
            EventLog().append(event.time, event.kind, *event.values)
            assert Event.from_json(event_line(*event)) == event
        for record in result.window_records:
            assert type(record) is WindowRecord and len(record) == 9
            assert record.outcome in _OUTCOMES

    @settings(max_examples=40, deadline=None)
    @given(small_docs())
    def test_the_trace_file_holds_each_phone_s_receive_rows(self, tmp_path_factory, doc):
        result = run(load_scenario(doc))
        devices = [device.ref for device in result.scenario.devices]
        path = str(tmp_path_factory.mktemp("traces") / "traces.jsonl")
        write_traces_jsonl(path, result.events, devices)
        assert read_traces_jsonl(path) == logged_traces(result.events, devices)

    def test_a_row_of_the_wrong_arity_is_refused_after_the_loop(self, monkeypatch):
        monkeypatch.setitem(radio.EVENT_FIELDS, RECEIVE, ("claimed_tx", "emitter", "id", "rssi"))
        with pytest.raises(InvalidInput, match="^the run logged a Receive event of 5 values; "
                                               "a Receive event has 4 values"):
            run(load_scenario(doc()))


class TestTvOffDerivation:
    """With TV off an owner ID resolves once the run has broadcast it, so a run
    derives only the (beacon, slot) IDs its frames used: three rotating beacons
    at 1 ms slots for 60 s derive 180, not one per key for each of 60,000 slots."""

    REPRO = doc(beacons=[ephemeral_beacon(f"b{i}", 10.0 * i, key)
                         for i, key in enumerate(("11" * 16, "22" * 16, "33" * 16))],
                content=[{"ref": f"b{i}", "locator": f"app://{i}"} for i in range(3)],
                defences=[], duration_s=60.0, ephemeral={"slot_duration_s": 0.001})

    @classmethod
    def broadcast_slots(cls, events) -> set:
        """The distinct (beacon, slot) pairs of the rotating beacons' broadcasts."""
        slot_of = EphemeralParams(**cls.REPRO["ephemeral"]).slot_of
        beacons = {b["ref"] for b in cls.REPRO["beacons"]}
        return {(e.values[1], slot_of(e.time)) for e in events
                if e.kind == BROADCAST and e.values[1] in beacons}

    def test_run_derives_the_broadcast_ids_only(self, derived):
        result = run(load_scenario(self.REPRO))
        assert len(result.events) == 380
        assert len(derived) == len(self.broadcast_slots(result.events)) == 180

    def test_simulate_derives_the_broadcast_ids_only(self, derived, tmp_path):
        manifest = tmp_path / "m.yaml"
        manifest.write_text(yaml.safe_dump(self.REPRO))
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "out")]) == 0
        events = read_events_jsonl(str(tmp_path / "out" / "events.jsonl"))
        assert len(derived) == len(self.broadcast_slots(events)) == 180
