"""The benchmark's traced run wraps program functions by name.

`perfbench/spans.py` lists them in `TIMED` and patches every binding of each.
A refactor that renames, moves or hides one fails here, in the tier-1 suite,
and not only when the benchmark's traced run is next made.
"""

import importlib.util
import json
import os
from pathlib import Path

import beaconlab
import beaconlab.cli  # the tracer patches cmd_simulate and cmd_detect
from conftest import AA, CC, KEY1, KEY2, ephemeral_beacon, static_beacon

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_timed_function():
    tracer = _load_spans().Tracer()
    run_before = beaconlab.sim.run
    try:
        tracer.install()
        assert beaconlab.sim.run is not run_before
    finally:
        tracer.uninstall()
    assert beaconlab.sim.run is run_before


def test_every_reception_draws_its_noise_through_the_traced_binding():
    # a phone, a harvest sniffer (A1) and a surveillance sniffer (A7) all hear
    # the beacon and the tag; the benchmark's check that each Receive event
    # made one traced noise draw must hold for all three
    doc = {
        "beacons": [static_beacon("b1", 0, AA)],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]], [6.0, [4.0, 1.0]]]}],
        "tags": [{"ref": "fob", "carried_by": "phone", "id_hex": CC}],
        "attacks": [
            {"kind": "A1", "attacker_positions": [[1.0, 0.0]]},
            {"kind": "A7", "target_tag": "fob", "surveillance_positions": [[2.0, 0.0]]},
        ],
        "duration_s": 6.0,
        "radio": {"seed": 1},
    }
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        result = beaconlab.run(beaconlab.load_scenario(doc))
        tracer.end_op()
    finally:
        tracer.uninstall()
    receives = [e for e in result.events if e.kind == "Receive"]
    assert {e.data["receiver"] for e in receives} == {"phone", "atk0.rx0", "atk1.rx0"}
    assert tracer.totals([0])["radio.shadowing"][0] == len(receives)


def test_each_slot_a_window_resolves_in_builds_one_traced_filter():
    # the benchmark checks, under TV with no static IDs, that the traced
    # filter builds equal the distinct slots of the windows that heard a
    # frame: a lookup made outside the traced binding would read short
    doc = {
        "beacons": [ephemeral_beacon("b1", 0, KEY1), ephemeral_beacon("b2", 15, KEY2)],
        "content": [{"ref": "b1", "locator": "app://one"}, {"ref": "b2", "locator": "app://two"}],
        "devices": [{"ref": "phone", "path": [[0.0, [-5.0, 1.0]], [40.0, [60.0, 1.0]]]}],
        "duration_s": 40.0,
        "defences": ["TV"],
        "ephemeral": {"slot_duration_s": 5.0, "window_slots": 1},
        "radio": {"seed": 1},
    }
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        result = beaconlab.run(beaconlab.load_scenario(doc))
        tracer.end_op()
    finally:
        tracer.uninstall()
    eph = result.scenario.ephemeral
    slots = {eph.slot_of(w.t_end) for w in result.window_records if w.n_frames > 0}
    assert len(slots) > 3
    assert tracer.totals([0])["ephemeral.filter_build"][0] == len(slots)


def test_simulate_writes_its_logs_under_the_traced_storage_spans(tmp_path, monkeypatch):
    # the benchmark's storage.us_per_event_written reads these two spans: a
    # refactor that writes the logs from under other names would read 0 there.
    # Run in one process: where simulate forks, traces.jsonl is written, and
    # its span recorded, in a child this tracer does not see.
    monkeypatch.delattr(os, "fork")
    doc = {
        "beacons": [static_beacon("b1", 0, AA)],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]], [6.0, [4.0, 1.0]]]}],
        "duration_s": 6.0,
    }
    manifest = tmp_path / "scenario.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        code = beaconlab.cli.main(["simulate", str(manifest), "--out", str(tmp_path / "out")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals([0])
    assert totals["storage.write_events"][0] == 1
    assert totals["storage.write_traces"][0] == 1
    assert (tmp_path / "out" / "events.jsonl").stat().st_size > 100
