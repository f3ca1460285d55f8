"""Golden digests: equal seeds give byte-identical output files.

Each scenario is written to a manifest and run by `beaconlab simulate`, and the
sha256 of the `events.jsonl`, `traces.jsonl` and `metrics.csv` it writes is
pinned. AC-7 only checks that two runs in one process agree; these digests
also catch a change that moves a noise draw, a sequence number or the last
digit of a float, even when every functional test still passes. Replace a digest only for a change that is
meant to alter the output, and say why in CHANGES.md. A fixed `detect` case
pins `verdicts.csv` the same way, through the trace reader, the state resolver
and the scorer.
"""

import hashlib
import random

import pytest
import yaml

from beaconlab import load_scenario, run
from beaconlab.cli import SEED_ENV, main
from beaconlab.storage import (read_events_jsonl, read_traces_jsonl, write_events_jsonl,
                               write_traces_jsonl)
from conftest import AA, BB, CC, DD, KEY1, KEY2, logged_traces, receive_log
from test_acceptance import (
    _PATH_ADJ,
    _PATH_IDS,
    _guarded_doc,
    _replay_doc,
    _silencing_doc,
    _trace,
    _walk,
)


def _shortened(doc: dict, duration: float) -> dict:
    return {**doc, "duration_s": duration}


def _walking_doc() -> dict:
    """Moving receivers and emitters: a walker with a rotating tag under a
    partly reliable guardian, mixed static and rotating beacons, and five
    attack kinds. Every device in the acceptance documents stands still."""
    return {
        "beacons": [
            {"ref": "b1", "x": 0.0, "y": 0.0, "tx_power_1m": -59.0,
             "adv_interval_ms": 700.0, "id_hex": AA},
            {"ref": "b2", "x": 20.0, "y": 0.0, "tx_power_1m": -62.0,
             "adv_interval_ms": 1000.0, "id_mode": "ephemeral", "key_hex": KEY1},
            {"ref": "b3", "x": 40.0, "y": 5.0, "tx_power_1m": -59.0,
             "adv_interval_ms": 900.0, "id_hex": BB},
        ],
        "content": [
            {"id_hex": AA, "locator": "app://one"},
            {"ref": "b2", "locator": "app://two"},
            {"id_hex": BB, "locator": "app://three"},
        ],
        "adjacency_radius_m": 25,
        "devices": [
            {"ref": "walker", "scan_window_s": 2.0,
             "path": [[0.0, [-10.0, 1.0]], [30.0, [20.0, 1.0]],
                      [60.0, [45.0, 4.0]], [90.0, [20.0, -3.0]]]},
            {"ref": "stroller", "scan_window_s": 2.5,
             "path": [[10.0, [70.0, 0.0]], [80.0, [0.0, 2.0]]],
             "apps": [{"ref": "spy", "authorized": True, "malicious": True}]},
            {"ref": "sitter", "path": [[0.0, [20.0, 2.0]]], "lookup_budget": 2},
            {"ref": "far", "path": [[0.0, [400.0, 0.0]]]},
        ],
        "tags": [
            {"ref": "fob", "carried_by": "walker", "key_hex": KEY2, "adv_interval_ms": 600.0},
            {"ref": "badge", "carried_by": "sitter", "id_hex": "ee" * 20,
             "adv_interval_ms": 1100.0},
        ],
        "guardian": {"protected_tag": "fob", "jam_radius_m": 12.0,
                     "reaction_reliability": 0.6, "authorized": ["sitter"]},
        "duration_s": 120.0,
        "radio": {"seed": 5, "noise_sigma": 3.0},
        "ephemeral": {"slot_duration_s": 20.0, "window_slots": 1},
        "attacks": [
            {"kind": "A2", "sniff_mode": "pervasive", "source_beacon": "b2",
             "fake_position": [68.0, 0.0]},
            {"kind": "A7", "target_tag": "badge", "surveillance_positions": [[10.0, 3.0]]},
            {"kind": "A8", "n_ids": 7, "interval_ms": 400.0, "position": [21.0, 3.0],
             "claimed_tx_power": -40.0},
            {"kind": "A1", "attacker_positions": [[5.0, 5.0]]},
            {"kind": "A6", "target_device": "stroller"},
        ],
    }


def _corridor_doc(attacks: list[dict]) -> dict:
    """Four static beacons 15 m apart, one walker crossing them and back, and
    two phones standing by the middle pair: A4 and A5 rewrite the deployment,
    so what they change shows in who gets which content where."""
    ids = (AA, BB, CC, DD)
    return {
        "beacons": [
            {"ref": f"b{i + 1}", "x": 15.0 * i, "y": 0.0, "tx_power_1m": -59.0,
             "adv_interval_ms": 800.0 + 100.0 * i, "id_hex": hexid}
            for i, hexid in enumerate(ids)
        ],
        "content": [{"id_hex": hexid, "locator": f"app://b{i + 1}"}
                    for i, hexid in enumerate(ids)],
        "adjacency_radius_m": 20,
        "devices": [
            {"ref": "walker", "scan_window_s": 2.0,
             "path": [[0.0, [-5.0, 1.0]], [60.0, [50.0, 1.0]], [120.0, [-5.0, -1.0]]]},
            {"ref": "left", "path": [[0.0, [15.0, 2.0]]]},
            {"ref": "right", "path": [[0.0, [30.0, -2.0]]], "lookup_budget": 3},
        ],
        "duration_s": 120.0,
        "radio": {"seed": 11, "noise_sigma": 2.5},
        "attacks": attacks,
    }


SCENARIOS = {
    "ac2-static-600s": lambda: _shortened(_replay_doc(rotating=False, seed=7), 600.0),
    "ac2-rotating-600s": lambda: _shortened(_replay_doc(rotating=True, seed=3), 600.0),
    "ac2-rotating-600s-tv-off": lambda: {
        **_shortened(_replay_doc(rotating=True, seed=3), 600.0), "defences": []},
    "ac3-rotating": lambda: _silencing_doc(True, 1, 1800.0),
    "ac5-guarded": lambda: _guarded_doc(True),
    "walking": _walking_doc,
    "walking-tv-off": lambda: {**_walking_doc(), "defences": ["SJ"]},
    "a4-reprogram": lambda: _corridor_doc(
        [{"kind": "A4", "target_beacon": "b2", "new_id_hex": "ee" * 20}]),
    "a5-reshuffle": lambda: {**_corridor_doc(
        [{"kind": "A5", "action": "swap", "beacons": ["b2", "b3"]},
         {"kind": "A5", "action": "remove", "beacon": "b4"}]),
        "attacker": {"physical_access": True}},
}

FILES = ("events.jsonl", "traces.jsonl", "metrics.csv")

GOLDEN = {
    "ac2-static-600s": {
        "events.jsonl": "021ee9dbe95bbf1e367a6c0000fe0d21b0d9897086050fe1f13e714db3a28112",
        "traces.jsonl": "eac3df5210567c7ab03c926d54dd6a6237ca2eeaec94cca9a29924d2f817a377",
        "metrics.csv": "7cfbd62321dd3cb1b972e4c3dcf154916dd82fb4a111bf31167dc05eaae7165c",
    },
    "ac2-rotating-600s": {
        "events.jsonl": "715e6b71f9ee8564a4a1b2ade4851621d28025419a4ac6bc8f8819012cbf3e2a",
        "traces.jsonl": "c836cf86cdb50cc8e75f6533616f7302a4d32b1cd4bab369b5b528a0ad1db286",
        "metrics.csv": "569eece5c827ce1eca9780d17e148a8b8ebce7effeefff005c106d8203b1ecb8",
    },
    # Without TV the ID the lunch-time replayer harvested keeps resolving
    # after its window has passed, so the stale replay is accepted: events and
    # metrics differ from the TV-on case, and the metrics equal the static run's.
    "ac2-rotating-600s-tv-off": {
        "events.jsonl": "2d57afe9ccb757c88d24836d711f4ac37cbd82982f1de48cd3b14da57a05d78a",
        "traces.jsonl": "c836cf86cdb50cc8e75f6533616f7302a4d32b1cd4bab369b5b528a0ad1db286",
        "metrics.csv": "7cfbd62321dd3cb1b972e4c3dcf154916dd82fb4a111bf31167dc05eaae7165c",
    },
    "ac3-rotating": {
        "events.jsonl": "3b3b846ee294a2360be4f78cb3607a71c1d95cbb9f1c5fa9c83638c0d4d6ca39",
        "traces.jsonl": "b387446079203db8446c2fdf124c478f2f52dbaf366cfd98cfb3dc88fb4a35e2",
        "metrics.csv": "4ef4bd24cb61ede124a7d5c0cde9a6af7f700b23bf4f1b59d19cf09ab7076d7c",
    },
    "ac5-guarded": {
        "events.jsonl": "b2b48c802a25abe64a114373b6664be21a9b5e80fd02dbd87ad1fabc5b52500f",
        "traces.jsonl": "17f7fe362846fde537d6731bbaf074b09fca7ae6e4b551615a2f6cf162e28ae0",
        "metrics.csv": "132c7c4b1ca7de7848b2206f5a0cff4601f85e7beff50ef79cf87101dd550379",
    },
    "walking": {
        "events.jsonl": "246c799b40c9dba4177def2a74482192a93cbf314f4aa5e3476c183130b87f69",
        "traces.jsonl": "65f7ff720983091d72ca2d63fedbaaa504a3a67d31c9a8ad45ad26dc6a615415",
        "metrics.csv": "1faf8d7975608fa0627448dfda5d95caaf5eb74dde718dc506418e94279859e3",
    },
    # Without TV, an owner ID resolves at any time once the run has broadcast
    # it. The walking document's replayer is pervasive and so always replays
    # a fresh ID: these files equal the TV-on ones, and what they pin is that
    # turning TV off changes none of A1's live coverage, A6's owner lookups or A2.
    "walking-tv-off": {
        "events.jsonl": "246c799b40c9dba4177def2a74482192a93cbf314f4aa5e3476c183130b87f69",
        "traces.jsonl": "65f7ff720983091d72ca2d63fedbaaa504a3a67d31c9a8ad45ad26dc6a615415",
        "metrics.csv": "1faf8d7975608fa0627448dfda5d95caaf5eb74dde718dc506418e94279859e3",
    },
    "a4-reprogram": {
        "events.jsonl": "24f1b6822073ee36a155a0e9e6d9d0aea522df1b6c059c62df38378058fbe43f",
        "traces.jsonl": "e97ca7890d090fffd460626aeaee7def1651998d90bef7fe94655c175b7a9477",
        "metrics.csv": "321870bef56797fb781d13bb900183ebf3c8befcc84d9e12137887d5c0aee165",
    },
    "a5-reshuffle": {
        "events.jsonl": "ccbabcfc7c6cbc59caa50950483808b83e320d712e64e1847614c75f38095a39",
        "traces.jsonl": "4843232a0454643fe2ed834e996ec4ef2265d10be8b6a047c2d32aa7a155b8de",
        "metrics.csv": "c5da391228ab306b2469a4e36d64f047b20fb57d72e658f1f0c1bdae74748a11",
    },
}


def _digests(doc: dict, tmp_path, monkeypatch) -> dict[str, str]:
    """The digests of what `beaconlab simulate` writes for doc."""
    monkeypatch.delenv(SEED_ENV, raising=False)
    manifest, out_dir = tmp_path / "scenario.yaml", tmp_path / "out"
    manifest.write_text(yaml.safe_dump(doc))
    assert main(["simulate", str(manifest), "--out", str(out_dir)]) == 0
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_pinned_digests(name, tmp_path, monkeypatch):
    assert _digests(SCENARIOS[name](), tmp_path, monkeypatch) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_readers_take_back_what_a_run_writes(name, tmp_path):
    # the readers check each value's type; every value a run writes must pass
    result = run(load_scenario(SCENARIOS[name]()))
    devices = [device.ref for device in result.scenario.devices]
    write_events_jsonl(str(tmp_path / "events.jsonl"), result.events)
    write_traces_jsonl(str(tmp_path / "traces.jsonl"), result.events, devices)
    assert read_events_jsonl(str(tmp_path / "events.jsonl")) == list(result.events)
    assert read_traces_jsonl(str(tmp_path / "traces.jsonl")) == logged_traces(result.events,
                                                                              devices)


def _detect_inputs(tmp_path) -> list[str]:
    """A fixed `detect` case on the four-beacon path of AC-4: 30 clean
    calibration walks, then 12 clean walks, 4 with a jump to a beacon that is
    not adjacent (A2), 4 with a sighting of an ID the deployment does not own
    (A4), 4 with b2 and b3 swapped (A5) and one walk too short to judge."""
    rng = random.Random(2024)
    deployment = tmp_path / "deployment.yaml"
    deployment.write_text(yaml.safe_dump({
        "beacons": [{"ref": ref, "x": 20.0 * i, "y": 0.0, "tx_power_1m": -59.0,
                     "adv_interval_ms": 1000.0, "id_hex": hexid}
                    for i, (ref, hexid) in enumerate(_PATH_IDS.items())],
        "content": [{"id_hex": hexid, "locator": f"app://{ref}"}
                    for ref, hexid in _PATH_IDS.items()],
        "adjacency": [["b1", "b2"], ["b2", "b3"], ["b3", "b4"]],
    }))
    calibration = tmp_path / "calibration.jsonl"
    write_traces_jsonl(str(calibration),
                       *receive_log([_trace(_walk(rng), f"cal{k}") for k in range(30)]))

    def jump(walk):
        i = rng.randrange(1, len(walk) - 1)
        far = [u for u in _PATH_ADJ if u != walk[i] and u not in _PATH_ADJ[walk[i]]]
        return walk[: i + 1] + [rng.choice(far)] + walk[i + 1:]

    def unknown(walk):
        out = list(walk)
        out[rng.randrange(len(out))] = "??"
        return out

    swap = {"b2": "b3", "b3": "b2"}
    walks = [(f"clean{k}", _walk(rng)) for k in range(12)]
    for kind, mutate in (("a2", jump), ("a4", unknown),
                         ("a5", lambda w: [swap.get(s, s) for s in w])):
        walks += [(f"{kind}-{k}", mutate(_walk(rng))) for k in range(4)]
    walks.append(("short", ["b1", "b2"]))
    traces = tmp_path / "traces.jsonl"
    write_traces_jsonl(str(traces), *receive_log([_trace(states, ref) for ref, states in walks]))
    return ["detect", "--deployment", str(deployment), "--traces", str(traces),
            "--calibration", str(calibration), "--alpha", "0.1"]


# sha256 of verdicts.csv for the fixed detect case, taken before the trace
# reader and the state resolver were rewritten for speed.
DETECT_VERDICTS = "d6ca1db1aad8a8a3959ab954a39895efeffadaac5dd544cac9ea255d1a73f130"


def test_detect_verdicts_match_pinned_digest(tmp_path):
    out = tmp_path / "verdicts.csv"
    assert main(_detect_inputs(tmp_path) + ["--out", str(out)]) == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DETECT_VERDICTS


# sha256 of `beaconlab assess` stdout and its exit code, per (motives,
# capabilities, format): the worked example, the A6 note beside a likely
# attack, the A6 note with no likely attack, and every code at once.
ASSESS = {
    ("M2,M3", "C1,C2,C3,C6", "text"):
        (0, "c0b7b4ed635384a0f2a42343380444a3d656a8fd3af43b880048f52570f62724"),
    ("M2,M3", "C1,C2,C3,C6", "json"):
        (0, "0140bf43b9c2f541ea21a3fb58675d4f85a9d0fec3eb5852454c52226b51174a"),
    ("M4", "C1,C2,C6", "text"):
        (0, "f1694f72cf8e05458b2ac598033b6ab28f8b003e7e576c2b765baeec4ad2c4bd"),
    ("M4", "C1,C2,C6", "json"):
        (0, "d53294a1e6984dfca8e2d22bfe56b850e18c5c5ec47c8fda5701b7fed2c84e2a"),
    ("M4", "C1,C2", "text"):
        (0, "a113b6f75dd3f51ab8286bcf0a98a1a33a01be2697e2b85f04cdf558acb58841"),
    ("M4", "C1,C2", "json"):
        (0, "b308a44e7f993e32152493b843fd4709d040b6e8ffe2fb40f41b4d2666c91711"),
    ("M1,M2,M3,M4,M5", "C1,C2,C3,C4,C5,C6,C7", "text"):
        (3, "90cb5f14a284c701428a0c7ae2fce1333aba05863d5d676c5c80c3d2d9d415fb"),
    ("M1,M2,M3,M4,M5", "C1,C2,C3,C4,C5,C6,C7", "json"):
        (3, "dde889fdcdb55934e717e58b238d3f84b021e39470a6a5dcadabda6fe3c6a488"),
}


@pytest.mark.parametrize("motives,capabilities,fmt", sorted(ASSESS))
def test_assess_output_matches_pinned_digest(motives, capabilities, fmt, capsys):
    code = main(["assess", "--motives", motives, "--capabilities", capabilities,
                 "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == ASSESS[motives, capabilities, fmt]


# sha256 of the filter file and of stdout for `beaconlab ephemeral build`,
# per build: sized from --fp, and with explicit --m/--k (an m that leaves a
# partial last byte, a negative slot, a narrow ID and a shorter slot). Pinned
# before `build_filter` and the other filter builders shared one constructor.
EPHEMERAL_BUILDS = {
    "fp": (["--slot", "120", "--window", "3", "--fp", "0.001"],
           ("dfc115f3386c47342cf54bd848c6b5b6b54ae582849bd7d086977ab15d93f420",
            "8fe965c2d7ebf06307d5547a4d327eec4522bcbf2029a12de895dc2e47419f6d")),
    "m-k": (["--slot", "-7", "--m", "101", "--k", "3", "--width", "8",
             "--slot-duration", "30"],
            ("f2b77d53629dce2e65ca56c4a54ea9ca8bc6f3a6044b242c258fd01927769a86",
             "039a454748f90a2fefec94cbd8b40242baf5276b583e9cc82dfaa4766409ad3e")),
}


@pytest.mark.parametrize("name", sorted(EPHEMERAL_BUILDS))
def test_ephemeral_build_matches_pinned_digests(name, tmp_path, monkeypatch, capsys):
    flags, pinned = EPHEMERAL_BUILDS[name]
    monkeypatch.chdir(tmp_path)  # stdout names the file; keep the name relative
    (tmp_path / "keys.yaml").write_text(yaml.safe_dump({"b1": KEY1, "b2": KEY2, "b3": "33" * 16}))
    assert main(["ephemeral", "build", "--keys", "keys.yaml", "--out", "f.blf"] + flags) == 0
    digests = (hashlib.sha256((tmp_path / "f.blf").read_bytes()).hexdigest(),
               hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == pinned
