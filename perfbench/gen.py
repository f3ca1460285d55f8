"""Seeded input generators for the three benchmark workloads.

Everything here is standard library only: the program under test sees the
generated documents and files, never this module. Equal (seed, size) pairs
give byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Sizes. "full" is what the benchmark measures; "smoke" runs every workload
# in a few seconds for the benchmark's own tests.
SIZES = {
    "full": {
        "replay_duration_s": 1800.0,  # a quarter of AC-2's 7200 s: see REPLAY_NOTE
        "campus_grid": 6,
        "campus_devices": 8,
        "campus_duration_s": 75.0,
        "campus_drain_ids": 160,
        "detect_calibration": 200,
        "detect_clean": 200,
        "detect_mutated_each": 30,
    },
    "smoke": {
        "replay_duration_s": 240.0,
        "campus_grid": 3,
        "campus_devices": 3,
        "campus_duration_s": 60.0,
        "campus_drain_ids": 20,
        "detect_calibration": 40,
        "detect_clean": 40,
        "detect_mutated_each": 5,
    },
}

# ---------------------------------------------------------------------------
# replay-study: the AC-2 shape (5 beacons 100 m apart advertising every 2 s,
# 16 stationary users, 4 users at the fake position, an A2 lunch-time replay)

# REPLAY_NOTE: the runs are a quarter as long as AC-2's. On a 2-vCPU VM shared
# with other tenants, 7200 s runs (145,200 events, 128 MB) varied by a quarter
# between 30 s measurements, 1800 s runs (36,300 events) by far less; the shape
# and the per-event work are the same.
REPLAY_FAKE_POS = (500.0, 0.0)
REPLAY_NEAR_FAKE = tuple(f"f{j}" for j in range(4))
REPLAY_STALE_AFTER_S = 183.0  # harvest slot plus the acceptance window, plus one scan


def replay_doc(seed: int, rotating: bool, radio_seed: int, duration_s: float) -> dict:
    rng = random.Random(f"replay/{seed}")
    beacons, content = [], []
    for i in range(5):
        ref = f"b{i + 1}"
        key_hex = rng.randbytes(16).hex()
        id_hex = rng.randbytes(20).hex()
        base = {"ref": ref, "x": 100.0 * i, "y": 0.0,
                "tx_power_1m": -59.0, "adv_interval_ms": 2000.0}
        if rotating:
            beacons.append({**base, "id_mode": "ephemeral", "key_hex": key_hex})
            content.append({"ref": ref, "locator": f"app://{ref}"})
        else:
            beacons.append({**base, "id_hex": id_hex})
            content.append({"id_hex": id_hex, "locator": f"app://{ref}"})
    devices = [{"ref": f"u{j}", "path": [[0.0, [100.0 * (j % 5) + 1.0 + j // 5, 0.0]]]}
               for j in range(16)]
    devices += [{"ref": ref, "path": [[0.0, [REPLAY_FAKE_POS[0] + j, 1.0]]]}
                for j, ref in enumerate(REPLAY_NEAR_FAKE)]
    return {
        "beacons": beacons,
        "content": content,
        "adjacency_radius_m": 120,
        "devices": devices,
        "duration_s": duration_s,
        "radio": {"seed": radio_seed},
        "attacks": [{"kind": "A2", "sniff_mode": "lunch_time",
                     "source_beacon": "b1", "fake_position": list(REPLAY_FAKE_POS)}],
    }


def replay_pass(seed: int, size: str) -> list[dict]:
    """One pass: a static run, then rotating-ID runs over consecutive seeds.

    Each entry is {"name", "rotating", "document"}; the document is JSON text,
    which the scenario loader reads as YAML.
    """
    duration = SIZES[size]["replay_duration_s"]
    ops = [("static", False, seed), ("rotating-0", True, seed), ("rotating-1", True, seed + 1)]
    return [
        {"name": name, "rotating": rotating,
         "document": json.dumps(replay_doc(seed, rotating, radio_seed, duration), sort_keys=True)}
        for name, rotating, radio_seed in ops
    ]


# ---------------------------------------------------------------------------
# campus-simulate: a rotating-ID grid with walking devices, an A8 drain, and a
# guarded personal tag watched by A7 surveillance

CAMPUS_SPACING_M = 15.0


def campus_manifest(seed: int, size: str) -> dict:
    spec = SIZES[size]
    rng = random.Random(f"campus/{seed}")
    n = spec["campus_grid"]
    duration = spec["campus_duration_s"]
    side = CAMPUS_SPACING_M * (n - 1)
    beacons, content = [], []
    for i in range(n):
        for j in range(n):
            ref = f"g{i}_{j}"
            beacons.append({
                "ref": ref, "x": CAMPUS_SPACING_M * i, "y": CAMPUS_SPACING_M * j,
                "tx_power_1m": -59.0, "adv_interval_ms": 1000.0,
                "id_mode": "ephemeral", "key_hex": rng.randbytes(16).hex(),
            })
            content.append({"ref": ref, "locator": f"app://campus/{ref}"})

    def walk() -> list:
        # waypoints every 20-40 s at uniform random spots on the campus
        path, t = [], 0.0
        while True:
            path.append([round(t, 3), [round(rng.uniform(0.0, side), 3),
                                       round(rng.uniform(0.0, side), 3)]])
            if t >= duration:
                return path
            t += rng.uniform(20.0, 40.0)

    devices = [{"ref": f"d{k}", "path": walk(), "scan_window_s": 3.0}
               for k in range(spec["campus_devices"])]
    # the watchers stand on the tag carrier's route
    route = devices[0]["path"]
    watch = [route[k][1] for k in range(0, len(route), max(1, len(route) // 3))][:3]
    return {
        "beacons": beacons,
        "content": content,
        "adjacency_radius_m": CAMPUS_SPACING_M + 0.5,
        "devices": devices,
        "tags": [{"ref": "fob", "carried_by": "d0", "id_hex": rng.randbytes(20).hex(),
                  "adv_interval_ms": 1000.0}],
        "guardian": {"protected_tag": "fob", "jam_radius_m": 10.0,
                     "reaction_reliability": 0.9, "authorized": ["d1"]},
        "defences": ["TV", "SJ"],
        "duration_s": duration,
        "radio": {"seed": seed},
        "attacks": [
            {"kind": "A8", "n_ids": spec["campus_drain_ids"], "interval_ms": 100.0,
             "position": [side / 2.0, side / 2.0]},
            {"kind": "A7", "target_tag": "fob", "surveillance_positions": watch},
        ],
    }


def write_campus(seed: int, size: str, work: Path) -> Path:
    path = work / "campus.yaml"
    path.write_text(json.dumps(campus_manifest(seed, size), sort_keys=True), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# detect-traces: a static-ID grid, clean random walks for calibration, and a
# test file mixing clean walks with the AC-4 mutation shapes

DETECT_GRID = 6
DETECT_SPACING_M = 10.0
DETECT_P_STAY = 0.3  # the detector's default p_stay
DETECT_WALK_STATES = 20
MUTATION_KINDS = ("A2", "A4", "A5")


def _detect_ids(rng: random.Random) -> dict[str, str]:
    return {f"s{i}_{j}": rng.randbytes(20).hex()
            for i in range(DETECT_GRID) for j in range(DETECT_GRID)}


def _adjacency() -> dict[str, list[str]]:
    adj = {}
    for i in range(DETECT_GRID):
        for j in range(DETECT_GRID):
            steps = ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            adj[f"s{i}_{j}"] = [f"s{a}_{b}" for a, b in steps
                                if 0 <= a < DETECT_GRID and 0 <= b < DETECT_GRID]
    return adj


def _walk(rng: random.Random, adj: dict[str, list[str]]) -> list[str]:
    states = [rng.choice(sorted(adj))]
    while len(states) < DETECT_WALK_STATES:
        here = states[-1]
        states.append(here if rng.random() < DETECT_P_STAY else rng.choice(adj[here]))
    return states


def _far_from(rng: random.Random, adj: dict[str, list[str]], here: str) -> str:
    near = {here, *adj[here]}
    for nbr in adj[here]:
        near.update(adj[nbr])
    return rng.choice(sorted(set(adj) - near))


def _mutate(kind: str, walk: list[str], rng: random.Random, adj: dict[str, list[str]]) -> list[str]:
    if kind == "A2":  # a replayed identity heard far from where the user is
        i = rng.randrange(1, len(walk) - 1)
        return walk[: i + 1] + [_far_from(rng, adj, walk[i])] + walk[i + 1:]
    if kind == "A4":  # a re-programmed beacon broadcasts an unknown ID
        out = list(walk)
        out[rng.randrange(len(out))] = "??"
        return out
    # A5: a visited beacon swapped with a far one; pick one the walk moves into
    moves = [b for a, b in zip(walk, walk[1:]) if a != b]
    here = rng.choice(moves)
    far = _far_from(rng, adj, here)
    swap = {here: far, far: here}
    return [swap.get(s, s) for s in walk]


def _trace_lines(ref: str, walk: list[str], ids: dict[str, str], unknown: str,
                 rng: random.Random) -> list[str]:
    lines, t = [], 0.0
    for state in walk:
        for _ in range(rng.randint(3, 9)):  # several frames per beacon visit
            t += round(rng.uniform(0.2, 1.2), 3)
            lines.append(json.dumps({
                "claimed_tx": -59.0, "device": ref, "id_hex": ids.get(state, unknown),
                "rssi": round(rng.uniform(-85.0, -60.0), 2), "t": round(t, 3),
            }, sort_keys=True))
    return lines


def _write_traces(path: Path, lines: list[str]) -> None:
    head = json.dumps({"format": "beaconlab.traces", "version": 1}, sort_keys=True)
    path.write_text("\n".join([head] + lines) + "\n", encoding="utf-8")


def write_detect(seed: int, size: str, work: Path) -> dict:
    """Write deployment, calibration and test files; return paths and counts."""
    spec = SIZES[size]
    rng = random.Random(f"detect/{seed}")
    ids = _detect_ids(rng)
    adj = _adjacency()
    unknown = rng.randbytes(20).hex()
    deployment = {
        "beacons": [{"ref": ref, "x": DETECT_SPACING_M * int(ref[1:].split("_")[0]),
                     "y": DETECT_SPACING_M * int(ref.split("_")[1]),
                     "tx_power_1m": -59.0, "adv_interval_ms": 1000.0, "id_hex": hexid}
                    for ref, hexid in ids.items()],
        "content": [{"id_hex": hexid, "locator": f"app://grid/{ref}"}
                    for ref, hexid in ids.items()],
        "adjacency_radius_m": DETECT_SPACING_M + 0.5,
    }
    paths = {"deployment": work / "deployment.yaml", "calibration": work / "calibration.jsonl",
             "traces": work / "test.jsonl", "out": work / "verdicts.csv"}
    paths["deployment"].write_text(json.dumps(deployment, sort_keys=True), encoding="utf-8")

    calibration = []
    for k in range(spec["detect_calibration"]):
        calibration += _trace_lines(f"cal{k:04d}", _walk(rng, adj), ids, unknown, rng)
    _write_traces(paths["calibration"], calibration)

    test, refs = [], []
    for k in range(spec["detect_clean"]):
        refs.append(f"clean{k:04d}")
        test += _trace_lines(refs[-1], _walk(rng, adj), ids, unknown, rng)
    for kind in MUTATION_KINDS:
        for k in range(spec["detect_mutated_each"]):
            refs.append(f"mut{kind}-{k:04d}")
            walk = _mutate(kind, _walk(rng, adj), rng, adj)
            test += _trace_lines(refs[-1], walk, ids, unknown, rng)
    _write_traces(paths["traces"], test)
    return {"paths": {k: str(v) for k, v in paths.items()},
            "obs": len(calibration) + len(test), "test_refs": refs}
