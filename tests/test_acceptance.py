"""Acceptance gate: one test per headline claim, each printing a single
PASS/FAIL line with the measured numbers behind the verdict.

Run with -s (or read captured output) to see the lines.
"""

import itertools
import math
import random
import time

from beaconlab import (
    BeaconId,
    BloomFilter,
    DetectorParams,
    Observation,
    Trace,
    assess,
    attack_metrics,
    attacks_for_capabilities,
    attacks_for_motives,
    bloom_contains,
    bloom_size_for,
    build_markov,
    calibrate_threshold,
    default_matrix,
    detect,
    estimate_distance,
    expected_fp_rate,
    load_deployment,
    load_scenario,
    mean_rssi,
    recommend_defences,
    run,
)
from beaconlab.cli import main
from beaconlab.radio import event_line
from beaconlab.sim import OUTCOME_DELIVERED
from conftest import AA, CC, detector_resolver


def _report(label: str, ok: bool, detail: str) -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_ac1_worked_assessment_example(capsys):
    t0 = time.perf_counter()
    report = assess(default_matrix(), ["M2", "M3"], ["C1", "C2", "C3", "C6"])
    rc = main(["assess", "--motives", "M2,M3", "--capabilities", "C1,C2,C3,C6"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    common = tuple(report.defences["common"])
    ok = (
        report.likely_attacks == ("A2", "A3")
        and common == ("TV",)
        and rc == 0  # defended: the attention exit is reserved for uncovered attacks
        and "A2" in out and "A3" in out and "common defences: TV" in out
        and elapsed < 1.0
    )
    _report("AC-1", ok,
            f"likely={'+'.join(report.likely_attacks)} common={'+'.join(common)} "
            f"elapsed={elapsed:.3f}s")


_FAKE_POS = (500.0, 0.0)
_STALE_AFTER_S = 183.0  # harvest slot plus the acceptance window, plus one scan


def _replay_doc(rotating: bool, seed: int) -> dict:
    beacons, content = [], []
    for i in range(5):
        ref = f"b{i + 1}"
        base = {"ref": ref, "x": 100.0 * i, "y": 0.0,
                "tx_power_1m": -59.0, "adv_interval_ms": 2000.0}
        if rotating:
            beacons.append({**base, "id_mode": "ephemeral", "key_hex": f"{i + 1:02d}" * 16})
            content.append({"ref": ref, "locator": f"app://{ref}"})
        else:
            hexid = f"{i + 1:02x}" * 20
            beacons.append({**base, "id_hex": hexid})
            content.append({"id_hex": hexid, "locator": f"app://{ref}"})
    devices = [{"ref": f"u{j}", "path": [[0.0, [100.0 * (j % 5) + 1.0 + j // 5, 0.0]]]}
               for j in range(16)]
    devices += [{"ref": f"f{j}", "path": [[0.0, [_FAKE_POS[0] + j, 1.0]]]}
                for j in range(4)]
    return {
        "beacons": beacons,
        "content": content,
        "adjacency_radius_m": 120,
        "devices": devices,
        "duration_s": 7200.0,
        "radio": {"seed": seed},
        "attacks": [{"kind": "A2", "sniff_mode": "lunch_time",
                     "source_beacon": "b1", "fake_position": list(_FAKE_POS)}],
    }


def test_ac2_spoofing_blunted_by_rotating_ids():
    t0 = time.perf_counter()
    near_fake = {f"f{j}" for j in range(4)}

    result = run(load_scenario(_replay_doc(rotating=False, seed=7)))
    delivered = [w for w in result.window_records
                 if w.device_ref in near_fake and w.outcome == OUTCOME_DELIVERED]
    wrong_rate = sum(not w.correct for w in delivered) / len(delivered)

    late_wrong = 0
    early_wrong_seen = rejected_seen = True
    for seed in range(1, 11):
        res = run(load_scenario(_replay_doc(rotating=True, seed=seed)))
        records = [w for w in res.window_records if w.device_ref in near_fake]
        late_wrong += sum(w.outcome == OUTCOME_DELIVERED and not w.correct
                          and w.t_end > _STALE_AFTER_S for w in res.window_records)
        early_wrong_seen &= any(w.outcome == OUTCOME_DELIVERED and not w.correct
                                and w.t_end <= _STALE_AFTER_S for w in records)
        rejected_seen &= any(w.n_rejected > 0 and w.t_end > _STALE_AFTER_S
                             for w in records)
    elapsed = time.perf_counter() - t0
    ok = (wrong_rate >= 0.5 and late_wrong == 0
          and early_wrong_seen and rejected_seen and elapsed < 30.0)
    _report("AC-2", ok,
            f"static wrong-content rate={wrong_rate:.2f} (need >=0.5), "
            f"stale-replay wrong deliveries={late_wrong} across 10 seeds (need 0), "
            f"elapsed={elapsed:.1f}s")


def _silencing_doc(rotating: bool, seed: int, duration: float) -> dict:
    if rotating:
        beacon = {"ref": "b1", "x": 0.0, "y": 0.0, "tx_power_1m": -59.0,
                  "adv_interval_ms": 1000.0, "id_mode": "ephemeral", "key_hex": "aa" * 16}
        content = [{"ref": "b1", "locator": "app://one"}]
    else:
        beacon = {"ref": "b1", "x": 0.0, "y": 0.0, "tx_power_1m": -59.0,
                  "adv_interval_ms": 1000.0, "id_hex": AA}
        content = [{"id_hex": AA, "locator": "app://one"}]
    return {
        "beacons": [beacon],
        "content": content,
        "adjacency_radius_m": 25,
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]],
                     "proximity_threshold_m": 5.0}],
        "duration_s": duration,
        "radio": {"seed": seed},
        "attacks": [{"kind": "A3", "target_beacon": "b1"}],
    }


def test_ac3_flood_suppression_bounded_by_rotation():
    t0 = time.perf_counter()
    min_plain, max_rotating = 1.0, 0.0
    flood_rejected = True
    for seed in range(1, 11):
        plain = run(load_scenario(_silencing_doc(False, seed, 600.0)))
        min_plain = min(min_plain, attack_metrics(plain, 0)["suppression_rate"])

        rot = run(load_scenario(_silencing_doc(True, seed, 1800.0)))
        max_rotating = max(max_rotating, attack_metrics(rot, 0)["suppression_rate"])
        flood_rejected &= any(w.n_rejected > 0 and w.t_end > _STALE_AFTER_S
                              for w in rot.window_records)
        flood_rejected &= any(w.outcome == OUTCOME_DELIVERED and w.t_end > _STALE_AFTER_S
                              for w in rot.window_records)
    elapsed = time.perf_counter() - t0
    ok = (min_plain >= 0.9 and max_rotating <= 0.1
          and flood_rejected and elapsed < 30.0)
    _report("AC-3", ok,
            f"undefended suppression>={min_plain:.2f} (need >=0.9), "
            f"rotating suppression<={max_rotating:.3f} (need <=0.1), "
            f"stale flood rejected={flood_rejected}, elapsed={elapsed:.1f}s")


_PATH_IDS = {"b1": "aa" * 20, "b2": "bb" * 20, "b3": "cc" * 20, "b4": "dd" * 20}
_PATH_ADJ = {"b1": ("b2",), "b2": ("b1", "b3"), "b3": ("b2", "b4"), "b4": ("b3",)}
_UNKNOWN_ID = "ee" * 20


def _path4_deployment():
    return load_deployment({
        "beacons": [{"ref": ref, "x": 20.0 * i, "y": 0.0, "tx_power_1m": -59.0,
                     "adv_interval_ms": 1000.0, "id_hex": _PATH_IDS[ref]}
                    for i, ref in enumerate(("b1", "b2", "b3", "b4"))],
        "content": [{"id_hex": hexid, "locator": f"app://{ref}"}
                    for ref, hexid in _PATH_IDS.items()],
        "adjacency": [["b1", "b2"], ["b2", "b3"], ["b3", "b4"]],
    })


def _walk(rng: random.Random, length: int = 20) -> list[str]:
    states = [rng.choice(tuple(_PATH_ADJ))]
    while len(states) < length:
        here = states[-1]
        states.append(here if rng.random() < 0.3 else rng.choice(_PATH_ADJ[here]))
    return states


def _trace(states, ref="dev") -> Trace:
    obs = tuple(
        Observation(3.0 * i, BeaconId(bytes.fromhex(_PATH_IDS.get(s, _UNKNOWN_ID))),
                    -70.0, -59.0)
        for i, s in enumerate(states)
    )
    return Trace(ref, obs)


def test_ac4_outlier_detection_on_path_graph():
    t0 = time.perf_counter()
    dep = _path4_deployment()
    model = build_markov(dep)
    resolver = detector_resolver(dep)
    rng = random.Random(42)

    threshold = calibrate_threshold(model, (_trace(_walk(rng)) for _ in range(50)),
                                    resolver, alpha=0.05)
    params = DetectorParams(threshold=threshold)

    fp = sum(detect(model, _trace(_walk(rng)), params, resolver).anomalous
             for _ in range(200)) / 200.0

    def spoofed(walk):
        i = rng.randrange(1, len(walk) - 1)
        here = walk[i]
        far = [u for u in _PATH_ADJ if u != here and u not in _PATH_ADJ[here]]
        return walk[: i + 1] + [rng.choice(far)] + walk[i + 1:]

    def tampered(walk):
        out = list(walk)
        out[rng.randrange(len(out))] = "??"  # resolves to no known beacon
        return out

    swap = {"b2": "b3", "b3": "b2"}
    rates = {}
    for kind, mutate in (
        ("A2", spoofed),
        ("A4", tampered),
        ("A5", lambda w: [swap.get(s, s) for s in w]),
    ):
        hits = 0
        for _ in range(100):
            verdict = detect(model, _trace(mutate(_walk(rng))), params, resolver)
            hits += bool(verdict.hard_flags)
        rates[kind] = hits / 100.0
    elapsed = time.perf_counter() - t0
    ok = (all(r >= 0.95 for r in rates.values()) and fp <= 0.08 and elapsed < 30.0)
    _report("AC-4", ok,
            f"detection A2={rates['A2']:.2f} A4={rates['A4']:.2f} A5={rates['A5']:.2f} "
            f"(need >=0.95), clean FP={fp:.3f} (need <=0.08), elapsed={elapsed:.1f}s")


def _guarded_doc(with_guardian: bool) -> dict:
    doc = {
        "beacons": [{"ref": "b1", "x": 0.0, "y": 0.0, "tx_power_1m": -59.0,
                     "adv_interval_ms": 1000.0, "id_hex": AA}],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "adjacency_radius_m": 25,
        "devices": [{"ref": "alice", "path": [[0.0, [0.0, 1.0]]]},
                    {"ref": "dave", "path": [[0.0, [0.0, 2.0]]]}],
        "tags": [{"ref": "fob", "carried_by": "alice", "id_hex": CC,
                  "adv_interval_ms": 1000.0}],
        "duration_s": 60.0,
        "radio": {"seed": 21},
        "attacks": [{"kind": "A7", "target_tag": "fob",
                     "surveillance_positions": [[3.0, 0.0]]}],
    }
    if with_guardian:
        doc["guardian"] = {"protected_tag": "fob", "jam_radius_m": 10.0,
                           "reaction_reliability": 1.0, "authorized": ["dave"]}
    return doc


def test_ac5_guardian_blinds_watchers_without_side_effects():
    guarded = run(load_scenario(_guarded_doc(True)))
    open_run = run(load_scenario(_guarded_doc(False)))

    detections = len(guarded.detections.get(0, []))
    open_detections = len(open_run.detections.get(0, []))

    fob_frames = sum(1 for e in guarded.events
                     if e.kind == "Broadcast" and e.data["emitter"] == "fob")
    dave_heard = sum(1 for e in guarded.events
                     if e.kind == "Receive" and e.data["emitter"] == "fob"
                     and e.data["receiver"] == "dave")

    def essence(log, drop_surveillance_fob):
        out = []
        for e in log:
            if e.kind == "Jammed":
                continue
            if drop_surveillance_fob and e.kind == "Receive" \
                    and e.data["emitter"] == "fob" and e.data["receiver"] == "atk0.rx0":
                continue
            out.append((e.time, e.kind, e.data))
        return out

    same_world = essence(guarded.events, False) == essence(open_run.events, True)
    s1 = {k: v for k, v in guarded.summary().items() if k != "n_events"}
    s2 = {k: v for k, v in open_run.summary().items() if k != "n_events"}

    ok = (detections == 0 and open_detections > 0
          and fob_frames > 0 and dave_heard == fob_frames
          and same_world and s1 == s2)
    _report("AC-5", ok,
            f"guarded detections={detections} (need 0, open run saw {open_detections}), "
            f"authorized heard {dave_heard}/{fob_frames} tag frames, "
            f"delivery stats identical={s1 == s2}, log diff empty={same_world}")


def test_ac6_bloom_rates_match_theory():
    rng = random.Random(99)

    def measure(m_bits, k_hashes, n_items, probes=100_000):
        items = set()
        while len(items) < n_items:
            items.add(rng.randbytes(20))
        filt = BloomFilter.from_items(m_bits, k_hashes, items)
        misses = sum(not bloom_contains(filt, item) for item in items)
        hits = tried = 0
        while tried < probes:
            probe = rng.randbytes(20)
            if probe in items:
                continue
            tried += 1
            hits += bloom_contains(filt, probe)
        return hits / tried, misses

    default_m, default_k = bloom_size_for(500, 0.01)
    geometries = [(default_m, default_k, 500), (4096, 3, 300), (2048, 5, 100)]
    ratios = []
    for m, k, n in geometries:
        measured, _ = measure(m, k, n)
        ratios.append(measured / expected_fp_rate(m, k, n))

    _, false_negatives = measure(*bloom_size_for(10_000, 0.01), 10_000, probes=1)

    ok = all(0.5 <= r <= 2.0 for r in ratios) and false_negatives == 0
    _report("AC-6", ok,
            "measured/expected FP ratios " +
            ", ".join(f"{r:.2f}" for r in ratios) +
            f" (need within [0.5, 2.0]), false negatives={false_negatives}/10000")


def test_ac7_distance_roundtrip_and_replayable_logs():
    rng = random.Random(3)
    worst = 0.0
    for _ in range(1000):
        tx = rng.uniform(-80.0, -40.0)
        d = rng.uniform(1.0, 400.0)
        exponent = rng.uniform(1.5, 4.5)
        est = estimate_distance(tx, mean_rssi(tx, d, exponent), exponent)
        worst = max(worst, abs(est - d) / d)

    first = run(load_scenario(_guarded_doc(True)))
    second = run(load_scenario(_guarded_doc(True)))
    blob1 = "\n".join(event_line(*e) for e in first.events).encode()
    blob2 = "\n".join(event_line(*e) for e in second.events).encode()

    ok = worst < 1e-9 and blob1 == blob2
    _report("AC-7", ok,
            f"worst relative distance error={worst:.2e} (need <1e-9), "
            f"equal-seed logs byte-identical={blob1 == blob2} ({len(blob1)} bytes)")


def test_ac8_matrix_set_laws_exhaustively():
    t0 = time.perf_counter()
    matrix = default_matrix()
    caps = sorted(matrix.capabilities)
    motives = sorted(matrix.motives)
    attacks = sorted(matrix.attacks)
    universe = frozenset(matrix.defences)

    cap_sets = [frozenset(c) for r in range(len(caps) + 1)
                for c in itertools.combinations(caps, r)]
    motive_sets = [frozenset(m) for r in range(len(motives) + 1)
                   for m in itertools.combinations(motives, r)]
    feasible = {s: attacks_for_capabilities(matrix, s) for s in cap_sets}
    motivated = {s: attacks_for_motives(matrix, s) for s in motive_sets}

    monotone = all(feasible[s] <= feasible[s | {c}]
                   for s in cap_sets for c in caps if c not in s)
    intersects = all(
        assess(matrix, m, c).likely_attacks == tuple(sorted(motivated[m] & feasible[c]))
        for m in motive_sets for c in cap_sets
    )

    def common(attack_set):
        if not attack_set:
            return universe  # nothing to defend against constrains nothing
        return frozenset(recommend_defences(matrix, attack_set)["common"])

    attack_sets = [frozenset(c) for r in range(len(attacks) + 1)
                   for c in itertools.combinations(attacks, r)]
    anti_monotone = all(common(s | {a}) <= common(s)
                        for s in attack_sets for a in attacks if a not in s)
    elapsed = time.perf_counter() - t0
    ok = monotone and intersects and anti_monotone and elapsed < 5.0
    _report("AC-8", ok,
            f"feasibility monotone={monotone}, "
            f"likely = motivated & feasible over {len(motive_sets) * len(cap_sets)} "
            f"combinations={intersects}, common-defence anti-monotone={anti_monotone}, "
            f"elapsed={elapsed:.1f}s")


def test_ac9_score_matches_bruteforce_product():
    t0 = time.perf_counter()
    from beaconlab import score_trace

    worst = 0.0
    n_scored = n_flagged = 0
    flags_agree = True
    for n in range(1, 5):
        refs = tuple(f"b{i + 1}" for i in range(n))
        possible_edges = list(itertools.combinations(refs, 2))
        for r in range(len(possible_edges) + 1):
            for edges in itertools.combinations(possible_edges, r):
                dep = load_deployment({
                    "beacons": [{"ref": ref, "x": 20.0 * i, "y": 0.0,
                                 "tx_power_1m": -59.0, "adv_interval_ms": 1000.0,
                                 "id_hex": f"{i + 1:02x}" * 20}
                                for i, ref in enumerate(refs)],
                    "content": [{"id_hex": f"{i + 1:02x}" * 20, "locator": f"app://{i}"}
                                for i in range(n)],
                    "adjacency": [list(e) for e in edges],
                })
                model = build_markov(dep)

                nbrs = {ref: sorted({b for e in edges for a, b in (e, e[::-1]) if a == ref})
                        for ref in refs}
                prob = {}
                for ref in refs:
                    if not nbrs[ref]:
                        prob[ref, ref] = 1.0
                        continue
                    prob[ref, ref] = 0.3
                    for other in nbrs[ref]:
                        prob[ref, other] = 0.7 / len(nbrs[ref])

                for length in range(2, 7):
                    for seq in itertools.product(refs, repeat=length):
                        transitions = list(zip(seq, seq[1:]))
                        zero = tuple(t for t in transitions if prob.get(t, 0.0) == 0.0)
                        score = score_trace(model, transitions, min_transitions=1)
                        if zero:
                            n_flagged += 1
                            flags_agree &= score.hard_flags == zero
                        live = [prob[t] for t in transitions if prob.get(t, 0.0) > 0.0]
                        if not live:
                            flags_agree &= score.avg_nll is None
                            continue
                        expected = -sum(math.log(p) for p in live) / len(live)
                        worst = max(worst, abs(score.avg_nll - expected))
                        n_scored += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and flags_agree and n_scored > 100_000
    _report("AC-9", ok,
            f"max |avg_nll - oracle|={worst:.1e} over {n_scored} sequences "
            f"({n_flagged} with impossible steps, flags agree={flags_agree}), "
            f"elapsed={elapsed:.1f}s")
