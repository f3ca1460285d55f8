"""Attack/defence pairings: each defence must strictly improve the metric
its row in the matrix claims it improves, under otherwise identical runs."""

import pytest

from beaconlab import (
    DetectorParams,
    attack_metrics,
    build_markov,
    detect,
    load_scenario,
    run,
)
from conftest import (AA, BB, CC, KEY1, KEY2, detector_resolver, ephemeral_beacon, logged_traces,
                      static_beacon)
from test_acceptance import _STALE_AFTER_S, _replay_doc

KEY3 = "33" * 16


def run_doc(doc):
    return run(load_scenario(doc))


def three_beacons(rotating, spacing=60.0):
    make = ephemeral_beacon if rotating else static_beacon
    ids = [KEY1, KEY2, KEY3] if rotating else [AA, BB, CC]
    beacons = [make(f"b{i + 1}", i * spacing, ids[i]) for i in range(3)]
    if rotating:
        content = [{"ref": f"b{i + 1}", "locator": f"app://{i + 1}"} for i in range(3)]
    else:
        content = [{"id_hex": ids[i], "locator": f"app://{i + 1}"} for i in range(3)]
    return beacons, content


def harvest_doc(rotating):
    beacons, content = three_beacons(rotating)
    return {
        "beacons": beacons,
        "content": content,
        "adjacency_radius_m": 70,
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
        "duration_s": 300.0,
        "radio": {"seed": 8, "noise_sigma": 0.0},
        "attacks": [{"kind": "A1", "sniff_mode": "lunch_time"}],
    }


class TestRotationVsSpoofing:
    def test_without_tv_a_stale_replay_keeps_resolving(self):
        # without TV an owner ID of any slot resolves, so the lunch-time
        # recording never expires; with TV it stops once its slot leaves the
        # acceptance window
        def late_wrong_deliveries(defences):
            doc = {**_replay_doc(rotating=True, seed=3), "duration_s": 600.0,
                   "defences": defences}
            return sum(w.outcome == "delivered" and not w.correct and w.t_end > _STALE_AFTER_S
                       for w in run_doc(doc).window_records)

        assert late_wrong_deliveries(["TV"]) == 0
        assert late_wrong_deliveries([]) > 0


class TestRotationVsHarvesting:
    def test_a1_live_coverage_collapses(self):
        static = attack_metrics(run_doc(harvest_doc(rotating=False)), 0)
        rotating = attack_metrics(run_doc(harvest_doc(rotating=True)), 0)
        assert static["live_coverage"] == 1.0
        assert rotating["live_coverage"] == 0.0
        assert rotating["coverage"] == 1.0  # the IDs were heard, just stale now

    def test_a6_localization_fraction_drops(self):
        def profiling_doc(rotating):
            beacons, content = three_beacons(rotating)
            walk = [[0.0, [0.0, 1.0]], [150.0, [60.0, 1.0]], [300.0, [120.0, 1.0]]]
            return {
                "beacons": beacons,
                "content": content,
                "adjacency_radius_m": 70,
                "devices": [{
                    "ref": "phone", "path": walk,
                    "apps": [{"ref": "mole", "authorized": True, "malicious": True}],
                }],
                "duration_s": 300.0,
                "radio": {"seed": 8, "noise_sigma": 0.0},
                "attacks": [{"kind": "A6", "sniff_mode": "lunch_time",
                             "target_device": "phone"}],
            }

        static = attack_metrics(run_doc(profiling_doc(rotating=False)), 0)
        rotating = attack_metrics(run_doc(profiling_doc(rotating=True)), 0)
        assert static["n_uploads"] > 0 and rotating["n_uploads"] > 0
        assert static["localization_fraction"] == 1.0
        assert rotating["localization_fraction"] < 0.3
        assert rotating["localization_fraction"] < static["localization_fraction"]

    def test_a7_keyed_tag_defeats_presence_watching(self):
        def presence_doc(keyed):
            identity = {"key_hex": KEY3} if keyed else {"id_hex": CC}
            return {
                "beacons": [static_beacon("b1", 100, AA)],
                "content": [{"id_hex": AA, "locator": "app://one"}],
                "adjacency_radius_m": 25,
                "devices": [{"ref": "alice", "path": [[0.0, [0.0, 1.0]]]}],
                "tags": [{"ref": "fob", "carried_by": "alice",
                          "adv_interval_ms": 1000.0, **identity}],
                "duration_s": 60.0,
                "radio": {"seed": 8, "noise_sigma": 0.0},
                "attacks": [{"kind": "A7", "target_tag": "fob",
                             "surveillance_positions": [[0.0, 0.0]]}],
            }

        watched = attack_metrics(run_doc(presence_doc(keyed=False)), 0)
        keyed = attack_metrics(run_doc(presence_doc(keyed=True)), 0)
        assert watched["detection_count"] > 0
        assert watched["presence_intervals"]
        assert keyed["detection_count"] == 0
        assert keyed["presence_intervals"] == []


class TestRotationVsFlooding:
    def test_a3_suppression_shrinks_to_the_stale_window(self):
        def silence_doc(rotating):
            if rotating:
                beacons = [ephemeral_beacon("b1", 0, KEY1)]
                content = [{"ref": "b1", "locator": "app://one"}]
            else:
                beacons = [static_beacon("b1", 0, AA)]
                content = [{"id_hex": AA, "locator": "app://one"}]
            return {
                "beacons": beacons,
                "content": content,
                "adjacency_radius_m": 25,
                "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
                "duration_s": 600.0,
                "radio": {"seed": 8, "noise_sigma": 0.0},
                "attacks": [{"kind": "A3", "target_beacon": "b1"}],
            }

        exposed = attack_metrics(run_doc(silence_doc(rotating=False)), 0)
        rotating = attack_metrics(run_doc(silence_doc(rotating=True)), 0)
        assert exposed["suppression_rate"] == 1.0
        # replayed IDs go stale once the verifier window moves past the
        # harvest slot; only the early windows stay suppressed
        assert rotating["suppression_rate"] < 0.5
        assert rotating["suppression_rate"] > 0.0


@pytest.mark.parametrize("rotating", [False, True], ids=["static", "rotating"])
class TestOutlierVsTampering:
    """`detect` resolves IDs by the run's rule, so OD judges rotating-ID
    deployments as it judges static ones, and TV and OD compound on A2."""

    @staticmethod
    def walk_doc(rotating, path=((0.0, [0.0, 1.0]), (120.0, [40.0, 1.0])), **extra):
        beacons, content = three_beacons(rotating, spacing=20.0)
        return {
            "beacons": beacons,
            "content": content,
            "adjacency_radius_m": 25,
            "devices": [{"ref": "phone", "path": [list(wp) for wp in path]}],
            "duration_s": path[-1][0],
            "radio": {"seed": 8, "noise_sigma": 0.0, "max_range_m": 15.0},
            **extra,
        }

    def detect_trace(self, doc):
        result = run(load_scenario(doc))
        scenario = result.scenario
        model = build_markov(scenario.reference)
        resolver = detector_resolver(scenario.reference, scenario.ephemeral)
        params = DetectorParams(threshold=10.0)
        trace, = logged_traces(result.events, ["phone"])
        return detect(model, trace, params, resolver)

    def test_clean_walk_raises_no_flags(self, rotating):
        verdict = self.detect_trace(self.walk_doc(rotating))
        assert not verdict.anomalous
        assert verdict.hard_flags == ()
        assert verdict.avg_nll is not None

    def test_a2_nonadjacent_spoof_is_flagged(self, rotating):
        # a fake b3 advertiser parked next to b1 makes the walk read
        # b3 -> b1, a transition the mounting graph says cannot happen
        doc = self.walk_doc(rotating, attacks=[{
            "kind": "A2", "sniff_mode": "pervasive", "source_beacon": "b3",
            "fake_position": [0.0, 0.0], "attacker_positions": [[40.0, 0.0]]}])
        verdict = self.detect_trace(doc)
        assert verdict.anomalous
        assert "b3" in verdict.hard_flags[0]

    def test_a4_unknown_id_is_flagged(self, rotating):
        doc = self.walk_doc(rotating, attacks=[{
            "kind": "A4", "target_beacon": "b2", "new_id_hex": "dd" * 20}])
        verdict = self.detect_trace(doc)
        assert verdict.anomalous
        assert any("UNKNOWN" in flag for flag in verdict.hard_flags)

    def test_a_stale_lunch_time_replay_is_flagged(self, rotating):
        # b3's IDs are recorded in the first slot and replayed next to b1,
        # which the phone reaches only at t = 195 s, after slot 0 has left
        # the acceptance window (slots 0-2 at 60 s each). A static replay
        # still reads as b3; a stale rotating one reads as UNKNOWN.
        doc = self.walk_doc(
            rotating, path=((0.0, [40.0, 1.0]), (120.0, [40.0, 1.0]), (240.0, [0.0, 1.0])),
            attacks=[{"kind": "A2", "sniff_mode": "lunch_time", "source_beacon": "b3",
                      "fake_position": [0.0, 0.0], "attacker_positions": [[40.0, 0.0]]}])
        verdict = self.detect_trace(doc)
        assert verdict.anomalous
        states = {state for flag in verdict.hard_flags for state in flag}
        assert "b1" in states
        assert ("UNKNOWN" in states) is rotating
        assert ("b3" in states) is not rotating
