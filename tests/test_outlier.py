import math

import pytest

from beaconlab import (
    BeaconId,
    ContaminatedCalibration,
    DetectorParams,
    InsufficientData,
    InvalidInput,
    MarkovModel,
    Observation,
    TooShort,
    Trace,
    build_markov,
    calibrate_threshold,
    detect,
    load_deployment,
    score_trace,
    trace_transitions,
)
from beaconlab.outlier import UNKNOWN
from conftest import AA, BB, CC, DD, detector_resolver

IDS = {"b1": AA, "b2": BB, "b3": CC, "b4": DD}


def deployment(positions, edges):
    doc = {
        "beacons": [
            {
                "ref": ref,
                "x": x,
                "y": y,
                "tx_power_1m": -59.0,
                "adv_interval_ms": 1000.0,
                "id_hex": IDS[ref],
            }
            for ref, (x, y) in positions.items()
        ],
        "content": [
            {"id_hex": IDS[ref], "locator": f"app://{ref}"} for ref in positions
        ],
        "adjacency": [list(e) for e in edges],
    }
    return load_deployment(doc)


def path3():
    return deployment(
        {"b1": (0, 0), "b2": (10, 0), "b3": (20, 0)},
        [("b1", "b2"), ("b2", "b3")],
    )


def trace_of(states, device_ref="phone"):
    by_state = {ref: bytes.fromhex(IDS[ref]) for ref in IDS}
    by_state[UNKNOWN] = b"\xff" * 20
    observations = tuple(
        Observation(float(i), BeaconId(by_state[s]), -70.0, -59.0)
        for i, s in enumerate(states)
    )
    return Trace(device_ref, observations)


class TestBuildMarkov:
    def test_uniform_rows(self):
        model = build_markov(path3(), p_stay=0.3)
        assert model.probs["b1"] == {"b1": 0.3, "b2": pytest.approx(0.7)}
        assert model.probs["b2"] == {
            "b2": 0.3,
            "b1": pytest.approx(0.35),
            "b3": pytest.approx(0.35),
        }

    def test_inverse_distance_splits_by_proximity(self):
        # b2's neighbors sit at 1 m and 2 m, so the move mass splits 2:1
        dep = deployment(
            {"b1": (1, 0), "b2": (0, 0), "b3": (2, 0)},
            [("b1", "b2"), ("b2", "b3")],
        )
        model = build_markov(dep, p_stay=0.3, weighting="inverse_distance")
        assert model.transition_prob("b2", "b1") == pytest.approx(0.7 * 2 / 3)
        assert model.transition_prob("b2", "b3") == pytest.approx(0.7 / 3)

    def test_isolated_beacon_keeps_all_mass(self):
        dep = deployment({"b1": (0, 0), "b2": (10, 0)}, [])
        model = build_markov(dep, p_stay=0.3)
        assert model.probs["b1"] == {"b1": 1.0}

    def test_unknown_is_absorbing_and_unreachable(self):
        model = build_markov(path3())
        assert model.transition_prob(UNKNOWN, UNKNOWN) == 1.0
        assert model.transition_prob("b1", UNKNOWN) == 0.0

    def test_rows_sum_to_one(self):
        dep = deployment(
            {"b1": (0, 0), "b2": (3, 0), "b3": (0, 4), "b4": (9, 9)},
            [("b1", "b2"), ("b1", "b3"), ("b2", "b3")],
        )
        for weighting in ("uniform", "inverse_distance"):
            model = build_markov(dep, p_stay=0.25, weighting=weighting)
            for state in model.states:
                assert sum(model.probs[state].values()) == pytest.approx(1.0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInput):
            build_markov(path3(), p_stay=1.0)
        with pytest.raises(InvalidInput):
            build_markov(path3(), weighting="geodesic")

    def test_model_rejects_broken_rows(self):
        with pytest.raises(InvalidInput, match="sums to"):
            MarkovModel(states=("b1",), probs={"b1": {"b1": 0.4}}, p_stay=0.3, weighting="uniform")


class TestTraceTransitions:
    def test_debounce_collapses_repeats(self):
        resolver = detector_resolver(path3())
        trace = trace_of(["b1", "b1", "b1", "b2", "b2", "b3"])
        assert trace_transitions(trace, resolver) == [("b1", "b2"), ("b2", "b3")]

    def test_no_debounce_keeps_repeats(self):
        resolver = detector_resolver(path3())
        trace = trace_of(["b1", "b1", "b2"])
        assert trace_transitions(trace, resolver, debounce=False) == [
            ("b1", "b1"),
            ("b1", "b2"),
        ]

    def test_unresolvable_becomes_unknown(self):
        resolver = detector_resolver(path3())
        trace = trace_of(["b1", UNKNOWN, "b2"])
        assert trace_transitions(trace, resolver) == [
            ("b1", UNKNOWN),
            (UNKNOWN, "b2"),
        ]


class TestScoreTrace:
    def test_average_nll_oracle(self):
        # p_stay=0 on the path graph: b1->b2 is forced (p=1), b2->b3 is a
        # coin flip (p=0.5), so the trace averages (0 + ln 2) / 2.
        model = build_markov(path3(), p_stay=0.0)
        score = score_trace(model, [("b1", "b2"), ("b2", "b3")], min_transitions=1)
        assert score.avg_nll == pytest.approx(math.log(2) / 2)
        assert score.hard_flags == ()
        assert score.n_transitions == 2

    def test_zero_probability_is_a_hard_flag(self):
        model = build_markov(path3())
        score = score_trace(model, [("b1", "b3")], min_transitions=1)
        assert score.hard_flags == (("b1", "b3"),)
        assert score.avg_nll is None

    def test_unknown_is_a_hard_flag_not_a_score(self):
        model = build_markov(path3())
        score = score_trace(
            model, [("b1", UNKNOWN), (UNKNOWN, UNKNOWN), ("b1", "b2")], min_transitions=1
        )
        assert len(score.hard_flags) == 2
        assert score.avg_nll == pytest.approx(-math.log(0.7))

    def test_too_short_without_evidence(self):
        model = build_markov(path3())
        with pytest.raises(TooShort):
            score_trace(model, [("b1", "b2")], min_transitions=3)

    def test_short_but_flagged_is_judgeable(self):
        model = build_markov(path3())
        score = score_trace(model, [("b1", "b3")], min_transitions=3)
        assert score.hard_flags


def staircase_traces(n=25, length=24):
    """Trace k has k self-transitions and length-k moves; scores increase in k."""
    traces = []
    for k in range(n):
        states = ["b1"]
        for step in range(length):
            if step < k:
                states.append(states[-1])
            else:
                states.append("b2" if states[-1] == "b1" else "b1")
        traces.append(trace_of(states, device_ref=f"cal{k}"))
    return traces


class TestCalibrateThreshold:
    def test_quantile_index(self):
        dep = deployment({"b1": (0, 0), "b2": (10, 0)}, [("b1", "b2")])
        model = build_markov(dep, p_stay=0.3)
        resolver = detector_resolver(dep)
        traces = staircase_traces(25)
        threshold = calibrate_threshold(
            model, traces, resolver, alpha=0.05, debounce=False
        )
        # ceil(0.95 * 25) - 1 = 23: the second largest of 25 scores
        k = 23
        expected = (k * -math.log(0.3) + (24 - k) * -math.log(0.7)) / 24
        assert threshold == pytest.approx(expected)

    def test_contaminated_calibration_names_the_device(self):
        dep = deployment({"b1": (0, 0), "b2": (10, 0)}, [("b1", "b2")])
        model = build_markov(dep, p_stay=0.3)
        resolver = detector_resolver(dep)
        traces = staircase_traces(25)
        traces[5] = trace_of(["b1", UNKNOWN, "b1", "b2"], device_ref="mole")
        with pytest.raises(ContaminatedCalibration, match="mole"):
            calibrate_threshold(model, traces, resolver, debounce=False)

    def test_insufficient_data(self):
        dep = deployment({"b1": (0, 0), "b2": (10, 0)}, [("b1", "b2")])
        model = build_markov(dep, p_stay=0.3)
        resolver = detector_resolver(dep)
        with pytest.raises(InsufficientData):
            calibrate_threshold(model, staircase_traces(12), resolver, debounce=False)


class TestDetect:
    def setup_method(self):
        self.dep = path3()
        self.model = build_markov(self.dep, p_stay=0.3)
        self.resolver = detector_resolver(self.dep)

    def test_requires_calibration(self):
        with pytest.raises(InvalidInput, match="calibrated"):
            detect(self.model, trace_of(["b1", "b2", "b3", "b2"]), DetectorParams(), self.resolver)

    def test_clean_trace_is_normal(self):
        params = DetectorParams(threshold=2.0)
        verdict = detect(self.model, trace_of(["b1", "b2", "b3", "b2"]), params, self.resolver)
        assert not verdict.anomalous
        assert verdict.reasons == ()

    def test_hard_flag_trumps_a_generous_threshold(self):
        params = DetectorParams(threshold=100.0)
        verdict = detect(self.model, trace_of(["b1", "b3", "b1", "b3"]), params, self.resolver)
        assert verdict.anomalous
        assert "impossible transitions" in verdict.reasons[0]

    def test_score_above_threshold(self):
        params = DetectorParams(threshold=0.1, debounce=False)
        verdict = detect(
            self.model, trace_of(["b1", "b1", "b1", "b1", "b1"]), params, self.resolver
        )
        assert verdict.anomalous
        assert verdict.avg_nll == pytest.approx(-math.log(0.3))
        assert "above threshold" in verdict.reasons[0]
