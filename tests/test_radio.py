import json
import math

import pytest
from hypothesis import given, strategies as st

from beaconlab import (
    Event,
    EventLog,
    InvalidInput,
    RadioParams,
    estimate_distance,
    mean_rssi,
)
from beaconlab.radio import shadowing_db, uniform_draw


class TestPathLoss:
    def test_reference_point(self):
        assert mean_rssi(-59.0, 1.0, 2.0) == -59.0

    def test_ten_meters_free_space_like(self):
        # 10 m with exponent 2 costs exactly 20 dB
        assert mean_rssi(-59.0, 10.0, 2.0) == pytest.approx(-79.0)

    def test_submeter_clamps_to_reference(self):
        assert mean_rssi(-59.0, 0.3, 2.0) == mean_rssi(-59.0, 1.0, 2.0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InvalidInput):
            mean_rssi(-59.0, 0.0, 2.0)

    def test_estimate_distance_worked_value(self):
        # a frame claiming -45 dBm received at -79 dBm looks ~50 m away
        assert estimate_distance(-45.0, -79.0, 2.0) == pytest.approx(50.11872336, rel=1e-9)

    @given(
        tx=st.floats(min_value=-100.0, max_value=0.0),
        d=st.floats(min_value=1.0, max_value=50.0),
        n=st.floats(min_value=1.5, max_value=6.0),
    )
    def test_estimate_inverts_model(self, tx, d, n):
        rssi = mean_rssi(tx, d, n)
        assert estimate_distance(tx, rssi, n) == pytest.approx(d, rel=1e-9)

    def test_params_validation(self):
        with pytest.raises(InvalidInput):
            RadioParams(path_loss_exponent=0.0)
        with pytest.raises(InvalidInput):
            RadioParams(noise_sigma=-1.0)
        with pytest.raises(InvalidInput):
            RadioParams(max_range=0.0)


class TestShadowing:
    def test_deterministic_and_keyed(self):
        a = shadowing_db(1, "b1", 5, "phone", 2.0)
        assert shadowing_db(1, "b1", 5, "phone", 2.0) == a
        assert shadowing_db(1, "b1", 5, "other", 2.0) != a
        assert shadowing_db(1, "b1", 6, "phone", 2.0) != a
        assert shadowing_db(2, "b1", 5, "phone", 2.0) != a

    def test_zero_sigma_is_silent(self):
        assert shadowing_db(1, "b1", 5, "phone", 0.0) == 0.0

    def test_distribution_moments(self):
        sigma = 2.0
        draws = [shadowing_db(0, "b1", i, "phone", sigma) for i in range(20000)]
        mean = sum(draws) / len(draws)
        var = sum((x - mean) ** 2 for x in draws) / len(draws)
        assert mean == pytest.approx(0.0, abs=0.05)
        assert math.sqrt(var) == pytest.approx(sigma, rel=0.03)

    def test_uniform_draw_range_and_spread(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        draws = [uniform_draw(0, "jam", "tag", i) for i in range(16000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        counts = [0] * 16
        for x in draws:
            counts[int(x * 16)] += 1
        _, p = scipy_stats.chisquare(counts)
        assert p > 0.01


class TestEventLog:
    def test_json_round_trip(self):
        event = Event(1.5, 3, "Receive", {"receiver": "phone", "rssi": -61.25})
        again = Event.from_json(event.to_json())
        assert again == event

    def test_json_is_canonical(self):
        event = Event(0.0, 0, "Broadcast", {"b": 1, "a": 2})
        raw = json.loads(event.to_json())
        assert list(raw) == sorted(raw)

    def test_append_and_filter(self):
        log = EventLog()
        log.append(0.0, "Broadcast", emitter="b1")
        log.append(0.0, "Receive", receiver="phone")
        assert len(log) == 2
        assert [e.kind for e in log] == ["Broadcast", "Receive"]
        assert [e.seq for e in log] == [0, 1]

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            EventLog().append(0.0, "Mystery")
