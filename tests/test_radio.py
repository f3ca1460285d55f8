import hashlib
import json
import math
import struct

import pytest
from hypothesis import example, given, strategies as st

from beaconlab import (
    Event,
    EventLog,
    InvalidInput,
    RadioParams,
    estimate_distance,
    mean_rssi,
)
from beaconlab.radio import EVENT_FIELDS, event_line, frame_key, link_key, shadowing_db
from beaconlab.radio import uniform_draw

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


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

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_a_seed_outside_signed_64_bit_is_refused(self, seed):
        with pytest.raises(InvalidInput, match=r"seed must be in \[-2\*\*63, 2\*\*63 - 1\]"):
            RadioParams(seed=seed)
        with pytest.raises(InvalidInput):
            RadioParams(seed=seed, noise_sigma=0.0)

    @pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
    def test_the_signed_64_bit_ends_are_seeds(self, seed):
        assert RadioParams(seed=seed).seed == seed
        frame_key(seed, 0)  # packs


def _reference_words(seed: int, counter: int, first: str, second: str) -> tuple[int, int]:
    """The two words of a keyed draw, hashed in the one layout the radio
    docstring states: seed and counter as big-endian signed 64-bit ints, then
    the two refs with a NUL byte between them."""
    digest = hashlib.sha256(
        struct.pack(">qq", seed, counter) + first.encode() + b"\x00" + second.encode()).digest()
    return struct.unpack(">QQ", digest[:16])


class TestShadowing:
    def test_deterministic_and_keyed(self):
        link = link_key("b1", "phone")
        a = shadowing_db(frame_key(1, 5), link, 2.0)
        assert shadowing_db(frame_key(1, 5), link, 2.0) == a
        assert shadowing_db(frame_key(1, 5), link_key("b1", "other"), 2.0) != a
        assert shadowing_db(frame_key(1, 6), link, 2.0) != a
        assert shadowing_db(frame_key(2, 5), link, 2.0) != a

    def test_zero_sigma_is_silent(self):
        assert shadowing_db(frame_key(1, 5), link_key("b1", "phone"), 0.0) == 0.0

    def test_distribution_moments(self):
        sigma = 2.0
        link = link_key("b1", "phone")
        draws = [shadowing_db(frame_key(0, i), link, sigma) for i in range(20000)]
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

    @given(seed=INT64, frame=st.integers(min_value=0, max_value=2**63 - 1),
           emitter=st.text(), receiver=st.text(),
           sigma=st.floats(min_value=0.0, max_value=1e6))
    @example(seed=-(2**63), frame=0, emitter="bé", receiver="téléphone", sigma=2.0)
    @example(seed=2**63 - 1, frame=2**63 - 1, emitter="信标", receiver="📱\x00", sigma=1.0)
    def test_a_draw_hashes_the_frame_key_then_the_link_key(self, seed, frame, emitter, receiver,
                                                           sigma):
        # refs are any text, non-ASCII and NUL included: a ref encodes as UTF-8
        w1, w2 = _reference_words(seed, frame, emitter, receiver)
        expected = 0.0 if sigma == 0 else (
            sigma * math.sqrt(-2.0 * math.log((w1 + 1) / (2.0**64 + 2)))
            * math.cos(2.0 * math.pi * (w2 / 2.0**64)))
        assert shadowing_db(frame_key(seed, frame), link_key(emitter, receiver), sigma) == expected
        assert uniform_draw(seed, emitter, receiver, frame) == w1 / 2.0**64

class TestEventLog:
    def test_json_round_trip(self):
        event = Event(1.5, 3, "Receive", (-59.0, "b1", "aa", "phone", -61.25))
        again = Event.from_json(event_line(*event))
        assert again == event

    def test_json_is_canonical(self):
        event = Event(0.0, 0, "Broadcast", (-59.0, "b1", 0, "aa"))
        raw = json.loads(event_line(*event))
        assert list(raw) == sorted(raw)
        assert list(raw["data"]) == sorted(raw["data"]) == list(EVENT_FIELDS["Broadcast"])

    def test_append_and_filter(self):
        log = EventLog()
        log.append(0.0, "Broadcast", -59.0, "b1", 0, "aa")
        log.append(0.0, "Receive", -59.0, "b1", "aa", "phone", -60.5)
        assert len(log) == 2
        assert [e.kind for e in log] == ["Broadcast", "Receive"]
        assert [e.seq for e in log] == [0, 1]
        assert list(log)[1].data == {"claimed_tx": -59.0, "emitter": "b1", "id": "aa",
                                     "receiver": "phone", "rssi": -60.5}

    def test_iterating_yields_each_position_as_seq_and_the_appended_values(self):
        appended = [(0.0, "Broadcast", (-59.0, "b1", 0, "aa")),
                    (0.0, "Receive", (-59.0, "b1", "aa", "phone", -60.5)),
                    (3.0, "NoAction", (None, "phone", "empty")),
                    (3.0, "Jammed", (["phone"], 1, "fob"))]
        log = EventLog()
        for time, kind, values in appended:
            log.append(time, kind, *values)
        events = list(log)
        assert all(type(e) is Event for e in events)
        assert [tuple(e) for e in events] == [(time, seq, kind, values)
                                             for seq, (time, kind, values) in enumerate(appended)]
        assert list(log) == events  # each pass starts from the first event

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            EventLog().append(0.0, "Mystery")

    @pytest.mark.parametrize("values", [(), ("phone",), (None, "phone", "far", "extra")])
    def test_value_count_must_match_the_kind(self, values):
        with pytest.raises(InvalidInput, match="NoAction event has 3 values"):
            EventLog().append(0.0, "NoAction", *values)
        with pytest.raises(InvalidInput, match="no 'NoAction' event template"):
            event_line(0.0, 0, "NoAction", values)

    def test_a_kind_without_a_template_is_not_rendered(self):
        with pytest.raises(InvalidInput, match="no 'Mystery' event template"):
            event_line(0.0, 0, "Mystery", ())

    def test_each_kind_declares_sorted_fields(self):
        for fields in EVENT_FIELDS.values():
            assert list(fields) == sorted(set(fields))

    def test_a_none_value_leaves_its_field_out(self):
        event = Event(3.0, 4, "NoAction", (None, "phone", "empty"))
        assert event.data == {"device": "phone", "reason": "empty"}
        assert json.loads(event_line(*event))["data"] == {"device": "phone", "reason": "empty"}
        assert Event.from_json(event_line(*event)) == event
