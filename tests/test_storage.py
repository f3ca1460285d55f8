import contextlib
import errno
import gc
import json
import math
import os
import random
import re
import signal
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from beaconlab import (
    BeaconId,
    InvalidInput,
    Observation,
    SchemaError,
    Trace,
    read_events_jsonl,
    read_metrics_csv,
    read_traces_jsonl,
    write_detect_csv,
    write_events_jsonl,
    write_metrics_csv,
    write_traces_jsonl,
)
from beaconlab import storage
from beaconlab.radio import (
    BROADCAST, CONTENT_DELIVERED, EVENT_FIELDS, JAMMED, NO_ACTION, OPTIONAL_FIELDS, RECEIVE,
    EventLog, event_line,
)
from beaconlab.storage import metric_rows
from conftest import AA, BB, receive_log

TRACES_HEADER = '{"format": "beaconlab.traces", "version": 1}'


def sample_log():
    log = EventLog()
    log.append(0.0, BROADCAST, -59.0, "b1", 0, AA)
    log.append(0.0, RECEIVE, -59.0, "b1", AA, "phone", -60.5)
    log.append(3.0, CONTENT_DELIVERED, "b1", "app://one", True, "phone")
    return log


def sample_traces():
    return (
        Trace("phone", (
            Observation(0.0, BeaconId(bytes.fromhex(AA)), -60.5, -59.0),
            Observation(1.0, BeaconId(bytes.fromhex(BB)), -75.25, -59.0),
        )),
        Trace("tablet", (
            Observation(0.5, BeaconId(bytes.fromhex(AA)), -62.0, -59.0),
        )),
    )


class TestEventsJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = sample_log()
        write_events_jsonl(path, log)
        loaded = read_events_jsonl(path)
        assert [event_line(*e) for e in loaded] == [event_line(*e) for e in log]
        assert [e.seq for e in loaded] == [0, 1, 2]

    def test_header_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(str(path), sample_log())
        head = json.loads(path.read_text().splitlines()[0])
        assert head == {"format": "beaconlab.events", "version": 1}

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"format": "beaconlab.traces", "version": 1}\n')
        with pytest.raises(SchemaError, match="expected"):
            read_events_jsonl(str(path))

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"format": "beaconlab.events", "version": 2}\n')
        with pytest.raises(SchemaError, match="version"):
            read_events_jsonl(str(path))

    def test_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SchemaError, match="header"):
            read_events_jsonl(str(path))

    @pytest.mark.parametrize("bad", [
        "{}",
        "not json",
        '{"t": 0.0, "seq": 0, "kind": "Mystery", "data": 5}',
        '{"t": 0.0, "seq": 0, "kind": "NoAction", "data": {"device": "phone", "rssi": -60.0}}',
        '{"t": 0.0, "seq": 0, "kind": "NoAction", "data": 5}',
        '{"t": 0.0, "seq": 0, "kind": ["NoAction"], "data": {}}',
        "[1, 2]",
        '{"t": "x", "seq": -1, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": "x", "seq": 0, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": true, "seq": 0, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": null, "seq": 0, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": NaN, "seq": 0, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": -Infinity, "seq": 0, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": 0.0, "seq": -1, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": 0.0, "seq": 1.5, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": 0.0, "seq": false, "kind": "NoAction", "data": {"device": 5}}',
        '{"t": 0.0, "seq": "0", "kind": "NoAction", "data": {"device": 5}}',
        '{"t": 0.0, "seq": 3, "kind": "NoAction", "data": {"device": 5, "reason": "empty"}}',
        '{"t": 0.0, "seq": 3, "kind": "Receive", "data": {"claimed_tx": -59.0, "emitter": "b1", '
        '"id": "aa", "receiver": "phone"}}',
        '{"t": 0.0, "seq": 3, "kind": "Receive", "data": {"claimed_tx": -59.0, "emitter": "b1", '
        '"id": "aa", "receiver": "phone", "rssi": true}}',
        '{"t": 0.0, "seq": 3, "kind": "NoAction", "data": {"beacon": null, "device": "phone", '
        '"reason": "empty"}}',
        '{"t": 0.0, "seq": 7, "kind": "NoAction", "data": {"device": "phone", "reason": "empty"}}',
    ])
    def test_bad_line_is_reported_with_its_number(self, tmp_path, bad):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(str(path), sample_log())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        with pytest.raises(SchemaError, match=r"events\.jsonl:5: bad event line"):
            read_events_jsonl(str(path))

    def test_int_time_and_seq_load(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(str(path), sample_log())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"t": {10**400}, "seq": 3, "kind": "NoAction", '
                     f'"data": {{"device": "phone", "reason": "empty"}}}}\n')
        assert read_events_jsonl(str(path))[-1][:2] == (10**400, 3)

    def test_seq_must_be_the_position_of_the_first_event_too(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"format": "beaconlab.events", "version": 1}\n'
                        '{"t": 0.0, "seq": 7, "kind": "NoAction", '
                        '"data": {"device": "phone", "reason": "empty"}}\n')
        with pytest.raises(SchemaError, match=r"events\.jsonl:2: bad event line: seq must be "
                                              r"the event's position 0, got 7"):
            read_events_jsonl(str(path))


class TestTracesJsonl:
    def test_round_trip_groups_by_device(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        write_traces_jsonl(path, *receive_log(sample_traces()))
        loaded = read_traces_jsonl(path)
        assert [t.device_ref for t in loaded] == ["phone", "tablet"]
        assert loaded[0].observations == sample_traces()[0].observations

    def test_line_fields_are_exactly_the_contract(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(str(path), *receive_log(sample_traces()))
        line = json.loads(path.read_text().splitlines()[1])
        assert set(line) == {"t", "device", "id_hex", "rssi", "claimed_tx"}

    def test_bad_line_is_reported_with_its_number(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text(
            '{"format": "beaconlab.traces", "version": 1}\n{"t": 0.0}\n'
        )
        with pytest.raises(SchemaError, match=":2:"):
            read_traces_jsonl(str(path))

    @pytest.mark.parametrize("id_hex", ["zz", ""])
    def test_bad_id_hex_is_reported_with_its_number(self, tmp_path, id_hex):
        path = tmp_path / "traces.jsonl"
        good = _line(device="phone", id_hex=AA)
        path.write_text("\n".join([TRACES_HEADER, good, _line(id_hex=id_hex), good]) + "\n")
        with pytest.raises(SchemaError, match=r"traces\.jsonl:3: bad trace line"):
            read_traces_jsonl(str(path))

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
    def test_time_that_is_not_finite_is_reported_with_its_number(self, tmp_path, t):
        path = tmp_path / "traces.jsonl"
        bad = _line(device="phone").replace('"t": 0.0', f'"t": {t}')
        path.write_text("\n".join([TRACES_HEADER, _line(device="phone"), bad]) + "\n")
        with pytest.raises(SchemaError, match=r"traces\.jsonl:3: .*t must be finite"):
            read_traces_jsonl(str(path))

    @pytest.mark.parametrize("field", ["t", "rssi", "claimed_tx"])
    def test_number_too_large_for_a_float_is_reported_with_its_number(self, tmp_path, field):
        path = tmp_path / "traces.jsonl"
        bad = _line(device="phone", **{field: 10**400})
        path.write_text("\n".join([TRACES_HEADER, _line(device="phone"), bad]) + "\n")
        with pytest.raises(SchemaError, match=r"traces\.jsonl:3: bad trace line: int too large"):
            read_traces_jsonl(str(path))

    @pytest.mark.parametrize("field, value", [
        ("t", "1.5"), ("rssi", True), ("device", [1]), ("rssi", "inf"), ("claimed_tx", math.nan),
    ])
    def test_a_value_of_the_wrong_type_is_reported_with_its_number(self, tmp_path, field, value):
        path = tmp_path / "traces.jsonl"
        bad = _line(**{"device": "phone", field: value})
        path.write_text("\n".join([TRACES_HEADER, _line(device="phone"), bad]) + "\n")
        with pytest.raises(SchemaError, match=rf"traces\.jsonl:3: bad trace line: {field} must be"):
            read_traces_jsonl(str(path))

    def test_equal_id_hex_shares_one_beacon_id(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("\n".join([
            TRACES_HEADER,
            _line(t=0.0, device="phone", id_hex=AA),
            _line(t=1.0, device="tablet", id_hex=BB),
            _line(t=2.0, device="tablet", id_hex=AA),
            _line(t=3.0, device="phone", id_hex=AA),
        ]) + "\n")
        phone, tablet = read_traces_jsonl(str(path))
        first, again = phone.observations
        assert first.id is again.id is tablet.observations[1].id
        assert first.id == BeaconId.from_hex(AA)
        assert tablet.observations[0].id != first.id


def _line(**fields) -> str:
    obs = {"t": 0.0, "device": "dev", "id_hex": AA, "rssi": -60.0, "claimed_tx": -59.0}
    return json.dumps({**obs, **fields}, sort_keys=True)


def _reference_read(path: str, split_lines=lambda text: text.split("\n")):
    """The trace reader spelled out with one json.loads per line: `t`, `rssi`
    and `claimed_tx` are each an int or a finite float, and `device` a str.

    Returns the traces, or the number of the first line that must raise
    SchemaError; an error that is not about one line propagates. Lines are
    split by split_lines; by default they end only at a newline.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = split_lines(fh.read())
    grouped: dict[str, list[Observation]] = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            raw = json.loads(line)
            numbers = (raw["t"], raw["rssi"], raw["claimed_tx"])
            if type(raw["device"]) is not str or any(type(x) not in (int, float) for x in numbers):
                return n
            t, rssi, claimed = map(float, numbers)
            if not all(map(math.isfinite, (t, rssi, claimed))):
                return n
            obs = Observation(
                time=t,
                id=BeaconId.from_hex(raw["id_hex"]),
                rssi=rssi,
                claimed_tx_power=claimed,
            )
        except (KeyError, ValueError, TypeError, OverflowError, InvalidInput):
            return n
        grouped.setdefault(raw["device"], []).append(obs)
    return tuple(Trace(ref, tuple(obs_list)) for ref, obs_list in grouped.items())


def _comparable(traces):
    # repr, because NaN never equals NaN
    return [
        (t.device_ref, [(repr(o.time), o.id.data, repr(o.rssi), repr(o.claimed_tx_power))
                        for o in t.observations])
        for t in traces
    ]


class TestLineByLine:
    """The readers take one line at a time; lines end only at a newline."""

    TRACE_LINES = [
        _line(t=float(k), device=device, id_hex=id_hex, rssi=-60.5 - k)
        for k, (device, id_hex) in enumerate(
            [("phone", AA), ("tablet", BB), ("phone", BB), ("phone", AA), ("tablet", AA)])
    ]

    @staticmethod
    def _write(path, header, lines, end, final_end, bad_at):
        body = [lines[0], "", "  " + lines[1] + " \t", "", *lines[2:]]
        if bad_at is not None:
            body.insert({"first": 0, "middle": len(body) // 2, "last": len(body)}[bad_at],
                        "not json")
        text = end.join([header, *body]) + (end if final_end else "")
        path.write_bytes(text.encode("utf-8"))

    @staticmethod
    def _splitlines_events(path):
        """The event objects a `read().splitlines()` reader finds, or the
        number of the first line that is not JSON."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        events = []
        for n, line in enumerate(lines[1:], start=2):
            if line:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    return n
        return events

    @pytest.mark.parametrize("bad_at", [None, "first", "middle", "last"])
    @pytest.mark.parametrize("final_end", [True, False])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_traces_equal_a_splitlines_reader(self, tmp_path, end, final_end, bad_at):
        path = tmp_path / "traces.jsonl"
        self._write(path, TRACES_HEADER, self.TRACE_LINES, end, final_end, bad_at)
        expected = _reference_read(str(path), str.splitlines)
        if bad_at is None:
            assert _comparable(read_traces_jsonl(str(path))) == _comparable(expected)
        else:
            with pytest.raises(SchemaError, match=f"traces\\.jsonl:{expected}: bad trace line"):
                read_traces_jsonl(str(path))

    @pytest.mark.parametrize("bad_at", [None, "first", "middle", "last"])
    @pytest.mark.parametrize("final_end", [True, False])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_events_equal_a_splitlines_reader(self, tmp_path, end, final_end, bad_at):
        path = tmp_path / "events.jsonl"
        header = '{"format": "beaconlab.events", "version": 1}'
        self._write(path, header, [event_line(*e) for e in sample_log()], end, final_end, bad_at)
        expected = self._splitlines_events(str(path))
        if bad_at is None:
            assert [json.loads(event_line(*e)) for e in read_events_jsonl(str(path))] == expected
        else:
            with pytest.raises(SchemaError, match=f"events\\.jsonl:{expected}: bad event line"):
                read_events_jsonl(str(path))

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_a_unicode_line_separator_in_a_string_does_not_end_the_line(self, tmp_path, sep):
        path = tmp_path / "traces.jsonl"
        raw = json.dumps({"t": 0.0, "device": f"a{sep}b", "id_hex": AA, "rssi": -60.0,
                          "claimed_tx": -59.0}, ensure_ascii=False, sort_keys=True)
        assert sep in raw
        path.write_text("\n".join([TRACES_HEADER, raw, _line(t=1.0)]) + "\n", encoding="utf-8")
        first, _ = read_traces_jsonl(str(path))
        assert first.device_ref == f"a{sep}b"
        # a `read().splitlines()` reader splits the line and refuses it
        assert _reference_read(str(path), str.splitlines) == 2

    def test_reading_holds_no_copy_of_the_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        lines = [_line(t=float(k), device=f"dev{k % 20}", id_hex=(AA, BB)[k % 2],
                       rssi=-60.0 - k % 7) for k in range(20_000)]
        path.write_text("\n".join([TRACES_HEADER, *lines]) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            traces = read_traces_jsonl(str(path))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, traces)) == 20_000
        assert peak - held < 1 << 20


_ID_HEX = st.sampled_from([AA, BB, AA.upper(), "aa bb", "", "zz", "a"])
_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=10),
    st.sampled_from(["dev", "phone", "1.5", "x", "", True, False, None, [1.0], {"a": 1}]),
    _ID_HEX,
)
_FIELDS = st.dictionaries(
    st.sampled_from(["t", "device", "id_hex", "rssi", "claimed_tx", "extra"]), _VALUE,
)
_OBS = st.fixed_dictionaries(
    {"t": st.floats(min_value=0.0, max_value=5.0), "device": st.sampled_from(["dev", "phone"]),
     "id_hex": _ID_HEX, "rssi": st.floats(-90.0, -40.0), "claimed_tx": st.just(-59.0)},
)
_PAD = st.text(alphabet=" \t", max_size=2)


def _render(obj) -> str:
    return json.dumps(obj, sort_keys=True)


_LINE = st.one_of(
    st.builds(_render, _OBS),
    st.builds(lambda a, b, c: a + _render(c) + b, _PAD, _PAD, _OBS),
    st.builds(lambda a, b: _render(a) + _render(b), _OBS, _OBS),
    st.builds(_render, _FIELDS),
    st.builds(lambda obs: _render(obs).replace("-59.0", "NaN"), _OBS),
    st.sampled_from(["", "[1, 2]", "5", '"x"', "null", "NaN", "{", "\ufeff{}", "{} x"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=6))
def test_reader_matches_a_json_loads_reference(tmp_path_factory, lines):
    path = str(tmp_path_factory.mktemp("traces") / "traces.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([TRACES_HEADER] + lines) + "\n")
    try:
        expected = _reference_read(path)
    except InvalidInput as exc:  # a trace out of time order
        with pytest.raises(InvalidInput, match=str(exc)):
            read_traces_jsonl(path)
        return
    if isinstance(expected, int):
        with pytest.raises(SchemaError, match=f"traces\\.jsonl:{expected}: "):
            read_traces_jsonl(path)
    else:
        assert _comparable(read_traces_jsonl(path)) == _comparable(expected)


# any JSON value: NaN, infinities and -0.0 among the floats, huge ints, and
# text with non-ASCII and control characters
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _text(v):
    return type(v) is str


def _count(v):
    return type(v) is int and v >= 0


def _number(v):
    return type(v) is int or type(v) is float and math.isfinite(v)


# Each data field's check, and the values a run may write for it, spelled out
# apart from radio.FIELD_TYPES
_TEXT = st.text(max_size=6)
_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_FIELD_RULES = {
    "beacon": (_text, _TEXT),
    "blocked": (lambda v: type(v) is list and all(map(_text, v)), st.lists(_TEXT, max_size=3)),
    "claimed_tx": (_number, _NUMBER),
    "content": (_text, _TEXT),
    "correct": (lambda v: type(v) is bool, st.booleans()),
    "device": (_text, _TEXT),
    "emitter": (_text, _TEXT),
    "frame": (_count, st.integers(min_value=0)),
    "id": (_text, _TEXT),
    "n_frames": (_count, st.integers(min_value=0)),
    "n_rejected": (_count, st.integers(min_value=0)),
    "reason": (_text, _TEXT),
    "receiver": (_text, _TEXT),
    "rssi": (_number, _NUMBER),
    "tag": (_text, _TEXT),
}


class TestSharedEncoder:
    """Writers render through one encoder; it must equal json.dumps(sort_keys)."""

    # one odd value per field of each kind: non-ASCII and control characters,
    # NaN, infinities, -0.0, a huge int, bools, None, a list and a nested dict
    ODD_VALUES = ("caf\u00e9 \u6771\u4eac\x00\n", math.nan, -math.inf, math.inf, -0.0, 10**40,
                  True, False, None, [AA, 1, 2.5, None], {"z": [True], "a": "\u00fc"})

    @staticmethod
    def _expected(time, seq, kind, values):
        data = {name: v for name, v in zip(EVENT_FIELDS[kind], values) if v is not None}
        return json.dumps({"t": time, "seq": seq, "kind": kind, "data": data}, sort_keys=True)

    @pytest.mark.parametrize("kind", list(EVENT_FIELDS))
    def test_event_line_of_each_kind_equals_json_dumps(self, kind):
        n = len(EVENT_FIELDS[kind])
        for start in range(len(self.ODD_VALUES)):
            values = (self.ODD_VALUES * 2)[start:start + n]
            assert event_line(1.25, 7, kind, values) == self._expected(1.25, 7, kind, values)

    @staticmethod
    def _first_error(time, seq, kind, values):
        """The start of the reader's error for this event at position 0, or
        None when it loads."""
        if not _number(time):
            return "t "
        if not _count(seq):
            return "seq "
        for name, value in zip(EVENT_FIELDS[kind], values):
            if value is None:
                if (kind, name) != ("NoAction", "beacon"):
                    return f"{kind} is missing field '{name}'"
            elif not _FIELD_RULES[name][0](value):
                return f"{kind} {name} must be "
        return None if seq == 0 else "seq must be the event's position 0"

    @settings(max_examples=300, deadline=None)
    @given(event=st.sampled_from(list(EVENT_FIELDS)).flatmap(lambda kind: st.tuples(
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), _JSON),
        st.one_of(st.just(0), st.integers(min_value=0), _JSON),
        st.just(kind),
        st.tuples(*[_FIELD_RULES[name][1] | _JSON for name in EVENT_FIELDS[kind]]))))
    def test_any_values_of_each_kind_render_as_json_dumps(self, tmp_path_factory, event):
        path = tmp_path_factory.mktemp("events") / "events.jsonl"
        line = event_line(*event)
        path.write_text(f'{{"format": "beaconlab.events", "version": 1}}\n{line}\n',
                        encoding="utf-8")
        assert line == self._expected(*event)
        error = self._first_error(*event)
        if error is None:
            # read back; NaN never equals NaN, so compare the lines
            assert [event_line(*e) for e in read_events_jsonl(str(path))] == [line]
        else:
            with pytest.raises(SchemaError, match=r"events\.jsonl:2: bad event line: "
                                                  + re.escape(error)):
                read_events_jsonl(str(path))

    def test_trace_lines_equal_json_dumps(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        log = EventLog()
        log.append(0.0, RECEIVE, -59.0, "b1", AA, "t\u00e9l\u00e9phone", -0.0)
        log.append(10**40, RECEIVE, -59, "b2", BB, "t\u00e9l\u00e9phone", -61.5)
        write_traces_jsonl(str(path), log, ["t\u00e9l\u00e9phone"])
        expected = [json.dumps({"format": "beaconlab.traces", "version": 1}, sort_keys=True)]
        expected += map(_trace_line, log.times, log.values)
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    # the values this test wrote as lines before the writer checked them
    @pytest.mark.parametrize("time, rssi, claimed, error", [
        (0.0, math.nan, -59.0, "rssi must be finite, got nan"),
        (math.inf, -61.5, -59.0, "t must be finite, got inf"),
        (1.0, -61.5, True, "claimed_tx must be a number, got True"),
    ])
    def test_a_value_the_reader_refuses_is_not_written(self, tmp_path, time, rssi, claimed,
                                                       error):
        path = tmp_path / "traces.jsonl"
        log = EventLog()
        log.append(0.0, RECEIVE, -59.0, "b1", AA, "t\u00e9l\u00e9phone", -60.0)
        log.append(time, RECEIVE, claimed, "b2", BB, "t\u00e9l\u00e9phone", rssi)
        with pytest.raises(InvalidInput, match=re.escape(
                f"trace of device 't\u00e9l\u00e9phone': {error}")):
            write_traces_jsonl(str(path), log, ["t\u00e9l\u00e9phone"])
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(first=_NUMBER, values=st.tuples(_NUMBER | _JSON, _TEXT | _JSON, _ID_HEX | _JSON,
                                           _NUMBER | _JSON, _NUMBER | _JSON),
           twice=st.booleans())
    def test_the_trace_writer_refuses_what_the_reader_refuses(self, tmp_path_factory, first,
                                                              values, twice):
        # two rows of one device: the first a good one at t first, the second
        # drawn, so it may be out of time order as well as hold a bad value;
        # and the device may be given twice
        t, device, id_hex, rssi, claimed = values
        log = EventLog()
        log.append(first, RECEIVE, -59.0, "b1", AA, device, -60.0)
        log.append(t, RECEIVE, claimed, "b2", id_hex, device, rssi)
        work = tmp_path_factory.mktemp("traces")
        by_hand = work / "by-hand.jsonl"
        lines = [TRACES_HEADER, *map(_trace_line, log.times, log.values)]
        by_hand.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            read_traces_jsonl(str(by_hand))
            readable = True
        except (SchemaError, InvalidInput):  # InvalidInput: a trace out of time order
            readable = False
        written = work / "written.jsonl"
        devices = [device, device] if twice else [device]
        if readable and not twice:
            write_traces_jsonl(str(written), log, devices)
            assert written.read_text(encoding="utf-8") == by_hand.read_text(encoding="utf-8")
        else:
            with pytest.raises(InvalidInput,
                               match="^" + re.escape(f"trace of device {device!r}: ")):
                write_traces_jsonl(str(written), log, devices)
            assert not written.exists()

    @pytest.mark.parametrize("devices, message", [
        (["phone", "phone"], "trace of device 'phone': the device is given twice"),
        (["phone", 7], "trace of device 7: device must be a str, got 7"),
    ])
    def test_the_devices_are_strs_given_once(self, tmp_path, devices, message):
        path = tmp_path / "traces.jsonl"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            write_traces_jsonl(str(path), sample_log(), devices)
        assert not path.exists()

    @pytest.mark.parametrize("id_hex, message", [
        ("zz", "bad beacon id hex: 'zz'"),
        ("", "beacon id must be non-empty bytes"),
        (None, "bad beacon id hex: None"),
    ])
    def test_an_id_that_is_not_hex_is_refused(self, tmp_path, id_hex, message):
        path = tmp_path / "traces.jsonl"
        log = EventLog()
        log.append(0.0, RECEIVE, -59.0, "b1", AA, "phone", -60.0)
        log.append(1.0, RECEIVE, -59.0, "b2", id_hex, "phone", -60.0)
        with pytest.raises(InvalidInput, match=re.escape(f"trace of device 'phone': {message}")):
            write_traces_jsonl(str(path), log, ["phone"])
        assert not path.exists()


def _trace_line(time, values) -> str:
    """json.dumps of the trace line of a Receive row."""
    row = dict(zip(EVENT_FIELDS[RECEIVE], values))
    return json.dumps({"t": time, "device": row["receiver"], "id_hex": row["id"],
                       "rssi": row["rssi"], "claimed_tx": row["claimed_tx"]}, sort_keys=True)


EVENTS_HEADER = '{"format": "beaconlab.events", "version": 1}'
B = storage._BLOCK
# log lengths on each side of the block boundaries
_LENGTHS = st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 7])
_ODD_TEXT = _TEXT | st.just("caf\u00e9 \u6771\u4eac\x00\n\u2028")
_ODD_NUMBER = _NUMBER | st.sampled_from([-0.0, 10**40, 0, 5.0])


def _field_strategy(kind, name):
    values = _ODD_TEXT if _FIELD_RULES[name][1] is _TEXT else _FIELD_RULES[name][1]
    return values | st.none() if (kind, name) in OPTIONAL_FIELDS else values


_VALID_EVENT = st.sampled_from(list(EVENT_FIELDS)).flatmap(lambda kind: st.tuples(
    _ODD_NUMBER, st.just(kind), st.tuples(*[_field_strategy(kind, n) for n in EVENT_FIELDS[kind]])))
# always in the pool: an empty window's NoAction, a bool, a list and an int rssi
_FIXED_EVENTS = [
    (2.5, NO_ACTION, (None, "phone", "empty")),
    (3.0, CONTENT_DELIVERED, ("b1", "app://\u00fcber", False, "phone")),
    (3.5, JAMMED, (["phone", "t\u00e9l\u00e9"], 12, "fob")),
    (4, RECEIVE, (-59, "b1", AA, "phone", -61)),
]


def _append(log, event):
    time, kind, values = event
    log.append(time, kind, *values)


class TestBlockWriters:
    """The writers render a block of columns at a time; every byte must equal
    the per-line reference: `event_line` and `json.dumps(..., sort_keys=True)`."""

    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(_VALID_EVENT, max_size=10), n=_LENGTHS, seed=st.integers(0, 2**32))
    def test_the_event_writer_writes_event_line_of_each_event(self, tmp_path_factory, pool, n,
                                                              seed):
        pool, rnd = pool + _FIXED_EVENTS, random.Random(seed)
        log = EventLog()
        for _ in range(n):
            _append(log, rnd.choice(pool))
        path = tmp_path_factory.mktemp("events") / "events.jsonl"
        write_events_jsonl(str(path), log)
        expected = "".join(f"{event_line(*event)}\n" for event in log)
        assert path.read_text(encoding="utf-8") == f"{EVENTS_HEADER}\n{expected}"

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.sampled_from([0, 1, B, B + 1, 2 * B + 3]), min_size=1, max_size=3),
           numbers=st.lists(_ODD_NUMBER, min_size=1, max_size=8),
           devices=st.lists(_ODD_TEXT, min_size=3, max_size=3, unique=True),
           seed=st.integers(0, 2**32))
    def test_the_trace_writer_writes_json_dumps_of_each_row(self, tmp_path_factory, lengths,
                                                            numbers, devices, seed):
        rnd = random.Random(seed)
        ids = [AA, BB, "00ff"]
        # each device's rows in time order, one device's longer than a block,
        # then other events and a sniffer's rows
        sources = []
        for device, n in zip(devices, lengths + [B + 1]):
            times = sorted(rnd.choice(numbers) for _ in range(n))
            sources.append([(t, RECEIVE, (rnd.choice(numbers), "b1", rnd.choice(ids), device,
                                          rnd.choice(numbers))) for t in times])
        sources.append(_FIXED_EVENTS * 50 + [(1.0, RECEIVE, (-59.0, "b1", AA, "atk0.rx0", -70.0))])
        # the sources' rows shuffled into one log, each source's in its order
        turns = [k for k, rows in enumerate(sources) for _ in rows]
        rnd.shuffle(turns)
        rows = list(map(iter, sources))
        log = EventLog()
        for k in turns:
            _append(log, next(rows[k]))
        # in an order of their own, with a device that has no rows
        order = [*devices, "no rows here"]
        rnd.shuffle(order)
        path = tmp_path_factory.mktemp("traces") / "traces.jsonl"
        write_traces_jsonl(str(path), log, order)
        expected = "".join(
            _trace_line(t, values) + "\n" for device in order
            for t, kind, values in zip(log.times, log.kinds, log.values)
            if kind == RECEIVE and dict(zip(EVENT_FIELDS[RECEIVE], values))["receiver"] == device)
        assert path.read_text(encoding="utf-8") == f"{TRACES_HEADER}\n{expected}"

    # one value of each FIELD_TYPES type that the reader refuses, and a t
    @pytest.mark.parametrize("time, kind, values, message", [
        (1.0, RECEIVE, (-59.0, "b1", AA, "phone", True),
         "Receive rssi must be a number, got True"),
        (1.0, RECEIVE, (-59.0, "b1", AA, "phone", math.nan),
         "Receive rssi must be a number, got nan"),
        (1.0, RECEIVE, (-59.0, "b1", AA, {"ref": "phone"}, -60.0),
         "Receive receiver must be a str, got {'ref': 'phone'}"),
        (1.0, BROADCAST, (-59.0, "b1", -1, AA), "Broadcast frame must be a count, got -1"),
        (1.0, CONTENT_DELIVERED, ("b1", "app://one", 1, "phone"),
         "ContentDelivered correct must be a bool, got 1"),
        (1.0, JAMMED, (["phone", 7], 3, "fob"),
         "Jammed blocked must be a list of str, got ['phone', 7]"),
        ("1.0", RECEIVE, (-59.0, "b1", AA, "phone", -60.0),
         "t must be a finite number, got '1.0'"),
        (1.0, NO_ACTION, (None, None, "empty"), "NoAction is missing field 'device'"),
    ], ids=["number", "number-nan", "str", "count", "bool", "list-of-str", "t", "missing"])
    def test_the_event_writer_refuses_what_the_reader_refuses(self, tmp_path, time, kind, values,
                                                              message):
        log = EventLog()
        for k in range(B + 500):  # the bad event is in the second block, among good ones
            _append(log, _FIXED_EVENTS[k % 4])
        log.append(time, kind, *values)
        _append(log, _FIXED_EVENTS[0])
        path = tmp_path / "events.jsonl"
        written = message if message.startswith(kind) else f"{kind} {message}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(f'event {B + 500}: {written}')}$"):
            write_events_jsonl(str(path), log)
        assert not path.exists()
        # the reader's words for the same event, written by hand
        path.write_text(f"{EVENTS_HEADER}\n{event_line(time, 0, kind, values)}\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError,
                           match=re.escape(f"events.jsonl:2: bad event line: {message}")):
            read_events_jsonl(str(path))

    @staticmethod
    def _peak(write, path, data) -> int:
        write(path, data)  # warm: the first call may fill module caches
        tracemalloc.start()
        try:
            write(path, data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_writers_hold_one_block_not_the_file(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        events = [EventLog(), EventLog()]
        for log, n in zip(events, (2 * B, 16 * B)):
            for k in range(n):
                _append(log, _FIXED_EVENTS[k % 4])
        short, long = (self._peak(write_events_jsonl, path, log) for log in events)
        assert abs(long - short) < 1 << 18
        short, long = (self._peak(_write_traces, path, _traces([n])) for n in (2 * B, 16 * B))
        assert abs(long - short) < 1 << 18

    def test_the_in_process_writers_hold_one_block_not_the_file(self, tmp_path, monkeypatch):
        # tracemalloc sees only this process, so the bound is checked without
        # a child too
        monkeypatch.delattr(os, "fork")
        self.test_the_writers_hold_one_block_not_the_file(tmp_path)


def _log(n: int, bad: tuple = ()) -> EventLog:
    """n of `_FIXED_EVENTS` in turn, with a Receive whose rssi is True at each
    seq in bad."""
    log = EventLog()
    for k in range(n):
        if k in bad:
            log.append(1.0, RECEIVE, -59.0, "b1", AA, "phone", True)
        else:
            _append(log, _FIXED_EVENTS[k % 4])
    return log


def _traces(lengths, bad_device=None, bad="rssi", at=-1) -> tuple[EventLog, list[str]]:
    """A log of one device's Receive rows per length, of devices d0, d1, ...,
    and the devices. Row at (by default the last) of bad_device has a NaN
    rssi, or with bad "order" a t below the one before it."""
    log = EventLog()
    for d, n in enumerate(lengths):
        device = f"d{d}"
        for k in range(n):
            t, rssi = float(k), -60.0 - k % 7
            if device == bad_device and k == at % n:
                if bad == "order":
                    t = -1.0
                else:
                    rssi = math.nan
            log.append(t, RECEIVE, -59.0, "b1", AA, device, rssi)
    return log, [f"d{d}" for d in range(len(lengths))]


def _write_traces(path: str, data: tuple) -> None:
    """`write_traces_jsonl` of a `_traces` log and its devices."""
    write_traces_jsonl(path, *data)


def _refusal(write, path, data) -> str:
    with pytest.raises(InvalidInput) as info:
        write(str(path), data)
    assert not path.exists()
    return str(info.value)


@pytest.mark.skipif(not storage._may_fork(), reason="the writers fork only "
                    "where the platform forks and this process may run on two CPUs")
class TestSplitWriters:
    """A writer of `_FORK_ROWS` rows or more renders the blocks from about
    the middle row on in a forked child. Its bytes, its errors and its partial
    files are those of the writer that renders every block in one process."""

    @pytest.fixture(autouse=True)
    def out(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        yield out
        # every child was reaped, none left a file behind, and the garbage
        # collector is back on
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert {p.name for p in out.iterdir()} <= {"split.jsonl", "serial.jsonl"}
        assert gc.isenabled()

    @pytest.fixture
    def forks(self, monkeypatch):
        calls, fork = [], os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @staticmethod
    def _serial(monkeypatch, write, path, data):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            write(str(path), data)

    @pytest.mark.parametrize("write, data", [
        (write_events_jsonl, _log(4 * B + 7)),
        (_write_traces, _traces([B + 1, 5, 3 * B, 0, 3])),
    ], ids=["events", "traces"])
    def test_the_split_writes_the_serial_bytes(self, monkeypatch, out, forks, write, data):
        write(str(out / "split.jsonl"), data)
        assert forks == [1]
        self._serial(monkeypatch, write, out / "serial.jsonl", data)
        assert (out / "split.jsonl").read_bytes() == (out / "serial.jsonl").read_bytes()

    @pytest.mark.parametrize("write, data", [
        (write_events_jsonl, _log(4 * B, bad=(3 * B + 5,))),
        (_write_traces, _traces([B, B, B, B], bad_device="d3")),
        (_write_traces, _traces([B, B, B, B], bad_device="d3", bad="order")),
        (_write_traces, _traces([4 * B], bad_device="d0", bad="order", at=2 * B)),
    ], ids=["events", "traces", "traces-order", "traces-order-at-the-child-s-first-row"])
    def test_a_refusal_in_the_child_s_half_is_the_serial_writer_s(self, monkeypatch, out, forks,
                                                                  write, data):
        split = _refusal(write, out / "split.jsonl", data)
        assert forks == [1]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert _refusal(write, out / "serial.jsonl", data) == split

    def test_with_refusals_in_both_halves_the_parent_s_wins(self, out, forks):
        # as in one process, where the lower block is rendered first
        message = _refusal(write_events_jsonl, out / "split.jsonl",
                           _log(4 * B, bad=(5, 3 * B + 5)))
        assert message == "event 5: Receive rssi must be a number, got True"
        assert forks == [1]

    @pytest.mark.parametrize("where", ["parent", "child", "serial"])
    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
    def test_a_writer_that_raises_leaves_no_file(self, monkeypatch, out, forks, where, error):
        # the parent renders blocks 0 and 1 and the child 2 and 3, or one
        # process all four
        fail_at = {"parent": B, "child": 3 * B, "serial": 2 * B}[where]
        render = storage._event_block

        def failing(times, kinds, values, start):
            if start == fail_at:
                raise error
            return render(times, kinds, values, start)

        monkeypatch.setattr(storage, "_event_block", failing)
        if where == "serial":
            monkeypatch.delattr(os, "fork")
        path = out / "split.jsonl"
        with pytest.raises(type(error)) as info:
            write_events_jsonl(str(path), _log(4 * B))
        assert not path.exists()
        assert forks == ([] if where == "serial" else [1])
        if isinstance(error, OSError):
            assert info.value.errno == errno.ENOSPC

    @pytest.mark.parametrize("death", [
        lambda: os._exit(3),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
    ], ids=["exit", "killed"])
    def test_the_blocks_of_a_child_that_dies_are_rendered_here(self, monkeypatch, out, forks,
                                                               death):
        data = _log(4 * B)
        self._serial(monkeypatch, write_events_jsonl, out / "serial.jsonl", data)
        parent, render = os.getpid(), storage._event_block

        def dying(*args):
            if os.getpid() != parent:
                death()
            return render(*args)

        monkeypatch.setattr(storage, "_event_block", dying)
        write_events_jsonl(str(out / "split.jsonl"), data)
        assert forks == [1]
        assert (out / "split.jsonl").read_bytes() == (out / "serial.jsonl").read_bytes()

    def test_the_child_takes_about_half_the_rows_of_uneven_blocks(self, monkeypatch, out):
        # ten full blocks of one trace, then ten traces of 5: half the blocks
        # would leave the child 50 of 10,290 rows
        data = _traces([10 * B] + [5] * 10)
        taken = []

        class Recorded(storage._Child):
            def __init__(self, body, directory=None):
                with tempfile.TemporaryFile() as rendered:
                    body(rendered)
                    rendered.seek(0)
                    taken.append(rendered.read().count(b"\n"))
                super().__init__(body, directory)

        monkeypatch.setattr(storage, "_Child", Recorded)
        _write_traces(str(out / "split.jsonl"), data)
        assert taken == [5 * B + 50]
        self._serial(monkeypatch, _write_traces, out / "serial.jsonl", data)
        assert (out / "split.jsonl").read_bytes() == (out / "serial.jsonl").read_bytes()

    @pytest.mark.parametrize("rows", [4 * B, 2 * B], ids=["split", "one process"])
    def test_a_writer_leaves_a_stopped_collector_stopped(self, out, rows):
        gc.disable()
        try:
            write_events_jsonl(str(out / "split.jsonl"), _log(rows))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_fork_that_fails_leaves_the_writer_in_one_process(self, monkeypatch, out):
        data = _log(4 * B + 7)
        write_events_jsonl(str(out / "split.jsonl"), data)

        def refused():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        write_events_jsonl(str(out / "serial.jsonl"), data)
        assert (out / "split.jsonl").read_bytes() == (out / "serial.jsonl").read_bytes()

    def _no_fork(self):
        raise AssertionError("the writer forked")

    @pytest.mark.parametrize("case", ["no fork", "one CPU", "pool worker", "second thread"])
    @pytest.mark.parametrize("write, data", [
        (write_events_jsonl, _log(4 * B + 7)),
        (_write_traces, _traces([B + 1, 5, 3 * B, 0, 3])),
    ], ids=["events", "traces"])
    def test_the_writer_stays_in_one_process_unless_a_fork_can_pay(self, monkeypatch, out,
                                                                   case, write, data):
        write(str(out / "split.jsonl"), data)
        with contextlib.ExitStack() as stack:
            if case == "no fork":
                monkeypatch.delattr(os, "fork")
            else:
                monkeypatch.setattr(os, "fork", self._no_fork)
            if case == "one CPU":
                cpus = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {min(cpus)})
                stack.callback(os.sched_setaffinity, 0, cpus)
            elif case == "pool worker":
                import multiprocessing
                monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
            elif case == "second thread":
                done = threading.Event()
                thread = threading.Thread(target=done.wait)
                thread.start()
                stack.callback(thread.join)
                stack.callback(done.set)
            write(str(out / "serial.jsonl"), data)
        assert (out / "split.jsonl").read_bytes() == (out / "serial.jsonl").read_bytes()

    @pytest.mark.parametrize("write, data", [
        (write_events_jsonl, _log(storage._FORK_ROWS - 1)),
        (_write_traces, _traces([B, B, B, storage._FORK_ROWS - 3 * B - 1])),
    ], ids=["events", "traces"])
    def test_a_file_below_the_floor_stays_in_one_process(self, monkeypatch, out, write, data):
        monkeypatch.setattr(os, "fork", self._no_fork)
        write(str(out / "serial.jsonl"), data)


class TestMetricsCsv:
    def test_one_row_per_profile_plus_summary(self, tmp_path):
        rows = metric_rows(
            [
                {"kind": "A2", "sniff_mode": "lunch_time",
                 "wrong_content_rate_near_fake": 0.75, "n_deliveries": 8},
                {"kind": "A8", "sniff_mode": "pervasive",
                 "mean_budget_utilization": 1.0, "n_ids": 4096},
            ],
            delivery_rate=0.5,
            n_deliveries=8,
        )
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, rows)
        loaded = read_metrics_csv(path)
        assert len(loaded) == 3
        assert loaded[0]["metric"] == "wrong_content_rate_near_fake"
        assert float(loaded[0]["value"]) == 0.75
        assert json.loads(loaded[0]["detail"])["n_deliveries"] == 8
        assert loaded[2]["kind"] == "summary"
        assert loaded[2]["metric"] == "delivery_correctness"

    def test_no_deliveries_leaves_the_value_blank(self, tmp_path):
        rows = metric_rows([], delivery_rate=None, n_deliveries=0)
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, rows)
        loaded = read_metrics_csv(path)
        assert loaded[0]["value"] == ""

    def test_rejects_untagged_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("profile,kind\n")
        with pytest.raises(SchemaError):
            read_metrics_csv(str(path))


class TestDetectCsv:
    def test_writes_the_contract_columns(self, tmp_path):
        path = tmp_path / "verdicts.csv"
        write_detect_csv(
            str(path),
            [{"device_ref": "phone", "avg_nll": "0.3567", "n_hard_flags": "0",
              "verdict": "normal"}],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# beaconlab.detect.v1"
        assert lines[1] == "device_ref,avg_nll,n_hard_flags,verdict"
        assert lines[2].startswith("phone,")
