"""File formats: JSONL event/trace streams and CSV metric tables.

Every format carries a version tag on its first line so readers can refuse
files they do not understand instead of misparsing them. Writers are
deterministic: equal inputs produce byte-identical files, and every JSON line
equals what `json.dumps(..., sort_keys=True)` writes for it.

A JSONL line is a %-template filled with rendered values. Each event kind has
one template, built once from its sorted field tuple in `radio.EVENT_FIELDS`
(a field whose value is None is left out of the line); trace lines share one
five-field template. Writers render a block of `_BLOCK` rows at a time, a
column at a time. The event writer groups a block's events by kind and
transposes each kind's values into field columns beside its `seq` and `t`.
The trace file is rendered from the log's Receive rows, a run's one record of
its traces: one pass finds where each device's rows are (8 bytes a row), and
each block of them is read out of the log's columns at the positions
`radio.EVENT_FIELDS[RECEIVE]` gives. `radio.render_column` reads a column's
exact types in one C-level pass: a column of str goes through
`encode_basestring_ascii`, of ints (not bools) through `int.__repr__`, and of
floats that are all finite through `float.__repr__`; any other column goes
value by value through `radio.render_value`, the renderer whose text is
`json.dumps`'s. Each kind's template is then filled a row at a time, and the
block's lines are written in seq order. An event whose optional field is
empty goes through `radio.event_line`, the per-event reference. No writer
holds more than one block's columns and lines.

The same passes check each column against its reader's rule, so no writer
writes a file its reader refuses. An event value outside `radio.FIELD_TYPES`
or a `t` that is not a finite number raises InvalidInput naming the event's
seq, kind and field in the reader's words. The trace writer raises it naming
the device for a device that is not a str or is given twice, a `t`, `rssi`
or `claimed_tx` that is not an int or a finite float, an `id` that is not a
non-empty hex string, and a `t` below that of the device's row before it,
which `Trace` refuses. Only a column that fails is walked value by value.

Each writer runs in the process that calls it, and one that raises, whatever
it raises, leaves no file. `simulate` runs its two at once, in two processes
(see `cli._write_logs`). Rendering makes no reference cycles, so the garbage
collector is off while a writer runs: a collection would find nothing to
free, and while both processes live it would write to, and so copy, every
page holding a tracked object they share.

Readers take a file one line at a time through `_body_lines`, so no reader
holds the file's text. A line ends only at a newline: text mode has already
turned CRLF and a lone CR into one, and a raw U+2028, U+2029 or U+0085 inside
a JSON string stays in its line, as JSON Lines has it. Blank lines are
skipped, but line numbers count them. Text that is not UTF-8 raises
SchemaError naming the file.

Readers decode each line through `radio._decode_line`, with the semantics of
`json.loads(line)`: surrounding whitespace is allowed, NaN and Infinity are
accepted, and a line holding anything beyond one JSON value (or a byte-order
mark) fails with the error `json.loads` gives. The common line is decoded by
one `raw_decode` call; only a line that call rejects or does not consume whole
takes the `json.loads` path. The trace reader interns beacon IDs per file, so
every observation of one `id_hex` shares one `BeaconId`: a file names a few
dozen across tens of thousands of lines.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
from array import array
from contextlib import contextmanager
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, le
from typing import Iterable, Iterator, Optional, Sequence

from .attacks import KINDS
from .errors import InvalidInput, SchemaError
from .model import BeaconId, Observation, Trace
from .radio import (
    _EVENT_TEMPLATES, _IS_TYPE, EVENT_FIELDS, FIELD_TYPES, OPTIONAL_FIELDS, RECEIVE, Event,
    EventLog, _decode_line, _dumps_sorted, _field_refusal, event_line, json_template, render_column,
)

FORMAT_VERSION = 1
EVENTS_FORMAT = "beaconlab.events"
TRACES_FORMAT = "beaconlab.traces"
METRICS_TAG = "beaconlab.metrics.v1"
DETECT_TAG = "beaconlab.detect.v1"
REPORT_TAG = "beaconlab.report.v1"


def _header_line(fmt: str) -> str:
    return _dumps_sorted({"format": fmt, "version": FORMAT_VERSION})


def _check_header(line: str, fmt: str, path: str) -> None:
    try:
        head = _decode_line(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: missing format header") from exc
    if not isinstance(head, dict) or head.get("format") != fmt:
        raise SchemaError(f"{path}: expected a {fmt} file")
    if head.get("version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported {fmt} version {head.get('version')!r}")


# Events (and observations of one trace) rendered together: a writer holds one
# block's columns and lines, never a whole file's. On campus-simulate's seed-1
# logs the two writers peak at 0.67 MB under tracemalloc with 1,024-row
# blocks, and at 5.2 MB with 8,192.
_BLOCK = 1024


def _write_jsonl(path: str, fmt: str, blocks: Iterable[list[str]]) -> None:
    """The header line, then the lines of each block blocks yields, each
    rendered as it is written. A writer that raises, for whatever reason,
    leaves no file."""
    collecting = gc.isenabled()
    fh = open(path, "w", encoding="utf-8")
    gc.disable()
    try:
        with fh:
            fh.write(_header_line(fmt) + "\n")
            for lines in blocks:
                fh.write("\n".join(lines))
                fh.write("\n")
    except BaseException:
        os.remove(path)
        raise
    finally:
        if collecting:
            gc.enable()


def write_events_jsonl(path: str, events: EventLog) -> None:
    """Write the events, a block at a time. A value that `read_events_jsonl`
    would refuse raises InvalidInput naming the event's seq, kind and field,
    and leaves no file."""
    times, kinds, values = events.times, events.kinds, events.values
    _write_jsonl(path, EVENTS_FORMAT, (
        _event_block(times[i:i + _BLOCK], kinds[i:i + _BLOCK], values[i:i + _BLOCK], i)
        for i in range(0, len(times), _BLOCK)))


def _event_block(times: list, kinds: list, values: list, start: int) -> list[str]:
    """The lines of a block of events whose first seq is start, in seq order."""
    seqs = range(start, start + len(times))
    lines_of: dict[str, Iterator[str]] = {}
    for kind in dict.fromkeys(kinds):
        picked = list(map(kind.__eq__, kinds))
        columns = (tuple(compress(column, picked)) for column in (seqs, times, values))
        lines_of[kind] = iter(_kind_lines(kind, *columns))
    return list(map(next, map(lines_of.__getitem__, kinds)))


def _kind_lines(kind: str, seqs: tuple, times: tuple, values: tuple) -> Iterable[str]:
    """The lines of events of one kind, in order: each column rendered by
    `render_column`, then the kind's template filled a row at a time. An event
    whose optional field is empty (None) goes through `event_line`."""
    fields = EVENT_FIELDS.get(kind)
    if fields is None or set(map(len, values)) != {len(fields)}:
        # event_line raises InvalidInput at the first event it has no template for
        return list(map(event_line, times, seqs, repeat(kind), values))
    rendered_times = render_column(times, "number")
    if rendered_times is None:
        raise _first_refusal(kind, "t", seqs, times)
    rendered = []
    for name, column in zip(fields, zip(*values)):
        rendered_column = render_column(column, FIELD_TYPES[name])
        if rendered_column is None:
            if (kind, name) in OPTIONAL_FIELDS and None in column:
                return _split_empty(kind, seqs, times, values, column)
            raise _first_refusal(kind, name, seqs, column)
        rendered.append(rendered_column)
    rendered += (render_column(seqs, "count"), rendered_times)
    return map(_EVENT_TEMPLATES[kind].__mod__, zip(*rendered))


def _split_empty(kind: str, seqs: tuple, times: tuple, values: tuple, column: tuple) -> list[str]:
    """`_kind_lines` of the events whose value in column is not None, merged
    in order with `event_line` of each other one, once its values are checked."""
    empty = [value is None for value in column]
    e_seqs, e_times, e_values = zip(*compress(zip(seqs, times, values), empty))
    for name, e_column in zip(("t",) + EVENT_FIELDS[kind], (e_times, *zip(*e_values))):
        refusal = _first_refusal(kind, name, e_seqs, e_column)
        if refusal is not None:
            raise refusal
    lines = map(event_line, e_times, e_seqs, repeat(kind), e_values)
    if all(empty):
        return list(lines)
    full = [not e for e in empty]
    full_lines = iter(_kind_lines(kind, *(tuple(compress(c, full)) for c in (seqs, times, values))))
    return [next(lines if e else full_lines) for e in empty]


def _first_refusal(kind: str, name: str, seqs: tuple, column: tuple) -> Optional[InvalidInput]:
    """The error for the first value of column (`t` or a field of kind) that
    `read_events_jsonl` refuses, in its words; None if it refuses none."""
    for seq, value in zip(seqs, column):
        if name == "t":
            if not _IS_TYPE["number"](value):
                return InvalidInput(f"event {seq}: {kind} t must be a finite number, "
                                    f"got {value!r}")
        elif value is None:
            if (kind, name) not in OPTIONAL_FIELDS:
                return InvalidInput(f"event {seq}: {kind} is missing field {name!r}")
        else:
            refusal = _field_refusal(kind, name, value)
            if refusal is not None:
                return InvalidInput(f"event {seq}: {refusal}")
    return None


@contextmanager
def _named_decode_errors(path: str) -> Iterator[None]:
    """Raise a UnicodeDecodeError from reading the text file at path as a
    SchemaError naming the file. Text is decoded a chunk at a time, so the
    error has no line number."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: the file is not UTF-8 text ({exc.reason})") from exc


def _body_lines(path: str, fmt: str) -> Iterator[tuple[int, str]]:
    """Check the header line, then yield (line number, line) for each
    non-empty line after it, reading one line at a time.

    A line ends only at a newline, which text mode also makes of CRLF and a
    lone CR. A line's number counts every line, blank ones too.
    """
    with open(path, "r", encoding="utf-8") as fh, _named_decode_errors(path):
        header = fh.readline()
        if not header:
            raise SchemaError(f"{path}: empty file")
        _check_header(header.rstrip("\n"), fmt, path)
        for n, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line:
                yield n, line


def read_events_jsonl(path: str) -> list[Event]:
    """The events of a file; a line that `Event.from_json` refuses, or whose
    `seq` is not its 0-based position among the events, raises SchemaError
    naming the file and line."""
    events = []
    for n, line in _body_lines(path, EVENTS_FORMAT):
        try:
            event = Event.from_json(line)
            if event.seq != len(events):
                raise InvalidInput(f"seq must be the event's position {len(events)}, "
                                   f"got {event.seq!r}")
        except (ValueError, InvalidInput) as exc:
            raise SchemaError(f"{path}:{n}: bad event line: {exc}") from exc
        events.append(event)
    return events


_TRACE_TEMPLATE = json_template(("claimed_tx", "device", "id_hex", "rssi", "t"))
# where a Receive row keeps its receiver, and the getters of what a trace line takes from it
_RECEIVER = EVENT_FIELDS[RECEIVE].index("receiver")
_GETTERS = [itemgetter(EVENT_FIELDS[RECEIVE].index(name)) for name in ("claimed_tx", "id", "rssi")]


def write_traces_jsonl(path: str, log: EventLog, devices: Iterable[str]) -> None:
    """Write each device's trace, in the order of devices: the log's Receive
    rows whose receiver is the device, in log order, a block at a time; a
    device with no rows has no line. A device that is not a str or is given
    twice, or a row that `read_traces_jsonl` or its `Trace` would refuse,
    raises InvalidInput naming the device and leaves no file."""
    rows: dict[str, array] = {}  # device -> the positions of its rows in the log
    for device in devices:
        if type(device) is not str:
            raise InvalidInput(f"trace of device {device!r}: device must be a str, got {device!r}")
        if device in rows:
            raise InvalidInput(f"trace of device {device!r}: the device is given twice")
        rows[device] = array("q")
    times, values = log.times, log.values
    for i, row in compress(enumerate(values), map(RECEIVE.__eq__, log.kinds)):
        try:
            mine = rows.get(row[_RECEIVER])
        except TypeError:  # an unhashable receiver is no device
            continue
        if mine is not None:
            mine.append(i)
    _write_jsonl(path, TRACES_FORMAT, (
        _trace_block(device, times, values, mine, i)
        for device, mine in rows.items() for i in range(0, len(mine), _BLOCK)))


_NUMBER_TYPES = frozenset((int, float))


def _trace_block(device: str, times: list, values: list, rows: array, start: int) -> list[str]:
    """The lines of device's log rows rows[start:start + _BLOCK], once every
    column is checked in one pass of C-level calls; only a column that fails
    is walked value by value, to name its first bad value."""
    picked = rows[start:start + _BLOCK]
    block_times = list(map(times.__getitem__, picked))
    claimed, ids, rssis = (list(map(get, map(values.__getitem__, picked))) for get in _GETTERS)
    try:
        for name, column in (("t", block_times), ("rssi", rssis), ("claimed_tx", claimed)):
            try:
                if _NUMBER_TYPES.issuperset(map(type, column)) and all(map(math.isfinite, column)):
                    continue
            except OverflowError:  # an int too large for a float
                pass
            for value in column:
                _finite(value, name)
        for id_hex in dict.fromkeys(ids) if set(map(type, ids)) == {str} else ids:
            BeaconId.from_hex(id_hex)
        # each t is at least the one before it, the first the last of the block before
        earlier = [times[rows[start - 1]] if start else block_times[0], *block_times[:-1]]
        if not all(map(le, earlier, block_times)):
            t, late = next(pair for pair in zip(earlier, block_times) if not pair[0] <= pair[1])
            raise ValueError(f"t {late!r} comes after t {t!r}: the rows are not in time order")
    except (ValueError, OverflowError, InvalidInput) as exc:
        raise InvalidInput(f"trace of device {device!r}: {exc}") from exc
    columns = (render_column(claimed, "number"), repeat(encode_basestring_ascii(device)),
               map(encode_basestring_ascii, ids), render_column(rssis, "number"),
               render_column(block_times, "number"))
    return list(map(_TRACE_TEMPLATE.__mod__, zip(*columns)))


def _finite(value, name: str) -> float:
    """value as a float, if it is an int (not a bool) or a finite float."""
    if type(value) is int:
        value = float(value)  # OverflowError for an int too large
    elif type(value) is not float:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if value - value != 0.0:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def read_traces_jsonl(path: str) -> tuple[Trace, ...]:
    """Rebuild traces, grouped by device in order of first appearance.

    A line that is not one JSON object with the five trace fields, whose `t`,
    `rssi` or `claimed_tx` is not an int or a finite float (a bool or a str is
    neither), whose `device` is not a str, or whose `id_hex` is not a
    non-empty hex string, raises SchemaError naming the file and line; a
    device whose rows go back in time raises it naming the file and device.
    """
    ids: dict[str, BeaconId] = {}
    grouped: dict[str, list[Observation]] = {}
    for n, line in _body_lines(path, TRACES_FORMAT):
        try:
            raw = _decode_line(line)
            t, rssi, claimed = raw["t"], raw["rssi"], raw["claimed_tx"]
            if not (type(t) is float and type(rssi) is float and type(claimed) is float
                    and 0.0 == t - t == rssi - rssi == claimed - claimed):
                t = _finite(t, "t")
                rssi, claimed = _finite(rssi, "rssi"), _finite(claimed, "claimed_tx")
            device = raw["device"]
            if type(device) is not str:
                raise ValueError(f"device must be a str, got {device!r}")
            id_hex = raw["id_hex"]
            try:
                beacon_id = ids[id_hex]
            except (KeyError, TypeError):
                # from_hex raises for anything that is not a hex string,
                # unhashable values included, before it can be stored
                beacon_id = ids[id_hex] = BeaconId.from_hex(id_hex)
            observations = grouped.get(device) or grouped.setdefault(device, [])  # never empty
            observations.append(Observation(t, beacon_id, rssi, claimed))
        except (KeyError, ValueError, TypeError, OverflowError, InvalidInput) as exc:
            raise SchemaError(f"{path}:{n}: bad trace line: {exc}") from exc
    try:
        return tuple(Trace(ref, tuple(observations)) for ref, observations in grouped.items())
    except InvalidInput as exc:  # a device's rows out of time order
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV tables


def write_table(fh, tag: str, fields: Sequence[str], rows: Iterable[dict]) -> None:
    """The `# tag` line, the header, then one line per row, each field quoted as CSV needs.

    Open a file with newline="": the csv module ends the header and rows in CRLF.
    A row's missing fields are written empty.
    """
    fh.write(f"# {tag}\n")
    writer = csv.DictWriter(fh, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)


def metric_rows(
    attack_metrics_list: list[dict],
    delivery_rate: Optional[float],
    n_deliveries: int,
) -> list[dict]:
    """One row per attack profile plus the delivery-correctness summary row."""
    rows = []
    for i, metrics in enumerate(attack_metrics_list):
        kind = metrics["kind"]
        headline = KINDS[kind].headline
        detail = {
            k: v for k, v in metrics.items()
            if isinstance(v, (int, float, str)) and k not in ("kind", "sniff_mode")
        }
        rows.append(
            {
                "profile": str(i),
                "kind": kind,
                "sniff_mode": metrics.get("sniff_mode", ""),
                "metric": headline,
                "value": _fmt_value(metrics.get(headline)),
                "detail": _dumps_sorted(detail),
            }
        )
    rows.append(
        {
            "profile": "",
            "kind": "summary",
            "sniff_mode": "",
            "metric": "delivery_correctness",
            "value": _fmt_value(delivery_rate),
            "detail": _dumps_sorted({"n_deliveries": n_deliveries}),
        }
    )
    return rows


def _fmt_value(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


_METRIC_FIELDS = ("profile", "kind", "sniff_mode", "metric", "value", "detail")


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, METRICS_TAG, _METRIC_FIELDS, rows)


def read_metrics_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh, _named_decode_errors(path):
        first = fh.readline().strip()
        if first != f"# {METRICS_TAG}":
            raise SchemaError(f"{path}: expected a {METRICS_TAG} file")
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != _METRIC_FIELDS:
            raise SchemaError(f"{path}: expected the columns {','.join(_METRIC_FIELDS)}, "
                              f"got {','.join(reader.fieldnames or ())}")
        return list(reader)


# ---------------------------------------------------------------------------
# detector verdict CSV

DETECT_FIELDS = ("device_ref", "avg_nll", "n_hard_flags", "verdict")


def write_detect_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, DETECT_TAG, DETECT_FIELDS, rows)
