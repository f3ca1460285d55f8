"""File formats: JSONL event/trace streams and CSV metric tables.

Every format carries a version tag on its first line so readers can refuse
files they do not understand instead of misparsing them. Writers are
deterministic: equal inputs produce byte-identical files, and every JSON line
equals what `json.dumps(..., sort_keys=True)` writes for it.

A JSONL line is a %-template filled with rendered values. Each event kind has
one template, built once from its sorted field tuple in `radio.EVENT_FIELDS`
(a field whose value is None is left out of the line); trace lines share one
five-field template. One value renderer, `radio.render_value`, fills both: a
str goes through `encode_basestring_ascii`, a finite float through
`float.__repr__`, an int (not a bool) through `int.__repr__`, and anything
else through `radio._dumps_sorted`, the encoder with `json.dumps`'s options.
Lines go to the file as they are rendered, so no writer holds a whole file.
The trace writer first checks every value against the trace reader's rule,
so it never writes a file that reader refuses.

Readers take a file one line at a time through `_body_lines`, so no reader
holds the file's text. A line ends only at a newline: text mode has already
turned CRLF and a lone CR into one, and a raw U+2028, U+2029 or U+0085 inside
a JSON string stays in its line, as JSON Lines has it. Blank lines are
skipped, but line numbers count them.

Readers decode each line through `radio._decode_line`, with the semantics of
`json.loads(line)`: surrounding whitespace is allowed, NaN and Infinity are
accepted, and a line holding anything beyond one JSON value (or a byte-order
mark) fails with the error `json.loads` gives. The common line is decoded by
one `raw_decode` call; only a line that call rejects or does not consume whole
takes the `json.loads` path. The trace reader interns beacon IDs and device
strings per file, so every observation of one `id_hex` shares one `BeaconId`
and every observation of one device one `receiver_ref`: a file names a few
dozen of each across tens of thousands of lines.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import count, starmap
from typing import Iterable, Iterator, Optional, Sequence

from .attacks import KINDS
from .errors import InvalidInput, SchemaError
from .model import BeaconId, Observation, Trace
from .radio import (
    Event, EventLog, _decode_line, _dumps_sorted, event_line, json_template, render_value,
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


def write_events_jsonl(path: str, events: EventLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line(EVENTS_FORMAT) + "\n")
        rows = zip(events.times, count(), events.kinds, events.values)
        fh.writelines(line + "\n" for line in starmap(event_line, rows))


def _body_lines(path: str, fmt: str) -> Iterator[tuple[int, str]]:
    """Check the header line, then yield (line number, line) for each
    non-empty line after it, reading one line at a time.

    A line ends only at a newline, which text mode also makes of CRLF and a
    lone CR. A line's number counts every line, blank ones too.
    """
    with open(path, "r", encoding="utf-8") as fh:
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


def _trace_lines(traces: Iterable[Trace]) -> Iterator[str]:
    for trace in traces:
        for obs in trace.observations:
            values = (obs.claimed_tx_power, obs.receiver_ref, obs.id.hex(), obs.rssi, obs.time)
            yield _TRACE_TEMPLATE % tuple(map(render_value, values)) + "\n"


def write_traces_jsonl(path: str, traces: Sequence[Trace]) -> None:
    """Write the traces, after checking every trace against the rule of
    `read_traces_jsonl`: a value it would refuse raises InvalidInput, naming
    the device, before the file is opened. The traces are walked twice, so
    they come as a sequence."""
    for trace in traces:
        _check_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line(TRACES_FORMAT) + "\n")
        fh.writelines(_trace_lines(traces))


_NUMBER_TYPES = frozenset((int, float))


def _check_trace(trace: Trace) -> None:
    """Each column in one pass of C-level calls; only a column that fails is
    walked value by value, to name its first bad value."""
    if not trace.observations:
        return
    times, devices, _, rssis, claimed = zip(*trace.observations)
    for name, column in (("t", times), ("rssi", rssis), ("claimed_tx", claimed)):
        try:
            if _NUMBER_TYPES.issuperset(map(type, column)) and all(map(math.isfinite, column)):
                continue
        except OverflowError:  # an int too large for a float
            pass
        for value in column:
            try:
                _finite(value, name)
            except (ValueError, OverflowError) as exc:
                raise InvalidInput(f"trace of device {trace.device_ref!r}: {exc}") from exc
    if set(map(type, devices)) != {str}:
        bad = next(d for d in devices if type(d) is not str)
        raise InvalidInput(f"trace of device {trace.device_ref!r}: "
                           f"device must be a str, got {bad!r}")


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
    non-empty hex string, raises SchemaError naming the file and line.
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
            obs_list = grouped.get(device)
            if obs_list is None:
                obs_list = grouped[device] = []
            else:  # one device string per device, as one BeaconId per id_hex
                device = obs_list[0].receiver_ref
            obs_list.append(
                Observation(t, device, beacon_id, rssi, claimed)
            )
        except (KeyError, ValueError, TypeError, OverflowError, InvalidInput) as exc:
            raise SchemaError(f"{path}:{n}: bad trace line: {exc}") from exc
    return tuple(Trace(ref, tuple(obs_list)) for ref, obs_list in grouped.items())


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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
        if first != f"# {METRICS_TAG}":
            raise SchemaError(f"{path}: expected a {METRICS_TAG} file")
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# detector verdict CSV

DETECT_FIELDS = ("device_ref", "avg_nll", "n_hard_flags", "verdict")


def write_detect_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, DETECT_TAG, DETECT_FIELDS, rows)
