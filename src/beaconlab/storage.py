"""File formats: JSONL event/trace streams and CSV metric tables.

Every format carries a version tag on its first line so readers can refuse
files they do not understand instead of misparsing them. Writers are
deterministic: equal inputs produce byte-identical files, and every JSON line
equals what `json.dumps(..., sort_keys=True)` writes for it.

A JSONL line is a %-template filled with rendered values. Each event kind has
one template, built once from its sorted field tuple in `radio.EVENT_FIELDS`
(a field whose value is None is left out of the line); trace lines share one
five-field template. Writers render a block of `_BLOCK` events, or of one
trace's observations, at a time, a column at a time. The event writer groups
a block's events by kind, transposes each kind's values into field columns
and adds its `seq` and `t` columns; the trace writer transposes the block's
observations. `radio.render_column` reads a column's exact types in one
C-level pass: a column of str goes through `encode_basestring_ascii`, of ints
(not bools) through `int.__repr__`, and of floats that are all finite through
`float.__repr__`; any other column goes value by value through
`radio.render_value`, the renderer whose text is `json.dumps`'s. Each kind's
template is then filled a row at a time, and the block's lines are written in
seq order. An event whose optional field is empty goes through
`radio.event_line`, the per-event reference. No writer holds more than one
block's columns and lines.

The same passes check each column against its reader's rule, so no writer
writes a file its reader refuses: an event value outside `radio.FIELD_TYPES`
or a `t` that is not a finite number raises InvalidInput naming the event's
seq, kind and field in the reader's words, and a trace value
`read_traces_jsonl` refuses raises it naming the device. Only a column that
fails is walked value by value.

A file of `_FORK_ROWS` rows or more is rendered by two processes, where
`_may_fork()`: the platform forks, this process may run on two CPUs or
more, it is not a multiprocessing worker and it runs one thread. A forked
`_Child` renders the blocks from the one that begins nearest the middle row
into an unlinked temporary file beside the output, while this process
renders the blocks before it into the output itself; this process then
copies the child's bytes after its own, `_CHUNK` bytes at a time, so the
bytes are those of one process rendering every block. A child that does
not exit 0, because it raised or was killed, leaves its blocks to this
process, which renders them after its own and so raises what one process
would raise, in the same order. Anywhere else, and where the fork itself
fails, one process renders every block. The child has ended and been
reaped when a writer returns or raises, and a writer that raises, whatever
it raises, leaves no file. `detect`'s calibration child is the same
`_Child`, under the same gate without the row floor and the same rule.

Each process renders one block at a time, but the child's memory is not
one block: reading an object writes its reference count, so every page
holding a row of the child's half is copied. The child's private pages grow
with the log: 6.7 MB while rendering the second half of the seed-1 campus
event log (16,148 events), and 17.5 MB on a log four times as long.
Rendering makes no reference cycles, so the garbage collector is off while a
writer runs, in either process.

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
import gc
import json
import math
import os
import sys
from functools import partial
from itertools import accumulate, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .attacks import KINDS
from .errors import InvalidInput, SchemaError
from .model import BeaconId, Observation, Trace
from .radio import (
    _EVENT_TEMPLATES, _IS_TYPE, EVENT_FIELDS, FIELD_TYPES, OPTIONAL_FIELDS, Event, EventLog,
    _decode_line, _dumps_sorted, _field_refusal, event_line, json_template, render_column,
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
# Bytes of the child's rendered blocks copied into the output at a time.
_CHUNK = 1 << 16
# Rows a file needs before a child renders half of them. Below it the fork,
# the temporary file and a first write's `import tempfile` cost about what the
# second process saves: on a 2-vCPU Xeon VM, in a fresh process, the first
# 3,072 events of the seed-1 campus log wrote in a median 6.3-6.5 ms split
# against 5.9-6.1 ms in one process, and the first 3,584 in 5.4-5.7 ms
# against 6.8-7.0 ms. One-shot `simulate` runs of a 10 s campus (4,158 events
# and 2,694 observations) took about the same time split or not.
_FORK_ROWS = 3584


def _write_jsonl(path: str, fmt: str, render: Callable[[int], list[str]],
                 rows: Sequence[int]) -> None:
    """The header line, then the lines render(j) gives for each block j, of
    rows[j] lines. Where `sum(rows) >= _FORK_ROWS` and `_may_fork()`, a child
    renders the blocks from `_halfway(rows)` on while this process renders the
    ones before. A writer that raises, for whatever reason, leaves no file."""
    blocks = len(rows)
    split = _halfway(rows) if blocks > 1 and sum(rows) >= _FORK_ROWS and _may_fork() else blocks
    child = None
    collecting = gc.isenabled()
    fh = open(path, "w", encoding="utf-8")
    # Rendering makes no reference cycles, so a collection finds nothing to
    # free; and while a child lives, it would write to, and so copy, every
    # page holding a tracked object.
    gc.disable()
    try:
        with fh:
            if split < blocks:
                try:
                    child = _Child(partial(_render_into, render, range(split, blocks)),
                                   os.path.dirname(path) or ".")
                except OSError:  # no fork to be had: render every block here
                    split = blocks
            fh.write(_header_line(fmt) + "\n")
            _write_blocks(fh, render, range(split))
            if child is not None:
                rendered = child.wait()
                if rendered is None:  # its blocks, rendered here, raise what one process would
                    _write_blocks(fh, render, range(split, blocks))
                else:
                    import shutil
                    fh.flush()
                    shutil.copyfileobj(rendered, fh.buffer, _CHUNK)
    except BaseException:
        os.remove(path)
        raise
    finally:
        if child is not None:
            child.close()
        if collecting:
            gc.enable()


def _write_blocks(fh, render: Callable[[int], list[str]], blocks: range) -> None:
    for j in blocks:
        fh.write("\n".join(render(j)))
        fh.write("\n")


def _render_into(render: Callable[[int], list[str]], blocks: range, file: BinaryIO) -> None:
    with open(file.fileno(), "w", encoding="utf-8", closefd=False) as fh:
        _write_blocks(fh, render, blocks)


def _halfway(rows: Sequence[int]) -> int:
    """The block, from 1 to len(rows) - 1, that begins nearest the middle row."""
    starts = [0, *accumulate(rows)]
    return min(range(1, len(rows)), key=lambda j: abs(starts[-1] - 2 * starts[j]))


def _may_fork() -> bool:
    """Whether a forked child may take work over from this process: the
    platform forks, this process may run on two CPUs or more (on one, the
    two processes take turns and the fork is a loss), it is not itself a
    multiprocessing worker (whose siblings already keep the other CPUs busy),
    and it runs one thread (a fork copies only the calling thread)."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    import threading
    return threading.active_count() == 1


class _Child:
    """A forked process that runs body on an unlinked temporary file in
    directory (by default the system's temporary directory) and exits 0, or
    exits 1 if body raises. Imports here, not with the module, keep the
    package's import as it was."""

    def __init__(self, body: Callable[[BinaryIO], object], directory: Optional[str] = None):
        import tempfile
        self.pid = None
        self.file = tempfile.TemporaryFile(dir=directory)
        try:
            self.pid = os.fork()
            if self.pid == 0:
                _run_and_exit(body, self.file)
        except BaseException:
            self.close()
            raise

    def wait(self) -> Optional[BinaryIO]:
        """Wait for the child: its file, rewound, if it exited 0; None if it
        did not, whether it raised or was killed, so its work falls to the caller."""
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        self.file.seek(0)
        return self.file

    def close(self) -> None:
        """Kill the child if it has not been reaped, reap it, and close its file."""
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.file.close()


def _run_and_exit(body: Callable[[BinaryIO], object], file: BinaryIO) -> NoReturn:
    """The child's whole life: run body on file, flush it and exit 0, or exit
    1 if that raises, without running any of the parent's exit handlers or
    flushing any of its other buffers."""
    code = 1
    try:
        body(file)
        file.flush()
        code = 0
    finally:
        os._exit(code)


def write_events_jsonl(path: str, events: EventLog) -> None:
    """Write the events, a block at a time. A value that `read_events_jsonl`
    would refuse raises InvalidInput naming the event's seq, kind and field,
    and leaves no file."""
    times, kinds, values = events.times, events.kinds, events.values

    def render(j: int) -> list[str]:
        i = j * _BLOCK
        return _event_block(times[i:i + _BLOCK], kinds[i:i + _BLOCK], values[i:i + _BLOCK], i)

    n = len(times)
    _write_jsonl(path, EVENTS_FORMAT, render, [min(_BLOCK, n - i) for i in range(0, n, _BLOCK)])


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


def write_traces_jsonl(path: str, traces: Iterable[Trace]) -> None:
    """Write the traces, a block of one trace's observations at a time. A value
    that `read_traces_jsonl` would refuse raises InvalidInput naming the
    device, and leaves no file."""
    blocks = [(trace.device_ref, trace.observations, i)
              for trace in traces for i in range(0, len(trace.observations), _BLOCK)]

    def render(j: int) -> list[str]:
        device_ref, observations, i = blocks[j]
        return _trace_block(device_ref, observations[i:i + _BLOCK])

    _write_jsonl(path, TRACES_FORMAT, render,
                 [min(_BLOCK, len(observations) - i) for _, observations, i in blocks])


_NUMBER_TYPES = frozenset((int, float))
_id_bytes = attrgetter("data")


def _trace_block(device_ref: str, observations: tuple) -> list[str]:
    """The lines of a block of a trace's observations, once every column is
    checked in one pass of C-level calls; only a column that fails is walked
    value by value, to name its first bad value."""
    times, devices, ids, rssis, claimed = zip(*observations)
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
                raise InvalidInput(f"trace of device {device_ref!r}: {exc}") from exc
    rendered_devices = render_column(devices, "str")
    if rendered_devices is None:
        bad = next(d for d in devices if type(d) is not str)
        raise InvalidInput(f"trace of device {device_ref!r}: device must be a str, got {bad!r}")
    hexes = map(bytes.hex, map(_id_bytes, ids))
    columns = (render_column(claimed, "number"), rendered_devices,
               map(encode_basestring_ascii, hexes), render_column(rssis, "number"),
               render_column(times, "number"))
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
