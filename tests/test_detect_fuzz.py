"""`beaconlab detect` on damaged trace and calibration files.

Each example hands `detect` a trace file and a calibration file that are each
the pinned detect case's file, that file with one line, one field or one byte
changed, a truncated copy, random bytes, a path that does not exist or a
directory. Whatever it is given, `detect` ends with exit code 0 or 3 and its
one-line summary, 1 and a one-line `error:`, or 2 and a one-line `io error:`;
never a traceback, and within a fixed time.
"""

import contextlib
import io
import json
import time

from hypothesis import example, given, settings, strategies as st

from beaconlab.cli import main
from test_golden import _detect_inputs

# seconds one example may take; an undamaged run takes about 0.1 s
BUDGET_S = 10.0

_ORIGINALS = {}


def _originals(tmp_path_factory) -> dict:
    """The pinned case's argv and the bytes of its two trace files, made once."""
    if not _ORIGINALS:
        argv = _detect_inputs(tmp_path_factory.mktemp("detect-case"))
        _ORIGINALS["argv"] = argv
        for flag in ("--traces", "--calibration"):
            with open(argv[argv.index(flag) + 1], "rb") as fh:
                _ORIGINALS[flag] = fh.read()
    return _ORIGINALS


# any JSON value, NaN, infinities and huge ints among them
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
_LINE = st.one_of(
    st.text(max_size=30),
    st.builds(json.dumps, _JSON),
    st.sampled_from(["", "{}", "[" * 100_000, '{"t": ' * 50_000, "\ufeff{}", "NaN",
                     '{"format": "beaconlab.traces", "version": 2}']),
)
_FIELD = st.sampled_from(["t", "device", "id_hex", "rssi", "claimed_tx", "format", "version"])
_REMOVE = object()  # a field taken out of its line

# what becomes of one file: kept, a line, field or byte changed, truncated,
# random bytes, missing or a directory
_DAMAGE = st.one_of(
    st.tuples(st.just("keep")),
    st.tuples(st.just("line"), st.integers(0, 10**6), _LINE),
    st.tuples(st.just("field"), st.integers(0, 10**6), _FIELD, _JSON | st.just(_REMOVE)),
    st.tuples(st.just("byte"), st.integers(0, 10**9), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**9)),
    st.tuples(st.just("random"), st.binary(max_size=200)),
    st.tuples(st.just("missing")),
    st.tuples(st.just("directory")),
)


def _damaged(original: bytes, damage: tuple):
    """The damaged file's bytes, or the damage's name for a missing path or a directory."""
    kind, *args = damage
    if kind == "keep":
        return original
    if kind in ("missing", "directory"):
        return kind
    if kind == "random":
        return args[0]
    if kind == "byte":
        at, value = args[0] % len(original), args[1]
        return original[:at] + bytes([value]) + original[at + 1:]
    if kind == "truncate":
        return original[:args[0] % (len(original) + 1)]
    lines = original.decode("utf-8").split("\n")
    at = args[0] % len(lines)
    if kind == "line":
        lines[at] = args[1]
    elif kind == "field":
        try:
            obj = json.loads(lines[at])
        except ValueError:
            obj = {}
        if isinstance(obj, dict):
            if args[2] is _REMOVE:
                obj.pop(args[1], None)
            else:
                obj[args[1]] = args[2]
        lines[at] = json.dumps(obj)
    return "\n".join(lines).encode("utf-8", "surrogatepass")


def _place(work, name: str, content) -> str:
    path = work / name
    if content == "directory":
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    return str(path)


@settings(max_examples=150, deadline=None)
@given(traces=_DAMAGE, calibration=_DAMAGE, calibrate=st.booleans())
@example(traces=("line", 5, "[" * 100_000), calibration=("keep",), calibrate=True)
@example(traces=("keep",), calibration=("line", 3, '{"t": ' * 50_000), calibrate=True)
@example(traces=("random", b"\xff\xfe"), calibration=("directory",), calibrate=True)
def test_detect_ends_in_a_result_or_one_line_of_error(tmp_path_factory, traces, calibration,
                                                       calibrate):
    originals = _originals(tmp_path_factory)
    work = tmp_path_factory.mktemp("damaged")
    argv = list(originals["argv"])
    for flag, damage in (("--traces", traces), ("--calibration", calibration)):
        content = _damaged(originals[flag], damage)
        argv[argv.index(flag) + 1] = _place(work, flag.strip("-") + ".jsonl", content)
    if not calibrate:
        at = argv.index("--calibration")
        argv[at:at + 2] = ["--threshold", "2.5"]
    argv += ["--out", str(work / "verdicts.csv")]

    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - started

    assert elapsed < BUDGET_S
    lines = err.getvalue().split("\n")
    assert len(lines) == 2 and lines[1] == "", err.getvalue()
    start = {0: "threshold=", 3: "threshold=", 1: "error: ", 2: "io error: "}[code]
    assert lines[0].startswith(start), (code, lines[0])
    assert "Traceback" not in lines[0]
    assert out.getvalue() == ""


def test_an_error_that_names_a_device_stays_on_one_line(tmp_path_factory, capsys):
    # a device string holding a newline, its two sightings out of time order
    argv = list(_originals(tmp_path_factory)["argv"])
    traces = tmp_path_factory.mktemp("newline") / "traces.jsonl"
    sighting = {"device": "a\nb", "id_hex": "aa" * 20, "rssi": -70.0, "claimed_tx": -59.0}
    traces.write_text("\n".join([
        json.dumps({"format": "beaconlab.traces", "version": 1}),
        json.dumps({**sighting, "t": 1.0}), json.dumps({**sighting, "t": 0.0})]) + "\n")
    argv[argv.index("--traces") + 1] = str(traces)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: trace for 'a\\nb' is not time-ordered\n"
