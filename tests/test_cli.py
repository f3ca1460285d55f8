import contextlib
import csv
import errno
import gc
import inspect
import io
import json
import math
import multiprocessing
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml

import beaconlab
from beaconlab import (
    BeaconId,
    DetectorParams,
    EphemeralParams,
    InvalidInput,
    Observation,
    Trace,
    build_markov,
    calibrate_threshold,
    ephemeral_id,
    load_deployment,
    read_traces_jsonl,
    score_trace,
    write_traces_jsonl,
)
from beaconlab import cli, ephemeral, storage
from beaconlab.cli import _process_pool, build_parser, main
from beaconlab.ephemeral import (MAX_BLOOM_K, MAX_BLOOM_M, MAX_BLOOM_WORK, MAX_WINDOW_IDS,
                                 bloom_size_for, filter_size)
from conftest import (AA, BB, CC, KEY1, KEY2, detector_resolver, ephemeral_beacon, receive_log,
                      static_beacon)
from test_acceptance import _PATH_ADJ, _trace, _walk
from test_golden import _detect_inputs
from test_storage import B, _log, _traces


def manifest_doc(**overrides):
    base = {
        "beacons": [static_beacon("b1", 0, AA), static_beacon("b2", 20, BB)],
        "content": [
            {"id_hex": AA, "locator": "app://one"},
            {"id_hex": BB, "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
        "duration_s": 10.0,
        "radio": {"seed": 4, "noise_sigma": 0.0},
    }
    base.update(overrides)
    return base


def write_manifest(path, **overrides):
    path.write_text(yaml.safe_dump(manifest_doc(**overrides)))
    return str(path)


def deployment_file(tmp_path):
    doc = {
        "beacons": [static_beacon("b1", 0, AA), static_beacon("b2", 20, BB)],
        "content": [
            {"id_hex": AA, "locator": "app://one"},
            {"id_hex": BB, "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
    }
    path = tmp_path / "deployment.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def trace_file(tmp_path, name, traces):
    path = tmp_path / name
    write_traces_jsonl(str(path), *receive_log(traces))
    return str(path)


def walk_trace(device_ref, ids, t0=0.0):
    return Trace(device_ref, tuple(
        Observation(t0 + i, BeaconId(bytes.fromhex(h)), -70.0, -59.0)
        for i, h in enumerate(ids)
    ))


KEY3 = "33" * 16


def rotating_walk_doc(path=((0.0, [0.0, 1.0]), (60.0, [40.0, 1.0]), (120.0, [0.0, 1.0])),
                      **overrides):
    """Three rotating beacons 20 m apart and a phone walking out and back."""
    return {
        "beacons": [ephemeral_beacon(f"b{i + 1}", 20.0 * i, key)
                    for i, key in enumerate((KEY1, KEY2, KEY3))],
        "content": [{"ref": f"b{i + 1}", "locator": f"app://{i + 1}"} for i in range(3)],
        "adjacency_radius_m": 25,
        "devices": [{"ref": "phone", "path": [list(wp) for wp in path]}],
        "duration_s": path[-1][0],
        "radio": {"seed": 8, "noise_sigma": 0.0, "max_range_m": 15.0},
        **overrides,
    }


class TestAssess:
    def test_worked_example_exits_clean(self, capsys):
        code = main(["assess", "--motives", "M2,M3", "--capabilities", "C1,C2,C3,C6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A2" in out and "A3" in out
        assert "common defences: TV" in out

    def test_no_common_defence_is_a_finding(self, capsys):
        code = main(["assess", "--motives", "M2,M3,M5",
                     "--capabilities", "C1,C2,C3,C4,C5,C6,C7"])
        assert code == 3
        assert "common defences: (none)" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main(["assess", "--motives", "M4", "--capabilities", "C1,C2,C7",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [a["id"] for a in doc["likely_attacks"]] == ["A6"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_codes_fold_case(self, capsys, fmt):
        argv = ["assess", "--motives", "M2,M3", "--capabilities", "C1,C2,C3,C6", "--format", fmt]
        assert main(argv) == 0
        upper = capsys.readouterr().out
        argv[2:5] = ["m2, m3", "--capabilities", "c1,C2,c3,c6"]
        assert main(argv) == 0
        assert capsys.readouterr().out == upper

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_lower_case_override_code_can_be_named(self, tmp_path, capsys, fmt):
        matrix = tmp_path / "matrix.yaml"
        matrix.write_text(yaml.safe_dump({
            "motives": {"m9": "testing"},
            "attacks": [{"id": "X1", "motives": ["m9"], "goals": ["C"], "required_caps": ["c1"],
                         "impacts": [{"description": "d", "level": "L", "party": "U"}],
                         "defences": ["tv"]}],
        }))
        argv = ["assess", "--matrix", str(matrix), "--motives", "m9", "--capabilities", "C1",
                "--format", fmt]
        assert main(argv) == 0
        lower = capsys.readouterr().out
        assert "X1" in lower and "TV" in lower
        argv[4] = "M9"
        assert main(argv) == 0
        assert capsys.readouterr().out == lower

    def test_unknown_motive_is_usage_error(self, capsys):
        assert main(["assess", "--motives", "M9", "--capabilities", "C1"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["assess", "--motives", "M1"]) == 1


class TestSimulate:
    def test_writes_the_three_artifacts(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "scenario.yaml")
        out = tmp_path / "out"
        code = main(["simulate", manifest, "--out", str(out)])
        assert code == 0
        assert (out / "events.jsonl").exists()
        assert (out / "traces.jsonl").exists()
        assert (out / "metrics.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 4
        assert summary["n_windows"] > 0

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        manifest = write_manifest(tmp_path / "s.yaml", radio={"noise_sigma": 0.0})
        monkeypatch.setenv("BEACONLAB_SEED", "77")
        main(["simulate", manifest, "--out", str(tmp_path / "a")])
        assert json.loads(capsys.readouterr().out)["seed"] == 77
        main(["simulate", manifest, "--out", str(tmp_path / "b"), "--seed", "123"])
        assert json.loads(capsys.readouterr().out)["seed"] == 123

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("source", ["document", "--seed", "BEACONLAB_SEED"])
    def test_a_seed_outside_signed_64_bit_exits_1(self, tmp_path, capsys, monkeypatch, source,
                                                 seed):
        # a noise draw packs the seed in 64 bits; at the default noise_sigma
        # such a seed was a struct.error traceback, and with none it ran
        for sigma in (2.0, 0.0):
            radio = {"noise_sigma": sigma, **({"seed": seed} if source == "document" else {})}
            manifest = write_manifest(tmp_path / "s.yaml", radio=radio)
            flags = ["--seed", str(seed)] if source == "--seed" else []
            if source == "BEACONLAB_SEED":
                monkeypatch.setenv("BEACONLAB_SEED", str(seed))
            out = tmp_path / "out"
            assert main(["simulate", manifest, "--out", str(out), *flags]) == 1
            assert capsys.readouterr().err == (
                f"error: radio: seed must be in [-2**63, 2**63 - 1], got {seed}\n")
            assert not out.exists()

    def test_multiple_manifests_get_subdirs(self, tmp_path, capsys):
        m1 = write_manifest(tmp_path / "east.yaml")
        m2 = write_manifest(tmp_path / "west.yaml", duration_s=6.0)
        out = tmp_path / "out"
        code = main(["simulate", m1, m2, "--out", str(out), "--jobs", "2"])
        assert code == 0
        assert (out / "east" / "metrics.csv").exists()
        assert (out / "west" / "metrics.csv").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_a_sniffer_named_like_a_device_is_refused(self, tmp_path, capsys):
        # a device named as A1's first sniffer 20 m from the one beacon
        manifest = tmp_path / "clash.yaml"
        manifest.write_text(yaml.safe_dump({
            "beacons": [static_beacon("b1", 0, AA)],
            "content": [{"id_hex": AA, "locator": "app://one"}],
            "devices": [{"ref": "atk0.rx0", "path": [[0.0, [20.0, 0.0]]]}],
            "attacks": [{"kind": "A1"}], "defences": [], "duration_s": 10,
        }))
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: A1: sniffer 'atk0.rx0' has the ref of a device\n")

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("jobs, asked", [("5000", [2]), ("1", [])])
    def test_the_pool_has_no_more_workers_than_manifests(self, tmp_path, capsys, monkeypatch,
                                                         jobs, asked):
        # a fork pool starts every worker it is asked for at its first submit
        workers = []

        def recording_pool(n):
            workers.append(n)
            return ThreadPoolExecutor(1)

        monkeypatch.setattr(cli, "_process_pool", recording_pool)
        manifests = [write_manifest(tmp_path / f"{name}.yaml") for name in ("east", "west")]
        assert main(["simulate", *manifests, "--out", str(tmp_path), "--jobs", jobs]) == 0
        assert workers == asked
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("sizing, size", [
        ({"bloom_m": 4096, "bloom_k": 3}, (4096, 3)),
        ({"bloom_fp_target": 1e-9}, bloom_size_for(15, 1e-9)),
    ], ids=["m-k", "fp-target"])
    def test_simulate_builds_the_filters_the_document_sizes(self, tmp_path, capsys, monkeypatch,
                                                            sizing, size):
        # every Bloom hit is checked exactly, so the files stay; the filters
        # built, for three keys' IDs in windows of 5 slots, are recorded
        doc = rotating_walk_doc(defences=["TV"])
        manifest = tmp_path / "rotating.yaml"
        manifest.write_text(yaml.safe_dump(doc))
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "default")]) == 0
        manifest.write_text(yaml.safe_dump({**doc, "ephemeral": sizing}))
        built, build = [], ephemeral.build_filter

        def recorded(*args):
            filt = build(*args)
            built.append((filt.m_bits, filt.k_hashes))
            return filt

        monkeypatch.setattr(ephemeral, "build_filter", recorded)
        monkeypatch.delattr(os, "fork")
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "sized")]) == 0
        capsys.readouterr()
        assert _logs(tmp_path / "sized") == _logs(tmp_path / "default")
        assert len(built) == 3 and set(built) == {size}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        manifests = [write_manifest(tmp_path / f"{name}.yaml") for name in ("east", "west")]
        assert main(["simulate", *manifests, "--out", str(tmp_path), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == \
            f"error: simulate: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "east").exists()


@pytest.fixture
def forks(monkeypatch):
    """The calls of this process to `os.fork`, each recorded as a 1."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _no_fork():
    raise AssertionError("the command forked")


def _one_process(case: str, monkeypatch, stack: contextlib.ExitStack) -> None:
    """Make `cli._may_fork()` false, for the rest of stack, the way case
    names; each way but "no fork" leaves an `os.fork` that fails the test."""
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
        return
    monkeypatch.setattr(os, "fork", _no_fork)
    if case == "one CPU":
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        stack.callback(os.sched_setaffinity, 0, cpus)
    elif case == "pool worker":
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    elif case == "second thread":
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        stack.callback(thread.join)
        stack.callback(done.set)


def _logs(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _written(out: Path, name: str, data: tuple) -> dict[str, bytes]:
    """The logs `cli._write_logs` writes of data, a log and its devices, in out/name."""
    (out / name).mkdir()
    cli._write_logs(out / name, *data)
    return _logs(out / name)


def _serial(monkeypatch, out: Path, data: tuple) -> dict[str, bytes]:
    """`_written` in one process, in out/serial."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return _written(out, "serial", data)


def _failure(out: Path, name: str, data: tuple) -> str:
    """The message of the InvalidInput `_written` raises, once the write is
    seen to have left neither log."""
    with pytest.raises(InvalidInput) as info:
        _written(out, name, data)
    assert _logs(out / name) == {}
    return str(info.value)


# a log of Receive rows only, of five devices, one with none, and one of
# every kind of event
_LOGS = [_traces([B + 1, 5, 3 * B, 0, 3]), (_log(4 * B + 7), ["phone"])]


@pytest.mark.skipif(not cli._may_fork(), reason="simulate forks only where the platform forks "
                    "and this process may run on two CPUs")
class TestLogProcesses:
    """`simulate` writes traces.jsonl in a forked child while it writes
    events.jsonl. Its bytes and its errors are those of the two writes run
    one after the other in one process, and a write that raises leaves
    neither log."""

    @pytest.fixture(autouse=True)
    def out(self, tmp_path):
        yield tmp_path
        # every child was reaped and the garbage collector is back on
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert gc.isenabled()

    def test_a_simulate_run_forks_once_and_writes_the_serial_bytes(self, monkeypatch, capsys,
                                                                    out, forks):
        # 2,000 s: enough events and phone rows that the writers that split
        # each file between two processes forked twice
        manifest = write_manifest(out / "scenario.yaml", duration_s=2000.0)
        assert main(["simulate", manifest, "--out", str(out / "forked")]) == 0
        assert forks == [1]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert main(["simulate", manifest, "--out", str(out / "serial")]) == 0
        forked, serial = _logs(out / "forked"), _logs(out / "serial")
        assert list(forked) == ["events.jsonl", "metrics.csv", "traces.jsonl"]
        assert forked == serial
        assert len(forked["traces.jsonl"].splitlines()) > 3584

    @pytest.mark.parametrize("data", _LOGS, ids=["traces", "events"])
    def test_the_logs_are_the_serial_bytes(self, monkeypatch, out, forks, data):
        forked = _written(out, "forked", data)
        assert forks == [1]
        assert forked == _serial(monkeypatch, out, data)
        assert list(forked) == ["events.jsonl", "traces.jsonl"]

    # a row out of time order only the trace writer refuses, so the child
    # does; a NaN rssi both writers do, so the events write does first
    @pytest.mark.parametrize("data, refusal", [
        (_traces([B, B, B, B], bad_device="d3", bad="order"), "trace of device 'd3': "),
        (_traces([4 * B], bad_device="d0", bad="order", at=2 * B), "trace of device 'd0': "),
        (_traces([B, B, B, B], bad_device="d3"), f"event {4 * B - 1}: "),
    ], ids=["traces-order", "traces-order-mid-device", "events-and-traces"])
    def test_a_refusal_is_the_serial_one_and_leaves_neither_log(self, monkeypatch, out, forks,
                                                               data, refusal):
        forked = _failure(out, "forked", data)
        assert forks == [1]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert _failure(out, "serial", data) == forked
        assert forked.startswith(refusal)

    def test_the_first_refused_event_wins(self, monkeypatch, out, forks):
        # two refused events blocks apart: the earlier one's error, as in one process
        data = (_log(4 * B, bad=(5, 3 * B + 5)), ["phone"])
        forked = _failure(out, "forked", data)
        assert forks == [1]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert _failure(out, "serial", data) == forked
        assert forked == "event 5: Receive rssi must be a number, got True"

    @pytest.mark.parametrize("where", ["events", "traces", "serial"])
    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
    def test_a_write_that_raises_leaves_neither_log(self, monkeypatch, out, forks, where, error):
        # in the events write (the parent's), or in the traces write, where
        # the child and then the parent raise, or after the events in one process
        name, render = ("_event_block", storage._event_block) if where == "events" else \
            ("_trace_block", storage._trace_block)

        def failing(*args):
            if args[-1] == B:  # a second block
                raise error
            return render(*args)

        monkeypatch.setattr(storage, name, failing)
        if where == "serial":
            monkeypatch.delattr(os, "fork")
        with pytest.raises(type(error)) as info:
            _written(out, "logs", _traces([2 * B, 2 * B]))
        assert _logs(out / "logs") == {}
        assert forks == ([] if where == "serial" else [1])
        if isinstance(error, OSError):
            assert info.value.errno == errno.ENOSPC

    def test_an_events_error_kills_and_reaps_the_traces_child(self, monkeypatch, out, forks):
        parent, render = os.getpid(), storage._trace_block

        def stalled(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return render(*args)

        def refused(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(storage, "_trace_block", stalled)
        monkeypatch.setattr(storage, "_event_block", refused)
        started = time.monotonic()
        with pytest.raises(OSError):
            _written(out, "logs", _traces([2 * B]))
        assert time.monotonic() - started < 30
        assert _logs(out / "logs") == {}
        assert forks == [1]

    @pytest.mark.parametrize("death", [
        lambda: os._exit(3),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
    ], ids=["exit", "killed"])
    def test_the_traces_of_a_child_that_dies_are_written_here(self, monkeypatch, out, forks,
                                                              death):
        # the child dies with its first blocks written: the parent writes the file anew
        data = _traces([3 * B, 2 * B])
        serial = _serial(monkeypatch, out, data)
        parent, render = os.getpid(), storage._trace_block

        def dying(device, times, values, rows, start):
            if os.getpid() != parent and device == "d1":
                death()
            return render(device, times, values, rows, start)

        monkeypatch.setattr(storage, "_trace_block", dying)
        assert _written(out, "forked", data) == serial
        assert forks == [1]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "one process"])
    def test_the_write_leaves_a_stopped_collector_stopped(self, monkeypatch, out, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        gc.disable()
        try:
            _written(out, "logs", _LOGS[0])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_fork_that_fails_leaves_both_writes_in_one_process(self, monkeypatch, out):
        forked = _written(out, "forked", _LOGS[1])
        refused = []

        def no_fork():
            refused.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _written(out, "serial", _LOGS[1]) == forked
        assert refused == [1]

    @pytest.mark.parametrize("case", ["no fork", "one CPU", "pool worker", "second thread"])
    @pytest.mark.parametrize("data", _LOGS, ids=["traces", "events"])
    def test_the_write_stays_in_one_process_unless_a_fork_can_pay(self, monkeypatch, out, data,
                                                                  case):
        forked = _written(out, "forked", data)
        with contextlib.ExitStack() as stack:
            _one_process(case, monkeypatch, stack)
            assert _written(out, "serial", data) == forked


class TestDetect:
    def test_threshold_mode_and_exit_codes(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        clean = trace_file(tmp_path, "clean.jsonl",
                           [walk_trace("phone", [AA, BB, AA, BB, AA])])
        code = main(["detect", "--deployment", dep, "--traces", clean,
                     "--threshold", "2.0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "phone" in captured.out and "normal" in captured.out
        assert "anomalous=0" in captured.err

        dirty = trace_file(tmp_path, "dirty.jsonl",
                           [walk_trace("phone", [AA, CC, AA, CC, AA])])
        code = main(["detect", "--deployment", dep, "--traces", dirty,
                     "--threshold", "2.0"])
        assert code == 3
        assert "anomalous" in capsys.readouterr().out

    def test_too_short_is_reported_not_flagged(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        stub = trace_file(tmp_path, "stub.jsonl", [walk_trace("phone", [AA, BB])])
        code = main(["detect", "--deployment", dep, "--traces", stub,
                     "--threshold", "2.0"])
        assert code == 0
        assert "too_short" in capsys.readouterr().out

    def test_calibration_mode_writes_csv(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        calibration = trace_file(
            tmp_path, "calibration.jsonl",
            [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)],
        )
        target = trace_file(tmp_path, "target.jsonl",
                            [walk_trace("phone", [AA, BB] * 4)])
        out = tmp_path / "verdicts.csv"
        code = main(["detect", "--deployment", dep, "--traces", target,
                     "--calibration", calibration, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# beaconlab.detect.v1"
        assert lines[1] == "device_ref,avg_nll,n_hard_flags,verdict"
        assert lines[2].startswith("phone,") and lines[2].endswith(",normal")

    def test_stdout_is_the_out_file_byte_for_byte(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("lab, west", [AA, BB] * 4)])
        out = tmp_path / "verdicts.csv"
        argv = ["detect", "--deployment", dep, "--traces", traces, "--threshold", "2.0"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode() == out.read_bytes()
        rows = list(csv.reader(io.StringIO(stdout.split("\n", 1)[1])))
        assert [len(row) for row in rows] == [4, 4]
        assert rows[1][0] == "lab, west" and rows[1][3] == "normal"

    def test_a_number_too_large_for_a_float_exits_1(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        traces = tmp_path / "t.jsonl"
        line = {"t": 10**400, "device": "phone", "id_hex": AA, "rssi": -70.0, "claimed_tx": -59.0}
        traces.write_text('{"format": "beaconlab.traces", "version": 1}\n'
                          + json.dumps(line) + "\n")
        assert main(["detect", "--deployment", dep, "--traces", str(traces),
                     "--threshold", "1"]) == 1
        err = capsys.readouterr().err
        assert "t.jsonl:2: bad trace line" in err and "Traceback" not in err

    def test_needs_threshold_or_calibration(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB, AA, BB])])
        assert main(["detect", "--deployment", dep, "--traces", traces]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--threshold", "nan"], "--threshold must be finite, got nan"),
        (["--threshold", "inf"], "--threshold must be finite, got inf"),
        (["--threshold=-inf"], "--threshold must be finite, got -inf"),
        (["--threshold", "1", "--calibration", "cal.jsonl"],
         "give either --threshold or --calibration traces"),
    ], ids=["nan", "inf", "-inf", "both"])
    def test_a_malformed_threshold_flag_is_refused_before_any_fork(self, tmp_path, capsys,
                                                                    monkeypatch, flags, message):
        dep = deployment_file(tmp_path)
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)])
        trace_file(tmp_path, "cal.jsonl", [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)])
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert main(["detect", "--deployment", dep, "--traces", traces] + flags) == 1
        assert capsys.readouterr() == ("", f"error: detect: {message}\n")

    def test_a_rotating_walk_is_judged(self, tmp_path, capsys):
        # resolved by the run's rule, a clean walk past rotating beacons has
        # transitions to score, not a single UNKNOWN state
        scenario = tmp_path / "rotating.yaml"
        scenario.write_text(yaml.safe_dump(rotating_walk_doc()))
        assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["detect", "--deployment", str(scenario),
                     "--traces", str(tmp_path / "traces.jsonl"), "--threshold", "5"])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert code == 0
        assert len(rows) == 1 and rows[0].startswith("phone,") and rows[0].endswith(",0,normal")

    def test_the_ephemeral_block_sets_the_slots_detect_resolves(self, tmp_path, capsys):
        # 30 s slots over a 300 s walk: read with the default 60 s slots, the
        # later IDs fall outside the acceptance window and read as UNKNOWN
        path = ((0.0, [0.0, 1.0]), (150.0, [40.0, 1.0]), (300.0, [0.0, 1.0]))
        doc = rotating_walk_doc(path, ephemeral={"slot_duration_s": 30})
        scenario = tmp_path / "rotating.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        without_block = tmp_path / "deployment.yaml"
        without_block.write_text(yaml.safe_dump({k: v for k, v in doc.items() if k != "ephemeral"}))
        assert main(["simulate", str(scenario), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        verdicts = []
        for deployment in (scenario, without_block):
            code = main(["detect", "--deployment", str(deployment),
                         "--traces", str(tmp_path / "traces.jsonl"), "--threshold", "5"])
            verdicts.append((code, capsys.readouterr().out.splitlines()[2].split(",")[2:]))
        assert verdicts[0] == (0, ["0", "normal"])
        assert verdicts[1][0] == 3 and verdicts[1][1][1] == "anomalous"

    @pytest.mark.parametrize("sizing", [{"bloom_m": 4096, "bloom_k": 3},
                                        {"bloom_fp_target": 1e-9}], ids=["m-k", "fp-target"])
    def test_detect_builds_the_filters_the_document_sizes(self, tmp_path, capsys, monkeypatch,
                                                          sizing):
        # every Bloom hit is checked exactly, so the verdicts stay; the
        # filters built, in calibration and in scoring, are recorded
        argv = _rotating_inputs(tmp_path)
        code = main(argv)
        reference = capsys.readouterr()
        deployment = Path(argv[argv.index("--deployment") + 1])
        doc = yaml.safe_load(deployment.read_text())
        doc["ephemeral"].update(sizing)
        deployment.write_text(yaml.safe_dump(doc))
        built, build = [], ephemeral.build_filter

        def recorded(*args):
            filt = build(*args)
            built.append((filt.m_bits, filt.k_hashes))
            return filt

        monkeypatch.setattr(ephemeral, "build_filter", recorded)
        monkeypatch.delattr(os, "fork")  # calibration's filters are built here too
        assert main(argv) == code
        assert capsys.readouterr() == reference
        n_ids = len(doc["beacons"]) * len(EphemeralParams(slot_duration_s=30.0).window(0))
        assert set(built) == {filter_size(n_ids, sizing.get("bloom_m"), sizing.get("bloom_k"),
                                          sizing.get("bloom_fp_target"))}

    @pytest.mark.parametrize("flag", ["--traces", "--calibration"])
    @pytest.mark.parametrize("damage", ["not UTF-8", "time order"])
    def test_a_file_error_names_the_file(self, tmp_path, capsys, flag, damage):
        argv = _generated_inputs(tmp_path)
        path = Path(argv[argv.index(flag) + 1])
        lines = path.read_bytes().splitlines(keepends=True)
        if damage == "not UTF-8":
            lines[3] = lines[3].replace(b'"device": "', b'"device": "\xff', 1)
            expected = f"{path}: the file is not UTF-8 text (invalid start byte)"
        else:  # the first device's first two rows swapped
            lines[1], lines[2] = lines[2], lines[1]
            expected = f"{path}: trace for {json.loads(lines[1])['device']!r} is not time-ordered"
        path.write_bytes(b"".join(lines))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["detect", "--deployment", "d", "--traces", "t"])
        library = DetectorParams()
        assert args.alpha == library.alpha
        assert args.min_transitions == library.min_transitions
        assert args.no_debounce is not library.debounce
        assert args.p_stay == inspect.signature(build_markov).parameters["p_stay"].default
        calibrate = inspect.signature(calibrate_threshold).parameters
        assert calibrate["alpha"].default == library.alpha
        assert calibrate["debounce"].default == library.debounce
        assert calibrate["min_transitions"].default == library.min_transitions
        score = inspect.signature(score_trace).parameters
        assert score["min_transitions"].default == library.min_transitions


def _generated_inputs(tmp_path) -> list[str]:
    """The pinned case's deployment with 60 clean calibration walks and 30
    test walks of random lengths, three of them with a jump, at --alpha 0.02."""
    deployment = _detect_inputs(tmp_path)[2]
    rng = random.Random(12)
    calibration = trace_file(tmp_path, "generated-calibration.jsonl",
                             [_trace(_walk(rng), f"cal{k}") for k in range(60)])
    walks = [_walk(rng, rng.randrange(2, 40)) for _ in range(30)]
    for walk in walks[:3]:
        walk[len(walk) // 2:] = ["b4", "b1"]
    traces = trace_file(tmp_path, "generated-traces.jsonl",
                        [_trace(w, f"walk{k}") for k, w in enumerate(walks)])
    return ["detect", "--deployment", deployment, "--traces", traces,
            "--calibration", calibration, "--alpha", "0.02"]


def _rotating_inputs(tmp_path) -> list[str]:
    """AC-4's four-beacon path with rotating IDs in 30 s slots, one sighting
    each 10 s: 30 clean calibration walks, then 10 clean test walks, 2 with a
    jump and 2 with one sighting replayed from three slots back, at --alpha 0.1."""
    rng = random.Random(14)
    keys = {ref: f"{i + 1:02d}" * 16 for i, ref in enumerate(_PATH_ADJ)}
    eph = EphemeralParams(slot_duration_s=30.0)
    deployment = tmp_path / "rotating-deployment.yaml"
    deployment.write_text(yaml.safe_dump({
        "beacons": [ephemeral_beacon(ref, 20.0 * i, key)
                    for i, (ref, key) in enumerate(keys.items())],
        "content": [{"ref": ref, "locator": f"app://{ref}"} for ref in keys],
        "adjacency": [["b1", "b2"], ["b2", "b3"], ["b3", "b4"]],
        "ephemeral": {"slot_duration_s": eph.slot_duration_s},
    }))

    def rotating_trace(states, ref, stale_at=None):
        sightings = []
        for i, state in enumerate(states):
            slot = eph.slot_of(10.0 * i) - (3 if i == stale_at else 0)
            bid = ephemeral_id(bytes.fromhex(keys[state]), slot)
            sightings.append(Observation(10.0 * i, bid, -70.0, -59.0))
        return Trace(ref, tuple(sightings))

    calibration = trace_file(tmp_path, "rotating-calibration.jsonl",
                             [rotating_trace(_walk(rng), f"cal{k}") for k in range(30)])
    walks = [rotating_trace(_walk(rng), f"clean{k}") for k in range(10)]
    walks += [rotating_trace(_walk(rng)[:10] + ["b4", "b1"], f"jump{k}") for k in range(2)]
    walks += [rotating_trace(_walk(rng), f"stale{k}", stale_at=15) for k in range(2)]
    traces = trace_file(tmp_path, "rotating-traces.jsonl", walks)
    return ["detect", "--deployment", str(deployment), "--traces", traces,
            "--calibration", calibration, "--alpha", "0.1"]


class TestCalibrationProcess:
    """`--calibration` is read and scored in a forked child while the test
    file is read: the output, the exit code and which error wins must be those
    of the two steps run one after the other in one process."""

    @pytest.mark.parametrize("inputs", [_detect_inputs, _generated_inputs, _rotating_inputs],
                             ids=["pinned", "generated", "rotating"])
    def test_output_equals_an_in_process_reference(self, tmp_path, capsys, inputs):
        argv = inputs(tmp_path)
        flags = dict(zip(argv[1::2], argv[2::2]))
        doc = yaml.safe_load(Path(flags["--deployment"]).read_text())
        deployment = load_deployment(doc)
        eph = EphemeralParams(**doc.get("ephemeral", {}))
        threshold = calibrate_threshold(
            build_markov(deployment), read_traces_jsonl(flags["--calibration"]),
            detector_resolver(deployment, eph), alpha=float(flags["--alpha"]))
        code = main(argv)
        calibrated = capsys.readouterr()
        at = argv.index("--calibration")
        assert main(argv[:at] + ["--threshold", repr(threshold)] + argv[at + 2:]) == code == 3
        reference = capsys.readouterr()
        assert calibrated.out == reference.out
        assert calibrated.err == reference.err
        assert calibrated.err.startswith(f"threshold={threshold!r} traces=")

    @staticmethod
    def _bad_file(tmp_path, name, traces, bad_line_at):
        path = Path(trace_file(tmp_path, name, traces))
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(bad_line_at, '{"t": 0.0, "device": "x"}\n')
        path.write_text("".join(lines))
        return str(path)

    def test_a_calibration_error_wins_over_a_test_file_error(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        calibration = self._bad_file(tmp_path, "cal.jsonl",
                                     [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)], 40)
        traces = self._bad_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)], 2)
        assert main(["detect", "--deployment", dep, "--traces", traces,
                     "--calibration", calibration]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {calibration}:41: bad trace line: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_missing_calibration_file_exits_2(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        missing = str(tmp_path / "nope.jsonl")
        bad = self._bad_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)], 2)
        assert main(["detect", "--deployment", dep, "--traces", bad,
                     "--calibration", missing]) == 2
        assert capsys.readouterr().err == \
            f"io error: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("walks, message", [
        ([[AA, BB] * 6] * 24 + [[AA, CC, BB] * 4],
         "error: calibration trace from 'cal24' contains impossible transitions: "
         "(('b1', 'UNKNOWN'), ('UNKNOWN', 'b2'), ('b1', 'UNKNOWN'))\n"),
        ([[AA, BB] * 6] * 19, "error: 19 usable calibration traces; need at least 20\n"),
        # a trace too short to score is not a usable one
        ([[AA, BB] * 6] * 19 + [[AA, BB]],
         "error: 19 usable calibration traces; need at least 20\n"),
    ], ids=["contaminated", "insufficient", "insufficient with a short trace"])
    def test_calibration_findings_keep_their_messages(self, tmp_path, capsys, walks, message):
        dep = deployment_file(tmp_path)
        calibration = trace_file(tmp_path, "cal.jsonl",
                                 [walk_trace(f"cal{i}", w) for i, w in enumerate(walks)])
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)])
        assert main(["detect", "--deployment", dep, "--traces", traces,
                     "--calibration", calibration]) == 1
        assert capsys.readouterr().err == message

    def test_a_too_short_calibration_trace_is_skipped(self, tmp_path, capsys):
        dep = deployment_file(tmp_path)
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)])
        clean = [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(24)]
        outputs = []
        for name, calibration in (("cal.jsonl", clean + [walk_trace("cal24", [AA, BB])]),
                                  ("clean.jsonl", clean)):
            assert main(["detect", "--deployment", dep, "--traces", traces,
                         "--calibration", trace_file(tmp_path, name, calibration)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err.startswith("threshold=")

    @pytest.mark.parametrize("case", ["ok", "bad calibration", "bad test file",
                                      "missing calibration", "missing test file",
                                      "insufficient", "bad alpha"])
    def test_no_child_outlives_main(self, tmp_path, capsys, forks, case):
        dep = deployment_file(tmp_path)
        good_cal = trace_file(tmp_path, "cal.jsonl",
                              [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)])
        good_test = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)])
        calibration, traces, extra, code = {
            "ok": (good_cal, good_test, [], 0),
            "bad calibration": (self._bad_file(tmp_path, "b.jsonl", [], 1), good_test, [], 1),
            "bad test file": (good_cal, self._bad_file(tmp_path, "b.jsonl", [], 1), [], 1),
            "missing calibration": (str(tmp_path / "nope"), good_test, [], 2),
            "missing test file": (good_cal, str(tmp_path / "nope"), [], 2),
            "insufficient": (good_test, good_test, [], 1),
            "bad alpha": (good_cal, good_test, ["--alpha", "1.5"], 1),
        }[case]
        assert main(["detect", "--deployment", dep, "--traces", traces,
                     "--calibration", calibration] + extra) == code
        # the child runs on every path, so each one shows it reaped
        assert forks == ([1] if cli._may_fork() else [])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupted_read_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks):
        dep = deployment_file(tmp_path)
        cal = trace_file(tmp_path, "cal.jsonl",
                         [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)])
        parent = os.getpid()

        def stalled_or_interrupted(path):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "read_traces_jsonl", stalled_or_interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["detect", "--deployment", dep, "--traces", cal, "--calibration", cal])
        assert time.monotonic() - started < 30
        assert forks == ([1] if cli._may_fork() else [])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("death", [
        lambda: os._exit(1),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
    ], ids=["exit 1", "killed"])
    @pytest.mark.parametrize("calibration", ["clean", "bad"])
    def test_a_child_that_dies_leaves_calibration_here(self, tmp_path, capsys, monkeypatch,
                                                        forks, death, calibration):
        dep = deployment_file(tmp_path)
        walks = [walk_trace(f"cal{i}", [AA, BB] * 6) for i in range(25)]
        cal = (trace_file(tmp_path, "cal.jsonl", walks) if calibration == "clean"
               else self._bad_file(tmp_path, "cal.jsonl", walks, 40))
        traces = trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB] * 4)])
        argv = ["detect", "--deployment", dep, "--traces", traces, "--calibration", cal]
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            code = main(argv)
        reference = capsys.readouterr()
        parent, calibrate = os.getpid(), cli._calibrate

        def dying(*args):
            if os.getpid() != parent:
                death()
            return calibrate(*args)

        monkeypatch.setattr(cli, "_calibrate", dying)
        assert main(argv) == code
        assert capsys.readouterr() == reference
        assert forks == ([1] if cli._may_fork() else [])
        if calibration == "bad":
            assert code == 1 and reference.err.startswith(f"error: {cal}:41: bad trace line: ")
            assert reference.err.count("\n") == 1 and "Traceback" not in reference.err

    @pytest.mark.skipif(not cli._may_fork(), reason="detect forks only where the platform "
                        "forks and this process may run on two CPUs")
    @pytest.mark.parametrize("case", ["no fork", "one CPU", "pool worker", "second thread",
                                      "fork fails"])
    def test_detect_stays_in_one_process_unless_a_fork_can_pay(self, tmp_path, capsys,
                                                              monkeypatch, forks, case):
        argv = _generated_inputs(tmp_path)
        code = main(argv)
        reference = capsys.readouterr()
        assert forks == [1]
        refused = []
        with contextlib.ExitStack() as stack:
            if case == "fork fails":
                def no_fork():
                    refused.append(1)
                    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
                monkeypatch.setattr(os, "fork", no_fork)
            else:
                _one_process(case, monkeypatch, stack)
            assert main(argv) == code
        assert capsys.readouterr() == reference
        assert refused == ([1] if case == "fork fails" else [])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["simulate", "generate", "build", "verify", "detect"])
def test_a_slot_outside_signed_64_bit_is_an_input_error(tmp_path, capsys, case):
    # slots pack as signed 64-bit: a tiny slot length, a huge --slot, a
    # filter window running past 2**63 - 1 and a huge trace time all reach one
    doc = {"beacons": [ephemeral_beacon("b1", 0, KEY1)],
           "content": [{"ref": "b1", "locator": "app://one"}],
           "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}], "duration_s": 10.0}
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump({**doc, "ephemeral": {"slot_duration_s": 1e-300}}))
    deployment = tmp_path / "deployment.yaml"
    deployment.write_text(yaml.safe_dump(doc))
    keys = tmp_path / "keys.yaml"
    keys.write_text(yaml.safe_dump({"b1": KEY1}))
    filter_path = str(tmp_path / "slot0.blf")
    assert main(["ephemeral", "build", "--keys", str(keys), "--slot", "0",
                 "--out", filter_path]) == 0
    sighting = Observation(1e300, ephemeral_id(bytes.fromhex(KEY1), 0), -70.0, -59.0)
    argv = {
        "simulate": ["simulate", str(scenario), "--out", str(tmp_path / "out")],
        "generate": ["ephemeral", "generate", "--key-hex", KEY1, "--slot", str(2**63)],
        "build": ["ephemeral", "build", "--keys", str(keys), "--slot", str(2**63 - 2),
                  "--out", str(tmp_path / "f.blf")],
        "verify": ["ephemeral", "verify", "--filter", filter_path, "--keys", str(keys),
                   "--id-hex", AA, "--slot", str(2**63 - 1)],
        "detect": ["detect", "--deployment", str(deployment), "--threshold", "5", "--traces",
                   trace_file(tmp_path, "t.jsonl", [Trace("phone", (sighting,))])],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: slot is outside the signed 64-bit range [-2**63, 2**63 - 1]\n"


@pytest.mark.parametrize("case", ["simulate", "build", "detect"])
def test_a_window_of_too_many_ids_is_refused_before_any_is_derived(tmp_path, capsys,
                                                                   monkeypatch, case):
    def derive(*args):
        raise AssertionError("an ID was derived")

    monkeypatch.setattr(beaconlab.ephemeral, "ephemeral_id", derive)
    doc = {"beacons": [ephemeral_beacon("b1", 0, KEY1)],
           "content": [{"ref": "b1", "locator": "app://one"}],
           "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}], "duration_s": 10.0,
           "ephemeral": {"window_slots": 100_000_000}}
    document = tmp_path / "scenario.yaml"
    document.write_text(yaml.safe_dump(doc))
    keys = tmp_path / "keys.yaml"
    keys.write_text(yaml.safe_dump({"b1": KEY1}))
    sighting = Observation(1.0, BeaconId.from_hex(AA), -70.0, -59.0)
    argv = {
        "simulate": ["simulate", str(document), "--out", str(tmp_path / "out")],
        "build": ["ephemeral", "build", "--keys", str(keys), "--slot", "0",
                  "--window", "100000000", "--out", str(tmp_path / "f.blf")],
        "detect": ["detect", "--deployment", str(document), "--threshold", "5", "--traces",
                   trace_file(tmp_path, "t.jsonl", [Trace("phone", (sighting,))])],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: window_slots 100000000 with 1 owner key(s) "
                                       "makes 200,000,001 IDs per window; the limit is 100,000\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "f.blf").exists()


@pytest.mark.parametrize("command", ["simulate", "assess", "ephemeral build", "detect", "report"])
def test_a_text_input_that_is_not_utf_8_is_named(tmp_path, capsys, command):
    # before, the error quoted the codec and named no file
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"\xff\xfe")
    argv = {
        "simulate": ["simulate", str(bad), "--out", str(tmp_path / "out")],
        "assess": ["assess", "--motives", "M2", "--capabilities", "C1", "--matrix", str(bad)],
        "ephemeral build": ["ephemeral", "build", "--keys", str(bad), "--slot", "0",
                            "--out", str(tmp_path / "f.blf")],
        "detect": ["detect", "--deployment", str(bad), "--threshold", "5",
                   "--traces", trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA])])],
        "report": ["report", str(bad)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: {bad}: the file is not UTF-8 text (invalid start byte)\n")


def _probe(code: str) -> str:
    """The stdout of a fresh interpreter running code with this package importable."""
    src = str(Path(beaconlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


_POOL_MODULES = ("print(sorted(m for m in sys.modules "
                 "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    assert _probe("import sys, beaconlab, beaconlab.cli; " + _POOL_MODULES) == "[]\n"


def test_a_calibrated_detect_run_leaves_multiprocessing_unloaded(tmp_path):
    # only `simulate --jobs` uses a process pool
    argv = _generated_inputs(tmp_path) + ["--out", str(tmp_path / "verdicts.csv")]
    code = f"import sys; from beaconlab.cli import main; print(main({argv!r})); " + _POOL_MODULES
    assert _probe(code) == "3\n[]\n"


def test_importing_the_package_loads_none_of_the_writer_s_fork_modules():
    # simulate and detect import these only when they fork
    out = _probe("import sys; before = set(sys.modules); import beaconlab, beaconlab.cli; "
                 "print(sorted(set(sys.modules) - before & "
                 "{'tempfile', 'shutil', 'signal', 'threading'}))")
    assert out == "[]\n"


_MARK = {}


def _marked() -> bool:
    """Whether the parent's mark reached this worker: a forked one inherits
    it, a spawned one imports this module afresh."""
    return _MARK.get("set", False)


def test_the_pools_fork_whatever_the_default_start_method(monkeypatch):
    # a spawned `simulate --jobs` worker imports the package again
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    monkeypatch.setitem(_MARK, "set", True)
    try:
        with _process_pool(1) as pool:
            assert pool.submit(_marked).result() is True
    finally:
        multiprocessing.set_start_method(default, force=True)


class TestEphemeral:
    def test_generate_build_verify_round_trip(self, tmp_path, capsys):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1, "b2": KEY2}))
        filter_path = tmp_path / "slot120.blf"

        code = main(["ephemeral", "build", "--keys", str(keys_path),
                     "--slot", "120", "--out", str(filter_path)])
        assert code == 0
        build_info = json.loads(capsys.readouterr().out)
        assert build_info["n_inserted"] == 2 * 5

        code = main(["ephemeral", "generate", "--key-hex", KEY1, "--slot", "121"])
        assert code == 0
        id_hex = capsys.readouterr().out.strip()
        assert id_hex == ephemeral_id(bytes.fromhex(KEY1), 121).hex()

        code = main(["ephemeral", "verify", "--filter", str(filter_path),
                     "--keys", str(keys_path), "--id-hex", id_hex])
        assert code == 0
        assert capsys.readouterr().out.strip() == "accepted b1"

    def test_stale_id_is_rejected_with_exit_3(self, tmp_path, capsys):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        filter_path = tmp_path / "f.blf"
        main(["ephemeral", "build", "--keys", str(keys_path), "--slot", "120",
              "--out", str(filter_path)])
        capsys.readouterr()
        stale = ephemeral_id(bytes.fromhex(KEY1), 20).hex()
        code = main(["ephemeral", "verify", "--filter", str(filter_path),
                     "--keys", str(keys_path), "--id-hex", stale])
        assert code == 3
        assert capsys.readouterr().out.strip() == "rejected"

    @pytest.mark.parametrize("flags, message", [
        (["--slot-duration", "nan"], "slot_duration_s must be positive and finite, got nan"),
        (["--slot-duration", "inf"], "slot_duration_s must be positive and finite, got inf"),
        (["--k", "3"], "Bloom m and k are given both or neither, got m=None and k=3"),
        (["--m", "4096"], "Bloom m and k are given both or neither, got m=4096 and k=None"),
    ])
    def test_build_refuses_a_non_finite_slot_or_half_a_bloom_size(self, tmp_path, capsys,
                                                                   flags, message):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        out = tmp_path / "f.blf"
        assert main(["ephemeral", "build", "--keys", str(keys_path), "--slot", "0",
                     "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_target_beside_m_and_k_is_refused_by_flag_and_document(self, tmp_path, capsys):
        # before, --fp and bloom_fp_target went unused: m and k sized the filter
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        out = tmp_path / "f.blf"
        assert main(["ephemeral", "build", "--keys", str(keys_path), "--slot", "1", "--m", "64",
                     "--k", "3", "--fp", "2", "--out", str(out)]) == 1
        message = ("Bloom sizing is m and k, or a false-positive target, not both; "
                   "got m=64, k=3 and target 2.0")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        document = write_manifest(tmp_path / "s.yaml", ephemeral={"bloom_m": 64, "bloom_k": 3,
                                                                   "bloom_fp_target": 2.0})
        for argv in (["simulate", document, "--out", str(tmp_path / "out")],
                     ["detect", "--deployment", document, "--threshold", "5", "--traces",
                      trace_file(tmp_path, "t.jsonl", [walk_trace("phone", [AA, BB])])]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: ephemeral: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def no_filter(self, monkeypatch):
        """A filter build fails the test before it allocates a bit."""
        def from_items(*args):
            raise AssertionError("a filter was built")

        monkeypatch.setattr(beaconlab.ephemeral.BloomFilter, "from_items", from_items)

    @pytest.mark.parametrize("m, k", [(100_000_000_000, 1), (MAX_BLOOM_M + 1, 1),
                                      (MAX_BLOOM_M, MAX_BLOOM_K + 1)])
    def test_build_refuses_a_bloom_size_past_the_limits(self, tmp_path, capsys, no_filter, m, k):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        out = tmp_path / "f.blf"
        assert main(["ephemeral", "build", "--keys", str(keys_path), "--slot", "0",
                     "--out", str(out), "--m", str(m), "--k", str(k)]) == 1
        assert capsys.readouterr().err == (
            f"error: bloom filter m and k must be at most 154,945,448 and 1,074, "
            f"got m={m:,} and k={k:,}\n")
        assert not out.exists()

    def test_the_bloom_limits_are_a_full_window_at_the_smallest_target(self):
        # 5e-324 is the least positive float: half of it is 0.0, no target
        assert bloom_size_for(MAX_WINDOW_IDS, math.ulp(0.0)) == (MAX_BLOOM_M, MAX_BLOOM_K)
        with pytest.raises(beaconlab.InvalidInput):
            bloom_size_for(MAX_WINDOW_IDS, math.ulp(0.0) / 2)

    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_a_document_s_bloom_size_past_the_limits_is_refused(self, tmp_path, capsys,
                                                                no_filter, command):
        doc = manifest_doc(beacons=[ephemeral_beacon("b1", 0, KEY1)],
                           content=[{"ref": "b1", "locator": "app://one"}],
                           defences=["TV"], ephemeral={"bloom_m": 100_000_000_000, "bloom_k": 1})
        document = tmp_path / "scenario.yaml"
        document.write_text(yaml.safe_dump(doc))
        sighting = Observation(1.0, ephemeral_id(bytes.fromhex(KEY1), 0), -70.0, -59.0)
        argv = {
            "simulate": ["simulate", str(document), "--out", str(tmp_path / "out")],
            "detect": ["detect", "--deployment", str(document), "--threshold", "5", "--traces",
                       trace_file(tmp_path, "t.jsonl", [Trace("phone", (sighting,))])],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ephemeral: bloom filter m and k must be at most 154,945,448 and 1,074, "
            "got m=100,000,000,000 and k=1\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--fp", "5e-324"], ["--m", "4400000", "--k", "1074"]],
                             ids=["fp", "m-k"])
    def test_build_refuses_a_filter_past_the_work_limit(self, tmp_path, capsys, no_filter, flags):
        # 560 keys over a window of 5 slots: 2,800 IDs, each setting 1,074 bits
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({f"b{i}": f"{i:032x}" for i in range(560)}))
        out = tmp_path / "f.blf"
        assert main(["ephemeral", "build", "--keys", str(keys_path), "--slot", "0",
                     "--window", "2", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: a bloom filter of 2,800 IDs at k=1,074 sets 3,007,200 bits; "
            "the limit is 3,000,000\n")
        assert not out.exists()

    @pytest.mark.parametrize("sizing", [{"bloom_fp_target": 5e-324},
                                        {"bloom_m": 4_400_000, "bloom_k": 1_074}],
                             ids=["fp", "m-k"])
    @pytest.mark.parametrize("command", ["simulate", "detect"])
    def test_a_document_s_bloom_work_past_the_limit_is_refused(self, tmp_path, capsys,
                                                               no_filter, command, sizing):
        # one key over a window of 2,801 slots
        doc = manifest_doc(beacons=[ephemeral_beacon("b1", 0, KEY1)],
                           content=[{"ref": "b1", "locator": "app://one"}],
                           defences=["TV"], ephemeral={"window_slots": 1_400, **sizing})
        document = tmp_path / "scenario.yaml"
        document.write_text(yaml.safe_dump(doc))
        sighting = Observation(1.0, ephemeral_id(bytes.fromhex(KEY1), 0), -70.0, -59.0)
        argv = {
            "simulate": ["simulate", str(document), "--out", str(tmp_path / "out")],
            "detect": ["detect", "--deployment", str(document), "--threshold", "5", "--traces",
                       trace_file(tmp_path, "t.jsonl", [Trace("phone", (sighting,))])],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ephemeral: a bloom filter of 2,801 IDs at k=1,074 sets 3,008,274 bits; "
            "the limit is 3,000,000\n")
        assert not (tmp_path / "out").exists()

    def test_the_work_limit_is_k_times_the_ids(self):
        assert MAX_BLOOM_WORK == 3_000_000
        assert filter_size(2_793, 4_400_000, MAX_BLOOM_K) == (4_400_000, MAX_BLOOM_K)
        assert filter_size(MAX_WINDOW_IDS, None, None, 1e-9)[1] == 30
        with pytest.raises(beaconlab.InvalidInput, match="2,794 IDs at k=1,074 sets 3,000,756"):
            filter_size(2_794, 4_400_000, MAX_BLOOM_K)

    @pytest.mark.parametrize("m, k", [(2**40, 1), (8, 2**32 - 1)])
    def test_verify_refuses_a_filter_file_whose_size_is_past_the_limits(self, tmp_path, capsys,
                                                                        m, k):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        # one byte of bits, all clear: a lookup that ran would reject at its
        # first hash, whatever k is
        filter_path = tmp_path / "big.blf"
        filter_path.write_bytes(b"BLF1" + struct.pack(">BQIqId", 1, m, k, 0, 2, 60.0) + b"\0")
        assert main(["ephemeral", "verify", "--filter", str(filter_path), "--keys", str(keys_path),
                     "--id-hex", AA]) == 1
        assert capsys.readouterr().err == (
            f"error: bloom filter m and k must be at most 154,945,448 and 1,074, "
            f"got m={m:,} and k={k:,}\n")

    def test_verify_refuses_a_filter_file_whose_slot_duration_is_nan(self, tmp_path, capsys):
        keys_path = tmp_path / "keys.yaml"
        keys_path.write_text(yaml.safe_dump({"b1": KEY1}))
        # the header `write_filter_file` writes: magic, then the version, m, k,
        # slot, window and slot duration, big-endian; then one byte of bits
        filter_path = tmp_path / "nan.blf"
        filter_path.write_bytes(b"BLF1" + struct.pack(">BQIqId", 1, 8, 1, 0, 2, math.nan) + b"\0")
        assert main(["ephemeral", "verify", "--filter", str(filter_path), "--keys", str(keys_path),
                     "--id-hex", AA]) == 1
        assert capsys.readouterr().err == (
            "error: slot_duration_s must be positive and finite, got nan\n")


class TestReport:
    def test_merges_runs_into_columns(self, tmp_path, capsys):
        quiet = write_manifest(tmp_path / "quiet.yaml")
        noisy = write_manifest(
            tmp_path / "noisy.yaml",
            attacks=[{"kind": "A8", "n_ids": 64, "interval_ms": 200.0}],
        )
        out = tmp_path / "runs"
        main(["simulate", quiet, noisy, "--out", str(out)])
        capsys.readouterr()
        code = main(["report", str(out / "quiet" / "metrics.csv"),
                     str(out / "noisy" / "metrics.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# beaconlab.report.v1"
        assert lines[1] == "metric,quiet,noisy"
        rows = {line.split(",")[0]: line for line in lines[2:]}
        assert "delivery_correctness" in rows
        assert "A8[0].mean_budget_utilization" in rows
        # the attack-free run leaves the A8 cell blank
        assert rows["A8[0].mean_budget_utilization"].split(",")[1] == ""

    def test_labels_with_commas_or_the_key_name_keep_their_columns(self, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["simulate", write_manifest(tmp_path / "run,1.yaml"),
              write_manifest(tmp_path / "metric.yaml"), "--out", str(out)])
        capsys.readouterr()
        code = main(["report", str(out / "run,1" / "metrics.csv"),
                     str(out / "metric" / "metrics.csv")])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("# beaconlab.report.v1\n")
        rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
        assert rows[0] == ["metric", "run,1", "metric:1"]
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows[1:]] == ["delivery_correctness"]

    def test_a_header_row_of_other_columns_is_refused(self, tmp_path, capsys):
        # before, the report ended in a KeyError traceback
        path = tmp_path / "m.csv"
        path.write_text("# beaconlab.metrics.v1\nprofile,metric,value\n0,x,1.0\n")
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {path}: expected the columns profile,kind,sniff_mode,metric,value,detail, "
            f"got profile,metric,value\n"))

    @pytest.mark.parametrize("row, cells", [("0", 1), ("0,A1,,x,1.0,{},extra", 7)],
                             ids=["short", "long"])
    def test_a_row_of_other_than_six_cells_is_refused_with_its_line(self, tmp_path, capsys,
                                                                     row, cells):
        # before, a short row printed `None[0].None,` and a long one lost its
        # last cell, both with exit 0
        path = tmp_path / "m.csv"
        path.write_text("# beaconlab.metrics.v1\nprofile,kind,sniff_mode,metric,value,detail\n"
                        f",summary,,delivery_correctness,1.0,{{}}\n\n{row}\n")
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}:5: expected 6 cells, one per column, got {cells}\n")


class TestTopLevel:
    def test_unknown_subcommand(self):
        assert main(["conquer"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1
