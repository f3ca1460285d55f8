"""Command-line surface.

Subcommands: simulate, assess, detect, ephemeral, report. Exit codes are part
of the contract: 0 success, 1 bad usage or invalid input, 2 I/O trouble, and
3 for "the analysis ran and found a problem" (anomalous traces, an attack set
with no common defence, a rejected frame), so scripts can branch on findings
without parsing output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NoReturn, Optional

from .attacks import attack_metrics
from .ephemeral import (
    DEFAULT_FP_TARGET,
    EphemeralParams,
    IdSchedule,
    RotatingResolver,
    build_filter,
    ephemeral_id,
    expected_fp_rate,
    read_filter_file,
    verify_and_resolve,
    write_filter_file,
)
from .errors import BeaconLabError, SchemaError, TooShort
from .model import DEFAULT_ID_WIDTH, BeaconId, load_deployment
from .model import _hex, _integer, _mapping, _parse_document
from .outlier import (
    DEFAULT_P_STAY,
    DetectorParams,
    build_markov,
    calibrate_threshold,
    detect,
    INVERSE_DISTANCE,
    UNIFORM,
)
from .scenario import ephemeral_block, load_scenario
from .sim import run
from .storage import (
    DETECT_FIELDS,
    DETECT_TAG,
    REPORT_TAG,
    _named_decode_errors,
    metric_rows,
    read_metrics_csv,
    read_traces_jsonl,
    write_detect_csv,
    write_events_jsonl,
    write_metrics_csv,
    write_table,
    write_traces_jsonl,
)
from .threatmatrix import assess, default_matrix, load_matrix

SEED_ENV = "BEACONLAB_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FINDING = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise _UsageError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh, _named_decode_errors(path):
        return fh.read()


def _load_keys_file(path: str) -> dict[str, bytes]:
    doc = _parse_document(_read_text(path))
    raw = _mapping(doc.get("keys", doc), f"{path}: keys")
    if not raw:
        raise SchemaError(f"{path}: expected a mapping of ref to key_hex")
    return {str(ref): _hex(key_hex, f"{path}: key for {ref!r}") for ref, key_hex in raw.items()}


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
    """A forked process that runs body, sends the bytes it returns (if any)
    down a pipe and exits 0, or exits 1 if body raises. Imports here, not
    with the module, keep the package's import as it was."""

    def __init__(self, body: Callable[[], Optional[bytes]]):
        self.pid = None
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
            if self.pid == 0:
                os.close(self.pipe)
                _run_and_exit(body, write_end)
        except BaseException:
            self.close()
            raise
        finally:
            os.close(write_end)

    def wait(self) -> Optional[bytes]:
        """Wait for the child: the bytes it sent, if it exited 0; None if it
        did not, whether it raised or was killed, so its work falls to the caller."""
        with open(self.pipe, "rb", closefd=False) as pipe:
            sent = pipe.read()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return sent if os.waitstatus_to_exitcode(status) == 0 else None

    def close(self) -> None:
        """Kill the child if it has not been reaped, reap it, and close the pipe."""
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.pipe)


def _run_and_exit(body: Callable[[], Optional[bytes]], write_end: int) -> NoReturn:
    """The child's whole life: run body, write what it returns to write_end
    and exit 0, or exit 1 if that raises, without running any of the
    parent's exit handlers or flushing any of its other buffers."""
    code = 1
    try:
        sent = body()
        with open(write_end, "wb") as pipe:
            pipe.write(sent or b"")
        code = 0
    finally:
        os._exit(code)


def _process_pool(workers: int):
    """The pool of `simulate --jobs`, whose workers are forked where the
    platform can fork, whatever its default start method: a spawned worker
    imports the package again before it runs a manifest. A fork is safe here
    because the CLI starts no thread, and a fork pool starts its workers
    before its own manager thread. Imported here, not with the module,
    because it loads multiprocessing."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context(method))


# ---------------------------------------------------------------------------
# simulate


def _resolve_seed(doc: dict, override: Optional[int]) -> dict:
    radio = doc.get("radio")
    radio = {} if radio is None else dict(_mapping(radio, "radio"))
    if override is not None:
        radio["seed"] = override
    elif "seed" not in radio and os.environ.get(SEED_ENV):
        radio["seed"] = _integer(os.environ[SEED_ENV], SEED_ENV)
    doc = dict(doc)
    doc["radio"] = radio
    return doc


def _simulate_one(manifest: str, out_dir: str, seed: Optional[int]) -> dict:
    doc = _resolve_seed(_parse_document(_read_text(manifest)), seed)
    result = run(load_scenario(doc))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_logs(out, result.events, [device.ref for device in result.scenario.devices])
    metrics = [attack_metrics(result, i) for i in range(len(result.scenario.attacks))]
    summary = result.summary()
    rows = metric_rows(metrics, summary["correct_delivery_rate"], summary["n_deliveries"])
    write_metrics_csv(str(out / "metrics.csv"), rows)
    summary["manifest"] = manifest
    summary["out_dir"] = str(out)
    summary["seed"] = result.scenario.radio.seed
    return summary


def _write_logs(out: Path, log, devices: list) -> None:
    """events.jsonl and traces.jsonl of a run's log in out. Where
    `_may_fork()`, a `_Child` writes the traces while this process writes the
    events; anywhere else, and where the fork fails, this process writes both,
    events first. A child that does not exit 0, because it raised or was
    killed, leaves the traces to this process, so an error is the one a
    single process raises. The child has been reaped when this returns or
    raises, and a write that raises, whatever it raises, leaves neither log."""
    events, traces = out / "events.jsonl", out / "traces.jsonl"
    write_traces = partial(write_traces_jsonl, str(traces), log, devices)
    child = None
    if _may_fork():
        try:
            child = _Child(write_traces)
        except OSError:  # no fork to be had: write both here
            pass
    try:
        try:
            write_events_jsonl(str(events), log)
            if child is None or child.wait() is None:
                write_traces()
        finally:
            if child is not None:
                child.close()
    except BaseException:
        for path in (events, traces):
            path.unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"simulate: --jobs must be at least 1, got {args.jobs}")
    manifests = args.manifest
    out_root = Path(args.out)
    if len(manifests) == 1:
        tasks = [(manifests[0], str(out_root))]
    else:
        tasks = [(m, str(out_root / Path(m).stem)) for m in manifests]

    # a fork pool starts all its workers at the first submit, so ask for no
    # more than there are manifests
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with _process_pool(workers) as pool:
            futures = [pool.submit(_simulate_one, m, d, args.seed) for m, d in tasks]
            summaries = [f.result() for f in futures]
    else:
        summaries = [_simulate_one(m, d, args.seed) for m, d in tasks]
    for summary in summaries:
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# assess


def _split_codes(text: str) -> tuple[str, ...]:
    """Comma-separated codes, in upper case: `m2` names M2."""
    return tuple(part.strip().upper() for part in text.split(",") if part.strip())


def cmd_assess(args) -> int:
    matrix = load_matrix(_read_text(args.matrix)) if args.matrix else default_matrix()
    report = assess(matrix, _split_codes(args.motives), _split_codes(args.capabilities))
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    if report.likely_attacks and not report.defences["common"]:
        return EXIT_FINDING
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect


def _detector(deployment, eph: EphemeralParams, p_stay: float, weighting: str):
    """The Markov model `detect` scores with, and the resolver `sim.run` builds
    under TV: static IDs first, then rotating IDs inside the acceptance window,
    through Bloom filters sized by eph, the params an `ephemeral:` block gives.
    `_calibrate` builds its own through this as well."""
    resolver = RotatingResolver(deployment.static_ids(), IdSchedule(deployment.owner_keys, eph))
    return build_markov(deployment, p_stay=p_stay, weighting=weighting), resolver


def _calibrate(path: str, deployment, eph: EphemeralParams, p_stay: float, weighting: str,
               alpha: float, debounce: bool, min_transitions: int) -> float:
    """The threshold calibrated on the known-clean traces at path."""
    model, resolver = _detector(deployment, eph, p_stay, weighting)
    return calibrate_threshold(model, read_traces_jsonl(path), resolver, alpha=alpha,
                               debounce=debounce, min_transitions=min_transitions)


def _calibrate_while_reading(args, deployment, eph):
    """(threshold, test traces), the calibration file read and scored by a
    `_Child`, where `_may_fork()`, while this process reads the test
    file. Without a child, or if it does not exit 0, this process calibrates
    after its read. So a calibration error is raised here, and an error of the
    test read comes back in place of the traces, as when the two ran in turn.
    """
    calibrate = partial(_calibrate, args.calibration, deployment, eph, args.p_stay,
                        args.weighting, args.alpha, not args.no_debounce, args.min_transitions)
    child = None
    if _may_fork():
        try:
            child = _Child(lambda: struct.pack("<d", calibrate()))
        except OSError:  # no fork to be had: calibrate here
            pass
    try:
        try:
            traces = read_traces_jsonl(args.traces)
        except (OSError, ValueError, BeaconLabError) as exc:  # the errors `main` reports
            traces = exc
        calibrated = None if child is None else child.wait()
        threshold = calibrate() if calibrated is None else struct.unpack("<d", calibrated)[0]
    finally:
        if child is not None:
            child.close()
    return threshold, traces


def cmd_detect(args) -> int:
    if (args.threshold is None) == (args.calibration is None):
        raise _UsageError("detect: give either --threshold or --calibration traces")
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise _UsageError(f"detect: --threshold must be finite, got {args.threshold!r}")
    doc = _parse_document(_read_text(args.deployment))
    deployment = load_deployment(doc)
    eph = ephemeral_block(doc, deployment)
    model, resolver = _detector(deployment, eph, args.p_stay, args.weighting)

    threshold, traces = args.threshold, None
    if threshold is None:
        threshold, traces = _calibrate_while_reading(args, deployment, eph)

    params = DetectorParams(
        threshold=threshold, alpha=args.alpha,
        debounce=not args.no_debounce, min_transitions=args.min_transitions,
    )
    if traces is None:
        traces = read_traces_jsonl(args.traces)
    elif isinstance(traces, Exception):
        raise traces
    rows = []
    any_anomalous = False
    for trace in traces:
        try:
            verdict = detect(model, trace, params, resolver)
        except TooShort:
            rows.append({"device_ref": trace.device_ref, "avg_nll": "",
                         "n_hard_flags": "0", "verdict": "too_short"})
            continue
        any_anomalous = any_anomalous or verdict.anomalous
        rows.append(
            {
                "device_ref": trace.device_ref,
                "avg_nll": "" if verdict.avg_nll is None else repr(verdict.avg_nll),
                "n_hard_flags": str(len(verdict.hard_flags)),
                "verdict": "anomalous" if verdict.anomalous else "normal",
            }
        )
    if args.out:
        write_detect_csv(args.out, rows)
    else:
        write_table(sys.stdout, DETECT_TAG, DETECT_FIELDS, rows)
    print(f"threshold={threshold!r} traces={len(rows)} "
          f"anomalous={sum(1 for r in rows if r['verdict'] == 'anomalous')}", file=sys.stderr)
    return EXIT_FINDING if any_anomalous else EXIT_OK


# ---------------------------------------------------------------------------
# ephemeral


def cmd_ephemeral_generate(args) -> int:
    key = bytes.fromhex(args.key_hex)
    print(ephemeral_id(key, args.slot, args.width).hex())
    return EXIT_OK


def cmd_ephemeral_build(args) -> int:
    keys = _load_keys_file(args.keys)
    params = EphemeralParams(
        slot_duration_s=args.slot_duration, window_slots=args.window, id_width=args.width,
        bloom_m=args.m, bloom_k=args.k, bloom_fp_target=args.fp,
    )
    filt = build_filter(IdSchedule(keys, params), args.slot)
    write_filter_file(args.out, filt, args.slot, params)
    print(json.dumps({
        "out": args.out, "m_bits": filt.m_bits, "k_hashes": filt.k_hashes,
        "n_inserted": filt.n_inserted,
        "expected_fp": expected_fp_rate(filt.m_bits, filt.k_hashes, filt.n_inserted),
    }, sort_keys=True))
    return EXIT_OK


def cmd_ephemeral_verify(args) -> int:
    filt, slot, params = read_filter_file(args.filter)
    if args.slot is not None:
        slot = args.slot
    beacon_id = BeaconId.from_hex(args.id_hex)
    params = replace(params, id_width=len(beacon_id))
    schedule = IdSchedule(_load_keys_file(args.keys), params)
    for key in schedule.owner_keys.values():  # the window the exact lookup reads
        for s in params.window(slot):
            schedule.id_at(key, s)
    ref = verify_and_resolve(filt, schedule, beacon_id, slot)
    if ref is None:
        print("rejected")
        return EXIT_FINDING
    print(f"accepted {ref}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    labels = []
    tables = []
    for path in args.metrics:
        p = Path(path)
        label = p.parent.name if p.stem == "metrics" and p.parent.name else p.stem
        if label in labels or label == "metric":  # the key column's name
            label = f"{label}:{len(labels)}"
        labels.append(label)
        tables.append(read_metrics_csv(path))

    keys: list[str] = []
    cells: dict[str, dict[str, str]] = {}
    for label, rows in zip(labels, tables):
        for row in rows:
            key = f"{row['kind']}[{row['profile']}].{row['metric']}" if row["profile"] else \
                row["metric"]
            if key not in cells:
                keys.append(key)
                cells[key] = {}
            cells[key][label] = row["value"]

    fields = ["metric"] + labels
    rows = [{"metric": key, **cells[key]} for key in keys]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_table(fh, REPORT_TAG, fields, rows)
    else:
        write_table(sys.stdout, REPORT_TAG, fields, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="beaconlab", description="beacon deployment security toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run scenario manifests and write logs + metrics")
    p.add_argument("manifest", nargs="+", help="scenario manifest file(s)")
    p.add_argument("--out", default=".", help="output directory (default: cwd)")
    p.add_argument("--seed", type=int, default=None, help="override the radio seed")
    p.add_argument("--jobs", type=int, default=1, help="run up to N manifests in parallel")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assess", help="threat assessment from motives and capabilities")
    p.add_argument("--motives", required=True, help="comma-separated, e.g. M2,M3")
    p.add_argument("--capabilities", required=True, help="comma-separated, e.g. C1,C2,C3,C6")
    p.add_argument("--matrix", default=None, help="matrix override file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("detect", help="score traces against a mobility model")
    p.add_argument("--deployment", required=True, help="deployment file")
    p.add_argument("--traces", required=True, help="traces.jsonl to score")
    p.add_argument("--calibration", default=None, help="known-clean traces.jsonl")
    p.add_argument("--threshold", type=float, default=None, help="precomputed threshold")
    p.add_argument("--alpha", type=float, default=DetectorParams.alpha)
    p.add_argument("--p-stay", type=float, default=DEFAULT_P_STAY, dest="p_stay")
    p.add_argument("--weighting", choices=(UNIFORM, INVERSE_DISTANCE), default=UNIFORM)
    p.add_argument("--min-transitions", type=int, default=DetectorParams.min_transitions,
                   dest="min_transitions")
    p.add_argument("--no-debounce", action="store_true")
    p.add_argument("--out", default=None, help="verdict CSV path (default: stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("ephemeral", help="rotating-ID utilities")
    esub = p.add_subparsers(dest="action", required=True)

    g = esub.add_parser("generate", help="derive the ID for (key, slot)")
    g.add_argument("--key-hex", required=True)
    g.add_argument("--slot", type=int, required=True)
    g.add_argument("--width", type=int, default=DEFAULT_ID_WIDTH)
    g.set_defaults(func=cmd_ephemeral_generate)

    b = esub.add_parser("build", help="build a verifier filter file")
    b.add_argument("--keys", required=True, help="mapping file: ref -> key_hex")
    b.add_argument("--slot", type=int, required=True)
    b.add_argument("--window", type=int, default=EphemeralParams.window_slots)
    b.add_argument("--slot-duration", type=float, default=EphemeralParams.slot_duration_s,
                   dest="slot_duration")
    b.add_argument("--width", type=int, default=DEFAULT_ID_WIDTH)
    b.add_argument("--m", type=int, default=None,
                   help="filter bits; --m and --k both or neither (default: sized from --fp)")
    b.add_argument("--k", type=int, default=None, help="hash count; --m and --k both or neither")
    b.add_argument("--fp", type=float, default=None,
                   help=f"target false-positive rate, refused beside --m and --k "
                        f"(default: {DEFAULT_FP_TARGET})")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_ephemeral_build)

    v = esub.add_parser("verify", help="check an ID against a filter file")
    v.add_argument("--filter", required=True)
    v.add_argument("--keys", required=True)
    v.add_argument("--id-hex", required=True)
    v.add_argument("--slot", type=int, default=None, help="override the filter's slot")
    v.set_defaults(func=cmd_ephemeral_verify)

    p = sub.add_parser("report", help="merge metrics.csv files into one comparison table")
    p.add_argument("metrics", nargs="+", help="metrics.csv files")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BeaconLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
