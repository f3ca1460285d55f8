"""Host-time benchmark for beaconlab: three seeded workloads, one client each.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload replay-study --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Workloads: replay-study, campus-simulate, detect-traces (see metrics.WORKLOADS).
Each run generates its inputs from --seed, measures set-up time in fresh
interpreters, then starts one fresh measuring process (worker.py) that runs
the workload's ops in a closed loop for --seconds. With --trace 0 it reports
the end-to-end metrics; with --trace 1 a traced run reports per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Host time is measured, not simulated time. The model has not been validated
against real BLE hardware, so no accuracy figure is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from metrics import (  # noqa: E402
    BASES, END_TO_END, EXACT_UNITS, PER_LAYER, THROUGHPUT_ITEM, UNITS, WORKLOADS,
)
from refblock import REF_NOMINAL_S, reference_block, scaled, time_reference  # noqa: E402
from stats import TAIL_BEYOND, median, tail, valid_metric_name  # noqa: E402

DEFAULT_SEED = 1  # digests.json pins every op's output digests at this seed, full size
# Set-up is sampled in fresh interpreters, half before and half after the measured
# run. Each sample is scaled to nominal host speed by the reference block timed
# just before and just after it (see refblock.py), and the median is reported.
SETUP_SAMPLES = 6  # per half
WORKER_TIMEOUT_S = 150
SETUP_SNIPPET = ("import time; t0 = time.perf_counter(); import beaconlab, beaconlab.cli; "
                 "print(repr(time.perf_counter() - t0))")
NOTE = ("note: the model is not validated against real BLE hardware, so no accuracy figure "
        "is reported; threatmatrix is not measured (it runs in under a second).")


class BenchError(Exception):
    pass


def provenance(root: Path, args, passes: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "beaconlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_commit": commit, "src_sha256": src.hexdigest(), "seed": args.seed,
            "size": args.size, "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "units": {name: UNITS[name] for name, *_ in END_TO_END + PER_LAYER}}


def measure_setup(root: Path, env: dict) -> list[tuple[float, float]]:
    """(import seconds, reference seconds around it) in fresh interpreters.

    The first sample (which may compile bytecode) is dropped.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        ref_before = time_reference()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        ref_s = (ref_before + time_reference()) / 2.0
        if done.returncode != 0:
            raise BenchError(f"importing beaconlab failed: {done.stderr.strip()[-500:]}")
        samples.append((float(done.stdout.strip()), ref_s))
    return samples[1:]


def pinned_run(args) -> bool:
    return args.seed == DEFAULT_SEED and args.size == "full"


def make_spec(workload: str, args, work: Path, results: Path) -> dict:
    spec = {"workload": workload, "seconds": args.seconds, "trace": args.trace,
            "digest_all": pinned_run(args),
            "work": str(work), "spans_out": str(results / f"spans-{workload}-{args.seed}.jsonl")}
    if workload == "replay-study":
        spec.update(ops=gen.replay_pass(args.seed, args.size),
                    stale_after_s=gen.REPLAY_STALE_AFTER_S, near_fake=gen.REPLAY_NEAR_FAKE)
    elif workload == "campus-simulate":
        spec.update(manifest=str(gen.write_campus(args.seed, args.size, work)))
    else:
        spec.update(gen.write_detect(args.seed, args.size, work),
                    mutation_kinds=gen.MUTATION_KINDS)
    return spec


def run_worker(root: Path, env: dict, spec: dict, work: Path) -> dict:
    spec_path, out_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(out_path)], cwd=root, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def check_ops(workload: str, args, result: dict, pinned: dict) -> list[str]:
    """Failures per op: raised, failed its check, or changed its output digest."""
    if pinned_run(args):
        expected, source = pinned.get(workload, {}), "the pinned digest"
    else:
        key, source = (("untraced", "the untraced run's") if "untraced" in result
                       else ("passes", "the first pass's"))
        expected = {r["name"]: r["digests"] for r in result[key][0]}
    problems = []
    for records in result.get("untraced", []) + result["passes"]:
        for r in records:
            if r["digests"] is not None and r["digests"] != expected.get(r["name"]):
                r["failures"].append(f"output digest differs from {source}")
            problems += [f"{r['name']} (op {r['op_id']}): {f}" for f in r["failures"]]
    return problems


def end_to_end(workload: str, result: dict,
               setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    passes = result["passes"]
    ops = [r["seconds"] for records in passes for r in records]
    refs = [r["ref_s"] for records in passes for r in records]
    items = [r["items"] for records in passes for r in records]
    # Bounded times are scaled to nominal host speed by the reference block timed
    # around each op (refblock.py): the host's speed drifts over tens of seconds,
    # and the op time over the reference time does not drift with it.
    ref_mean = fmean(refs)
    op_total = scaled(sum(ops), ref_mean)
    setup_scaled = [scaled(seconds, ref_s) for seconds, ref_s in setup]
    metrics = {
        "setup_s": median(setup_scaled),
        "wall_s": op_total / len(passes),
        "throughput_per_s": sum(items) / op_total,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [f"  reference block  = {ref_mean * 1000.0:.3f} ms mean around {len(ops)} ops "
             f"(nominal {REF_NOMINAL_S * 1000.0:.0f} ms); times below marked 'scaled' are at "
             "nominal host speed",
             f"  setup_s          = {metrics['setup_s']:.6f} s  (scaled; median of {len(setup)} "
             "fresh interpreters importing beaconlab, half before and half after the run; "
             f"raw median {median([s for s, _ in setup]):.6f} s)",
             f"  wall_s           = {metrics['wall_s']:.6f} s  (scaled; {op_total:.3f} s of ops "
             f"over {len(passes)} passes of {len(passes[0])} op(s); raw {sum(ops):.3f} s)",
             f"  op_p50_ms        = {median(ops) * 1000.0:.3f} ms  (raw; median of {len(ops)} ops; "
             "reported, not bounded)"]
    tail_at = tail(ops)
    if tail_at is None:
        lines.append(f"  op_tail_ms       = n/a  (too few ops: {len(ops)}; the tail needs more "
                     "than 10)")
    else:
        lines.append(f"  op_tail_ms       = {tail_at[1] * 1000.0:.3f} ms  (raw; p{tail_at[0]:.1f}, "
                     f"{TAIL_BEYOND} of {len(ops)} ops beyond it)")
    lines += [f"  throughput_per_s = {metrics['throughput_per_s']:.3f} 1/s  "
              f"(scaled; = {THROUGHPUT_ITEM[workload]}: {sum(items)} over {op_total:.3f} s; "
              f"raw {sum(items) / sum(ops):.3f} 1/s)",
              f"  peak_rss_mb      = {metrics['peak_rss_mb']:.3f} MB  (fresh measuring process)"]
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str], list[str]]:
    layers = result["layers"]
    metrics, lines, problems = {}, [], []
    for name, unit, _ in PER_LAYER:
        values = [layer[name] for layer in layers]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} did not repeat between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = fmean(values)
        base = BASES.get(name)
        extra = f"  (base {base} = {layers[0][base]})" if base else ""
        shown = metrics[name] if isinstance(metrics[name], int) else f"{metrics[name]:.6g}"
        lines.append(f"  {name:36s} = {shown} {unit}{extra}")
    return metrics, lines, problems


def run_workload(workload: str, args, root: Path, env: dict, pinned: dict) -> dict:
    scratch = root / ".perfbench"
    work = scratch / "work" / f"{workload}-{args.seed}-{os.getpid()}"
    results = scratch / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        spec = make_spec(workload, args, work, results)
        setup = measure_setup(root, env) if not args.trace else []
        result = run_worker(root, env, spec, work)
        if not args.trace:
            setup += measure_setup(root, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    expected_file = str(root / "src" / "beaconlab" / "__init__.py")
    if Path(result["beaconlab_file"]).resolve() != Path(expected_file).resolve():
        raise BenchError(f"measured {result['beaconlab_file']}, not this checkout's source")

    problems = check_ops(workload, args, result, pinned)
    n_passes = len(result["passes"])
    lines = [f"== {workload}  seed={args.seed} size={args.size} trace={args.trace} "
             f"passes={n_passes}  ({WORKLOADS[workload]})"]
    if args.trace:
        metrics, layer_lines, repeat_problems = per_layer(result)
        problems += repeat_problems + result["cross_check_failures"]
        traced, untraced = (fmean([sum(r["seconds"] for r in p) for p in result[key]])
                            for key in ("passes", "untraced"))
        lines.append(f"  tracing overhead = {traced / untraced:.3f}x  (traced pass wall "
                     f"{traced:.3f} s / untraced pass wall {untraced:.3f} s, means)")
        lines.append("  count cross-checks: " + ("hold" if not result["cross_check_failures"]
                                                 else "FAILED"))
        lines += layer_lines
    else:
        metrics, e2e_lines = end_to_end(workload, result, setup)
        lines += e2e_lines
    all_records = [r for p in result.get("untraced", []) + result["passes"] for r in p]
    failed = sum(1 for r in all_records if r["failures"])
    lines.append(f"  ops_total = {len(all_records)}  ops_failed = {failed}")
    lines += [f"  note: {note}" for note in result["notes"]]
    for problem in problems:
        lines.append(f"  FAIL {problem}")
    lines.append("  digests: " + json.dumps({r["name"]: r["digests"]
                                              for r in result["passes"][0]}, sort_keys=True))
    problems += [f"metric name {name!r} is outside [A-Za-z0-9_.-]"
                 for name in metrics if not valid_metric_name(name)]
    out = {"correct": not problems, "attempted": len(all_records), "failed": failed,
           "metrics": {name: {"value": value, "unit": UNITS[name]}
                       for name, value in metrics.items()},
           "provenance": provenance(root, args, n_passes), "report": lines}
    (results / f"result-{workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, sort_keys=True, indent=1), encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "beaconlab" / "__init__.py").is_file():
        print("error: run from the root of a beaconlab checkout (src/beaconlab not found)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    reference_block()  # warm-up: the first block is slower than the rest
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {w: run_workload(w, args, root, env, pinned) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = next(iter(outs.values()))
    print("provenance: " + json.dumps({k: v for k, v in first["provenance"].items()
                                       if k != "units"}, sort_keys=True))
    print(NOTE)
    for out in outs.values():
        print("\n".join(out["report"]))
    if len(outs) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{w}.{name}": value for w, out in outs.items()
                   for name, value in out["metrics"].items()}
    print(json.dumps({"correct": all(o["correct"] for o in outs.values()),
                      "attempted": sum(o["attempted"] for o in outs.values()),
                      "failed": sum(o["failed"] for o in outs.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
