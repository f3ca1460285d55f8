"""Measure a baseline: every workload on ten seeds, medians and spreads.

Run from the checkout root, with nothing else busy on the machine:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed (1 to 10, each
for BENCHMARK.json's run_seconds) and records each end-to-end metric's
median and quartile spread (IQR / median), then one ``--trace 1`` run at
seed 1 for the per-layer figures. The output also carries each metric's
unit, direction and layer, and the layer -> end-to-end map, which
BENCHMARK.json's fixed schema has no room for. The map's ``mostly_on`` is
measured: the workloads ranked by the layer's self time as a share of all
traced self time in a pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_MOVES, PER_LAYER, WORKLOADS  # noqa: E402
from stats import median, quartile_spread  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=180, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0].split(": ", 1)[1])
    return result


def layer_map(workloads: dict) -> dict:
    """layer -> what it should move, and where its self time is, largest share first."""
    out = {}
    for layer, moves in LAYER_MOVES.items():
        where = {}
        for workload, row in workloads.items():
            own = row["per_layer"][f"{layer}.self_s"]
            traced = sum(row["per_layer"][f"{other}.self_s"] for other in LAYER_MOVES)
            if own > 0:
                where[workload] = {"self_s": own, "share": own / traced}
        ranked = sorted(where, key=lambda w: where[w]["share"], reverse=True)
        out[layer] = {"moves": list(moves), "mostly_on": ranked[0] if ranked else None,
                      "by_workload": {w: where[w] for w in ranked}}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = {"seeds": list(SEEDS), "seconds": SECONDS,
           "metrics": {name: {"unit": unit, "better": better,
                              "layer": name.split(".")[0] if name.count(".") else "end_to_end"}
                       for name, unit, better, *_ in END_TO_END + PER_LAYER},
           "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], 1)
        row = {"correct": all(r["correct"] for r in runs + [traced]),
               "ops_failed": sum(r["failed"] for r in runs + [traced]), "end_to_end": {}}
        for name, unit, _, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            row["end_to_end"][name] = {"median": median(values), "unit": unit, "bound": bound,
                                       "spread": quartile_spread(values), "values": values}
        row["per_layer"] = {name: traced["metrics"][name]["value"] for name, *_ in PER_LAYER}
        out["workloads"][workload] = row
        out["provenance"] = runs[0]["provenance"]
        print(workload, json.dumps({k: (round(v["median"], 4), round(v["spread"], 4))
                                    for k, v in row["end_to_end"].items()}), flush=True)
    out["layer_map"] = layer_map(out["workloads"])
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
