"""Tests for the benchmark's own arithmetic, its catalogue, and a smoke run.

Run from the checkout root: python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from refblock import REF_NOMINAL_S, reference_block, scaled  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import quartile_spread, tail, valid_metric_name  # noqa: E402


# -- tail percentile rule -----------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    percentile, value = tail(samples)
    assert percentile == 90.0
    assert value == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    percentile, value = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11.0)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_with_too_few_samples_names_none(n):
    assert tail([1.0] * n) is None


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    # exclusive quartiles of 9, 10, 10, 11 are 9.25 and 10.75
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(1.5 / 10.0)


# -- scaling to nominal host speed ----------------------------------------------

def test_scaled_time_is_at_nominal_host_speed():
    assert scaled(3.0, REF_NOMINAL_S) == 3.0
    # a host running at half speed takes twice as long for the op and the block
    assert scaled(6.0, 2.0 * REF_NOMINAL_S) == pytest.approx(3.0)
    assert scaled(1.5, 0.5 * REF_NOMINAL_S) == pytest.approx(3.0)


def test_reference_block_does_the_same_work_every_time():
    assert reference_block() == reference_block()


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # outer [0, 20] holds mid [1, 8] and a hot leaf [9, 12];
    # mid holds two hot leaves [2, 4] and [5, 6]
    ticks = iter([0, 1, 2, 4, 5, 6, 8, 9, 12, 20])
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf", hot=True)
    mid = tracer.wrap(lambda: (leaf(), leaf()), "mid", hot=False)
    outer = tracer.wrap(lambda: (mid(), leaf()), "outer", hot=False)

    tracer.begin_op(7)
    outer()
    tracer.end_op()

    spans = {s["name"]: s for s in tracer.spans}
    assert spans["outer"]["self"] == 20 - 7 - 3
    assert spans["mid"]["self"] == 7 - 2 - 1
    assert spans["mid"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["op"] == spans["mid"]["op"] == 7
    assert tracer.folded[(7, "mid", "leaf")] == [2, 3.0, 3.0]
    assert tracer.folded[(7, "outer", "leaf")] == [1, 3.0, 3.0]
    assert tracer.totals([7]) == {"outer": [1, 20.0, 10.0], "mid": [1, 7.0, 4.0],
                                  "leaf": [3, 6.0, 6.0]}


def test_calls_outside_an_op_are_not_traced():
    tracer = Tracer(clock=lambda: 0.0)
    fn = tracer.wrap(lambda x: x + 1, "fn", hot=False)
    assert fn(1) == 2
    assert tracer.spans == [] and tracer.folded == {}


# -- names and the catalogue ----------------------------------------------------

def test_metric_name_charset():
    for good in ("wall_s", "sim.windows.budget_exhausted", "0ok", "a-b.c_d"):
        assert valid_metric_name(good)
    for bad in ("", ".lead", "_lead", "has space", "a/b", "µs", "x" * 65):
        assert not valid_metric_name(bad)


def test_every_metric_name_is_valid_and_unique():
    names = [m[0] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == \
        [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]


# -- smoke: every workload, every named metric ------------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, catalogue", [("0", END_TO_END), ("1", PER_LAYER)])
def test_smoke_size_emits_every_metric(trace, catalogue):
    done = _run(ROOT, "--workload", "all", "--size", "smoke", "--seconds", "0.5",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {f"{w}.{m[0]}" for w in WORKLOADS for m in catalogue}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert metric["unit"] == dict((m[0], m[1]) for m in catalogue)[name.split(".", 1)[1]]
    assert "note: detect at the default alpha: clean false-positive rate" in done.stdout
    if trace == "1":
        assert "tracing overhead" in done.stdout
        assert "count cross-checks: hold" in done.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "replay-study", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
