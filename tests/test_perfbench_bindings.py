"""The benchmark's traced run wraps program functions by name.

`perfbench/spans.py` lists them in `TIMED` and patches every binding of each.
A refactor that renames, moves or hides one fails here, in the tier-1 suite,
and not only when the benchmark's traced run is next made.
"""

import importlib.util
from pathlib import Path

import beaconlab
import beaconlab.cli  # the tracer patches cmd_simulate and cmd_detect

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_timed_function():
    tracer = _load_spans().Tracer()
    run_before = beaconlab.sim.run
    try:
        tracer.install()
        assert beaconlab.sim.run is not run_before
    finally:
        tracer.uninstall()
    assert beaconlab.sim.run is run_before
