"""Metric catalogue: names, units, directions, layers, and how they are derived.

End-to-end metrics are measured with tracing off; per-layer metrics come
from the traced run. Every per-layer figure is per pass (one pass runs each
of a workload's ops once): counts repeat exactly from pass to pass, and
times are means over the passes.
"""

from __future__ import annotations

# workload -> why it is in the benchmark (BENCHMARK.json carries the same text)
WORKLOADS = {
    "replay-study": ("AC-2 replay-study shape at a quarter of its length, the tier-1 red test: "
                     "event loop, keyed noise draws and event log; no file output"),
    "campus-simulate": ("simulate on a rotating-ID campus with drain, guardian and watchers: "
                        "ID derivation, walking devices, storage writers"),
    "detect-traces": ("detect on a static grid with clean and mutated traces: trace reader and "
                      "outlier scorer; no simulator"),
}

# name, unit, better, bound (share of the parent's median). Times are scaled to
# nominal host speed (refblock.py). The report also prints op_p50_ms and
# op_tail_ms, raw; they are not bounded because single ops follow the speed of
# a shared VM at the moment they run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# What counts as one unit of throughput on each workload: simulator events logged,
# or trace observations read and scored. One name keeps every end-to-end metric
# defined on every workload; the report prints the workload's own name beside it.
THROUGHPUT_ITEM = {
    "replay-study": "events_per_s",
    "campus-simulate": "events_per_s",
    "detect-traces": "obs_per_s",
}

WINDOW_OUTCOMES = ("delivered", "debounced", "far", "flagged", "budget_exhausted", "empty")
VERDICTS = ("normal", "anomalous", "too_short")

# layer -> the end-to-end metrics a change to it should move. Which workloads a
# layer mostly runs on is measured, not written here: baseline.py ranks the
# workloads by each layer's self time (<layer>.self_s) as a share of the pass.
LAYER_MOVES = {
    "sim": ("throughput_per_s", "wall_s"),
    "radio": ("throughput_per_s", "peak_rss_mb"),
    "actors": ("wall_s",),
    "ephemeral": ("throughput_per_s", "wall_s", "setup_s", "peak_rss_mb"),
    "attacks": ("wall_s",),
    "guardian": ("wall_s",),
    "scenario": ("wall_s",),
    "model": ("wall_s",),
    "storage": ("wall_s", "peak_rss_mb", "throughput_per_s"),
    "outlier": ("throughput_per_s",),
    "cli": ("wall_s",),
}

# name, unit, better
PER_LAYER = (
    ("sim.run_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.frames", "count", "lower"),
    ("sim.receptions", "count", "lower"),
    ("sim.in_range_ratio", "ratio", "higher"),
    ("sim.windows", "count", "lower"),
    *((f"sim.windows.{o}", "count", "lower") for o in WINDOW_OUTCOMES),
    ("sim.us_per_event", "us", "lower"),
    ("sim.us_per_window", "us", "lower"),
    ("radio.shadowing_calls", "count", "lower"),
    ("radio.shadowing_s", "s", "lower"),
    ("radio.mean_rssi_calls", "count", "lower"),
    ("radio.mean_rssi_s", "s", "lower"),
    ("radio.event_appends", "count", "lower"),
    ("radio.event_append_s", "s", "lower"),
    ("radio.us_per_reception", "us", "lower"),
    ("actors.position_at_calls", "count", "lower"),
    ("actors.position_at_s", "s", "lower"),
    ("actors.proximity_calls", "count", "lower"),
    ("actors.proximity_s", "s", "lower"),
    ("ephemeral.id_calls", "count", "lower"),
    ("ephemeral.id_s", "s", "lower"),
    ("ephemeral.filter_builds", "count", "lower"),
    ("ephemeral.filter_build_s", "s", "lower"),
    ("ephemeral.resolve_calls", "count", "lower"),
    ("ephemeral.verify_calls", "count", "lower"),
    ("ephemeral.verify_s", "s", "lower"),
    ("ephemeral.verdict_cache_hit_ratio", "ratio", "higher"),
    ("ephemeral.bloom_checks", "count", "lower"),
    ("ephemeral.bloom_fp_caught", "count", "lower"),
    ("ephemeral.accept_ratio", "ratio", "higher"),
    ("attacks.install_s", "s", "lower"),
    ("attacks.metrics_s", "s", "lower"),
    ("guardian.jam_calls", "count", "lower"),
    ("guardian.jam_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("model.load_deployment_s", "s", "lower"),
    ("storage.write_events_s", "s", "lower"),
    ("storage.events_written", "count", "lower"),
    ("storage.write_events_mb", "MB", "lower"),
    ("storage.write_traces_s", "s", "lower"),
    ("storage.write_metrics_s", "s", "lower"),
    ("storage.us_per_event_written", "us", "lower"),
    ("storage.read_traces_s", "s", "lower"),
    ("storage.obs_read", "count", "lower"),
    ("storage.us_per_obs_read", "us", "lower"),
    ("outlier.build_markov_s", "s", "lower"),
    ("outlier.calibrate_s", "s", "lower"),
    ("outlier.detect_calls", "count", "lower"),
    ("outlier.detect_s", "s", "lower"),
    ("outlier.transitions", "count", "lower"),
    ("outlier.us_per_transition", "us", "lower"),
    ("outlier.judged_ratio", "ratio", "higher"),
    *((f"outlier.verdict.{v}", "count", "lower") for v in VERDICTS),
    ("cli.simulate_s", "s", "lower"),
    ("cli.detect_s", "s", "lower"),
    # time in each layer's own traced functions, their traced callees excluded;
    # over all layers these add up to the traced part of the pass
    *((f"{layer}.self_s", "s", "lower") for layer in LAYER_MOVES if layer != "sim"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Deterministic per-pass figures: they must repeat exactly between passes.
EXACT_UNITS = ("count", "ratio")

# per-unit and ratio metrics: name -> (numerator, denominator, scale)
DERIVED = {
    "sim.in_range_ratio": ("sim.receptions", "sim.receiver_slots", 1.0),
    "sim.us_per_event": ("sim.run_s", "sim.events", 1e6),
    "sim.us_per_window": ("sim.run_s", "sim.windows", 1e6),
    "radio.us_per_reception": ("radio.noise_and_mean_s", "sim.receptions", 1e6),
    "ephemeral.verdict_cache_hit_ratio": ("ephemeral.cache_hits", "ephemeral.resolve_calls", 1.0),
    "ephemeral.accept_ratio": ("ephemeral.accepted", "ephemeral.verify_calls", 1.0),
    "storage.us_per_event_written": ("storage.write_events_s", "storage.events_written", 1e6),
    "storage.us_per_obs_read": ("storage.read_traces_s", "storage.obs_read", 1e6),
    "outlier.us_per_transition": ("outlier.scoring_s", "outlier.transitions", 1e6),
    "outlier.judged_ratio": ("outlier.judged", "outlier.detect_calls", 1.0),
}
# counts observed at traced boundaries that only serve as bases
OBSERVED_BASES = ("sim.receiver_slots", "ephemeral.accepted", "ephemeral.bloom_hits",
                  "outlier.judged", "storage.write_events_bytes")
# ephemeral.bloom_fp_caught is a count; its base (filter hits) is printed beside it.
BASES = {"ephemeral.bloom_fp_caught": "ephemeral.bloom_hits",
         **{name: den for name, (_num, den, _scale) in DERIVED.items()}}

# span name -> (calls metric or None, seconds metric or None)
SPAN_METRICS = {
    "sim.run": (None, "sim.run_s"),
    "radio.shadowing": ("radio.shadowing_calls", "radio.shadowing_s"),
    "radio.mean_rssi": ("radio.mean_rssi_calls", "radio.mean_rssi_s"),
    "radio.event_append": ("radio.event_appends", "radio.event_append_s"),
    "actors.position_at": ("actors.position_at_calls", "actors.position_at_s"),
    "actors.proximity": ("actors.proximity_calls", "actors.proximity_s"),
    "ephemeral.id": ("ephemeral.id_calls", "ephemeral.id_s"),
    "ephemeral.filter_build": ("ephemeral.filter_builds", "ephemeral.filter_build_s"),
    "ephemeral.resolve": ("ephemeral.resolve_calls", None),
    "ephemeral.verify": ("ephemeral.verify_calls", "ephemeral.verify_s"),
    "ephemeral.bloom_check": ("ephemeral.bloom_checks", None),
    "attacks.install": (None, "attacks.install_s"),
    "attacks.metrics": (None, "attacks.metrics_s"),
    "guardian.jam": ("guardian.jam_calls", "guardian.jam_s"),
    "scenario.load": (None, "scenario.load_s"),
    "model.load_deployment": (None, "model.load_deployment_s"),
    "storage.write_events": (None, "storage.write_events_s"),
    "storage.write_traces": (None, "storage.write_traces_s"),
    "storage.write_metrics": (None, "storage.write_metrics_s"),
    "storage.read_traces": (None, "storage.read_traces_s"),
    "outlier.build_markov": (None, "outlier.build_markov_s"),
    "outlier.calibrate": (None, "outlier.calibrate_s"),
    "outlier.detect": ("outlier.detect_calls", "outlier.detect_s"),
    "cli.simulate": (None, "cli.simulate_s"),
    "cli.detect": (None, "cli.detect_s"),
}


def layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer figures for one pass from span totals and observed counts.

    totals: span name -> [calls, total_s, self_s]; counts: observed counts
    (events, receptions, verdicts, ...) summed over the pass's ops. Returns
    every PER_LAYER metric plus the hidden bases the ratios divide by.
    """
    out = {name: 0.0 if unit not in EXACT_UNITS else 0 for name, unit, _ in PER_LAYER}
    out.update(dict.fromkeys(OBSERVED_BASES, 0))
    out.update(counts)
    for span, (calls_name, seconds_name) in SPAN_METRICS.items():
        calls, total, _own = totals.get(span, (0, 0.0, 0.0))
        if calls_name:
            out[calls_name] = calls
        if seconds_name:
            out[seconds_name] = total
    for layer in LAYER_MOVES:
        out[f"{layer}.self_s"] = sum(own for span, (_calls, _total, own) in totals.items()
                                     if span.split(".")[0] == layer)
    out["radio.noise_and_mean_s"] = out["radio.shadowing_s"] + out["radio.mean_rssi_s"]
    out["ephemeral.cache_hits"] = out["ephemeral.resolve_calls"] - out["ephemeral.verify_calls"]
    out["outlier.scoring_s"] = out["outlier.detect_s"] + out["outlier.calibrate_s"]
    out["storage.write_events_mb"] = out["storage.write_events_bytes"] / 1e6
    for name, (num, den, scale) in DERIVED.items():
        out[name] = out[num] * scale / out[den] if out[den] else 0.0
    return out
