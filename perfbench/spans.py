"""Span tracing from outside the program: wrap public functions, time calls.

The tracer replaces every binding of each timed function in the loaded
``beaconlab`` modules (including names a module imported by value, such as
``beaconlab.sim.shadowing_db``) and methods on their classes. A call made
while an op is active becomes a span: name, start, end, parent and op id.

Calls to hot leaf-level functions (hundreds of thousands per op) are folded
into per-(op, parent, name) totals instead of being kept one by one, so
memory stays bounded; they still count against their parent's self time.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional

# (module, attribute, span name, hot)
# attribute "Class.method" patches the method on the class.
TIMED = (
    ("beaconlab.sim", "run", "sim.run", False),
    ("beaconlab.radio", "shadowing_db", "radio.shadowing", True),
    ("beaconlab.radio", "mean_rssi", "radio.mean_rssi", True),
    ("beaconlab.radio", "EventLog.append", "radio.event_append", True),
    ("beaconlab.actors", "UserDevice.position_at", "actors.position_at", True),
    ("beaconlab.actors", "proximity_decision", "actors.proximity", True),
    ("beaconlab.ephemeral", "ephemeral_id", "ephemeral.id", True),
    ("beaconlab.ephemeral", "build_filter", "ephemeral.filter_build", False),
    ("beaconlab.ephemeral", "RotatingResolver.resolve", "ephemeral.resolve", True),
    ("beaconlab.ephemeral", "verify_and_resolve", "ephemeral.verify", True),
    ("beaconlab.ephemeral", "bloom_contains", "ephemeral.bloom_check", True),
    ("beaconlab.attacks", "install_pending", "attacks.install", False),
    ("beaconlab.attacks", "attack_metrics", "attacks.metrics", False),
    ("beaconlab.guardian", "jam_succeeds", "guardian.jam", True),
    ("beaconlab.scenario", "load_scenario", "scenario.load", False),
    ("beaconlab.model", "load_deployment", "model.load_deployment", False),
    ("beaconlab.storage", "write_events_jsonl", "storage.write_events", False),
    ("beaconlab.storage", "write_traces_jsonl", "storage.write_traces", False),
    ("beaconlab.storage", "write_metrics_csv", "storage.write_metrics", False),
    ("beaconlab.storage", "read_traces_jsonl", "storage.read_traces", False),
    ("beaconlab.outlier", "build_markov", "outlier.build_markov", False),
    ("beaconlab.outlier", "calibrate_threshold", "outlier.calibrate", False),
    ("beaconlab.outlier", "detect", "outlier.detect", True),
    ("beaconlab.outlier", "score_trace", "outlier.score", True),
    ("beaconlab.cli", "cmd_simulate", "cli.simulate", False),
    ("beaconlab.cli", "cmd_detect", "cli.detect", False),
)


class Tracer:
    """Collects spans for the op that is active; inert between ops."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op_id: Optional[int] = None
        self.spans: list[dict] = []
        # (op, parent name, name) -> [calls, total_s, self_s] for hot calls
        self.folded: dict[tuple[int, str, str], list] = {}
        # frame: [name, start, covered_by_children, span id or None]
        self._stack: list[list] = []
        self._observers: dict[str, Callable] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        if self._stack:
            raise RuntimeError(f"span {self._stack[-1][0]!r} still open at end of op")
        self.op_id = None

    def observe(self, name: str, fn: Callable) -> None:
        """fn(args, kwargs, result, exc) runs after each traced call of name."""
        self._observers[name] = fn

    # -- span bookkeeping ----------------------------------------------------

    def enter(self, name: str, hot: bool) -> list:
        span_id = None
        if not hot:
            span_id = len(self.spans)
            parent = self._parent_span()
            self.spans.append({"id": span_id, "name": name, "op": self.op_id,
                               "parent": parent, "start": 0.0, "end": 0.0, "self": 0.0})
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        name, start, covered, span_id = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            span = self.spans[span_id]
            span["start"], span["end"], span["self"] = start, end, duration - covered
        else:
            parent = self._stack[-1][0] if self._stack else ""
            key = (self.op_id, parent, name)
            entry = self.folded.get(key)
            if entry is None:
                entry = self.folded[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    # -- totals ------------------------------------------------------------

    def totals(self, op_ids) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over the given ops."""
        wanted = set(op_ids)
        out: dict[str, list] = {}
        for span in self.spans:
            if span["op"] in wanted:
                entry = out.setdefault(span["name"], [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += span["end"] - span["start"]
                entry[2] += span["self"]
        for (op, _parent, name), (calls, total, own) in self.folded.items():
            if op in wanted:
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            for (op, parent, name), (calls, total, own) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "op": op, "parent": parent,
                                     "calls": calls, "total": total, "self": own},
                                    sort_keys=True) + "\n")

    # -- patching ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                observer = tracer._observers.get(name)
                if observer is not None:
                    observer(args, kwargs, None, exc)
                raise
            tracer.exit(frame)
            observer = tracer._observers.get(name)
            if observer is not None:
                observer(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every binding of each timed function; fail if one is missed."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "beaconlab" or n.startswith("beaconlab.")) and m is not None}
        originals = []
        for mod_name, attr, name, hot in TIMED:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(original, name, hot))
                originals.append((original, attr))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, hot)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
            originals.append((original, attr))
        for original, attr in originals:
            for mod_name, module in modules.items():
                for key, value in vars(module).items():
                    if value is original:
                        raise RuntimeError(f"{mod_name}.{key} still binds the untraced {attr}")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)
