import pytest

from beaconlab.ephemeral import EphemeralParams, IdSchedule, RotatingResolver
from beaconlab.model import BeaconId, Observation, Trace
from beaconlab.radio import EVENT_FIELDS, RECEIVE, EventLog

AA = "aa" * 20
BB = "bb" * 20
CC = "cc" * 20
DD = "dd" * 20

KEY1 = "11" * 16
KEY2 = "22" * 16


def detector_resolver(deployment, eph=EphemeralParams()):
    """The resolver `detect` builds for deployment: the one a run under TV uses."""
    return RotatingResolver(deployment.static_ids(), IdSchedule(deployment.owner_keys, eph))


def receive_log(traces) -> tuple[EventLog, list[str]]:
    """An event log of one Receive row per observation of traces, trace after
    trace, and the traces' devices in order: what `write_traces_jsonl` takes
    to write the traces."""
    log = EventLog()
    for trace in traces:
        for obs in trace.observations:
            log.append(obs.time, RECEIVE, obs.claimed_tx_power, "tx", obs.id.hex(),
                       trace.device_ref, obs.rssi)
    return log, [trace.device_ref for trace in traces]


def logged_traces(log: EventLog, devices) -> tuple[Trace, ...]:
    """What `read_traces_jsonl` must take back from the file `write_traces_jsonl`
    writes of log and devices: for each device with rows, in order, its
    Receive rows (t, id, rssi, claimed_tx) in log order."""
    rows = [(t, dict(zip(EVENT_FIELDS[RECEIVE], values)))
            for t, kind, values in zip(log.times, log.kinds, log.values) if kind == RECEIVE]
    traces = []
    for device in devices:
        observations = tuple(
            Observation(t, BeaconId.from_hex(row["id"]), row["rssi"], row["claimed_tx"])
            for t, row in rows if row["receiver"] == device)
        if observations:
            traces.append(Trace(device, observations))
    return tuple(traces)


def static_beacon(ref, x, id_hex, tx=-59.0, interval=1000.0, **extra):
    return {"ref": ref, "x": x, "y": 0, "tx_power_1m": tx,
            "adv_interval_ms": interval, "id_hex": id_hex, **extra}


def ephemeral_beacon(ref, x, key_hex, tx=-59.0, interval=1000.0, **extra):
    return {"ref": ref, "x": x, "y": 0, "tx_power_1m": tx,
            "adv_interval_ms": interval, "id_mode": "ephemeral", "key_hex": key_hex,
            **extra}


@pytest.fixture
def static_doc():
    return {
        "beacons": [static_beacon("b1", 0, AA), static_beacon("b2", 20, BB)],
        "content": [
            {"id_hex": AA, "locator": "app://one", "label": "one"},
            {"id_hex": BB, "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
    }


@pytest.fixture
def ephemeral_doc():
    return {
        "beacons": [ephemeral_beacon("b1", 0, KEY1), ephemeral_beacon("b2", 20, KEY2)],
        "content": [
            {"ref": "b1", "locator": "app://one"},
            {"ref": "b2", "locator": "app://two"},
        ],
        "adjacency_radius_m": 25,
    }
