"""Mobility-based anomaly detection over beacon observation traces.

Beacons are mounted at known positions, so the sequence of beacons a real
user encounters must respect physical adjacency. A first-order Markov chain
over beacon refs captures that: self-transitions get p_stay, the rest of the
mass spreads over adjacent beacons, and everything else has probability zero.
Traces are scored by average negative log likelihood; impossible transitions
(probability zero, or anything touching an unresolvable identity) are hard
flags that bypass the score entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .ephemeral import RotatingResolver
from .errors import (
    ContaminatedCalibration,
    InsufficientData,
    InvalidInput,
    TooShort,
)
from .model import DeploymentMap, Trace

UNKNOWN = "UNKNOWN"

ROW_SUM_TOLERANCE = 1e-9

UNIFORM = "uniform"
INVERSE_DISTANCE = "inverse_distance"

MIN_CALIBRATION_TRACES = 20

DEFAULT_P_STAY = 0.3  # a model's self-transition probability


@dataclass(frozen=True)
class MarkovModel:
    """Row-stochastic transition structure over beacon refs plus UNKNOWN."""

    states: tuple[str, ...]
    probs: Mapping[str, Mapping[str, float]]
    p_stay: float
    weighting: str

    def __post_init__(self) -> None:
        for state in self.states:
            row = self.probs.get(state, {})
            total = sum(row.values())
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise InvalidInput(f"markov row for {state!r} sums to {total}, not 1")

    def transition_prob(self, a: str, b: str) -> float:
        return self.probs.get(a, {}).get(b, 0.0)


@dataclass(frozen=True)
class DetectorParams:
    threshold: Optional[float] = None
    alpha: float = 0.05
    debounce: bool = True
    min_transitions: int = 3

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInput("alpha must be in (0, 1)")
        if self.min_transitions < 1:
            raise InvalidInput("min_transitions must be at least 1")


@dataclass(frozen=True)
class TraceScore:
    avg_nll: Optional[float]
    hard_flags: tuple[tuple[str, str], ...]
    n_transitions: int


@dataclass(frozen=True)
class Verdict:
    anomalous: bool
    avg_nll: Optional[float]
    hard_flags: tuple[tuple[str, str], ...]
    reasons: tuple[str, ...]


def build_markov(
    deployment: DeploymentMap,
    p_stay: float = DEFAULT_P_STAY,
    weighting: str = UNIFORM,
) -> MarkovModel:
    """Derive the mobility model from mounting positions and adjacency.

    An isolated beacon keeps all its mass on itself. UNKNOWN is absorbing and
    unreachable under the model; reaching it at all is evidence, not noise.
    """
    if not (0.0 <= p_stay < 1.0):
        raise InvalidInput(f"p_stay must be in [0, 1), got {p_stay}")
    if weighting not in (UNIFORM, INVERSE_DISTANCE):
        raise InvalidInput(f"unknown weighting {weighting!r}")
    probs: dict[str, dict[str, float]] = {}
    for beacon in deployment.beacons:
        ref = beacon.ref
        neighbors = sorted(deployment.neighbors(ref))
        if not neighbors:
            probs[ref] = {ref: 1.0}
            continue
        row = {ref: p_stay}
        move_mass = 1.0 - p_stay
        if weighting == UNIFORM:
            share = move_mass / len(neighbors)
            for nbr in neighbors:
                row[nbr] = share
        else:
            weights = {}
            here = beacon.position
            for nbr in neighbors:
                there = deployment.beacon(nbr).position
                dist = max(math.dist(here, there), 1e-9)
                weights[nbr] = 1.0 / dist
            total = sum(weights.values())
            for nbr in neighbors:
                row[nbr] = move_mass * weights[nbr] / total
        probs[ref] = row
    probs[UNKNOWN] = {UNKNOWN: 1.0}
    states = tuple(deployment.refs()) + (UNKNOWN,)
    return MarkovModel(states=states, probs=probs, p_stay=p_stay, weighting=weighting)


def trace_transitions(
    trace: Trace,
    resolver: RotatingResolver,
    debounce: bool = True,
) -> list[tuple[str, str]]:
    """Turn a raw trace into state transitions.

    Each observation resolves as the run resolves it, by its ID at its time;
    unresolvable identities become UNKNOWN. With debounce on, consecutive
    repeats collapse so a stationary user parked next to one beacon does not
    manufacture evidence.
    """
    resolve = resolver.resolve
    states: list[str] = []
    for obs in trace.observations:
        state = resolve(obs.id, obs.time)
        if state is None:
            state = UNKNOWN
        if debounce and states and states[-1] == state:
            continue
        states.append(state)
    return list(zip(states, states[1:]))


def score_trace(
    model: MarkovModel,
    transitions: Sequence[tuple[str, str]],
    min_transitions: int = DetectorParams.min_transitions,
) -> TraceScore:
    """Average negative log likelihood plus hard flags.

    Hard flags collect every transition the model gives probability zero and
    every transition touching UNKNOWN. The average runs over the remaining
    transitions. A trace with too few transitions and nothing hard to point
    at is unjudgeable and raises TooShort.
    """
    flags: list[tuple[str, str]] = []
    nll_total = 0.0
    n_scored = 0
    for a, b in transitions:
        if a == UNKNOWN or b == UNKNOWN:
            flags.append((a, b))
            continue
        p = model.transition_prob(a, b)
        if p == 0.0:
            flags.append((a, b))
            continue
        nll_total -= math.log(p)
        n_scored += 1
    if len(transitions) < min_transitions and not flags:
        raise TooShort(
            f"{len(transitions)} transitions is below the minimum of {min_transitions}"
        )
    avg = nll_total / n_scored if n_scored else None
    return TraceScore(avg_nll=avg, hard_flags=tuple(flags), n_transitions=len(transitions))


def calibrate_threshold(
    model: MarkovModel,
    clean_traces: Iterable[Trace],
    resolver: RotatingResolver,
    alpha: float = DetectorParams.alpha,
    debounce: bool = DetectorParams.debounce,
    min_transitions: int = DetectorParams.min_transitions,
) -> float:
    """Empirical (1 - alpha) quantile of scores over known-clean traces.

    The quantile takes the smallest calibration score that at most an alpha
    fraction of the calibration set strictly exceeds. Hard flags in material
    that is supposed to be clean void the calibration. A trace too short to
    score is unusable and left out, as is one with nothing scorable.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInput("alpha must be in (0, 1)")
    scores: list[float] = []
    for trace in clean_traces:
        transitions = trace_transitions(trace, resolver, debounce)
        try:
            result = score_trace(model, transitions, min_transitions)
        except TooShort:
            continue
        if result.hard_flags:
            raise ContaminatedCalibration(
                f"calibration trace from {trace.device_ref!r} contains impossible "
                f"transitions: {result.hard_flags[:3]}"
            )
        if result.avg_nll is not None:
            scores.append(result.avg_nll)
    if len(scores) < MIN_CALIBRATION_TRACES:
        raise InsufficientData(
            f"{len(scores)} usable calibration traces; need at least {MIN_CALIBRATION_TRACES}"
        )
    scores.sort()
    index = max(0, min(len(scores) - 1, math.ceil((1.0 - alpha) * len(scores)) - 1))
    return scores[index]


def detect(
    model: MarkovModel,
    trace: Trace,
    params: DetectorParams,
    resolver: RotatingResolver,
) -> Verdict:
    """Score one trace against a calibrated threshold."""
    if params.threshold is None:
        raise InvalidInput("detector threshold is not calibrated")
    transitions = trace_transitions(trace, resolver, params.debounce)
    result = score_trace(model, transitions, params.min_transitions)
    reasons: list[str] = []
    if result.hard_flags:
        flagged = ", ".join(f"{a}->{b}" for a, b in result.hard_flags[:5])
        reasons.append(f"impossible transitions: {flagged}")
    if result.avg_nll is not None and result.avg_nll > params.threshold:
        reasons.append(
            f"avg_nll {result.avg_nll:.4f} above threshold {params.threshold:.4f}"
        )
    return Verdict(
        anomalous=bool(reasons),
        avg_nll=result.avg_nll,
        hard_flags=result.hard_flags,
        reasons=tuple(reasons),
    )
