"""Rotating identifiers: keyed per-slot IDs with a Bloom filter verifier.

A beacon with a key derives its broadcast ID for slot s as a keyed PRF of the
slot index, truncated to the deployment id width. A run keeps one
`IdSchedule`, which derives each (key, slot) ID once and indexes every owner
ID it derives back to its beacon and slot. The resolver keeps a Bloom filter
holding every owned key's IDs for the slots inside the acceptance window; a
frame passes the cheap filter gate first, then a lookup in the schedule's
reverse index pins it to one beacon. The filter alone can lie (that is its
nature), the second stage cannot, so end-to-end false acceptance is zero and
the filter's false positives only cost wasted exact checks.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import InvalidInput
from .model import DEFAULT_ID_WIDTH, MIN_KEY_BYTES, BeaconId, _check_id_width

MAX_BUILD_FP = 0.10
DEFAULT_FP_TARGET = 0.01  # Bloom false-positive rate a filter is sized for
# The most IDs one acceptance window may hold: owner keys x (2 * window_slots
# + 1). A filter build derives and keeps every one, at about 10 us and 450
# bytes each, so the largest allowed build takes about 1.5 s and 45 MB on a
# 2-vCPU Xeon VM.
MAX_WINDOW_IDS = 100_000
# The largest Bloom filter: what MAX_WINDOW_IDS IDs need at the smallest
# false-positive target a build accepts, the least positive float, 5e-324
# (`bloom_size_for(MAX_WINDOW_IDS, math.ulp(0.0))`). Its bits take 19.4 MB.
MAX_BLOOM_M = 154_945_448
MAX_BLOOM_K = 1_074
# The most bits one filter build may set, k x IDs: 0.25-0.5 us a bit on a
# 2-vCPU Xeon VM, up to about 1.4 s a build. A full window of MAX_WINDOW_IDS
# IDs may take k up to 30 (a target of 1e-9); one at k 1,074, 2,793 IDs.
MAX_BLOOM_WORK = 3_000_000

_FILTER_MAGIC = b"BLF1"
_UNSEEN = object()  # verdict cache miss; None is a cached rejection


@dataclass(frozen=True)
class EphemeralParams:
    """How a run's IDs rotate, and the sizing of each window's Bloom filter:
    bloom_m and bloom_k, or bloom_fp_target (None means DEFAULT_FP_TARGET),
    which `filter_size` checks where a filter is sized."""
    slot_duration_s: float = 60.0
    window_slots: int = 2  # accept slots in [current - w, current + w]
    id_width: int = DEFAULT_ID_WIDTH
    bloom_m: Optional[int] = None
    bloom_k: Optional[int] = None
    bloom_fp_target: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.slot_duration_s < math.inf:  # NaN fails both tests
            raise InvalidInput(f"slot_duration_s must be positive and finite, "
                               f"got {self.slot_duration_s!r}")
        if self.window_slots < 0:
            raise InvalidInput("window_slots must be non-negative")
        _check_id_width(self.id_width)

    def slot_of(self, t: float) -> int:
        return math.floor(t / self.slot_duration_s)

    def window(self, slot: int) -> range:
        """The slots accepted while the current slot is slot."""
        return range(slot - self.window_slots, slot + self.window_slots + 1)


def ephemeral_id(key: bytes, slot: int, id_width: int = DEFAULT_ID_WIDTH) -> BeaconId:
    """PRF(key, slot) truncated to id_width bytes; slot packs as signed 64-bit BE."""
    if len(key) < MIN_KEY_BYTES:
        raise InvalidInput(f"key must be at least {MIN_KEY_BYTES} bytes, got {len(key)}")
    if not -(1 << 63) <= slot < 1 << 63:
        raise InvalidInput("slot is outside the signed 64-bit range [-2**63, 2**63 - 1]")
    _check_id_width(id_width)
    digest = hmac.new(key, struct.pack(">q", slot), hashlib.sha256).digest()
    return BeaconId(digest[:id_width])


class IdSchedule:
    """The rotating IDs of one run, each (key, slot) derived at most once.

    The forward table maps (key, slot) to the ID and its hex, for owner keys
    and personal tag keys alike. The reverse index maps an owner ID to its
    (key order, ref, slot) entries, each added when that ID is first derived;
    it never holds a tag's ID. Owner keys and a window that make more than
    MAX_WINDOW_IDS IDs per window raise InvalidInput.
    """

    def __init__(self, owner_keys: Mapping[str, bytes], params: EphemeralParams):
        w = params.window_slots
        n_ids = len(owner_keys) * (2 * w + 1)
        if n_ids > MAX_WINDOW_IDS:
            raise InvalidInput(f"window_slots {w} with {len(owner_keys)} owner key(s) makes "
                               f"{n_ids:,} IDs per window; the limit is {MAX_WINDOW_IDS:,}")
        self.owner_keys = dict(owner_keys)
        self.params = params
        self._first_owner: dict[bytes, tuple[int, str]] = {}  # key -> its first (order, ref)
        for order, (ref, key) in enumerate(self.owner_keys.items()):
            self._first_owner.setdefault(key, (order, ref))
        self._ids: dict[tuple[bytes, int], tuple[BeaconId, str]] = {}
        self._owners: dict[bytes, list[tuple[int, str, int]]] = {}

    def id_at(self, key: bytes, slot: int) -> BeaconId:
        return self.id_and_hex(key, slot)[0]

    def id_and_hex(self, key: bytes, slot: int) -> tuple[BeaconId, str]:
        """The ID and its hex; every frame of one (key, slot) shares the same string."""
        pair = self._ids.get((key, slot))
        if pair is None:
            bid = ephemeral_id(key, slot, self.params.id_width)
            pair = self._ids[key, slot] = (bid, bid.hex())
            owner = self._first_owner.get(key)
            if owner is not None:
                self._owners.setdefault(bid.data, []).append((*owner, slot))
        return pair

    def owner(self, beacon_id: BeaconId, slots: Optional[range] = None) -> Optional[str]:
        """The first owner ref, in key order, of the owner IDs derived so far
        that equal beacon_id; given slots, only IDs of those slots count."""
        entries = self._owners.get(beacon_id.data, ())
        best = min((e for e in entries if slots is None or e[2] in slots), default=None)
        return None if best is None else best[1]


# ---------------------------------------------------------------------------
# Bloom filter


def filter_size(n_items: int, m_bits: int | None = None, k_hashes: int | None = None,
                fp_target: float | None = None) -> Optional[tuple[int, int]]:
    """The bits m and hash count k of a filter of n_items IDs: both as given,
    or both sized for fp_target (None means DEFAULT_FP_TARGET); None when
    neither is given and there are no IDs. Refuses m or k given alone, an
    fp_target given beside them, one `_check_geometry` refuses, and a build
    that would set more than MAX_BLOOM_WORK bits (k x n_items)."""
    if (m_bits is None) != (k_hashes is None):
        raise InvalidInput(f"Bloom m and k are given both or neither, "
                           f"got m={m_bits!r} and k={k_hashes!r}")
    if m_bits is None:
        if not n_items:
            return None
        m_bits, k_hashes = bloom_size_for(
            n_items, DEFAULT_FP_TARGET if fp_target is None else fp_target)
    elif fp_target is not None:
        raise InvalidInput(f"Bloom sizing is m and k, or a false-positive target, not both; "
                           f"got m={m_bits!r}, k={k_hashes!r} and target {fp_target!r}")
    _check_geometry(m_bits, k_hashes)
    if k_hashes * n_items > MAX_BLOOM_WORK:
        raise InvalidInput(f"a bloom filter of {n_items:,} IDs at k={k_hashes:,} sets "
                           f"{k_hashes * n_items:,} bits; the limit is {MAX_BLOOM_WORK:,}")
    return m_bits, k_hashes


def _check_geometry(m_bits: int, k_hashes: int) -> None:
    if m_bits <= 0 or k_hashes <= 0:
        raise InvalidInput("bloom filter needs positive m and k")
    if m_bits > MAX_BLOOM_M or k_hashes > MAX_BLOOM_K:
        raise InvalidInput(f"bloom filter m and k must be at most {MAX_BLOOM_M:,} and "
                           f"{MAX_BLOOM_K:,}, got m={m_bits:,} and k={k_hashes:,}")


@dataclass(frozen=True)
class BloomFilter:
    m_bits: int
    k_hashes: int
    bits: bytes
    n_inserted: int = 0

    def __post_init__(self) -> None:
        _check_geometry(self.m_bits, self.k_hashes)
        if len(self.bits) != (self.m_bits + 7) // 8:
            raise InvalidInput("bloom bit array length does not match m_bits")

    @classmethod
    def from_items(cls, m_bits: int, k_hashes: int, items: Iterable[bytes]) -> "BloomFilter":
        """The filter holding each of items; n_inserted counts them, repeats included."""
        _check_geometry(m_bits, k_hashes)
        bits = bytearray((m_bits + 7) // 8)
        n_inserted = 0
        for item in items:
            for idx in _bit_indexes(item, m_bits, k_hashes):
                bits[idx >> 3] |= 1 << (idx & 7)
            n_inserted += 1
        return cls(m_bits, k_hashes, bytes(bits), n_inserted)


def _bit_indexes(item: bytes, m_bits: int, k_hashes: int):
    digest = hashlib.sha256(item).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    for i in range(k_hashes):
        yield (h1 + i * h2) % m_bits


def bloom_contains(filt: BloomFilter, item: bytes) -> bool:
    for idx in _bit_indexes(item, filt.m_bits, filt.k_hashes):
        if not filt.bits[idx >> 3] & (1 << (idx & 7)):
            return False
    return True


def expected_fp_rate(m_bits: int, k_hashes: int, n_items: int) -> float:
    """Classic approximation (1 - e^(-kn/m))^k."""
    if n_items == 0:
        return 0.0
    return (1.0 - math.exp(-k_hashes * n_items / m_bits)) ** k_hashes


def bloom_size_for(n_items: int, fp_target: float) -> tuple[int, int]:
    """Smallest (m, k) pair meeting the target false-positive rate."""
    if n_items <= 0:
        raise InvalidInput("n_items must be positive")
    if not (0.0 < fp_target < 1.0):
        raise InvalidInput("fp_target must be in (0, 1)")
    m = math.ceil(-n_items * math.log(fp_target) / (math.log(2.0) ** 2))
    k = max(1, round(m / n_items * math.log(2.0)))
    return m, k


def build_filter(schedule: IdSchedule, current_slot: int) -> BloomFilter:
    """Insert every owned key's IDs for the acceptance window around current_slot.

    The schedule's params size the filter (see `filter_size`), and an (m, k)
    whose expected false positive rate exceeds 10% at this population is a
    configuration error.
    """
    if not schedule.owner_keys:
        raise InvalidInput("no keys to build a filter from")
    params = schedule.params
    slots = params.window(current_slot)
    n_items = len(schedule.owner_keys) * len(slots)
    m_bits, k_hashes = filter_size(n_items, params.bloom_m, params.bloom_k, params.bloom_fp_target)
    if expected_fp_rate(m_bits, k_hashes, n_items) > MAX_BUILD_FP:
        raise InvalidInput(
            f"bloom sizing m={m_bits} k={k_hashes} gives expected false-positive "
            f"rate above {MAX_BUILD_FP:.0%} for {n_items} ids"
        )
    ids = (schedule.id_at(key, slot).data for key in schedule.owner_keys.values() for slot in slots)
    return BloomFilter.from_items(m_bits, k_hashes, ids)


def verify_and_resolve(
    filt: BloomFilter,
    schedule: IdSchedule,
    beacon_id: BeaconId,
    current_slot: int,
) -> Optional[str]:
    """Two-stage check: Bloom gate, then the schedule's exact lookup over the window.

    Returns the owning beacon ref, or None for a rejected frame. A filter hit
    that no key reproduces is a Bloom false positive and is still rejected.
    The schedule must hold the window's IDs, as `build_filter` leaves it.
    """
    if not bloom_contains(filt, beacon_id.data):
        return None
    return schedule.owner(beacon_id, schedule.params.window(current_slot))


# ---------------------------------------------------------------------------
# filter file format (binary, versioned)


def write_filter_file(
    path: str,
    filt: BloomFilter,
    current_slot: int,
    params: EphemeralParams,
) -> None:
    header = _FILTER_MAGIC + struct.pack(
        ">BQIqId", 1, filt.m_bits, filt.k_hashes, current_slot, params.window_slots,
        params.slot_duration_s,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(filt.bits)


def read_filter_file(path: str) -> tuple[BloomFilter, int, EphemeralParams]:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_FILTER_MAGIC) + struct.calcsize(">BQIqId")
    if len(blob) < head_len or not blob.startswith(_FILTER_MAGIC):
        raise InvalidInput(f"{path} is not a beaconlab filter file")
    version, m_bits, k_hashes, slot, window, slot_duration = struct.unpack(
        ">BQIqId", blob[len(_FILTER_MAGIC) : head_len]
    )
    if version != 1:
        raise InvalidInput(f"{path}: unsupported filter file version {version}")
    bits = blob[head_len:]
    filt = BloomFilter(m_bits=m_bits, k_hashes=k_hashes, bits=bits)
    params = EphemeralParams(slot_duration_s=slot_duration, window_slots=window)
    return filt, slot, params


# ---------------------------------------------------------------------------
# the one ID-resolution rule, for the simulator and the detector


class RotatingResolver:
    """Owner-side lookup for the event loop and `detect`: static IDs first, then the schedule.

    With tv (the TV defence), an owner ID resolves only inside the acceptance
    window of the current slot, through that slot's Bloom filter, sized by
    the schedule's params, and the schedule's exact lookup; verdicts are
    memoized per (id, slot). Without, an owner ID resolves once the schedule
    has derived it, which in a run means once it was broadcast: replayed IDs
    never expire and no filter is built. Those verdicts are not memoized,
    since a later broadcast can change them.
    """

    def __init__(self, static_ids: Mapping[BeaconId, str], schedule: IdSchedule, tv: bool = True):
        # keyed on the raw bytes: hashing them skips BeaconId's generated __hash__
        self._static = {beacon_id.data: ref for beacon_id, ref in static_ids.items()}
        self._schedule = schedule
        self._params = schedule.params
        self._tv = tv
        self._filters: dict[int, BloomFilter] = {}
        self._verdicts: dict[tuple[bytes, int], Optional[str]] = {}
        self.filters_built = 0

    def filter_for(self, slot: int) -> BloomFilter:
        filt = self._filters.get(slot)
        if filt is None:
            filt = build_filter(self._schedule, slot)
            self._filters[slot] = filt
            self.filters_built += 1
        return filt

    def resolve(self, beacon_id: BeaconId, t: float) -> Optional[str]:
        ref = self._static.get(beacon_id.data)
        if ref is not None or not self._schedule.owner_keys:
            return ref
        if not self._tv:
            return self._schedule.owner(beacon_id)
        slot = self._params.slot_of(t)
        key = (beacon_id.data, slot)
        verdict = self._verdicts.get(key, _UNSEEN)
        if verdict is _UNSEEN:
            verdict = verify_and_resolve(self.filter_for(slot), self._schedule, beacon_id, slot)
            self._verdicts[key] = verdict
        return verdict
