import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, strategies as st

from beaconlab import (
    BeaconId,
    BloomFilter,
    EphemeralParams,
    IdSchedule,
    InvalidInput,
    bloom_contains,
    build_filter,
    ephemeral_id,
    expected_fp_rate,
    read_filter_file,
    verify_and_resolve,
    write_filter_file,
)
from beaconlab.ephemeral import MAX_WINDOW_IDS, RotatingResolver, bloom_size_for
from conftest import KEY1, KEY2

K1 = bytes.fromhex(KEY1)
K2 = bytes.fromhex(KEY2)
KEYS = {"b1": K1, "b2": K2}
PARAMS = EphemeralParams(slot_duration_s=60.0, window_slots=2, id_width=20)


class TestEphemeralId:
    def test_deterministic(self):
        assert ephemeral_id(K1, 7) == ephemeral_id(K1, 7)

    def test_varies_with_slot_and_key(self):
        assert ephemeral_id(K1, 7) != ephemeral_id(K1, 8)
        assert ephemeral_id(K1, 7) != ephemeral_id(K2, 7)

    def test_negative_slots_are_fine(self):
        assert len(ephemeral_id(K1, -3)) == 20

    def test_width(self):
        assert len(ephemeral_id(K1, 0, id_width=8)) == 8
        with pytest.raises(InvalidInput):
            ephemeral_id(K1, 0, id_width=0)
        with pytest.raises(InvalidInput):
            ephemeral_id(K1, 0, id_width=33)

    def test_short_key_rejected(self):
        with pytest.raises(InvalidInput):
            ephemeral_id(b"short", 0)

    def test_slot_of(self):
        assert PARAMS.slot_of(0.0) == 0
        assert PARAMS.slot_of(59.999) == 0
        assert PARAMS.slot_of(60.0) == 1
        assert PARAMS.slot_of(-0.5) == -1


class TestBloom:
    def test_insert_then_contains(self):
        filt = BloomFilter.from_items(256, 3, [b"hello"])
        assert bloom_contains(filt, b"hello")
        assert filt.n_inserted == 1

    def test_a_filter_of_no_items_holds_nothing(self):
        filt = BloomFilter.from_items(256, 3, iter(()))
        assert filt.bits == bytes(32) and filt.n_inserted == 0
        assert not bloom_contains(filt, b"hello")

    @given(st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=40))
    def test_no_false_negatives(self, items):
        filt = BloomFilter.from_items(512, 4, iter(items))
        assert all(bloom_contains(filt, item) for item in items)
        assert filt.n_inserted == len(items)  # a repeat counts again

    def test_expected_fp_formula(self):
        # (1 - e^{-kn/m})^k, the standard approximation
        assert expected_fp_rate(2048, 3, 200) == pytest.approx(
            (1.0 - math.exp(-3 * 200 / 2048)) ** 3
        )
        assert expected_fp_rate(100, 3, 0) == 0.0

    def test_size_for_meets_target(self):
        m, k = bloom_size_for(250, 0.01)
        assert expected_fp_rate(m, k, 250) <= 0.011
        with pytest.raises(InvalidInput):
            bloom_size_for(0, 0.01)
        with pytest.raises(InvalidInput):
            bloom_size_for(10, 1.5)

    @pytest.mark.parametrize("m_bits, k_hashes", [(0, 3), (-100, 3), (64, 0)])
    def test_bad_geometry_rejected(self, m_bits, k_hashes):
        with pytest.raises(InvalidInput, match="positive m and k"):
            BloomFilter.from_items(m_bits, k_hashes, [b"hello"])


class TestBuildFilter:
    def test_population_covers_window(self):
        filt = build_filter(IdSchedule(KEYS, PARAMS), 10)
        assert filt.n_inserted == len(KEYS) * (2 * PARAMS.window_slots + 1)
        for slot in range(8, 13):
            for key in KEYS.values():
                assert bloom_contains(filt, ephemeral_id(key, slot).data)

    def test_rejects_hopeless_sizing(self):
        with pytest.raises(InvalidInput, match="false-positive"):
            build_filter(IdSchedule(KEYS, replace(PARAMS, bloom_m=8, bloom_k=2)), 0)

    def test_needs_keys(self):
        with pytest.raises(InvalidInput):
            build_filter(IdSchedule({}, PARAMS), 0)


class TestVerifyAndResolve:
    def test_accepts_window_rejects_outside(self):
        schedule = IdSchedule(KEYS, PARAMS)
        filt = build_filter(schedule, 10)
        for slot in (8, 9, 10, 11, 12):
            assert verify_and_resolve(filt, schedule, ephemeral_id(K1, slot), 10) == "b1"
        for slot in (7, 13):
            assert verify_and_resolve(filt, schedule, ephemeral_id(K1, slot), 10) is None

    def test_resolves_the_owning_beacon(self):
        schedule = IdSchedule(KEYS, PARAMS)
        filt = build_filter(schedule, 10)
        assert verify_and_resolve(filt, schedule, ephemeral_id(K2, 10), 10) == "b2"

    def test_zero_end_to_end_false_accepts(self):
        # generous filter abuse: tiny m forces many gate hits, the exact
        # stage must still reject every forged identity
        params = EphemeralParams(slot_duration_s=60.0, window_slots=1, id_width=20,
                                 bloom_m=64, bloom_k=1)
        schedule = IdSchedule(KEYS, params)
        filt = build_filter(schedule, 0)
        rng = Random(5)
        gate_hits = 0
        for _ in range(20000):
            probe = BeaconId(rng.randbytes(20))
            if bloom_contains(filt, probe.data):
                gate_hits += 1
                assert verify_and_resolve(filt, schedule, probe, 0) is None
        assert gate_hits > 100  # the gate does lie; the exact stage does not


class TestFilterFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "f.blf")
        filt = build_filter(IdSchedule(KEYS, PARAMS), 42)
        write_filter_file(path, filt, 42, PARAMS)
        loaded, slot, params = read_filter_file(path)
        assert slot == 42
        assert loaded.bits == filt.bits
        assert (loaded.m_bits, loaded.k_hashes) == (filt.m_bits, filt.k_hashes)
        assert params.slot_duration_s == PARAMS.slot_duration_s
        assert params.window_slots == PARAMS.window_slots

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.blf"
        path.write_bytes(b"not a filter")
        with pytest.raises(InvalidInput):
            read_filter_file(str(path))


class TestIdSchedule:
    def test_forward_table_matches_the_prf(self):
        schedule = IdSchedule(KEYS, PARAMS)
        assert schedule.id_at(K1, 7) == ephemeral_id(K1, 7)
        assert schedule.id_at(K1, 7) is schedule.id_at(K1, 7)

    def test_tag_ids_never_resolve(self):
        tag_key = bytes(range(16))
        schedule = IdSchedule(KEYS, PARAMS)
        tag_id = schedule.id_at(tag_key, 3)
        assert schedule.owner(tag_id, PARAMS.window(3)) is None
        assert schedule.owner(schedule.id_at(K2, 3), PARAMS.window(3)) == "b2"

    def test_the_window_bounds_the_ids_a_schedule_may_derive(self):
        # two keys over 2w + 1 slots: 99,998 IDs at w = 24,999, 100,002 at w = 25,000
        assert len(KEYS) == 2 and MAX_WINDOW_IDS == 100_000
        IdSchedule(KEYS, EphemeralParams(window_slots=24_999))
        with pytest.raises(InvalidInput, match="^window_slots 25000 with 2 owner key"):
            IdSchedule(KEYS, EphemeralParams(window_slots=25_000))


def _colliding_slots(params: EphemeralParams) -> tuple[int, int]:
    """The first (s1, s2), s1 ascending, with K1@s1 == K2@s2 in one window."""
    span = 2 * params.window_slots
    for s1 in range(1000):
        for s2 in range(s1 - span, s1 + span + 1):
            if ephemeral_id(K1, s1, params.id_width) == ephemeral_id(K2, s2, params.id_width):
                return s1, s2
    raise AssertionError("no colliding slot pair")


class TestResolvers:
    def test_rotating_caches_filters(self):
        resolver = RotatingResolver({}, IdSchedule(KEYS, PARAMS))
        assert resolver.resolve(ephemeral_id(K1, 0), 30.0) == "b1"
        assert resolver.resolve(ephemeral_id(K1, 1), 45.0) == "b1"
        assert resolver.filters_built == 1
        assert resolver.resolve(ephemeral_id(K1, 0), 61.0) == "b1"  # slot 1 filter
        assert resolver.filters_built == 2

    def test_rotating_rejects_stale(self):
        resolver = RotatingResolver({}, IdSchedule(KEYS, PARAMS))
        stale = ephemeral_id(K1, 0)
        assert resolver.resolve(stale, 200.0) is None  # slot 3, window 2
        assert resolver.resolve(stale, 200.0) is None  # cached verdict path

    def test_without_tv_every_derived_owner_id_resolves(self):
        static = {BeaconId(b"\x01" * 20): "s1", ephemeral_id(K1, 5): "s2"}
        schedule = IdSchedule(KEYS, PARAMS)
        resolver = RotatingResolver(static, schedule, tv=False)
        for key, slot in ((K1, 0), (K2, 9), (K1, 5)):
            schedule.id_at(key, slot)
        assert resolver.resolve(ephemeral_id(K1, 0), 500.0) == "b1"  # slot 8, outside the window
        assert resolver.resolve(ephemeral_id(K2, 9), 0.0) == "b2"
        assert resolver.resolve(ephemeral_id(K2, 0), 0.0) is None  # never derived
        assert resolver.resolve(ephemeral_id(K1, 5), 300.0) == "s2"  # the static table first
        assert resolver.resolve(BeaconId(b"\x01" * 20), 0.0) == "s1"
        assert resolver.resolve(BeaconId(b"\x00" * 20), 0.0) is None
        assert resolver.filters_built == 0

    def test_without_tv_a_miss_is_not_memoized(self):
        # at one byte a tag's ID collides with an owner ID of some slot; it
        # resolves to that owner once the owner's ID of that slot is derived
        params = EphemeralParams(id_width=1)
        schedule = IdSchedule(KEYS, params)
        resolver = RotatingResolver({}, schedule, tv=False)
        tag_id = schedule.id_at(bytes(range(16)), 0)
        slot = next(s for s in range(1000) if ephemeral_id(K1, s, 1) == tag_id)
        assert resolver.resolve(tag_id, 0.0) is None
        schedule.id_at(K1, slot)
        assert resolver.resolve(tag_id, 0.0) == "b1"

    @pytest.mark.parametrize("keys", [KEYS, {"b2": K2, "b1": K1}])
    def test_truncated_collision_resolves_to_the_first_key(self, keys):
        params = EphemeralParams(slot_duration_s=60.0, window_slots=2, id_width=1)
        s1, s2 = _colliding_slots(params)
        shared = ephemeral_id(K1, s1, 1)
        first = next(iter(keys))
        t = (s1 + s2) // 2 * params.slot_duration_s  # both slots inside this window
        windowed = RotatingResolver({}, IdSchedule(keys, params))
        schedule = IdSchedule(keys, params)
        schedule.id_at(K2, s2), schedule.id_at(K1, s1)
        without_tv = RotatingResolver({}, schedule, tv=False)
        assert windowed.resolve(shared, t) == first
        assert without_tv.resolve(shared, t) == first
