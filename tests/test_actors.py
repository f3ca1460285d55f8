import pytest

from beaconlab import (
    AppSpec,
    BeaconId,
    InvalidInput,
    Observation,
    PersonalTag,
    UserDevice,
    proximity_decision,
)
from conftest import AA


def obs(rssi: float, claimed: float = -59.0) -> Observation:
    return Observation(0.0, BeaconId(bytes.fromhex(AA)), rssi, claimed)


def device(**kw) -> UserDevice:
    kw.setdefault("ref", "phone")
    kw.setdefault("path", ((0.0, (0.0, 0.0)),))
    return UserDevice(**kw)


class TestUserDevice:
    def test_position_interpolates_and_clamps(self):
        d = device(path=((0.0, (0.0, 0.0)), (10.0, (20.0, 0.0))))
        assert d.position_at(-5.0) == (0.0, 0.0)
        assert d.position_at(5.0) == (10.0, 0.0)
        assert d.position_at(99.0) == (20.0, 0.0)

    def test_single_waypoint_is_stationary(self):
        d = device(path=((3.0, (4.0, 5.0)),))
        assert d.position_at(0.0) == (4.0, 5.0)
        assert d.position_at(100.0) == (4.0, 5.0)

    def test_waypoint_times_must_increase(self):
        with pytest.raises(InvalidInput, match="strictly increase"):
            device(path=((0.0, (0.0, 0.0)), (0.0, (1.0, 0.0))))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("proximity_threshold_m", 0.0),
            ("scan_window_s", -1.0),
            ("lookup_budget", 0),
            ("content_retrigger_s", -0.1),
        ],
    )
    def test_rejects_nonsense_parameters(self, field, value):
        with pytest.raises(InvalidInput):
            device(**{field: value})

    def test_malicious_app_needs_authorization_too(self):
        d = device(apps=(AppSpec("mapper", authorized=False, malicious=True),))
        assert not d.has_malicious_authorized_app()
        d = device(apps=(AppSpec("mapper", authorized=True, malicious=True),))
        assert d.has_malicious_authorized_app()


class TestPersonalTag:
    def test_exactly_one_identity_source(self):
        with pytest.raises(InvalidInput, match="exactly one"):
            PersonalTag("tag", "phone", 1000.0)
        with pytest.raises(InvalidInput, match="exactly one"):
            PersonalTag(
                "tag",
                "phone",
                1000.0,
                static_id=BeaconId(bytes.fromhex(AA)),
                key=b"k" * 16,
            )

    def test_key_length(self):
        with pytest.raises(InvalidInput, match="16 bytes"):
            PersonalTag("tag", "phone", 1000.0, key=b"short")

    def test_interval_positive(self):
        with pytest.raises(InvalidInput):
            PersonalTag("tag", "phone", 0.0, key=b"k" * 16)


class TestProximityDecision:
    def test_boundary_is_inclusive(self):
        # rssi == claimed puts the estimate at exactly 1 m
        assert proximity_decision([obs(-59.0)], 1.0, 2.0)

    def test_far_frame(self):
        # -59 - 20*log10(10) = -79 -> 10 m
        assert not proximity_decision([obs(-79.0)], 5.0, 2.0)

    def test_flood_drags_the_mean(self):
        # 3 honest frames at 1 m pooled with 30 frames whose claimed power
        # is 34 dB above what the radio actually delivers; each of those
        # estimates ~50.1 m, so the mean lands around 45.6 m.
        genuine = [obs(-59.0) for _ in range(3)]
        flood = [obs(-79.0, claimed=-45.0) for _ in range(30)]
        pooled = genuine + flood
        mean = (3 * 1.0 + 30 * 10 ** (34 / 20)) / 33
        assert mean == pytest.approx(45.653, abs=1e-3)
        assert not proximity_decision(pooled, 5.0, 2.0)
        assert proximity_decision(genuine, 5.0, 2.0)

    def test_empty_window_rejected(self):
        with pytest.raises(InvalidInput):
            proximity_decision([], 5.0, 2.0)
        with pytest.raises(InvalidInput):
            proximity_decision([obs(-59.0)], 0.0, 2.0)
