import pytest

from beaconlab import (
    BeaconId,
    ContentRef,
    InvalidInput,
    Observation,
    SchemaError,
    StaticId,
    Trace,
    ValidationError,
    adjacency_from_positions,
    load_deployment,
)
from conftest import AA, BB, CC, KEY1, ephemeral_beacon, static_beacon


def obs(t, id_hex=AA, rssi=-60.0):
    return Observation(t, "dev", BeaconId.from_hex(id_hex), rssi, -59.0)


class TestBeaconId:
    def test_round_trips_hex(self):
        bid = BeaconId.from_hex(AA)
        assert bid.hex() == AA
        assert len(bid) == 20

    def test_rejects_empty_and_bad_hex(self):
        with pytest.raises(InvalidInput):
            BeaconId(b"")
        with pytest.raises(InvalidInput):
            BeaconId.from_hex("zz")

    def test_repr_shows_hex(self):
        assert AA in repr(BeaconId.from_hex(AA))


def test_content_ref_requires_locator():
    with pytest.raises(InvalidInput):
        ContentRef(locator="")


def test_trace_must_be_time_ordered():
    with pytest.raises(InvalidInput):
        Trace("dev", (obs(2.0), obs(1.0)))
    # equal timestamps are legitimate: two frames in the same loop step
    Trace("dev", (obs(1.0), obs(1.0)))


class TestLoadDeployment:
    def test_happy_path(self, static_doc):
        static_doc["beacons"].append(ephemeral_beacon("b3", 40, KEY1))
        static_doc["content"].append({"ref": "b3", "locator": "app://three"})
        dep = load_deployment(static_doc)
        assert dep.refs() == ("b1", "b2", "b3")
        assert dep.has_ephemeral()
        assert dep.owner_keys == {"b3": bytes.fromhex(KEY1)}
        assert dep.static_ids() == {
            BeaconId.from_hex(AA): "b1",
            BeaconId.from_hex(BB): "b2",
        }
        # static beacons are reachable by ref as well, for uniform serving
        assert dep.content_by_ref["b1"].locator == "app://one"
        assert dep.content_by_ref["b3"].locator == "app://three"
        assert dep.beacon("b2").position == (20.0, 0.0)
        with pytest.raises(KeyError):
            dep.beacon("nope")

    def test_duplicate_ref_rejected(self, static_doc):
        static_doc["beacons"].append(static_beacon("b1", 5, CC))
        with pytest.raises(ValidationError, match="duplicate beacon ref"):
            load_deployment(static_doc)

    def test_duplicate_static_id_names_both_beacons(self, static_doc):
        static_doc["beacons"].append(static_beacon("b3", 5, AA))
        with pytest.raises(ValidationError) as err:
            load_deployment(static_doc)
        assert "b1" in str(err.value) and "b3" in str(err.value)

    def test_static_beacon_needs_content(self, static_doc):
        static_doc["content"].pop(0)
        with pytest.raises(ValidationError, match="b1"):
            load_deployment(static_doc)

    def test_ephemeral_beacon_needs_ref_content(self, ephemeral_doc):
        ephemeral_doc["content"].pop(0)
        with pytest.raises(ValidationError, match="b1"):
            load_deployment(ephemeral_doc)

    def test_short_ephemeral_key_rejected(self, ephemeral_doc):
        ephemeral_doc["beacons"][0]["key_hex"] = "11" * 8
        with pytest.raises(ValidationError, match="at least 16"):
            load_deployment(ephemeral_doc)

    def test_id_width_mismatch_rejected(self, static_doc):
        static_doc["beacons"][0]["id_hex"] = "aa" * 4
        with pytest.raises(ValidationError, match="width"):
            load_deployment(static_doc)

    def test_custom_id_width(self):
        doc = {
            "id_width": 4,
            "beacons": [static_beacon("b1", 0, "aa" * 4)],
            "content": [{"id_hex": "aa" * 4, "locator": "app://x"}],
        }
        assert load_deployment(doc).id_width == 4

    def test_unknown_content_ref_rejected(self, static_doc):
        static_doc["content"].append({"ref": "ghost", "locator": "app://x"})
        with pytest.raises(ValidationError, match="ghost"):
            load_deployment(static_doc)

    def test_duplicate_content_entries_rejected(self, static_doc):
        static_doc["content"].append({"id_hex": AA, "locator": "app://again"})
        with pytest.raises(ValidationError, match="duplicate content"):
            load_deployment(static_doc)

    def test_schema_errors(self, static_doc):
        with pytest.raises(SchemaError):
            load_deployment({"beacons": []})
        with pytest.raises(SchemaError):
            load_deployment("[not a mapping]")
        static_doc["beacons"][0]["id_mode"] = "wobbly"
        with pytest.raises(SchemaError, match="wobbly"):
            load_deployment(static_doc)

    def test_unknown_top_level_keys_ignored(self, static_doc):
        static_doc["devices"] = [{"ref": "phone", "x": 0, "y": 0}]
        load_deployment(static_doc)


class TestAdjacency:
    def test_radius_builds_symmetric_irreflexive_edges(self, static_doc):
        static_doc["beacons"].append(static_beacon("b3", 100, CC))
        static_doc["content"].append({"id_hex": CC, "locator": "app://three"})
        dep = load_deployment(static_doc)
        assert dep.neighbors("b1") == frozenset({"b2"})
        assert dep.neighbors("b2") == frozenset({"b1"})
        assert dep.neighbors("b3") == frozenset()
        assert "b1" not in dep.neighbors("b1")

    def test_explicit_edges(self, static_doc):
        del static_doc["adjacency_radius_m"]
        static_doc["adjacency"] = [["b1", "b2"]]
        dep = load_deployment(static_doc)
        assert dep.neighbors("b2") == frozenset({"b1"})

    def test_both_forms_rejected(self, static_doc):
        static_doc["adjacency"] = [["b1", "b2"]]
        with pytest.raises(SchemaError, match="not both"):
            load_deployment(static_doc)

    def test_edge_validation(self, static_doc):
        del static_doc["adjacency_radius_m"]
        static_doc["adjacency"] = [["b1", "ghost"]]
        with pytest.raises(ValidationError, match="ghost"):
            load_deployment(static_doc)
        static_doc["adjacency"] = [["b1", "b1"]]
        with pytest.raises(ValidationError, match="self-loop"):
            load_deployment(static_doc)

    def test_rebuild_replaces_existing(self, static_doc):
        dep = load_deployment(static_doc)
        rebuilt = adjacency_from_positions(dep, 5.0)
        assert rebuilt.neighbors("b1") == frozenset()
        with pytest.raises(InvalidInput):
            adjacency_from_positions(dep, 0.0)


def test_static_id_mode_carries_the_id(static_doc):
    dep = load_deployment(static_doc)
    mode = dep.beacon("b1").id_mode
    assert isinstance(mode, StaticId)
    assert mode.id == BeaconId.from_hex(AA)
