import math

import pytest
import yaml

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
    load_matrix,
    load_scenario,
)
from beaconlab import model
from beaconlab.model import _parse_document
from conftest import AA, BB, CC, KEY1, ephemeral_beacon, static_beacon
from test_golden import SCENARIOS as GOLDEN_SCENARIOS


def obs(t, id_hex=AA, rssi=-60.0):
    return Observation(t, BeaconId.from_hex(id_hex), rssi, -59.0)


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
    for times in ((math.nan, 1.0), (1.0, math.nan), (0.0, math.nan, 2.0)):
        with pytest.raises(InvalidInput, match="time-ordered"):
            Trace("dev", tuple(obs(t) for t in times))
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

    @pytest.mark.parametrize("width", [0, 33])
    def test_id_width_outside_1_to_32_rejected(self, width):
        # a rotating ID is a 32-byte HMAC-SHA256 digest cut to the width
        doc = {
            "id_width": width,
            "beacons": [static_beacon("b1", 0, "aa" * 33)],
            "content": [{"id_hex": "aa" * 33, "locator": "app://x"}],
        }
        with pytest.raises(ValidationError, match=r"id_width must be in 1\.\.32"):
            load_deployment(doc)

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


_HAND_WRITTEN = """
# anchors, flow style, YAML 1.1 scalars and comments
base: &b {x: 0.0, y: -1.5e1, tx_power_1m: -59, adv_interval_ms: 0x3E8}
beacons:
  - {<<: *b, ref: b1, id_hex: "%s"}
  - <<: *b
    ref: b2
    id_mode: ephemeral
    key_hex: '%s'
flags: [yes, no, on, off, ~, .inf, -.inf, .nan, 1_000, 2001-12-14]
text: |
  two
  lines
""" % (AA, KEY1)


def _yaml_texts():
    docs = [doc() for doc in GOLDEN_SCENARIOS.values()]
    texts = [yaml.safe_dump(doc) for doc in docs]
    texts += [yaml.safe_dump(doc, default_flow_style=True) for doc in docs]
    return texts + [_HAND_WRITTEN]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoader:
    """Documents parse through libyaml; it must read them as yaml.SafeLoader does."""

    def test_libyaml_and_pure_loaders_agree(self, static_doc, ephemeral_doc):
        texts = _yaml_texts() + [yaml.safe_dump(static_doc), yaml.safe_dump(ephemeral_doc)]
        for text in texts:
            pure = yaml.load(text, Loader=yaml.SafeLoader)
            # repr, because .nan never equals itself
            assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(pure)
            assert repr(_parse_document(text)) == repr(pure)
            assert repr(_parse_document(text.encode())) == repr(pure)

    @pytest.mark.parametrize("text", [
        "beacons: [1,", "\tbeacons: 1", "a: *missing", "--- 1\n--- 2", "a: \x07",
        b"a: \xc3\x28", "!!python/object:os.system {}", "[" * 5000,
    ], ids=["unclosed", "tab", "alias", "two-docs", "control-char", "bad-utf8",
            "python-tag", "deep-nesting"])
    def test_unparseable_text_is_a_schema_error(self, text):
        with pytest.raises(SchemaError, match="unparseable"):
            load_deployment(text)
        with pytest.raises(SchemaError, match="unparseable"):
            load_scenario(text)
        with pytest.raises(SchemaError, match="unparseable"):
            load_matrix(text)


def test_deep_nesting_without_libyaml_is_a_schema_error(monkeypatch):
    # the pure-Python loader recurses once per level and runs out of stack
    monkeypatch.setattr(model, "_YAML_LOADER", yaml.SafeLoader)
    for load in (load_deployment, load_matrix):
        with pytest.raises(SchemaError, match="unparseable"):
            load("[" * 5000)
