"""Scenario loading: every malformed document ends in a typed error."""

import pytest
import yaml

from beaconlab import BeaconLabError, SchemaError, ValidationError, load_scenario
from conftest import AA, static_beacon


def _doc_text(duration: str) -> str:
    doc = {
        "beacons": [static_beacon("b1", 0, AA)],
        "content": [{"id_hex": AA, "locator": "app://one"}],
        "devices": [{"ref": "phone", "path": [[0.0, [0.0, 1.0]]]}],
    }
    return yaml.safe_dump(doc) + f"duration_s: {duration}\n"


class TestDuration:
    @pytest.mark.parametrize("text, error", [
        (".inf", ValidationError),  # run would never reach the end
        (".nan", ValidationError),
        ("-.inf", ValidationError),
        ("0", ValidationError),
        ("-5", ValidationError),
        ("abc", SchemaError),
        ("[1]", SchemaError),
        ("{a: 1}", SchemaError),
    ])
    def test_rejected_with_a_typed_error(self, text, error):
        with pytest.raises(error, match="duration_s") as info:
            load_scenario(_doc_text(text))
        assert isinstance(info.value, BeaconLabError)

    @pytest.mark.parametrize("text, expected", [("12.5", 12.5), ("30", 30.0), ("'45'", 45.0)])
    def test_finite_positive_values_load(self, text, expected):
        assert load_scenario(_doc_text(text)).duration_s == expected
