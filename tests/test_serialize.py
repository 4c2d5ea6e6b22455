import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from diffdiss.serialize import json_dumps


class TestJson:
    def test_control_characters_escaped(self):
        text = json_dumps({"error": 'ValueError: line one\nline "two"\t\\ end'})
        assert json.loads(text) == {"error": 'ValueError: line one\nline "two"\t\\ end'}

    def test_plain_strings_unchanged(self):
        assert json_dumps({"kind": "audit", "name": "é ü"}) == '{"kind": "audit", "name": "é ü"}\n'

    @given(st.text(), st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_through_json_loads(self, text, x):
        back = json.loads(json_dumps([{text: x}, text, x]))
        assert back == [{text: x}, text, x]
        assert math.copysign(1.0, back[2]) == math.copysign(1.0, x)
