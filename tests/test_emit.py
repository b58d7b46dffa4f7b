import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kdsim.emit import (
    FloatColumn, RepeatedColumn, ResultEnvelope, emit, float_text, float_texts, structured_text,
    svg_bar_chart,
)


def pattern_envelope(orders, probs):
    payload = {"kind": "pattern", "generator": "test", "alpha": 2.0,
               "orders": list(orders), "probabilities": list(probs),
               "tail_mass": 0.0, "cutoff_warning": False}
    return ResultEnvelope(setup={"mode": "analytic"}, regime={}, payload=payload)


class TestFloatText:
    @pytest.mark.parametrize("value", [
        0.0, 1.0, -1.0, 1.0 / 3.0, 0.1, 2.4098669579418841e-17,
        1e300, 5e-324, -9.87654321e-5, math.pi,
    ])
    def test_round_trips_exactly(self, value):
        assert float(float_text(value)) == value

    def test_special_tokens(self):
        assert float_text(math.inf) == "Infinity"
        assert float_text(-math.inf) == "-Infinity"
        assert float_text(math.nan) == "NaN"
        # the tokens are the ones Python's json parser accepts
        assert json.loads(float_text(math.inf)) == math.inf

    def test_negative_zero(self):
        assert float_text(-0.0) == "-0"
        assert math.copysign(1.0, float(float_text(-0.0))) == -1.0
        assert float_texts([-0.0, 0.0]) == ["-0", "0"]
        assert float_texts([-0.0, math.nan]) == ["-0", "NaN"]  # the per-item fallback
        text = structured_text([-0.0, 1.5])
        assert text == "[-0, 1.5]"
        # "-0" has no fraction, so Python's json reads it as an int unless told otherwise
        assert math.copysign(1.0, json.loads(text, parse_int=float)[0]) == -1.0


# every kind of value a payload column may hold, edge cases drawn often
_EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1.7976931348623157e308])
_PY_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(), st.floats(allow_subnormal=True,
                                                             max_value=1e-300, min_value=-1e-300))
_VALUES = st.one_of(
    _PY_FLOATS,
    _PY_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-10**30, max_value=10**30),
)


class TestFloatTexts:
    @given(st.lists(_VALUES, max_size=40))
    def test_equals_per_item_text(self, xs):
        assert float_texts(xs) == [float_text(x) for x in xs]

    @given(st.lists(st.one_of(_PY_FLOATS, _PY_FLOATS.map(np.float64)), max_size=40))
    def test_structured_float_list_is_item_join(self, xs):
        expect = "[" + ", ".join(float_text(x) for x in xs) + "]"
        assert structured_text(xs) == expect
        assert structured_text(FloatColumn(xs)) == expect

    def test_accepts_any_iterable(self):
        assert float_texts(iter([0.5, 2])) == ["0.5", "2"]
        assert float_texts(()) == []

    def test_column_texts_formatted_once(self):
        column = FloatColumn([0.1, 0.25])
        assert column == [0.1, 0.25]
        assert column.texts is column.texts
        assert column.texts == ["0.10000000000000001", "0.25"]

    def test_repeated_column_texts_from_its_axis(self):
        axis = [0.1, -0.0, 2.5]
        for each, times in ((1, 1), (3, 1), (1, 4), (2, 3)):
            column = RepeatedColumn(axis, each=each, times=times)
            assert column == [v for v in axis for _ in range(each)] * times
            assert column.texts == float_texts(column)
            assert structured_text(column) == structured_text(list(column))


class TestStructuredText:
    def test_small_document_literal(self):
        doc = {"a": 1, "b": [1.5, True, None], "c": {"d": "x"}}
        expect = ('{\n  "a": 1,\n  "b": [1.5, true, null],\n'
                  '  "c": {\n    "d": "x"\n  }\n}')
        assert structured_text(doc) == expect

    def test_parses_back_equal(self):
        doc = {"f": 1.0 / 3.0, "n": None, "t": True, "s": "quote\"me",
               "arr": [1, 2.5, "x"], "nested": {"empty": {}}}
        assert json.loads(structured_text(doc)) == doc

    def test_numpy_values_accepted(self):
        doc = {"arr": np.array([1.5, 2.5]), "i": np.int64(3),
               "f": np.float64(0.25), "b": np.bool_(True)}
        parsed = json.loads(structured_text(doc))
        assert parsed == {"arr": [1.5, 2.5], "i": 3, "f": 0.25, "b": True}

    def test_insertion_order_kept(self):
        text = structured_text({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            structured_text({"bad": {1, 2}})

    def test_infinity_survives(self):
        assert json.loads(structured_text({"x": math.inf}))["x"] == math.inf

    @pytest.mark.parametrize("items", [
        [0, -3, 12, 10**30], (5, -1), [True, False], [1, True, 0], [2, np.int64(7)],
        [np.int64(1), np.int64(-2)], [1, 2.5], [],
    ], ids=["ints", "int_tuple", "bools", "int_bool", "int_numpy", "numpy", "int_float", "empty"])
    def test_int_list_same_text_as_per_item(self, items):
        per_item = "[" + ", ".join(structured_text(v) for v in items) + "]"
        assert structured_text(items) == per_item


class TestEnvelope:
    def test_key_order(self):
        env = pattern_envelope([0], [1.0])
        assert list(env.as_dict()) == ["version", "setup", "regime", "payload"]

    def test_json_emission_deterministic(self):
        env = pattern_envelope([-1, 0, 1], [0.25, 0.5, 0.25])
        assert emit(env, "json") == emit(env, "json")
        parsed = json.loads(emit(env, "json").decode())
        assert parsed["payload"]["orders"] == [-1, 0, 1]


class TestCsv:
    def test_pattern_rows(self):
        env = pattern_envelope([-1, 0, 1], [0.25, 0.5, 0.25])
        lines = emit(env, "csv").decode().splitlines()
        assert lines[0] == "order,probability"
        assert lines[1] == "-1,0.25"
        assert len(lines) == 4

    def test_fit_scan_rows(self):
        payload = {"kind": "fit", "scan_r": [0.0, 1.0], "scan_chi2": [3.5, 0.5]}
        env = ResultEnvelope(setup={}, regime={}, payload=payload)
        lines = emit(env, "csv").decode().splitlines()
        assert lines == ["r_eff,chi2", "0,3.5", "1,0.5"]

    def test_region_rows(self):
        payload = {"kind": "region", "contours": [
            {"label": "inner", "d_tilde": [0.125], "q_tilde": [0.25]},
            {"label": "outer", "d_tilde": FloatColumn([0.375]), "q_tilde": FloatColumn([0.5])},
        ]}
        env = ResultEnvelope(setup={}, regime={}, payload=payload)
        lines = emit(env, "csv").decode().splitlines()
        assert lines == ["d_tilde,q_tilde", "0.125,0.25", "0.375,0.5"]

    def test_non_finite_cells(self):
        payload = {"kind": "scan", "d_tilde": [0.0, -0.0], "q_tilde": [math.nan, 0.5],
                   "r_eff": [math.inf, 1.0], "p0": [-math.inf, 0.25]}
        env = ResultEnvelope(setup={}, regime={}, payload=payload)
        assert emit(env, "csv").decode().splitlines()[1:] == [
            "0,NaN,Infinity,-Infinity", "-0,0.5,1,0.25"]

    def test_scan_rows(self):
        payload = {"kind": "scan", "d_tilde": [0.0], "q_tilde": [0.1],
                   "r_eff": [0.8], "p0": [0.5]}
        env = ResultEnvelope(setup={}, regime={}, payload=payload)
        assert emit(env, "csv").decode().splitlines()[0] == "d_tilde,q_tilde,r_eff,p0"

    def test_non_tabular_payload_rejected(self):
        env = ResultEnvelope(setup={}, regime={}, payload={"kind": "regime"})
        with pytest.raises(ValueError, match="no CSV form"):
            emit(env, "csv")


class TestSvg:
    def test_parses_and_counts_bars(self):
        env = pattern_envelope(range(-3, 4), [0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05])
        root = ET.fromstring(emit(env, "svg").decode())
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 7

    def test_bar_heights_scale_with_probability(self):
        env = pattern_envelope([0, 1], [1.0, 0.5])
        root = ET.fromstring(emit(env, "svg").decode())
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        h0, h1 = (float(r.get("height")) for r in rects)
        assert h1 == pytest.approx(0.5 * h0, rel=1e-3)

    def test_only_patterns_have_charts(self):
        env = ResultEnvelope(setup={}, regime={}, payload={"kind": "scan"})
        with pytest.raises(ValueError, match="svg"):
            emit(env, "svg")

    def test_deterministic(self):
        env = pattern_envelope([0, 1, 2], [0.5, 0.3, 0.2])
        assert svg_bar_chart(env.payload) == svg_bar_chart(env.payload)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        emit(pattern_envelope([0], [1.0]), "yaml")
