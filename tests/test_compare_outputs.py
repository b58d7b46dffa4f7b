import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_list_and_column_moves_in_ulps_of_their_largest_value():
    # a near-zero item moved by rounding of the list's scale is under one ulp of it
    old = {"p": [1.0, 1e-17], "scalar": 1e-17}
    new = {"p": [1.0, 2e-17], "scalar": 2e-17}
    keys = compare_outputs._key_changes(old, new)
    assert keys["p"][0] == 1e-17 and keys["p"][1] <= 1.0
    # a scalar key keeps the unit of the larger of its two numbers
    assert keys["scalar"][1] > 1e15
    diff, ulps = compare_outputs._number_change("p,q\n1.0,5\n1e-17,6\n", "p,q\n1.0,5\n2e-17,6\n")
    assert diff == 1e-17 and ulps <= 1.0
