"""Float text: `format_floats` writes the bytes of `format_float` per value;
`dumps` takes the column path for all-float lists only."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spingarch.textdoc import dumps, format_float, format_floats, loads

EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 9999999999999998.0, 99999999999999984.0, 1e17,
               -1e17, 1e22, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1e308, 1.7976931348623157e308,
               2.0**53, 1e-5, 123456789.0, 0.1]


def _per_value(values, sep):
    return sep.join(map(format_float, values))


@pytest.mark.parametrize("sep", [",", "\n"])
@pytest.mark.parametrize("kind", [list, np.asarray])
def test_edge_values(sep, kind):
    assert format_floats(kind(EDGE_VALUES), sep) == _per_value(EDGE_VALUES, sep)


@pytest.mark.parametrize("value, text", [(0.0, "0.0"), (-0.0, "-0.0"), (1e16, "10000000000000000.0"),
                                         (9999999999999998.0, "9999999999999998.0"), (1e17, "1e+17"),
                                         (1e22, "1e+22"), (float("nan"), "nan"), (float("-inf"), "-inf"),
                                         (5e-324, "4.9406564584124654e-324")])
def test_pinned_bytes(value, text):
    assert format_float(value) == format_floats([value]) == text


@pytest.mark.parametrize("kind", [list, np.asarray])
def test_empty_column(kind):
    assert format_floats(kind([])) == "" == _per_value([], ",")


def test_separator_with_a_percent_sign():
    assert format_floats([1.0, 0.25], " % ") == "1.0 % 0.25"


def test_rows_one_per_line():
    table = np.array([[1.0, 0.5], [2.0, float("nan")], [1e17, -0.0]])
    assert format_floats(table) == "\n".join(_per_value(row, ",") for row in table)
    assert format_floats(table, ";").splitlines()[0] == "1.0;0.5"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=40), sep=st.sampled_from([",", "\n"]))
def test_any_float64_bit_pattern(bits, sep):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert format_floats(values, sep) == _per_value(values.tolist(), sep)
    assert format_floats(values.tolist(), sep) == _per_value(values.tolist(), sep)


def test_dumps_writes_float_lists_by_column_and_mixed_lists_by_value():
    tree = {"floats": [1.0, 0.1, -0.0, 1e17], "mixed": [1, 2.0, True, "nb(1,0)"], "ints": [3, 4],
            "numpy": [np.float64(2.0)], "empty": []}
    text = dumps(tree)
    assert text == ("floats: [1.0,0.10000000000000001,-0.0,1e+17]\n"
                    "mixed: [1,2.0,true,nb(1,0)]\n"
                    "ints: [3,4]\n"
                    "numpy: [2.0]\n"
                    "empty: []\n")
    assert loads(text)["floats"] == [1.0, 0.1, -0.0, 1e17]


def test_loads_skips_comment_and_blank_lines():
    # a comment may sit at any indent, and a blank line may hold spaces
    text = "# spingarch 0.1.0\nfit:\n  n: 3\n\n  # a note\n   # odd indent\n  k: [1,2.5]\n   \ntop: x\n"
    assert loads(text) == {"fit": {"n": 3, "k": [1, 2.5]}, "top": "x"}
