import ast
import math
import os
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tortrust
from tortrust.errors import InvalidInputError
from tortrust.validation import (REQUIRED, VALUE_KINDS, _fits, is_probability,
                                 is_real, read_record)

SRC = os.path.dirname(tortrust.__file__)


def _bool(v):
    return isinstance(v, (bool, np.bool_))


def _real(v):
    """A finite int or float in the float range, written apart from
    `validation.is_real`: an int is compared exactly, a float by isfinite."""
    if _bool(v):
        return False
    if isinstance(v, (int, np.integer)):
        return abs(int(v)) <= sys.float_info.max
    return isinstance(v, (float, np.floating)) and math.isfinite(v)


def _list(v):
    return type(v) in (list, tuple)


# The kinds in the order a value is named by: the first that fits it.
_KINDS = {
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: isinstance(v, (int, np.integer))
    and not _bool(v),
    "a number": _real,
    "a boolean": lambda v: type(v) is bool,
    "a list": _list,
    "a list of strings": lambda v: _list(v)
    and all(type(s) is str for s in v),
    "a list of integers": lambda v: _list(v)
    and all(isinstance(s, (int, np.integer)) and not _bool(s) for s in v),
    "an object": lambda v: type(v) is dict,
    "a probability": lambda v: _real(v) and 0 <= v <= 1,
    "a list of probabilities": lambda v: _list(v)
    and all(_real(p) and 0 <= p <= 1 for p in v),
    "an object of objects": lambda v: type(v) is dict
    and all(type(x) is dict for x in v.values()),
}

_SCALARS = st.one_of(
    st.integers(), st.sampled_from([10 ** 308, 2 * 10 ** 308, -10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -0.0]),
    st.sampled_from([np.float32("inf"), np.float32("-inf"),
                     np.float16("nan"), np.float32(3e38), np.int64(-2 ** 63),
                     np.uint64(2 ** 64 - 1)]),
    st.booleans(), st.none(), st.text(max_size=3),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans().map(np.bool_))
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=3),
    st.lists(st.integers(), max_size=3), st.lists(st.booleans(), max_size=2),
    st.lists(st.text(max_size=2), max_size=3),
    st.lists(st.text(max_size=2), max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_value_rules_match_a_reference(value):
    assert is_real(value) == _real(value)
    assert is_probability(value) == (_real(value) and 0 <= value <= 1)
    assert list(VALUE_KINDS) == list(_KINDS)
    for kind, fits in VALUE_KINDS.items():
        assert fits(value) == _KINDS[kind](value), kind


def test_value_rules_edge_cases():
    for value in (0, 1, 0.5, np.float32(1.0), np.int8(0), 1e-300):
        assert is_probability(value)
    for value in (True, False, np.bool_(True), math.nan, -1e-300, 1.0001,
                  "0.5", None, [0.5]):
        assert not is_probability(value)
    assert is_real(sys.float_info.max) and not is_real(10 ** 400)
    assert not is_real(np.float32("inf")) and is_real(np.float32(3e38))


def test_files_module_is_the_only_json_reader():
    """json.load, json.loads and a JSONDecoder appear only in files.py, so
    every input file is read by `files.parse_json` and is strict JSON."""
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and getattr(node.value, "id", None) == "json" \
                    and node.attr in ("load", "loads", "JSONDecoder"):
                found.add(name)
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.add(name)
    assert found == {"files.py"}


# Columns for the reader: the values above, integers past int64 and
# numbers at the edge of the float range.
_COLUMN_VALUES = st.one_of(
    _VALUES, st.integers(2 ** 63, 2 ** 70), st.integers(-2 ** 70, -2 ** 63),
    st.sampled_from([int(sys.float_info.max), int(sys.float_info.max) + 1,
                     2 ** 1024, sys.float_info.max, -sys.float_info.max,
                     [0.5, 1], [0.5, True], {"a": {}}, {"a": {}, "b": 1}]))


def _plain(value):
    """Whether `value` holds only plain JSON types, its numbers away from
    the edge of the float range."""
    if type(value) in (int, float):
        return not 2 ** 1023 <= abs(value) <= 2 ** 1024
    if type(value) in (list, dict):
        return all(map(_plain, value.values() if type(value) is dict
                       else value))
    return type(value) in (str, bool, type(None))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(VALUE_KINDS)),
       st.lists(_COLUMN_VALUES, max_size=5))
def test_column_test_accepts_what_the_walk_accepts(kind, column):
    """The reader's test of a whole column accepts a column of plain values
    exactly when the walk accepts every value, and never accepts one that
    the walk rejects.  The reader accepts what the walk accepts, and names
    the first value the walk rejects."""
    fits = [VALUE_KINDS[kind](value) for value in column]
    if _fits(kind, column):
        assert all(fits)
    elif all(map(_plain, column)):
        assert not all(fits)
    table = {"rows": ({"f": (kind, REQUIRED)}, [])}
    try:
        got = read_record({"rows": [{"f": v} for v in column]}, table,
                          "file", InvalidInputError)
    except InvalidInputError as exc:
        assert str(exc).startswith(f"rows[{fits.index(False)}]: 'f' must be "
                                   f"{kind}, not ")
    else:
        assert all(fits) and got["rows"]["f"] == column
