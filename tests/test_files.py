import ast
import csv
import io
import json
import os
import re
import stat

import pytest

import tortrust
from tortrust.errors import JsonSyntaxError
from tortrust.files import (atomic_write, csv_text, json_text, parse_json,
                            read_json, write_text)

SRC = os.path.dirname(tortrust.__file__)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_failed_write_keeps_old_bytes_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old\n")

    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("half a fi")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        atomic_write(str(target), write)
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_replaces_and_takes_the_umask_mode(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    target = tmp_path / "sub" / "out.txt"
    write_text(str(target), "first\n")
    write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert _mode(target) == _mode(plain)
    assert os.listdir(target.parent) == ["out.txt"]


def test_json_and_csv_text():
    assert json_text({"b": [1], "a": None}) == '{"a":null,"b":[1]}\n'
    text = csv_text(["id", "p"], [['as:1,2', "0.5"], ['q"x (y)', 1]])
    assert text == 'id,p\n"as:1,2",0.5\n"q""x (y)",1\n'
    assert list(csv.reader(io.StringIO(text))) == [
        ["id", "p"], ["as:1,2", "0.5"], ['q"x (y)', "1"]]


def test_files_module_is_the_only_writer():
    """Renames, temporary files and JSON dumps to a file live in files.py,
    and so does the JSON layout: no other module passes a json.dump or
    json.dumps call `indent`, `sort_keys` or `separators`."""
    layouts = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "files.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            source = fh.read()
        assert not re.search(r"os\.replace|tempfile|json\.dump\(", source), \
            name
        layouts[name] = [
            (call.lineno, keyword.arg) for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and getattr(
                call.func, "attr", getattr(call.func, "id", None))
            in ("dump", "dumps") for keyword in call.keywords
            if keyword.arg in ("indent", "sort_keys", "separators")]
    assert not {name: calls for name, calls in layouts.items() if calls}


@pytest.mark.parametrize("text, constant, where", [
    ('[1, NaN]', "NaN", "line 1 column 5 (char 4)"),
    ('{"a": "NaN, Infinity", "b":\n  -Infinity}', "-Infinity",
     "line 2 column 3 (char 30)"),
    ('{"x\\"": [Infinity]}', "Infinity", "line 1 column 10 (char 9)"),
])
def test_parse_json_refuses_non_finite_constants(text, constant, where):
    with pytest.raises(json.JSONDecodeError) as info:
        parse_json(text)
    assert str(info.value) == f"{constant} is not a JSON number: {where}"


def test_read_json_reads_strict_json_and_writers_keep_infinity(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": ["NaN", 1e308, -0.5], "b": null}')
    assert read_json(str(path)) == {"a": ["NaN", 1e308, -0.5], "b": None}
    assert json_text([float("inf")]) == "[Infinity]\n"
    with pytest.raises(json.JSONDecodeError, match="^Expecting value"):
        parse_json("[1,")


@pytest.mark.parametrize("text, message", [
    ('{"size": 1e400}', "number overflows a float: line 1 column 10 (char 9)"),
    ('["1e400", -12.5e308, 0]',
     "number overflows a float: line 1 column 11 (char 10)"),
    ('[1e-400, "' + "9" * 5000 + '", ' + "9" * 4301 + ']',
     "integer has more than 4300 digits: line 1 column 5014 (char 5013)"),
    ("[" * 100_000 + "]" * 100_000,
     "nesting is too deep: line 1 column 100000 (char 99999)"),
])
def test_parse_json_refuses_what_python_reads_apart(text, message):
    """An overflowing float literal, an integer int() does not convert and
    nesting past the recursion limit are each a JSONDecodeError (and a
    ParseError) naming the literal or the deepest bracket."""
    with pytest.raises(JsonSyntaxError) as info:
        parse_json(text)
    assert isinstance(info.value, json.JSONDecodeError)
    assert str(info.value) == message


def test_parse_json_keeps_what_is_in_range():
    text = '[1e308, -1e-400, 1.5E+2, ' + "9" * 4300 + ', "1e400"]'
    assert parse_json(text) == [1e308, -0.0, 150.0, int("9" * 4300), "1e400"]
