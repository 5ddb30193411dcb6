"""The one way the package writes a file, its JSON and CSV text, and the
one JSON reader of every input file.

Writes are atomic: a failed write leaves the old file and no temporary
file.  The temporary file is made by plain `open()`, so outputs get the
mode the umask gives (0644 under 022).  Reading is strict JSON (RFC 8259):
NaN, Infinity and -Infinity, which Python's json module reads by default, a
number that overflows a float, an integer of more digits than int() reads
and nesting past the recursion limit are a JsonSyntaxError (a
json.JSONDecodeError) that names the place.  Writing keeps NaN and
Infinity, so that an infinite result can be reported.  Every JSON file and
report is written as one line with sorted keys by `json_text`, the one
encoder.
"""

import csv
import io
import json
import math
import os
import re
import sys

from .errors import JsonSyntaxError

# A JSON string, or outside any string a constant or number literal (group
# 1) or a bracket (group 2).
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN|-?\d[-+.\deE]*)'
                    r'|([][{}])')


class _Refused(Exception):
    """A literal that strict JSON refuses, met by the decoder; its one
    argument is the message."""


def _refuse(literal):
    raise _Refused(f"{literal} is not a JSON number")


def _finite(literal):
    value = float(literal)
    if math.isinf(value):
        raise _Refused("number overflows a float")
    return value


_DECODER = json.JSONDecoder(parse_constant=_refuse, parse_float=_finite)


def _refusal(literal):
    """The message the decoder refuses the lone `literal` with, or None."""
    try:
        _DECODER.decode(literal)
    except _Refused as exc:
        return str(exc)
    except ValueError:                  # int() of more digits than it reads
        return f"integer has more than {sys.get_int_max_str_digits()} digits"


def parse_json(text):
    """The value of the JSON text `text`; JsonSyntaxError where it is not
    strict JSON."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        message, at = exc.msg, exc.pos
    except (_Refused, ValueError):      # the first literal refused
        message, at = next((refusal, m.start())
                           for m in _TOKEN.finditer(text) if m.group(1)
                           and (refusal := _refusal(m.group(1))))
    except RecursionError:
        message, at, depth, deepest = "nesting is too deep", 0, 0, 0
        for m in _TOKEN.finditer(text):
            depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(m.group(2), 0)
            if depth > deepest:
                at, deepest = m.start(), depth
    raise JsonSyntaxError(message, text, at) from None


def read_json(path):
    """The value of the JSON file at `path`, read by `parse_json`."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read())


def atomic_write(path, write):
    """Call write(tmp) on a new file beside `path`, then rename it over
    `path`; on failure remove the temporary file and re-raise."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    with open(tmp, "xb"):  # claims the name; never another writer's file
        pass
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text):
    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
    atomic_write(path, write)


def json_text(payload):
    """`payload` as one line of JSON, keys sorted, with no space after a
    separator, and a final newline: the form of every JSON file and report
    the package writes.  With no indent Python's C encoder writes the text
    (an indent falls back to the pure-Python one)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
