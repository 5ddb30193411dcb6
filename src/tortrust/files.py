"""The one way the package writes a file, its JSON and CSV text, and the
one JSON reader of every input file.

Writes are atomic: a failed write leaves the old file and no temporary
file.  The temporary file is made by plain `open()`, so outputs get the
mode the umask gives (0644 under 022).  Reading is strict JSON (RFC 8259):
NaN, Infinity and -Infinity, which Python's json module reads by default,
are a json.JSONDecodeError that names the constant.  Writing keeps them,
so that an infinite result can be reported.
"""

import csv
import io
import json
import os
import re

# A JSON string, or (group 1) a non-finite constant outside any string.
_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


class _NonFinite(Exception):
    """A NaN, Infinity or -Infinity met by the decoder."""


def _refuse(constant):
    raise _NonFinite(constant)


_DECODER = json.JSONDecoder(parse_constant=_refuse)


def parse_json(text):
    """The value of the JSON text `text`; json.JSONDecodeError where it is
    not strict JSON."""
    try:
        return _DECODER.decode(text)
    except _NonFinite as exc:
        at = next(m for m in _CONSTANT.finditer(text) if m.group(1)).start(1)
        raise json.JSONDecodeError(f"{exc} is not a JSON number", text,
                                   at) from None


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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
