"""The one way the package writes a file, and its JSON and CSV text.

Writes are atomic: a failed write leaves the old file and no temporary
file.  The temporary file is made by plain `open()`, so outputs get the
mode the umask gives (0644 under 022).
"""

import csv
import io
import json
import os


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
