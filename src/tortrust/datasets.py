"""Normalized input datasets: consensus, AS paths, clusters, geo, uptime.

Raw-format ingestion (CAIDA, RouteViews, MaxMind, consensus documents)
happens upstream; this module only defines the normalized record shapes
and reads/writes them as JSON-lines files inside a bundle directory:

    consensus.jsonl     one relay per line
    as_paths.jsonl      one directed AS-level path per line
    as_clusters.jsonl   one AS organization per line
    ixp_clusters.jsonl  one IXP organization per line
    geo.jsonl           one located entity per line ("relay:<fp>", "ixp:<id>")
    uptime.jsonl        one consensus epoch per line, listing Running relays

Each line is one record's JSON object: its dataclass fields by name, with
tuples as lists.  Reading ignores other keys and passes the known ones to
`validation.read_record`, by a table made from the dataclass fields: each
value must be of its field's kind (a boolean is not an integer, an
integer is a number, a list holds integers or strings as its field says)
and a field without a default must be present.  Lists become tuples.  A
line that is not such an object is a DatasetError naming file, line and,
for a bad value, the field.
"""

import os
from dataclasses import MISSING, asdict, dataclass, fields

from .errors import DatasetError, TrustModelError
from .files import json_text, parse_json, write_text
from .validation import REQUIRED, read_record


@dataclass(frozen=True)
class RelayRecord:
    fingerprint: str
    as_number: int
    guard: bool = False
    exit: bool = False
    bandwidth: int = 0
    family: tuple[str, ...] = ()
    os: str = ""
    ip: str = ""


@dataclass(frozen=True)
class PathRecord:
    src: int
    dst: int
    as_path: tuple[int, ...] = ()
    ixps: tuple[int, ...] = ()


@dataclass(frozen=True)
class ClusterRecord:
    org: str
    members: tuple[int, ...] = ()


@dataclass(frozen=True)
class GeoRecord:
    entity: str
    country: str
    lat: float = 0.0
    lon: float = 0.0


@dataclass(frozen=True)
class UptimeRecord:
    epoch: int
    running: tuple[str, ...] = ()


@dataclass(frozen=True)
class DatasetBundle:
    consensus: tuple = ()
    as_paths: tuple = ()
    as_clusters: tuple = ()
    ixp_clusters: tuple = ()
    geo: tuple = ()
    uptime: tuple = ()

    def check(self):
        """Raise DatasetError on internal inconsistencies."""
        fps = [r.fingerprint for r in self.consensus]
        if len(fps) != len(set(fps)):
            raise DatasetError("duplicate relay fingerprints in consensus")
        for rec in self.consensus:
            if not rec.fingerprint:
                raise DatasetError("relay with empty fingerprint")


# Bundle part -> record type; part "x" is stored in "x.jsonl".
_RECORDS = {
    "consensus": RelayRecord,
    "as_paths": PathRecord,
    "as_clusters": ClusterRecord,
    "ixp_clusters": ClusterRecord,
    "geo": GeoRecord,
    "uptime": UptimeRecord,
}


# Field annotation -> the value kind it must have.
_KINDS = {int: "an integer", bool: "a boolean", str: "a string",
          float: "a number", tuple[int, ...]: "a list of integers",
          tuple[str, ...]: "a list of strings"}
# Record type -> its fields, read from its dataclass fields.
_TABLES = {cls: {f.name: (_KINDS[f.type], REQUIRED if f.default is MISSING
                          else f.default) for f in fields(cls)}
           for cls in set(_RECORDS.values())}


def _decode(cls, data, where):
    """A `cls` record from a JSON object named `where`: unknown keys are
    ignored, and lists become tuples."""
    table = _TABLES[cls]
    values = read_record({key: value for key, value in data.items()
                          if key in table} if isinstance(data, dict) else data,
                         table, where, DatasetError)
    return cls(**{key: tuple(value) if table[key][0].startswith("a list")
                  else value for key, value in values.items()})


def save_bundle(bundle, directory):
    """One JSON object per record, every field, tuples as lists."""
    for name in _RECORDS:
        write_text(os.path.join(directory, f"{name}.jsonl"),
                   "".join(json_text(asdict(rec))
                           for rec in getattr(bundle, name)))


def load_bundle(directory):
    if not os.path.isdir(directory):
        raise DatasetError(f"bundle directory not found: {directory}")
    parts = {}
    for name, cls in _RECORDS.items():
        filename = f"{name}.jsonl"
        path = os.path.join(directory, filename)
        records = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    where = f"{filename}:{lineno}: bad record"
                    try:
                        data = parse_json(line)
                    except TrustModelError as exc:
                        raise DatasetError(f"{where}: {exc}") from exc
                    records.append(_decode(cls, data, where))
        parts[name] = tuple(records)
    bundle = DatasetBundle(**parts)
    bundle.check()
    return bundle
