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
tuples as lists.  Reading takes the known fields, ignores other keys,
checks each value against its field's type (a boolean is not an integer,
an integer is a float, a list holds integers or strings as its field
says), turns lists back into tuples and requires the
fields without a default; a line that is not such an object is a
DatasetError naming file, line and, for a bad value, the field.
"""

import json
import os
from dataclasses import MISSING, asdict, dataclass, fields

from .errors import DatasetError, InvalidInputError, TrustModelError
from .files import parse_json, write_text
from .validation import VALUE_KINDS


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


# Field annotation -> the value kinds it must have, in turn: a list field
# is a list, then a list of its items' kind.
_FIELD_KINDS = {int: ("an integer",), bool: ("a boolean",),
                str: ("a string",), float: ("a number",),
                tuple[int, ...]: ("a list", "a list of integers"),
                tuple[str, ...]: ("a list", "a list of strings")}


def _named(value, kind):
    """The first kind `value` fits; a list that is not of `kind` is named by
    its first item that is not."""
    if kind.startswith("a list of"):
        item = next(x for x in value if not VALUE_KINDS[kind]([x]))
        return "a list holding " + _named(item, "")
    return next((k for k, fits in VALUE_KINDS.items() if fits(value)), "null")


def _decode(cls, data):
    """A `cls` record from a JSON object: unknown keys are ignored, each
    value must have its field's type, lists become tuples, and a field
    without a default must be present."""
    if not isinstance(data, dict):
        raise InvalidInputError("expected a JSON object")
    values = {}
    for f in fields(cls):
        if f.name in data:
            v = data[f.name]
            for kind in _FIELD_KINDS[f.type]:
                if not VALUE_KINDS[kind](v):
                    raise InvalidInputError(
                        f"{f.name!r} must be {kind}, not {_named(v, kind)}")
            values[f.name] = tuple(v) if isinstance(v, list) else v
        elif f.default is MISSING:
            raise InvalidInputError(f"missing {f.name!r}")
    return cls(**values)


def save_bundle(bundle, directory):
    """One JSON object per record, every field, tuples as lists."""
    for name in _RECORDS:
        write_text(os.path.join(directory, f"{name}.jsonl"),
                   "".join(json.dumps(asdict(rec), sort_keys=True) + "\n"
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
                    try:
                        records.append(_decode(cls, parse_json(line)))
                    except TrustModelError as exc:
                        raise DatasetError(
                            f"{filename}:{lineno}: bad record: {exc}") from exc
        parts[name] = tuple(records)
    bundle = DatasetBundle(**parts)
    bundle.check()
    return bundle
