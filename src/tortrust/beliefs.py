"""Belief documents: structural edits plus trust statements.

A document is a JSON file with keys `scale`, `structural`, `trust`.
Structural beliefs are ordered tuples (arrays) that edit the world; trust
beliefs attach probabilities.  Tuple tags:

    structural: ["ut", tname, struct_req, struct_opt]
                ["inst", type_name, data, id]            (extra fields ignored)
                ["rminst", id]
                ["rel", parent, child]
                ["rmrel", parent, child]
                ["attr", id, name, value]
    trust:      [tag, predicate, value]                  relative (any free tag)
                ["abs", predicate, value]                absolute, last match wins
                ["bu1", instance, type_name, k]          budget over one child type
                ["bu2", instance, "all", k]              budget over all children
                ["ce1", instance, predicate, value]      compromise effectiveness
                ["ce2", instance, "top", value]          CE over all children

Trust values are the five-symbol scale (SC, LC, U, LT, ST) or a literal
probability in [0, 1].  Each relative belief adds its value as one more
independent risk to every node its predicate matches, whatever its tag;
absolute beliefs detach a node from its parents.

Each tag has one row in the tag table, and each slot kind one entry in the
slot table, which the reader and the writer share.  A trust slot is checked
by the scale's own rule, `_resolve`, and keeps its symbol for the scale.
"""

import json
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import (BeliefFormatError, DatasetError, InvalidInputError,
                     PredicateSyntaxError)
from .files import json_text, parse_json, write_text
from .ontology import normalize_type_name
from .predicates import Predicate, parse_predicate
from .validation import REQUIRED, is_probability, read_record
from . import ontology as ont

TRUST_SYMBOLS = ("SC", "LC", "U", "LT", "ST")

_DEFAULT_MAPPING = {"SC": 0.999, "LC": 0.85, "U": 0.5, "LT": 0.15, "ST": 0.02}

@dataclass(frozen=True)
class TrustScale:
    mapping: dict = field(default_factory=lambda: dict(_DEFAULT_MAPPING))
    ce_mapping: dict = None

    def __post_init__(self):
        if self.ce_mapping is None:
            object.__setattr__(self, "ce_mapping", dict(self.mapping))

    def prob(self, value):
        """Probability for a trust symbol or a numeric literal."""
        return _resolve(value, self.mapping)

    def ce_prob(self, value):
        return _resolve(value, self.ce_mapping)


def _resolve(value, mapping):
    """The probability of a trust symbol, through `mapping`, or of a
    numeric literal; BeliefFormatError unless it is a number in [0,1]."""
    p = value
    if isinstance(value, str):
        if value not in mapping:
            raise BeliefFormatError(f"unknown trust value {value!r}")
        p = mapping[value]
    if not is_probability(p):
        raise BeliefFormatError(
            f"trust value {value!r} is not a probability in [0,1]"
            if p is value else
            f"trust value {value!r} maps to {p!r}, not a probability in "
            "[0,1]")
    return float(p)


# --- Structural beliefs ------------------------------------------------------

@dataclass(frozen=True)
class NovelType:
    tname: str
    struct_req: tuple = ()   # ((attr name, data type), ...)
    struct_opt: tuple = ()


@dataclass(frozen=True)
class AddInstance:
    type_name: str
    data: dict
    id: str


@dataclass(frozen=True)
class RemoveInstance:
    id: str


@dataclass(frozen=True)
class AddRelationship:
    parent: str
    child: str


@dataclass(frozen=True)
class RemoveRelationship:
    parent: str
    child: str


@dataclass(frozen=True)
class SetAttribute:
    id: str
    name: str
    value: object


# --- Trust beliefs -----------------------------------------------------------

@dataclass(frozen=True)
class Relative:
    tag: str
    pred: Predicate
    v: object


@dataclass(frozen=True)
class Absolute:
    pred: Predicate
    v: object


@dataclass(frozen=True)
class Budget1:
    instance: str
    type_name: str
    k: int


@dataclass(frozen=True)
class Budget2:
    instance: str
    k: int


@dataclass(frozen=True)
class CE1:
    instance: str
    pred: Predicate
    v: object


@dataclass(frozen=True)
class CE2:
    instance: str
    v: object


@dataclass(frozen=True)
class BeliefDocument:
    scale: TrustScale = field(default_factory=TrustScale)
    structural: tuple = ()
    trust: tuple = ()


# --- The tag table -----------------------------------------------------------

class _Row(NamedTuple):
    tag: str            # None for a relative belief, whose tag is free
    cls: type
    slots: tuple        # the kind of each array slot after the tag
    ignored: int = 0    # further slots accepted and dropped


# One row per tag.  Each slot fills the class's next field, except a literal
# slot: the tuple of its spellings, of which the first is written.  The free
# tag of a relative belief fills its first field.
STRUCTURAL_TAGS = {row.tag: row for row in (
    _Row("ut", NovelType, ("type name", "attribute types", "attribute types")),
    # (T, D, n, P, C) in full; P and C carry no defined meaning.
    _Row("inst", AddInstance, ("type name", "instance data", "instance id"),
         ignored=2),
    _Row("rminst", RemoveInstance, ("instance id",)),
    _Row("rel", AddRelationship, ("parent id", "child id")),
    _Row("rmrel", RemoveRelationship, ("parent id", "child id")),
    _Row("attr", SetAttribute,
         ("instance id", "attribute name", "attribute value")),
)}
TRUST_TAGS = {row.tag: row for row in (
    _Row("abs", Absolute, ("predicate", "trust value")),
    _Row("bu1", Budget1, ("instance id", "type name", "budget k")),
    _Row("bu2", Budget2, ("instance id", ("all",), "budget k")),
    _Row("ce1", CE1, ("instance id", "predicate", "trust value")),
    _Row("ce2", CE2, ("instance id", ("top", "⊤"), "trust value")),
)}
RELATIVE_ROW = _Row(None, Relative, ("predicate", "trust value"))

_ROW_OF = {row.cls: row for row in (*STRUCTURAL_TAGS.values(),
                                    *TRUST_TAGS.values(), RELATIVE_ROW)}


class _Slot(NamedTuple):
    check: tuple = None     # (value kind, default) for read_record, if any
    read: object = lambda value, path, name: value  # the field of the slot
    write: object = lambda value: value             # the slot of the field


def _read_predicate(text, path, name):
    try:
        return parse_predicate(text)
    except PredicateSyntaxError as exc:
        raise BeliefFormatError(f"{path}: bad predicate: {exc}") from exc


def _read_attribute_types(types, path, name):
    """((attribute name, data type), ...) of the object `types`, by name."""
    pairs = tuple(sorted((types or {}).items()))
    for attr, data_type in pairs:
        if not isinstance(data_type, str) or data_type not in ont.DATA_TYPES:
            raise BeliefFormatError(
                f"{path}.{name}.{attr}: unknown data type {data_type!r}")
    return pairs


def _read_trust_value(value, path, name):
    """A trust symbol as it is, or a number as a float: checked by the one
    rule of the scale, `_resolve`, on the five symbols."""
    try:
        p = _resolve(value, _DEFAULT_MAPPING)
    except BeliefFormatError as exc:
        raise BeliefFormatError(f"{path}: {exc}") from None
    return value if isinstance(value, str) else p


# One entry per slot kind of the rows: how the slot is checked, read into
# its field and written back.  A slot of attribute types may be null.
_SLOTS = {
    **dict.fromkeys(("type name", "instance id", "parent id", "child id",
                     "attribute name"), _Slot(("a string", REQUIRED))),
    "instance data": _Slot(("an object", REQUIRED)),
    "budget k": _Slot(("an integer", REQUIRED)),
    "attribute value": _Slot(),
    "predicate": _Slot(("a string", REQUIRED), _read_predicate,
                       lambda pred: pred.text),
    "attribute types": _Slot(("an object", None), _read_attribute_types,
                             lambda types: dict(types) or None),
    "trust value": _Slot(None, _read_trust_value),
}


# --- Parsing -----------------------------------------------------------------

# The fields of a belief document, of its scale and of a scale's mapping.
_DOCUMENT_FIELDS = {"scale": ("an object", None), "structural": ("a list", []),
                    "trust": ("a list", [])}
_SCALE_FIELDS = {"mapping": ("an object", None),
                 "ce_mapping": ("an object", None)}
_MAPPING_FIELDS = {sym: ("a probability", REQUIRED) for sym in TRUST_SYMBOLS}


def parse_belief_document(text):
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise BeliefFormatError(f"document is not valid JSON: {exc}") from exc
    fields = read_record(data, _DOCUMENT_FIELDS, "belief document",
                         BeliefFormatError)
    return BeliefDocument(
        scale=scale_from_json(fields["scale"]),
        **{key: tuple(beliefs_from_json(fields[key], key, tags))
           for key, tags in (("structural", STRUCTURAL_TAGS),
                             ("trust", TRUST_TAGS))})


def scale_from_json(data):
    """The TrustScale of a `scale` object; the default scale for None."""
    if data is None:
        return TrustScale()
    mappings = read_record(data, _SCALE_FIELDS, "scale", BeliefFormatError)
    for name, mapping in mappings.items():
        if mapping is not None:
            read_record(mapping, _MAPPING_FIELDS, f"scale.{name}",
                        BeliefFormatError)
    mapping, ce_mapping = mappings.values()
    return TrustScale(mapping=dict(mapping or _DEFAULT_MAPPING),
                      ce_mapping=ce_mapping and dict(ce_mapping))


def beliefs_from_json(entries, key, tags):
    """The beliefs of the list of arrays `entries` at `key`, read one at a
    time, so a caller can stop at the first it rejects."""
    return (belief_from_json(entry, f"{key}[{i}]", tags)
            for i, entry in enumerate(entries))


def belief_from_json(entry, path, tags):
    """The belief that the array `entry` at `path` holds, read by its row
    in `tags` (STRUCTURAL_TAGS or TRUST_TAGS) and the `_SLOTS` entry of
    each slot.  A trust tag without a row is a relative belief."""
    if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
        raise BeliefFormatError(f"{path}: belief must be a tagged array")
    tag = entry[0]
    row = tags.get(tag)
    if row is None:
        if tags is STRUCTURAL_TAGS:
            raise BeliefFormatError(f"{path}: unknown structural tag {tag!r}")
        if tag in STRUCTURAL_TAGS:
            raise BeliefFormatError(f"{path}: tag {tag!r} is reserved")
        row = RELATIVE_ROW
    n = 1 + len(row.slots)
    if not n <= len(entry) <= n + row.ignored:
        raise BeliefFormatError(
            f"{path}: {tag} needs {n} to {n + row.ignored} fields"
            if row.ignored else
            f"{path}: {tag!r} belief needs {n} fields, got {len(entry)}")
    values = [tag] if row is RELATIVE_ROW else []
    names = iter([f.name for f in fields(row.cls)][len(values):])
    slots = []                  # (field name, slot, value)
    for kind, value in zip(row.slots, entry[1:]):
        if isinstance(kind, tuple):
            if value not in kind:
                raise BeliefFormatError(
                    f'{path}: {tag} scope must be "{kind[0]}"')
        else:
            slots.append((next(names), _SLOTS[kind], value))
    read_record({name: value for name, slot, value in slots if slot.check},
                {name: slot.check for name, slot, _ in slots if slot.check},
                path, BeliefFormatError)
    return row.cls(*values, *(slot.read(value, path, name)
                              for name, slot, value in slots))


# --- Serialization -----------------------------------------------------------

def belief_to_json(belief):
    """The JSON array of a structural or trust belief."""
    row = _ROW_OF.get(type(belief))
    if row is None:
        raise TypeError(f"not a belief: {belief!r}")
    values = iter([getattr(belief, f.name) for f in fields(belief)])
    return [row.tag or next(values)] + [
        kind[0] if isinstance(kind, tuple)
        else _SLOTS[kind].write(next(values)) for kind in row.slots]


def scale_to_json(scale):
    return {"mapping": scale.mapping, "ce_mapping": scale.ce_mapping}


def serialize_belief_document(doc):
    return json_text({
        "scale": scale_to_json(doc.scale),
        "structural": [belief_to_json(b) for b in doc.structural],
        "trust": [belief_to_json(b) for b in doc.trust],
    })


def load_belief_document(path):
    with open(path, encoding="utf-8") as fh:
        return parse_belief_document(fh.read())


def save_belief_document(doc, path):
    write_text(path, serialize_belief_document(doc))


# --- Adversary generator -----------------------------------------------------

def build_the_man(world, p_org=0.1, p_fam_max=0.1, p_fam_min=0.001):
    """Belief document for the single powerful adversary.

    Every relay family is compromised with a probability that falls
    linearly from p_fam_max (never-running family) to p_fam_min (family
    with perfect uptime); every AS and IXP organization independently
    with p_org.  Raises ValueError for an option, or a family's uptime,
    that is not a number in [0, 1].
    """
    for name, p in (("p_org", p_org), ("p_fam_max", p_fam_max),
                    ("p_fam_min", p_fam_min)):
        if not is_probability(p):
            raise InvalidInputError(
                f"{name} must be a number in [0, 1], got {p!r}")
    trust = []
    for fid in world.of_type(ont.RELAY_FAMILY):
        uptime = world.attribute(fid, "uptime")
        if uptime is None:
            raise DatasetError(f"family {fid!r} has no uptime attribute")
        if not is_probability(uptime):
            raise InvalidInputError(f"family {fid!r} has uptime {uptime!r}, "
                                    "not a number in [0, 1]")
        p = p_fam_max - (p_fam_max - p_fam_min) * float(uptime)
        # A JSON string is a predicate string literal; ensure_ascii would
        # write an astral character as two surrogate escapes.
        quoted = json.dumps(fid, ensure_ascii=False)
        trust.append(Absolute(pred=parse_predicate(f"id in {{{quoted}}}"),
                              v=p))
    org_types = (ont.AS_ORGANIZATION, ont.IXP_ORGANIZATION)
    for type_name in org_types:
        if world.of_type(type_name):
            pred = parse_predicate(f"is {normalize_type_name(type_name)}")
            trust.append(Absolute(pred=pred, v=float(p_org)))
    return BeliefDocument(trust=tuple(trust))
