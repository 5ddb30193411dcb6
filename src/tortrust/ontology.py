"""Ontology of network-element types: the schema that worlds conform to.

An ontology is a DAG of named types plus directed edges meaning "compromise
of the parent type can propagate to the child type".  Types and edges carry
a source label ("system": populated from public data; "user": supplied by
the user) and optional attribute declarations.  Output types (Tor relays,
virtual links) are the leaves whose compromise the sampler reports.
"""

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InvalidInputError, OntologyError
from .files import read_json
from .validation import (REQUIRED, VALUE_KINDS, ValidationReport, find_cycle,
                         read_record)

SYSTEM = "system"
USER = "user"

# Each attribute data type, and the rule a value of it keeps.
DATA_TYPES = {
    "string": VALUE_KINDS["a string"], "integer": VALUE_KINDS["an integer"],
    "real": VALUE_KINDS["a number"],
    "coordinate-pair": lambda v: VALUE_KINDS["a list"](v) and len(v) == 2
    and all(map(VALUE_KINDS["a number"], v)),
    "string-set": VALUE_KINDS["a list of strings"],
    "predicate-text": VALUE_KINDS["a string"],
    "budget-spec": lambda v: isinstance(v, (dict, list)),
    "ce-spec": lambda v: isinstance(v, (dict, list)),
}


@dataclass(frozen=True)
class AttributeDef:
    name: str
    data_type: str
    source: str = USER
    requirement: str = "optional"


@dataclass(frozen=True)
class TypeDef:
    name: str
    label: str = USER
    is_output: bool = False
    attributes: tuple = ()


@dataclass(frozen=True)
class EdgeDef:
    from_type: str
    to_type: str
    label: str = USER
    attributes: tuple = ()


def normalize_type_name(name):
    """Identifier form of a type name, as written in predicates.

    "Tor Relay" -> "TorRelay", "Router/Switch" -> "RouterSwitch".
    """
    return name.replace(" ", "").replace("/", "").replace("-", "")


def is_type(name, type_name):
    """The `is <name>` rule: `name` is the type's name or its normalized
    form."""
    return name == type_name or name == normalize_type_name(type_name)


@dataclass(frozen=True)
class Ontology:
    types: tuple = ()
    edges: tuple = ()

    @cached_property
    def type_map(self):
        return {t.name: t for t in self.types}

    @cached_property
    def edge_pairs(self):
        return {(e.from_type, e.to_type) for e in self.edges}

    @cached_property
    def output_types(self):
        return {t.name for t in self.types if t.is_output}

    def has_type(self, name):
        return name in self.type_map

    def has_edge(self, from_type, to_type):
        return (from_type, to_type) in self.edge_pairs

    def resolve_type_name(self, normalized):
        """Map a type name, or its identifier form as written in
        predicates, to the declared type it names; in an ontology that
        validates that type is unique."""
        return next((t.name for t in self.types
                     if is_type(normalized, t.name)), None)


# ---------------------------------------------------------------------------
# Default ontology
# ---------------------------------------------------------------------------

LEGAL_JURISDICTION = "Legal Jurisdiction"
AS_ORGANIZATION = "AS Organization"
IXP_ORGANIZATION = "IXP Organization"
AS = "AS"
IXP = "IXP"
CORPORATION = "Corporation"
HOSTING_SERVICE = "Hosting Service"
ROUTER_SWITCH = "Router/Switch"
PHYSICAL_CONNECTION = "Physical Connection"
RELAY_FAMILY = "Relay Family"
RELAY_OPERATOR = "Relay Operator"
TOR_RELAY = "Tor Relay"
VIRTUAL_LINK = "Virtual Link"

RELAY_SOFTWARE_ATTR = "Relay Software"
PHYSICAL_LOCATION_ATTR = "Physical Location"

_SYSTEM_TYPES = {
    LEGAL_JURISDICTION, AS_ORGANIZATION, IXP_ORGANIZATION, AS, IXP,
    RELAY_FAMILY, TOR_RELAY, VIRTUAL_LINK,
}

_DEFAULT_EDGES = [
    (LEGAL_JURISDICTION, AS_ORGANIZATION),
    (LEGAL_JURISDICTION, IXP_ORGANIZATION),
    (LEGAL_JURISDICTION, CORPORATION),
    (LEGAL_JURISDICTION, HOSTING_SERVICE),
    (LEGAL_JURISDICTION, TOR_RELAY),
    (LEGAL_JURISDICTION, IXP),
    (AS_ORGANIZATION, AS),
    (IXP_ORGANIZATION, IXP),
    (CORPORATION, HOSTING_SERVICE),
    (CORPORATION, AS),
    (CORPORATION, IXP),
    (HOSTING_SERVICE, TOR_RELAY),
    (AS, ROUTER_SWITCH),
    (AS, VIRTUAL_LINK),
    (IXP, ROUTER_SWITCH),
    (IXP, VIRTUAL_LINK),
    (ROUTER_SWITCH, VIRTUAL_LINK),
    (PHYSICAL_CONNECTION, VIRTUAL_LINK),
    (RELAY_FAMILY, TOR_RELAY),
    (RELAY_OPERATOR, TOR_RELAY),
]

# (type name, attribute, data type, source); budget/CE specs are added to
# every non-output type separately.
_TYPE_ATTRIBUTES = [
    (TOR_RELAY, RELAY_SOFTWARE_ATTR, "string", SYSTEM),
    (TOR_RELAY, PHYSICAL_LOCATION_ATTR, "coordinate-pair", SYSTEM),
    (TOR_RELAY, "Relay Hardware", "string-set", USER),
    (IXP, PHYSICAL_LOCATION_ATTR, "coordinate-pair", SYSTEM),
    (PHYSICAL_CONNECTION, "Connection Type", "string", USER),
    (LEGAL_JURISDICTION, "Region", "predicate-text", USER),
    (ROUTER_SWITCH, "Router/Switch Kind", "string-set", USER),
]


def default_ontology():
    """The ontology shipped with the system (all attributes optional)."""
    type_names = [
        LEGAL_JURISDICTION, AS_ORGANIZATION, IXP_ORGANIZATION, AS, IXP,
        CORPORATION, HOSTING_SERVICE, ROUTER_SWITCH, PHYSICAL_CONNECTION,
        RELAY_FAMILY, RELAY_OPERATOR, TOR_RELAY, VIRTUAL_LINK,
    ]
    outputs = {TOR_RELAY, VIRTUAL_LINK}
    attrs_by_type = {name: [] for name in type_names}
    for tname, aname, dtype, source in _TYPE_ATTRIBUTES:
        attrs_by_type[tname].append(AttributeDef(aname, dtype, source))
    for tname in type_names:
        if tname not in outputs:
            attrs_by_type[tname].append(AttributeDef("Budget", "budget-spec", USER))
            attrs_by_type[tname].append(
                AttributeDef("Compromise Effectiveness", "ce-spec", USER))

    types = tuple(
        TypeDef(
            name=name,
            label=SYSTEM if name in _SYSTEM_TYPES else USER,
            is_output=name in outputs,
            attributes=tuple(attrs_by_type[name]),
        )
        for name in type_names
    )
    edges = tuple(
        EdgeDef(
            from_type=a,
            to_type=b,
            label=SYSTEM if a in _SYSTEM_TYPES and b in _SYSTEM_TYPES else USER,
        )
        for a, b in _DEFAULT_EDGES
    )
    return Ontology(types=types, edges=edges)


# ---------------------------------------------------------------------------
# Validation and extension
# ---------------------------------------------------------------------------

def validate_ontology(ontology):
    """Check every ontology invariant; violations go into the report.  Two
    types of one identifier form are duplicates."""
    report = ValidationReport()
    first = {}                  # identifier form -> first type name
    for t in ontology.types:
        form = normalize_type_name(t.name)
        other = first.get(form)
        if other == t.name:
            report.add("duplicate-type", f"type {t.name!r} declared twice",
                       (t.name,))
        elif other is not None:
            report.add("duplicate-type",
                       f"types {other!r} and {t.name!r} share the identifier "
                       f"form {form!r}", (other, t.name))
        first.setdefault(form, t.name)
        _check_label(report, f"type {t.name!r}", "label", t.label, (t.name,))
        _check_attributes(report, f"type {t.name!r}", t.attributes, (t.name,))

    names = {t.name for t in ontology.types}
    for e in ontology.edges:
        ident = (e.from_type, e.to_type)
        _check_label(report, f"edge {ident}", "label", e.label, ident)
        if e.from_type not in names or e.to_type not in names:
            report.add("dangling-edge",
                       f"edge {ident} references an undeclared type", ident)
            continue
        from_label = ontology.type_map[e.from_type].label
        to_label = ontology.type_map[e.to_type].label
        if e.label == SYSTEM and (from_label == USER or to_label == USER):
            report.add("label-rule",
                       f"edge {ident} is labeled system but touches a user type",
                       ident)
        if ontology.type_map[e.from_type].is_output:
            report.add("output-outgoing",
                       f"output type {e.from_type!r} has outgoing edge to {e.to_type!r}",
                       ident)
        _check_attributes(report, f"edge {ident}", e.attributes, ident)

    names = sorted(names)
    rank = {name: r for r, name in enumerate(names)}
    edges = [(rank[e.from_type], rank[e.to_type]) for e in ontology.edges
             if e.from_type in rank and e.to_type in rank]
    cycle = find_cycle("type", names, [p for p, _ in edges],
                       [c for _, c in edges])
    if cycle:
        report.add("cycle", *cycle)
    return report


def _check_label(report, owner, what, label, elements):
    if label not in (SYSTEM, USER):
        report.add("bad-label", f"{owner} has unknown {what} {label!r}",
                   elements)


def _check_attributes(report, owner, attributes, elements):
    seen = set()
    for a in attributes:
        where = f"{owner} attribute {a.name!r}"
        if a.name in seen:
            report.add("duplicate-attribute",
                       f"{owner} declares attribute {a.name!r} twice",
                       elements + (a.name,))
        seen.add(a.name)
        if a.data_type not in DATA_TYPES:
            report.add("bad-data-type",
                       f"{where} has unknown data type {a.data_type!r}",
                       elements + (a.name,))
        _check_label(report, where, "source", a.source, elements + (a.name,))
        if a.requirement not in ("required", "optional"):
            report.add("bad-requirement",
                       f"{where} has unknown requirement {a.requirement!r}",
                       elements + (a.name,))


def extend_ontology(ontology, new_types=(), new_edges=()):
    """Merge user types/edges into an ontology; the result must validate."""
    merged = Ontology(
        types=ontology.types + tuple(new_types),
        edges=ontology.edges + tuple(new_edges),
    )
    report = validate_ontology(merged)
    if not report.ok:
        raise OntologyError("merged ontology is invalid:\n" + report.summary())
    return merged


# ---------------------------------------------------------------------------
# Serialization (same structured-text style as world files)
# ---------------------------------------------------------------------------

def ontology_to_dict(ontology):
    """Every field of every type, edge and attribute, by name; sequences
    are tuples, which JSON writes as lists."""
    return asdict(ontology)


# The fields of an ontology file, of its types and edges and of their
# attribute declarations.
_ATTRIBUTE_FIELDS = {"name": ("a string", REQUIRED),
                     "data_type": ("a string", REQUIRED),
                     "source": ("a string", USER),
                     "requirement": ("a string", "optional")}
_TYPE_FIELDS = {"name": ("a string", REQUIRED), "label": ("a string", USER),
                "is_output": ("a boolean", False),
                "attributes": (_ATTRIBUTE_FIELDS, [])}
_EDGE_FIELDS = {"from_type": ("a string", REQUIRED),
                "to_type": ("a string", REQUIRED),
                "label": ("a string", USER),
                "attributes": (_ATTRIBUTE_FIELDS, [])}
_ONTOLOGY_FIELDS = {"types": (_TYPE_FIELDS, []), "edges": (_EDGE_FIELDS, [])}


def ontology_from_dict(data):
    """Parse an ontology file's dict; raises ValueError naming the first
    malformed entry."""
    fields = read_record(data, _ONTOLOGY_FIELDS, "ontology file",
                         InvalidInputError)
    types, edges = (_rows(fields[key], cls) for key, cls in
                    (("types", TypeDef), ("edges", EdgeDef)))
    return Ontology(types=types, edges=edges)


def _rows(columns, cls):
    """A `cls` per record of {field: column}, its attributes an
    AttributeDef per record of its own list."""
    lengths, attributes = columns.pop("attributes")
    attributes = list(map(AttributeDef, *attributes.values()))
    at = list(accumulate(lengths, initial=0))
    return tuple(cls(*values, attributes=tuple(attributes[a:b]))
                 for *values, a, b in zip(*columns.values(), at, at[1:]))


def load_ontology(path):
    return ontology_from_dict(read_json(path))
