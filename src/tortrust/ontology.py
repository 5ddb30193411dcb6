"""Ontology of network-element types: the schema that worlds conform to.

An ontology is a DAG of named types plus directed edges meaning "compromise
of the parent type can propagate to the child type".  Types and edges carry
a source label ("system": populated from public data; "user": supplied by
the user) and optional attribute declarations.  Output types (Tor relays,
virtual links) are the leaves whose compromise the sampler reports.
"""

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import OntologyError
from .validation import ValidationReport, check_acyclic

SYSTEM = "system"
USER = "user"

DATA_TYPES = frozenset({
    "string", "integer", "real", "coordinate-pair", "string-set",
    "predicate-text", "budget-spec", "ce-spec",
})


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
        """Map a predicate-style identifier back to a declared type name."""
        for t in self.types:
            if t.name == normalized or normalize_type_name(t.name) == normalized:
                return t.name
        return None


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
    """Check every ontology invariant; violations go into the report."""
    report = ValidationReport()
    seen = set()
    for t in ontology.types:
        if t.name in seen:
            report.add("duplicate-type", f"type {t.name!r} declared twice", (t.name,))
        seen.add(t.name)
        _check_attribute_names(report, f"type {t.name!r}", t.attributes, (t.name,))

    names = {t.name for t in ontology.types}
    for e in ontology.edges:
        ident = (e.from_type, e.to_type)
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
        _check_attribute_names(report, f"edge {ident}", e.attributes, ident)

    children = {n: [] for n in names}
    for e in ontology.edges:
        if e.from_type in children:
            children[e.from_type].append(e.to_type)
    check_acyclic(report, children, "type")
    return report


def _check_attribute_names(report, owner, attributes, elements):
    seen = set()
    for a in attributes:
        if a.name in seen:
            report.add("duplicate-attribute",
                       f"{owner} declares attribute {a.name!r} twice",
                       elements + (a.name,))
        seen.add(a.name)
        if a.data_type not in DATA_TYPES:
            report.add("bad-data-type",
                       f"{owner} attribute {a.name!r} has unknown data type {a.data_type!r}",
                       elements + (a.name,))


def extend_ontology(ontology, new_types=(), new_edges=()):
    """Merge user types/edges into an ontology; the result must validate."""
    existing = {t.name for t in ontology.types}
    for t in new_types:
        if t.name in existing:
            raise OntologyError(f"type name {t.name!r} already declared")
        existing.add(t.name)
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

def _attr_to_dict(a):
    return {"name": a.name, "data_type": a.data_type,
            "source": a.source, "requirement": a.requirement}


def _attr_from_dict(d):
    return AttributeDef(name=d["name"], data_type=d["data_type"],
                        source=d.get("source", USER),
                        requirement=d.get("requirement", "optional"))


def ontology_to_dict(ontology):
    return {
        "types": [
            {"name": t.name, "label": t.label, "is_output": t.is_output,
             "attributes": [_attr_to_dict(a) for a in t.attributes]}
            for t in ontology.types
        ],
        "edges": [
            {"from_type": e.from_type, "to_type": e.to_type, "label": e.label,
             "attributes": [_attr_to_dict(a) for a in e.attributes]}
            for e in ontology.edges
        ],
    }


def ontology_from_dict(data):
    types = tuple(
        TypeDef(name=t["name"], label=t.get("label", USER),
                is_output=t.get("is_output", False),
                attributes=tuple(_attr_from_dict(a) for a in t.get("attributes", [])))
        for t in data.get("types", [])
    )
    edges = tuple(
        EdgeDef(from_type=e["from_type"], to_type=e["to_type"],
                label=e.get("label", USER),
                attributes=tuple(_attr_from_dict(a) for a in e.get("attributes", [])))
        for e in data.get("edges", [])
    )
    return Ontology(types=types, edges=edges)


def save_ontology(ontology, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ontology_to_dict(ontology), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ontology(path):
    with open(path, encoding="utf-8") as fh:
        return ontology_from_dict(json.load(fh))
