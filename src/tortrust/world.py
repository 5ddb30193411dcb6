"""World graphs: typed instances and compromise-propagation relationships.

A world is a DAG whose vertices are instances of ontology types (ASes,
relays, virtual links, organizations, ...) and whose edges mean "compromise
of the parent propagates to the child".  Worlds are immutable value objects;
the editor produces modified copies, or hands back the same world when a
belief document edits nothing.

A world stores each edge once, as a (parent, child) pair in sorted order,
and keeps attributes only for the edges that have any; the
RelationshipInstance tuple `World.relationships` is a view built on
demand.  `world_from_dict` fills that storage directly and names the first
malformed entry of a world file.

Node identifiers are plain strings with a short type prefix, e.g.
"as:3356", "relay:fp_ab12", "vlink:as3356-relay:fp_ab12".
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from .files import json_text, write_text
from .validation import ValidationReport, check_acyclic, check_entry

# Values stay JSON-native (str/int/float/bool/list/dict) so world files
# round-trip losslessly; string-sets are sorted lists.


def as_id(asn):
    return f"as:{asn}"


def ixp_id(ixp):
    return f"ixp:{ixp}"


def relay_id(fingerprint):
    return f"relay:{fingerprint}"


def vlink_id(asn, fingerprint):
    return f"vlink:as{asn}-relay:{fingerprint}"


def family_id(member_fingerprints):
    return f"family:{min(member_fingerprints)}"


def as_org_id(org):
    return f"asorg:{org}"


def ixp_org_id(org):
    return f"ixporg:{org}"


def jurisdiction_id(country_code):
    return f"jur:{country_code}"


@dataclass(frozen=True)
class TypeInstance:
    id: str
    type_name: str
    attributes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RelationshipInstance:
    parent: str
    child: str
    attributes: dict = field(default_factory=dict)


@dataclass(frozen=True, init=False)
class World:
    """Immutable instance DAG.

    `instances` is sorted by id.  `edges` holds each relationship once as
    a (parent, child) pair, sorted; `edge_attributes` maps only the pairs
    whose attributes are non-empty.  `relationships` is a view of the same
    edges as RelationshipInstance objects, built on first use.
    """

    instances: tuple
    edges: tuple
    edge_attributes: dict

    def __init__(self, instances=(), relationships=()):
        # Relationships behave as a set keyed by (parent, child): the first
        # occurrence of a pair keeps its attributes.
        attributes = {}
        for r in relationships:
            attributes.setdefault((r.parent, r.child), r.attributes)
        self._fill(instances, attributes)

    @classmethod
    def from_edges(cls, instances, edges):
        """World from instances and a {(parent, child): attributes} map."""
        world = cls.__new__(cls)
        world._fill(instances, edges)
        return world

    def _fill(self, instances, edges):
        object.__setattr__(self, "instances",
                           tuple(sorted(instances, key=attrgetter("id"))))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "edge_attributes",
                           {k: a for k, a in edges.items() if a})

    @cached_property
    def relationships(self):
        attrs = self.edge_attributes
        return tuple(RelationshipInstance(p, c, attrs.get((p, c), {}))
                     for p, c in self.edges)

    @cached_property
    def by_id(self):
        return {i.id: i for i in self.instances}

    # The edges are sorted by (parent, child), so both maps come out sorted.
    @cached_property
    def child_map(self):
        m = {i.id: [] for i in self.instances}
        for p, c in self.edges:
            if p in m:
                m[p].append(c)
        return {k: tuple(v) for k, v in m.items()}

    @cached_property
    def parent_map(self):
        m = {i.id: [] for i in self.instances}
        for p, c in self.edges:
            if c in m:
                m[c].append(p)
        return {k: tuple(v) for k, v in m.items()}

    @cached_property
    def ids_by_type(self):
        m = {}
        for i in self.instances:
            m.setdefault(i.type_name, []).append(i.id)
        return {k: tuple(v) for k, v in m.items()}

    def __contains__(self, node_id):
        return node_id in self.by_id

    def instance(self, node_id):
        return self.by_id[node_id]

    def type_of(self, node_id):
        return self.by_id[node_id].type_name

    def attribute(self, node_id, name, default=None):
        return self.by_id[node_id].attributes.get(name, default)

    def children(self, node_id):
        return self.child_map.get(node_id, ())

    def parents(self, node_id):
        return self.parent_map.get(node_id, ())

    def of_type(self, type_name):
        return self.ids_by_type.get(type_name, ())


def _value_conforms(value, data_type):
    if data_type == "string" or data_type == "predicate-text":
        return isinstance(value, str)
    if data_type == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if data_type == "real":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if data_type == "coordinate-pair":
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in value))
    if data_type == "string-set":
        return (isinstance(value, (list, tuple, set, frozenset))
                and all(isinstance(v, str) for v in value))
    if data_type in ("budget-spec", "ce-spec"):
        return isinstance(value, (dict, list))
    return True


def validate_world(world, ontology, allowed_edges=()):
    """Check world structure against the ontology.

    `allowed_edges` lists extra (parent_id, child_id) pairs that are exempt
    from the ontology-edge check (user-added relationships between user
    types get default propagation semantics instead of a declared edge).
    The ontology is asked once per type and once per (parent type, child
    type) pair; every offending instance and edge is still reported, in
    order.
    """
    report = ValidationReport()
    seen = set()
    declared_by_type = {}
    for inst in world.instances:
        if inst.id in seen:
            report.add("duplicate-id", f"instance id {inst.id!r} used twice",
                       (inst.id,))
        seen.add(inst.id)
        if inst.type_name not in declared_by_type:
            tdef = ontology.type_map.get(inst.type_name)
            declared_by_type[inst.type_name] = None if tdef is None else \
                {a.name: a for a in tdef.attributes}
        declared = declared_by_type[inst.type_name]
        if declared is None:
            report.add("unknown-type",
                       f"instance {inst.id!r} has undeclared type {inst.type_name!r}",
                       (inst.id,))
            continue
        for name, value in inst.attributes.items():
            adef = declared.get(name)
            if adef is not None and not _value_conforms(value, adef.data_type):
                report.add(
                    "attribute-type",
                    f"instance {inst.id!r} attribute {name!r} does not conform "
                    f"to {adef.data_type}", (inst.id, name))

    exempt = set(allowed_edges)
    by_id = world.by_id
    undeclared = {}         # (parent type, child type) -> no ontology edge
    for parent, child in world.edges:
        pinst = by_id.get(parent)
        cinst = by_id.get(child)
        if pinst is None or cinst is None:
            report.add("dangling-relationship",
                       f"relationship ({parent!r}, {child!r}) references "
                       "a missing instance", (parent, child))
            continue
        if (parent, child) in exempt:
            continue
        pair = (pinst.type_name, cinst.type_name)
        bad = undeclared.get(pair)
        if bad is None:
            ptype, ctype = pair
            bad = undeclared[pair] = (
                ontology.has_type(ptype) and ontology.has_type(ctype)
                and not ontology.has_edge(ptype, ctype))
        if bad:
            report.add(
                "no-ontology-edge",
                f"relationship ({parent!r}, {child!r}) has type pair "
                f"({pair[0]!r}, {pair[1]!r}) with no ontology edge",
                (parent, child))

    check_acyclic(report, world.child_map, "world")
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def world_to_dict(world):
    attributes = world.edge_attributes
    return {
        "instances": [
            {"id": i.id, "type_name": i.type_name, "attributes": i.attributes}
            for i in world.instances
        ],
        "relationships": [
            {"parent": p, "child": c, "attributes": attributes.get((p, c), {})}
            for p, c in world.edges
        ],
    }


def _entries(data, kind, keys):
    """(first, second, attributes) of each entry of data[kind], where
    `keys` names the two string fields; raises ValueError naming the first
    malformed entry."""
    first, second = keys
    entries = data.get(kind, [])
    if not isinstance(entries, list):
        raise ValueError(f"{kind}: expected a list")
    for index, entry in enumerate(entries):
        try:
            a, b = entry[first], entry[second]
            attributes = entry.get("attributes", {})
        except (KeyError, TypeError, AttributeError):
            a = None
        if not (isinstance(a, str) and isinstance(b, str)
                and isinstance(attributes, dict)):
            check_entry(f"{kind}[{index}]", entry, keys)
            raise ValueError(f"{kind}[{index}]: 'attributes' must be an "
                             "object")
        yield a, b, attributes


def world_from_dict(data):
    """Parse a world file's dict; raises ValueError naming the first entry
    that is malformed."""
    if not isinstance(data, dict):
        raise ValueError("world file: expected an object")
    instances = [TypeInstance(node_id, type_name, attributes)
                 for node_id, type_name, attributes
                 in _entries(data, "instances", ("id", "type_name"))]
    edges = {}
    for parent, child, attributes in _entries(data, "relationships",
                                              ("parent", "child")):
        edges.setdefault((parent, child), attributes)
    return World.from_edges(instances, edges)


def save_world(world, path):
    write_text(path, json_text(world_to_dict(world)))


def load_world(path):
    with open(path, encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))
