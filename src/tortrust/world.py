"""World graphs: typed instances and compromise-propagation relationships.

A world is a DAG whose vertices are instances of ontology types (ASes,
relays, virtual links, organizations, ...) and whose edges mean "compromise
of the parent propagates to the child".  Worlds are immutable value objects;
the editor produces modified copies.

Node identifiers are plain strings with a short type prefix, e.g.
"as:3356", "relay:fp_ab12", "vlink:as3356-relay:fp_ab12".
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

from .validation import ValidationReport, check_acyclic

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


@dataclass(frozen=True)
class World:
    """Immutable instance DAG; instances and relationships are kept sorted."""

    instances: tuple = ()
    relationships: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "instances",
            tuple(sorted(self.instances, key=lambda i: i.id)))
        # Relationships behave as a set keyed by (parent, child).
        unique = {}
        for r in self.relationships:
            unique.setdefault((r.parent, r.child), r)
        object.__setattr__(
            self, "relationships", tuple(unique[k] for k in sorted(unique)))

    @cached_property
    def by_id(self):
        return {i.id: i for i in self.instances}

    @cached_property
    def child_map(self):
        m = {i.id: [] for i in self.instances}
        for r in self.relationships:
            if r.parent in m:
                m[r.parent].append(r.child)
        return {k: tuple(sorted(v)) for k, v in m.items()}

    @cached_property
    def parent_map(self):
        m = {i.id: [] for i in self.instances}
        for r in self.relationships:
            if r.child in m:
                m[r.child].append(r.parent)
        return {k: tuple(sorted(v)) for k, v in m.items()}

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
    """
    report = ValidationReport()
    seen = set()
    for inst in world.instances:
        if inst.id in seen:
            report.add("duplicate-id", f"instance id {inst.id!r} used twice",
                       (inst.id,))
        seen.add(inst.id)
        tdef = ontology.type_map.get(inst.type_name)
        if tdef is None:
            report.add("unknown-type",
                       f"instance {inst.id!r} has undeclared type {inst.type_name!r}",
                       (inst.id,))
            continue
        declared = {a.name: a for a in tdef.attributes}
        for name, value in inst.attributes.items():
            adef = declared.get(name)
            if adef is not None and not _value_conforms(value, adef.data_type):
                report.add(
                    "attribute-type",
                    f"instance {inst.id!r} attribute {name!r} does not conform "
                    f"to {adef.data_type}", (inst.id, name))

    exempt = set(allowed_edges)
    for rel in world.relationships:
        if rel.parent not in world.by_id or rel.child not in world.by_id:
            report.add("dangling-relationship",
                       f"relationship ({rel.parent!r}, {rel.child!r}) references "
                       "a missing instance", (rel.parent, rel.child))
            continue
        if (rel.parent, rel.child) in exempt:
            continue
        ptype = world.type_of(rel.parent)
        ctype = world.type_of(rel.child)
        if ontology.has_type(ptype) and ontology.has_type(ctype) \
                and not ontology.has_edge(ptype, ctype):
            report.add(
                "no-ontology-edge",
                f"relationship ({rel.parent!r}, {rel.child!r}) has type pair "
                f"({ptype!r}, {ctype!r}) with no ontology edge",
                (rel.parent, rel.child))

    check_acyclic(report, world.child_map, "world")
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def world_to_dict(world):
    return {
        "instances": [
            {"id": i.id, "type_name": i.type_name, "attributes": i.attributes}
            for i in world.instances
        ],
        "relationships": [
            {"parent": r.parent, "child": r.child, "attributes": r.attributes}
            for r in world.relationships
        ],
    }


def world_from_dict(data):
    instances = tuple(
        TypeInstance(id=i["id"], type_name=i["type_name"],
                     attributes=i.get("attributes", {}))
        for i in data.get("instances", [])
    )
    relationships = tuple(
        RelationshipInstance(parent=r["parent"], child=r["child"],
                             attributes=r.get("attributes", {}))
        for r in data.get("relationships", [])
    )
    return World(instances=instances, relationships=relationships)


def save_world(world, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_world(path):
    with open(path, encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))
