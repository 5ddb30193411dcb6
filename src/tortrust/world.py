"""World graphs: typed instances and compromise-propagation relationships.

A world is a DAG whose vertices are instances of ontology types (ASes,
relays, virtual links, organizations, ...) and whose edges mean "compromise
of the parent propagates to the child".  Worlds are immutable value objects;
the editor produces modified copies, or hands back the same world when a
belief document edits nothing.

A world is interned as integers once, where it is built or read: the
sorted ids of its instances and edge endpoints, one type code per id, and
each edge once as a pair of int32 ranks, sorted.  Validation and
compilation work on these arrays.  The type codes are the one index of
instances by type: `of_type` and `predicates.select` read them.
`children` and `parents` answer from the rank arrays, and the (parent,
child) pairs `World.edges` and the RelationshipInstance tuple
`World.relationships` are views built on demand.  `world_from_dict` reads
each column of a world file in one pass and names the first malformed
entry.

Node identifiers are plain strings with a short type prefix, e.g.
"as:3356", "relay:fp_ab12", "vlink:as3356-relay:fp_ab12".
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter

import numpy as np

from .files import json_text, write_text
from .validation import ValidationReport, check_entry, report_cycle

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


@dataclass(frozen=True, init=False, eq=False)
class World:
    """Immutable instance DAG, interned as integers once.

    `instances` is sorted by id.  `names` is the sorted union of the
    instance ids and the edge endpoints (so a dangling edge keeps its
    endpoint), and a node's rank is its position there.  `type_code[r]`
    indexes `type_names` for an instance and is -1 for a name that is only
    an edge endpoint.  Each relationship is stored once as a rank pair
    (`src[k]`, `dst[k]`), int32, sorted; `edge_attributes` maps only the
    (parent, child) pairs whose attributes are non-empty.  `by_id` maps
    each id to its instance (the last one of a duplicated id) and `index`
    each name to its rank.  `edges` and `relationships` are views of the
    same edges built on first use.
    """

    instances: tuple
    names: tuple
    type_names: tuple
    type_code: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_attributes: dict

    def __init__(self, instances=(), relationships=()):
        relationships = list(relationships)
        self._fill(instances, [r.parent for r in relationships],
                   [r.child for r in relationships],
                   {k: r.attributes for k, r in enumerate(relationships)
                    if r.attributes})

    @classmethod
    def from_edges(cls, instances, edges):
        """World from instances and a {(parent, child): attributes} map."""
        world = cls.__new__(cls)
        world._fill(instances, [p for p, _ in edges], [c for _, c in edges],
                    {k: a for k, a in enumerate(edges.values()) if a})
        return world

    def _fill(self, instances, parents, children, attributes):
        """Intern the world: edge entry k joins parents[k] to children[k],
        `attributes` maps entry positions to their non-empty attributes,
        and the first entry of a (parent, child) pair wins."""
        instances = tuple(sorted(instances, key=attrgetter("id")))
        by_id = {i.id: i for i in instances}
        names = tuple(by_id)                # sorted, as the instances are
        try:
            index, keys = _intern(names, parents, children)
        except KeyError:                    # dangling endpoints join names
            names = tuple(sorted(by_id.keys() | set(parents) | set(children)))
            index, keys = _intern(names, parents, children)
        n = max(len(names), 1)
        keys, first = np.unique(keys, return_index=True)
        kept = np.zeros(len(parents), dtype=bool)
        kept[first] = True
        type_names = tuple(sorted({i.type_name for i in by_id.values()}))
        code = dict(zip(type_names, range(len(type_names))))
        type_code = np.full(len(names), -1, dtype=np.int32)
        type_code[[index[i] for i in by_id]] = [code[i.type_name]
                                                for i in by_id.values()]
        src = (keys // n).astype(np.int32)
        dst = (keys % n).astype(np.int32)
        for array in (type_code, src, dst):
            array.flags.writeable = False
        stored = dict(
            instances=instances, names=names, type_names=type_names,
            type_code=type_code, src=src, dst=dst,
            edge_attributes={(parents[k], children[k]): a
                             for k, a in attributes.items() if kept[k]},
            by_id=by_id, index=index)
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        return (self.instances == other.instances
                and self.names == other.names
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and self.edge_attributes == other.edge_attributes)

    @cached_property
    def edges(self):
        names = self.names
        return tuple(zip(map(names.__getitem__, self.src.tolist()),
                         map(names.__getitem__, self.dst.tolist())))

    @cached_property
    def relationships(self):
        attrs = self.edge_attributes
        return tuple(RelationshipInstance(p, c, attrs.get((p, c), {}))
                     for p, c in self.edges)

    @cached_property
    def _children_csr(self):
        return _csr(len(self.names), self.src, self.dst)

    @cached_property
    def _parents_csr(self):
        order = np.lexsort((self.src, self.dst))
        return _csr(len(self.names), self.dst[order], self.src[order])

    def edge_positions(self, pairs):
        """Position in edge order of each (parent, child) pair; -1 where
        the world has no such edge."""
        index, n = self.index, max(len(self.names), 1)
        keys = np.fromiter((index[p] * n + index[c]
                            if p in index and c in index else -1
                            for p, c in pairs), np.int64)
        edge_keys = self.src.astype(np.int64) * n + self.dst
        pos = np.searchsorted(edge_keys, keys)
        hit = np.append(edge_keys, -2)[pos] == keys
        return np.where(hit, pos, -1)

    def __contains__(self, node_id):
        return node_id in self.by_id

    def type_of(self, node_id):
        return self.by_id[node_id].type_name

    def attribute(self, node_id, name, default=None):
        return self.by_id[node_id].attributes.get(name, default)

    def children(self, node_id):
        """Child ids of a node, sorted; a dangling edge's endpoint too."""
        return self._neighbours(self._children_csr, node_id)

    def parents(self, node_id):
        """Parent ids of a node, sorted; a dangling edge's endpoint too."""
        return self._neighbours(self._parents_csr, node_id)

    def _neighbours(self, csr, node_id):
        r = self.index.get(node_id)
        if r is None:
            return ()
        ptr, idx = csr
        return tuple(map(self.names.__getitem__, idx[ptr[r]:ptr[r + 1]]))

    def of_type(self, type_name):
        """Ids of the instances of type `type_name`, sorted."""
        if type_name not in self.type_names:
            return ()
        ranks = np.flatnonzero(self.type_code
                               == self.type_names.index(type_name))
        return tuple(map(self.names.__getitem__, ranks.tolist()))


def _intern(names, parents, children):
    """({name: rank}, edge keys parent rank * n + child rank); KeyError when
    an endpoint is not in `names`."""
    index = dict(zip(names, range(len(names))))
    n = max(len(names), 1)
    keys = (np.fromiter(map(index.__getitem__, parents), np.int64,
                        len(parents)) * n
            + np.fromiter(map(index.__getitem__, children), np.int64,
                          len(children)))
    return index, keys


def _csr(n, rows, cols):
    """(offsets, columns) as lists, for `rows` sorted ascending."""
    ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return ptr.tolist(), cols.tolist()


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
    Instances are checked one by one: a declared type, every required
    attribute present (the required names are collected once per type),
    and each declared attribute of its data type.  Edges are checked on the
    rank arrays: an edge is dangling when an endpoint is no instance, and
    off the ontology when both its types are declared and the ontology has
    no edge between them (a type x type matrix); every offender is reported
    in edge order.
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
            declared_by_type[inst.type_name] = (None, ()) if tdef is None \
                else ({a.name: a for a in tdef.attributes},
                      tuple(a.name for a in tdef.attributes
                            if a.requirement == "required"))
        declared, required = declared_by_type[inst.type_name]
        if declared is None:
            report.add("unknown-type",
                       f"instance {inst.id!r} has undeclared type {inst.type_name!r}",
                       (inst.id,))
            continue
        for name in required:
            if name not in inst.attributes:
                report.add("missing-attribute",
                           f"instance {inst.id!r} lacks required attribute "
                           f"{name!r}", (inst.id, name))
        if not inst.attributes:
            continue
        for name, value in inst.attributes.items():
            adef = declared.get(name)
            if adef is not None and not _value_conforms(value, adef.data_type):
                report.add(
                    "attribute-type",
                    f"instance {inst.id!r} attribute {name!r} does not conform "
                    f"to {adef.data_type}", (inst.id, name))

    types = world.type_names
    code = {t: k for k, t in enumerate(types)}
    known = np.array([ontology.has_type(t) for t in types], dtype=bool)
    off_pair = known[:, None] & known[None, :]
    for pair in ontology.edge_pairs:
        if pair[0] in code and pair[1] in code:
            off_pair[code[pair[0]], code[pair[1]]] = False
    ptype = world.type_code[world.src]
    ctype = world.type_code[world.dst]
    dangling = (ptype < 0) | (ctype < 0)
    live = ~dangling
    off = np.zeros(len(ptype), dtype=bool)
    off[live] = off_pair[ptype[live], ctype[live]]
    if allowed_edges and off.any():
        exempt = world.edge_positions(allowed_edges)
        off[exempt[exempt >= 0]] = False
    names = world.names
    for k in np.flatnonzero(dangling | off).tolist():
        parent, child = names[world.src[k]], names[world.dst[k]]
        if dangling[k]:
            report.add("dangling-relationship",
                       f"relationship ({parent!r}, {child!r}) references "
                       "a missing instance", (parent, child))
        else:
            report.add(
                "no-ontology-edge",
                f"relationship ({parent!r}, {child!r}) has type pair "
                f"({types[ptype[k]]!r}, {types[ctype[k]]!r}) with no "
                "ontology edge", (parent, child))

    report_cycle(report, "world", names, world.src[live], world.dst[live])
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


def _columns(data, kind, keys):
    """The columns (first, second, attributes) of data[kind], where `keys`
    names the two string fields, each read in one pass; None unless every
    entry passes `_check_entries`."""
    entries = data.get(kind, [])
    if not (isinstance(entries, list) and _all_of(entries, dict)):
        return None
    first, second = keys
    try:
        a = [entry[first] for entry in entries]
        b = [entry[second] for entry in entries]
    except KeyError:
        return None
    attributes = [entry.get("attributes", {}) for entry in entries]
    if not (_all_of(a, str) and _all_of(b, str) and _all_of(attributes, dict)):
        return None
    return a, b, attributes


def _all_of(values, cls):
    return all(issubclass(t, cls) for t in set(map(type, values)))


def _check_entries(data, kind, keys):
    """Raise ValueError naming the first malformed entry of data[kind]."""
    entries = data.get(kind, [])
    if not isinstance(entries, list):
        raise ValueError(f"{kind}: expected a list")
    for index, entry in enumerate(entries):
        check_entry(f"{kind}[{index}]", entry, keys)
        if not isinstance(entry.get("attributes", {}), dict):
            raise ValueError(f"{kind}[{index}]: 'attributes' must be an "
                             "object")


def world_from_dict(data):
    """Parse a world file's dict; raises ValueError naming the first entry
    that is malformed.  Only a kind of entry that fails the column check
    is walked entry by entry, to name the entry."""
    if not isinstance(data, dict):
        raise ValueError("world file: expected an object")
    columns = []
    for kind, keys in (("instances", ("id", "type_name")),
                       ("relationships", ("parent", "child"))):
        columns.append(_columns(data, kind, keys))
        if columns[-1] is None:
            _check_entries(data, kind, keys)
    nodes, (parents, children, attributes) = columns
    world = World.__new__(World)
    world._fill(map(TypeInstance, *nodes), parents, children,
                {k: attributes[k]
                 for k in compress(range(len(attributes)), attributes)})
    return world


def save_world(world, path):
    write_text(path, json_text(world_to_dict(world)))


def load_world(path):
    with open(path, encoding="utf-8") as fh:
        return world_from_dict(json.load(fh))
