"""World graphs: typed instances and compromise-propagation relationships.

A world is a DAG whose vertices are instances of ontology types (ASes,
relays, virtual links, organizations, ...) and whose edges mean "compromise
of the parent propagates to the child".  Worlds are immutable value objects;
the editor produces modified copies, or hands back the same world when a
belief document edits nothing.

A world is stored once, as columns, where it is built or read: the sorted
ids of its instances, one type code per id, the attributes of only the
instances that have any, and each edge once as a pair of int32 ranks,
sorted.  No object is kept per instance: the TypeInstance tuple
`World.instances`, like `World.edges` and `World.relationships`, is a view
built on demand; `children` and `parents` read the rank arrays.
`World.from_columns`, the constructor from id columns, raises ValueError
on a repeated instance id, a relationship whose parent or child is no
instance, or a cycle; `validate_world` checks only the ontology's rules.

A world file is written in format 2, which holds the same columns: the
sorted `names`, the sorted `type_names`, one `type_code` per name, the
`attributes` of the instances that have any, the `src` and `dst` rank
arrays and the `edge_attributes` as [src rank, dst rank, attributes].
`world_from_dict` also reads the row format, a list of `instances` and a
list of `relationships`, because people write it by hand.  Each format's
fields are one table, read by `validation.read_record`, which names the
first field or entry of the wrong kind; this module checks only what a
kind cannot say (sorted names, ranks in range, lengths that agree), and
both formats end in the constructor's one tail, which de-duplicates and
sorts the edges, rejects a cycle and keeps read-only copies of the
attribute values, down to each list (a tuple, which JSON cannot hold,
is kept as a list): `attribute` returns a list value as a read-only list,
and the `instances` and `relationships` views and `world_to_dict` hand
out plain copies.

Node identifiers are plain strings with a short type prefix, e.g.
"as:3356", "relay:fp_ab12", "vlink:as3356-relay:fp_ab12"; only the
`*_id` functions below write or read one.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import InvalidInputError
from .files import json_text, read_json, write_text
from .ontology import DATA_TYPES
from .validation import (REQUIRED, ValidationReport, find_cycle, is_integer,
                         read_record)

# Values stay JSON-native (str/int/float/bool/list/dict) so world files
# round-trip losslessly; string-sets are sorted lists.

WORLD_FORMAT = 2        # the columnar layout, the only one written


def as_id(asn):
    return f"as:{asn}"


def ixp_id(ixp):
    return f"ixp:{ixp}"


def relay_id(fingerprint):
    return f"relay:{fingerprint}"


def link_id(as_node, relay):
    """The id of the virtual link of AS id `as_node` and relay id `relay`."""
    return f"vlink:{as_node.replace(':', '', 1)}-{relay}"


def vlink_id(asn, fingerprint):
    return link_id(as_id(asn), relay_id(fingerprint))


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


class ReadOnlyDict(dict):
    """A dict that refuses every change; it copies and pickles as a new one."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a read-only value cannot be changed")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class _ReadOnlyList(list):
    """A list that refuses every change; it copies and pickles as a new one."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = append = clear = \
        extend = insert = pop = remove = reverse = sort = \
        ReadOnlyDict._refuse

    def __reduce__(self):
        return type(self), (list(self),)


def frozen(value):
    """`value` read-only down to each dict and list, copied unless it is; a
    tuple becomes the read-only list, as JSON has no tuple."""
    if isinstance(value, (ReadOnlyDict, _ReadOnlyList)):
        return value
    if isinstance(value, dict):
        return ReadOnlyDict(zip(value, map(frozen, value.values())))
    if isinstance(value, (list, tuple)):
        return _ReadOnlyList(map(frozen, value))
    return value


def _thawed(value):
    """A plain copy of `value`, each dict and list in it a new one."""
    if isinstance(value, dict):
        return dict(zip(value, map(_thawed, value.values())))
    if isinstance(value, list):
        return list(map(_thawed, value))
    return value


@dataclass(frozen=True, init=False, eq=False)
class World:
    """Immutable instance DAG, stored once as columns.

    `names` holds the instance ids, sorted, and `index` maps each to its
    rank there.  `type_code[r]` indexes `type_names` for instance r;
    `attributes` maps only the instances with attributes, read-only down
    to each list in a value.  Each relationship joins two instances and is
    stored once as a rank pair (`src[k]`, `dst[k]`), int32, sorted;
    `edge_attributes` maps only the (parent, child) pairs with attributes,
    read-only too.  `edges` is a view built on first use; `instances` and
    `relationships` are built on each use, with plain copies.
    """

    names: tuple
    type_names: tuple
    type_code: np.ndarray
    attributes: dict
    src: np.ndarray
    dst: np.ndarray
    edge_attributes: dict

    def __init__(self, instances=(), relationships=()):
        instances, relationships = list(instances), list(relationships)
        vars(self).update(vars(World.from_columns(
            [i.id for i in instances], [i.type_name for i in instances],
            [i.attributes for i in instances],
            [r.parent for r in relationships], [r.child for r in relationships],
            [r.attributes for r in relationships])))

    @classmethod
    def from_columns(cls, ids, type_names, attributes, parents, children,
                     edge_attributes):
        """Instance k is ids[k] of type type_names[k] with attributes[k], and
        edge k joins parents[k] to children[k] with edge_attributes[k]; the
        first of a repeated edge wins.  ValueError names the first repeated
        id, else the first edge whose endpoint is no instance, else every
        node on or below a cycle, in id order."""
        types = dict(zip(ids, type_names))
        if len(types) < len(ids):
            repeat = next(i for i, n in Counter(ids).items() if n > 1)
            raise InvalidInputError(f"instance id {repeat!r} used twice")
        names = tuple(sorted(types))
        index = dict(zip(names, range(len(names))))
        try:
            src = np.fromiter(map(index.__getitem__, parents), np.int64,
                              len(parents))
            dst = np.fromiter(map(index.__getitem__, children), np.int64,
                              len(children))
        except KeyError:
            p, c = next((p, c) for p, c in zip(parents, children)
                        if p not in types or c not in types)
            raise InvalidInputError(f"relationship ({p!r}, {c!r}) references "
                                    "a missing instance") from None
        all_types = tuple(sorted(set(types.values())))
        code = dict(zip(all_types, range(len(all_types))))
        type_code = np.fromiter((code[types[i]] for i in names), np.int32,
                                len(names))
        return cls._from_ranks(
            names, index, all_types, type_code,
            {ids[k]: attributes[k]
             for k in compress(range(len(ids)), attributes)},
            src, dst, {k: edge_attributes[k] for k in compress(
                range(len(edge_attributes)), edge_attributes)})

    @classmethod
    def _from_ranks(cls, names, index, type_names, type_code, attributes,
                    src, dst, edge_attributes):
        """The tail of every constructor: the world on the sorted `names`
        ({name: rank} `index`), whose edge k joins rank src[k] to dst[k]
        (int64) and has the attributes {k: attributes} holds, if any.  Each
        edge is kept once, at its first position, and sorted; ValueError
        names every node on or below a cycle.  The world keeps read-only
        copies of the attribute values, so no caller can change them."""
        n = max(len(names), 1)
        keys = src * n + dst
        unique, first = np.unique(keys, return_index=True)
        cycle = find_cycle("world", names, unique // n, unique % n)
        if cycle:
            raise InvalidInputError(cycle[0])
        src = (unique // n).astype(np.int32)
        dst = (unique % n).astype(np.int32)
        for array in (type_code, src, dst):
            array.flags.writeable = False
        kept = np.fromiter(edge_attributes, np.int64, len(edge_attributes))
        kept = kept[np.isin(kept, first)]
        kept = kept[np.argsort(keys[kept])]             # in edge order
        world = cls.__new__(cls)
        vars(world).update(
            names=names, type_names=type_names, type_code=type_code,
            attributes=frozen(attributes), src=src, dst=dst,
            edge_attributes=ReadOnlyDict(
                ((names[key // n], names[key % n]),
                 frozen(edge_attributes[k]))
                for k, key in zip(kept.tolist(), keys[kept].tolist())),
            index=index)
        return world

    def __eq__(self, other):
        if not isinstance(other, World):
            return NotImplemented
        return (self.names == other.names
                and self.type_names == other.type_names
                and np.array_equal(self.type_code, other.type_code)
                and self.attributes == other.attributes
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and self.edge_attributes == other.edge_attributes)

    @property
    def instances(self):
        return tuple(TypeInstance(i, self.type_of(i),
                                  _thawed(self.attributes.get(i, {})))
                     for i in self.names)

    @cached_property
    def edges(self):
        names = self.names
        return tuple(zip(map(names.__getitem__, self.src.tolist()),
                         map(names.__getitem__, self.dst.tolist())))

    @property
    def relationships(self):
        attrs = self.edge_attributes
        return tuple(RelationshipInstance(p, c, _thawed(attrs.get((p, c), {})))
                     for p, c in self.edges)

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
        return node_id in self.index

    def type_of(self, node_id):
        return self.type_names[self.type_code[self.index[node_id]]]

    def attribute(self, node_id, name, default=None):
        self.type_of(node_id)           # KeyError unless an instance
        return self.attributes.get(node_id, {}).get(name, default)

    def children(self, node_id):
        """Child ids of a node, sorted: the run of its rank in `src`."""
        r = self.index.get(node_id, -1)
        lo, hi = np.searchsorted(self.src, (r, r + 1)).tolist()
        return tuple(map(self.names.__getitem__, self.dst[lo:hi].tolist()))

    def parents(self, node_id):
        """Parent ids of a node, sorted."""
        ranks = self.src[self.dst == self.index.get(node_id, -1)]
        return tuple(map(self.names.__getitem__, ranks.tolist()))

    def of_type(self, type_name):
        """Ids of the instances of type `type_name`, sorted."""
        if type_name not in self.type_names:
            return ()
        ranks = np.flatnonzero(self.type_code
                               == self.type_names.index(type_name))
        return tuple(map(self.names.__getitem__, ranks.tolist()))


def _value_conforms(value, data_type):
    """Whether `value` keeps the rule of `data_type`; an unknown data type
    takes any value."""
    rule = DATA_TYPES.get(data_type)
    return rule is None or rule(value)


def validate_world(world, ontology, allowed_edges=()):
    """Check world structure against the ontology.

    `allowed_edges` lists extra (parent_id, child_id) pairs that are exempt
    from the ontology-edge check (user-added relationships between user
    types get default propagation semantics instead of a declared edge).
    Instances are checked in id order: a declared type, every required
    attribute present (the required names are collected once per type),
    and each declared attribute of its data type; only the instances that
    can fail one of these are visited.  Edges are checked on the
    rank arrays: an edge is off the ontology when both its types are
    declared and the ontology has no edge between them (a type x type
    matrix); every offender is reported in edge order.  Repeated ids,
    dangling edges and cycles are the world constructor's to reject.
    """
    report = ValidationReport()
    rules = []                  # per type code: (declared, required names)
    for type_name in world.type_names:
        tdef = ontology.type_map.get(type_name)
        rules.append((None, ()) if tdef is None
                     else ({a.name: a for a in tdef.attributes},
                           tuple(a.name for a in tdef.attributes
                                 if a.requirement == "required")))
    risky = np.array([d is None or bool(r) for d, r in rules], dtype=bool)
    visit = risky[world.type_code]
    visit[[world.index[node] for node in world.attributes]] = True
    ranks = np.flatnonzero(visit).tolist()
    for node, code in zip(map(world.names.__getitem__, ranks),
                          world.type_code[ranks].tolist()):
        declared, required = rules[code]
        if declared is None:
            report.add("unknown-type",
                       f"instance {node!r} has undeclared type "
                       f"{world.type_names[code]!r}", (node,))
            continue
        attributes = world.attributes.get(node, {})
        for name in required:
            if name not in attributes:
                report.add("missing-attribute",
                           f"instance {node!r} lacks required attribute "
                           f"{name!r}", (node, name))
        for name, value in attributes.items():
            adef = declared.get(name)
            if adef is not None and not _value_conforms(value, adef.data_type):
                report.add(
                    "attribute-type",
                    f"instance {node!r} attribute {name!r} does not conform "
                    f"to {adef.data_type}", (node, name))

    types = world.type_names
    code = {t: k for k, t in enumerate(types)}
    known = np.array([ontology.has_type(t) for t in types], dtype=bool)
    off_pair = known[:, None] & known[None, :]
    for pair in ontology.edge_pairs:
        if pair[0] in code and pair[1] in code:
            off_pair[code[pair[0]], code[pair[1]]] = False
    ptype = world.type_code[world.src]
    ctype = world.type_code[world.dst]
    off = off_pair[ptype, ctype]
    if allowed_edges and off.any():
        exempt = world.edge_positions(allowed_edges)
        off[exempt[exempt >= 0]] = False
    names = world.names
    for k in np.flatnonzero(off).tolist():
        parent, child = names[world.src[k]], names[world.dst[k]]
        report.add(
            "no-ontology-edge",
            f"relationship ({parent!r}, {child!r}) has type pair "
            f"({types[ptype[k]]!r}, {types[ctype[k]]!r}) with no "
            "ontology edge", (parent, child))
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def world_to_dict(world):
    """The dict of a world file in format 2, the columnar layout: the world's
    columns as lists, its attributes as they are, and each edge attribute
    as [parent rank, child rank, attributes], in edge order."""
    index = world.index
    return {
        "format": WORLD_FORMAT, "names": list(world.names),
        "type_names": list(world.type_names),
        "type_code": world.type_code.tolist(),
        "attributes": _thawed(world.attributes),
        "src": world.src.tolist(), "dst": world.dst.tolist(),
        "edge_attributes": [[index[p], index[c], _thawed(value)] for (p, c),
                            value in world.edge_attributes.items()],
    }


# The fields of a world file: the row format, with those of its instances
# and relationships, and format 2.
_ROW_FIELDS = {
    "instances": ({"id": ("a string", REQUIRED),
                   "type_name": ("a string", REQUIRED),
                   "attributes": ("an object", {})}, []),
    "relationships": ({"parent": ("a string", REQUIRED),
                       "child": ("a string", REQUIRED),
                       "attributes": ("an object", {})}, []),
}
_COLUMN_FIELDS = {
    "format": ("an integer", REQUIRED),
    "names": ("a list of strings", REQUIRED),
    "type_names": ("a list of strings", REQUIRED),
    "type_code": ("a list of integers", REQUIRED),
    "attributes": ("an object of objects", {}),
    "src": ("a list of integers", REQUIRED),
    "dst": ("a list of integers", REQUIRED),
    "edge_attributes": ((("src", "an integer"), ("dst", "an integer"),
                         ("attributes", "an object")), []),
}


def world_fields(data):
    """The fields of the world file format of `data`: format 2, or the
    row format when it has no `format` key."""
    if not (isinstance(data, dict) and "format" in data):
        return _ROW_FIELDS
    if not (is_integer(data["format"]) and data["format"] == WORLD_FORMAT):
        raise InvalidInputError(
            f"world file: unknown format {data['format']!r}")
    return _COLUMN_FIELDS


def world_from_dict(data):
    """Parse a world file's dict, in format 2 or in the row format (no
    `format` key); raises ValueError naming the first malformed field or
    entry."""
    return world_from_fields(read_record(data, world_fields(data),
                                         "world file", InvalidInputError))


def world_from_fields(fields):
    """The world of the fields `read_record` read by `world_fields`."""
    if "format" not in fields:
        return World.from_columns(*fields["instances"].values(),
                                  *fields["relationships"].values())
    names = _increasing(fields["names"], "names")
    type_names = _increasing(fields["type_names"], "type_names")
    codes = _ranks(fields["type_code"], len(type_names), "type_names",
                   "type_code[{}]")
    if len(codes) != len(names):
        raise InvalidInputError(f"type_code: {len(codes)} codes for "
                                f"{len(names)} names")
    src, dst = (_ranks(fields[key], len(names), "names", key + "[{}]")
                for key in ("src", "dst"))
    if len(src) != len(dst):
        raise InvalidInputError(f"src and dst: {len(src)} and {len(dst)} "
                                "ranks, not one of each per edge")
    index = dict(zip(names, range(len(names))))
    attributes = fields["attributes"]
    if not all(map(index.__contains__, attributes)):
        key = next(key for key in attributes if key not in index)
        raise InvalidInputError(f"attributes: {key!r} is not an instance")
    # The edge attribute entries go ahead of the edges: the constructor
    # keeps the first position of a repeated edge, so a pair's first entry.
    edges = fields["edge_attributes"]
    s, d = (_ranks(edges[key], len(names), "names",
                   f"edge_attributes[{{}}][{k}]")
            for k, key in enumerate(("src", "dst")))
    if s.size:
        stray = np.flatnonzero(~np.isin(s * len(names) + d,
                                        src * len(names) + dst))
        if stray.size:
            i = stray[0]
            raise InvalidInputError(f"edge_attributes[{i}]: "
                                    f"({names[s[i]]!r}, {names[d[i]]!r}) is "
                                    "not an edge")
        src, dst = np.concatenate((s, src)), np.concatenate((d, dst))
    used, type_code = np.unique(codes, return_inverse=True)
    return World._from_ranks(
        tuple(names), index, tuple(map(type_names.__getitem__, used.tolist())),
        type_code.astype(np.int32),
        {key: value for key, value in attributes.items() if value},
        src, dst, {k: value for k, value in
                   enumerate(edges["attributes"]) if value})


def _increasing(values, key):
    """`values`, strings; InvalidInputError names the first that does not
    sort after the one before."""
    if all(map(str.__lt__, values, values[1:])):
        return values
    i = next(i for i in range(1, len(values)) if values[i] <= values[i - 1])
    if key == "names" and values[i] == values[i - 1]:
        raise InvalidInputError(f"instance id {values[i]!r} used twice")
    raise InvalidInputError(f"{key}[{i}]: {values[i]!r} does not sort after "
                            f"{values[i - 1]!r}")


def _ranks(values, bound, of, where):
    """`values`, integers, as int64; InvalidInputError names the first, at
    `where.format(i)`, that is not a position in `of` ({bound} entries)."""
    try:
        ranks = np.fromiter(values, np.int64, len(values))
    except OverflowError:               # past int64, so out of range
        pass
    else:
        if not ranks.size or 0 <= ranks.min() and ranks.max() < bound:
            return ranks
    i, value = next((i, v) for i, v in enumerate(values) if not 0 <= v < bound)
    raise InvalidInputError(f"{where.format(i)}: {value} is not a position "
                            f"in {of} ({bound} entries)")


def save_world(world, path):
    write_text(path, json_text(world_to_dict(world)))


def load_world(path):
    return world_from_dict(read_json(path))
