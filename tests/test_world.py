import dataclasses
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tortrust
from tortrust import synth
from tortrust.beliefs import Absolute, Relative
from tortrust.bbn import compile_bbn
from tortrust.cli import main
from tortrust.datasets import (ClusterRecord, DatasetBundle, GeoRecord,
                               PathRecord, RelayRecord, UptimeRecord,
                               load_bundle, save_bundle)
from tortrust.editor import EditedWorld
from tortrust.errors import CompileError, DatasetError
from tortrust.ontology import AttributeDef, TypeDef
from tortrust.predicates import parse_predicate
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.validation import (ValidationReport, check_entry,
                                 topological_order)
from tortrust.world import (RelationshipInstance, TypeInstance, World,
                            _value_conforms, validate_world, vlink_id,
                            world_from_dict, world_to_dict)
from tortrust.worldgen import build_world, family_uptime


# --- world container ---------------------------------------------------------

def _toy_world():
    return World(
        instances=(
            TypeInstance("as:1", "AS"),
            TypeInstance("relay:fp_01", "Tor Relay", {"guard": 1}),
            TypeInstance("vlink:as1-relay:fp_01", "Virtual Link"),
        ),
        relationships=(
            RelationshipInstance("as:1", "vlink:as1-relay:fp_01"),
        ))


def test_world_lookup_and_edges():
    world = _toy_world()
    assert "as:1" in world
    assert world.type_of("relay:fp_01") == "Tor Relay"
    assert world.children("as:1") == ("vlink:as1-relay:fp_01",)
    assert world.parents("vlink:as1-relay:fp_01") == ("as:1",)
    assert world.of_type("AS") == ("as:1",)
    assert world.of_type("Teleporter") == ()
    assert world.attribute("relay:fp_01", "guard") == 1


def test_duplicate_relationships_collapse():
    rel = RelationshipInstance("as:1", "vlink:as1-relay:fp_01")
    world = World(
        instances=_toy_world().instances,
        relationships=(rel, rel, RelationshipInstance(
            "relay:fp_01", "vlink:as1-relay:fp_01")))
    assert len(world.relationships) == 2


def test_instances_are_read_from_the_columns():
    """No module keeps an index of instances by id, and outside world.py
    nothing reads the TypeInstance view `.instances`."""
    src = os.path.dirname(tortrust.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            source = fh.read()
        assert "by_id" not in source, name
        if name != "world.py":
            assert not re.search(r"\.instances\b", source), name


def test_validate_clean(ontology):
    report = validate_world(_toy_world(), ontology)
    assert report.ok, report.summary()


def test_validate_reports_missing_required_attributes(ontology):
    camera = TypeDef("Camera", attributes=(
        AttributeDef("model", "string", requirement="required"),
        AttributeDef("lens", "string", requirement="required"),
        AttributeDef("note", "string")))
    onto = dataclasses.replace(ontology, types=ontology.types + (camera,))
    world = World((TypeInstance("cam:1", "Camera"),
                   TypeInstance("cam:2", "Camera", {"lens": "wide"}),
                   TypeInstance("cam:3", "Camera",
                                {"model": "x1", "lens": "wide"})), ())
    assert _violations(validate_world(world, onto)) == [
        ("missing-attribute",
         "instance 'cam:1' lacks required attribute 'model'",
         ("cam:1", "model")),
        ("missing-attribute",
         "instance 'cam:1' lacks required attribute 'lens'",
         ("cam:1", "lens")),
        ("missing-attribute",
         "instance 'cam:2' lacks required attribute 'model'",
         ("cam:2", "model"))]


def test_validate_flags_duplicate_id(tmp_path, capsys):
    """A repeated instance id is rejected where a world is made, so no
    world holds one; `world validate` exits 3 on such a file."""
    twice = "instance id 'as:1' used twice"
    with pytest.raises(ValueError, match=twice):
        World(instances=(TypeInstance("as:1", "AS"),
                         TypeInstance("as:1", "AS")))
    with pytest.raises(ValueError, match=twice):
        World.from_columns(["as:1", "as:2", "as:1"], ["AS"] * 3, [{}] * 3,
                           [], [], [])
    data = {"instances": [{"id": "as:1", "type_name": "AS"},
                          {"id": "as:1", "type_name": "IXP"}]}
    with pytest.raises(ValueError, match=twice):
        world_from_dict(data)
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    assert main(["world", "validate", "--world", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {twice}\n"


def test_validate_flags_unknown_type(ontology):
    world = World(instances=(TypeInstance("x", "Quantum Router"),))
    assert "unknown-type" in validate_world(world, ontology).codes()


def test_validate_flags_dangling_relationship():
    """A relationship whose endpoint is no instance is rejected where a
    world is made, naming the first such relationship in input order."""
    missing = "relationship ('as:1', 'ghost') references a missing instance"
    relationships = (RelationshipInstance("as:1", "ghost"),
                     RelationshipInstance("as:0", "as:1"))
    with pytest.raises(ValueError, match=re.escape(missing)):
        World(instances=(TypeInstance("as:1", "AS"),),
              relationships=relationships)
    with pytest.raises(ValueError, match=re.escape(missing)):
        World.from_columns(["as:1"], ["AS"], [{}],
                           ["as:1", "as:0"], ["ghost", "as:1"], [{}, {}])


def test_validate_flags_edge_without_ontology_pair(ontology):
    world = World(
        instances=(TypeInstance("relay:a", "Tor Relay"),
                   TypeInstance("as:1", "AS")),
        relationships=(RelationshipInstance("as:1", "relay:a"),))
    report = validate_world(world, ontology)
    assert "no-ontology-edge" in report.codes()
    # the same edge passes when explicitly allowed (user-added edges)
    clean = validate_world(world, ontology,
                           allowed_edges=(("as:1", "relay:a"),))
    assert clean.ok


def test_validate_flags_cycle(tmp_path, capsys):
    """A cycle is rejected where a world is made, naming every node on or
    below it in id order, so no world holds one and `world validate` exits
    3 on such a file."""
    cycle = "world graph has a cycle through {as:1, as:2, as:4}"
    ids = ["as:1", "as:2", "as:3", "as:4"]
    edges = [("as:2", "as:4"), ("as:1", "as:2"), ("as:2", "as:1"),
             ("as:3", "as:1")]
    _assert_rejects_cycle(cycle, [TypeInstance(i, "AS") for i in ids],
                          [RelationshipInstance(p, c) for p, c in edges])
    path = tmp_path / "world.json"
    path.write_text(json.dumps({
        "instances": [{"id": i, "type_name": "AS"} for i in ids],
        "relationships": [{"parent": p, "child": c} for p, c in edges]}))
    assert main(["world", "validate", "--world", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {cycle}\n"


def test_validate_flags_bad_attribute_value(ontology):
    world = World(instances=(
        TypeInstance("relay:a", "Tor Relay", {"Relay Software": 17}),))
    assert "attribute-type" in validate_world(world, ontology).codes()


def test_world_dict_roundtrip(small_world):
    assert world_from_dict(world_to_dict(small_world)) == small_world


def _world_dict(instances, relationships):
    """The world file's dict of these instances and relationships, in
    their order."""
    return {"instances": [{"id": i.id, "type_name": i.type_name,
                           "attributes": i.attributes} for i in instances],
            "relationships": [{"parent": r.parent, "child": r.child,
                               "attributes": r.attributes}
                              for r in relationships]}


def _reference_cycle(instances, relationships):
    """The message of `_reference_check_acyclic` on these instances and
    relationships, or None when it finds no cycle."""
    report = ValidationReport()
    children = {i.id: [] for i in instances}
    for r in relationships:
        children[r.parent].append(r.child)
    _reference_check_acyclic(report, children, "world")
    return report.violations[0].message if report.violations else None


def _assert_rejects_cycle(message, instances, relationships):
    """World(...), World.from_columns and world_from_dict each raise the
    ValueError `message`."""
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        World(instances, relationships)
    with pytest.raises(ValueError, match=exact):
        World.from_columns(
            *([getattr(i, key) for i in instances]
              for key in ("id", "type_name", "attributes")),
            *([getattr(r, key) for r in relationships]
              for key in ("parent", "child", "attributes")))
    with pytest.raises(ValueError, match=exact):
        world_from_dict(_world_dict(instances, relationships))


def _world_unless_cyclic(instances, relationships):
    """World(instances, relationships); None when the reference finds a
    cycle, after checking that every way of making the world raises the
    reference's message."""
    cycle = _reference_cycle(instances, relationships)
    if cycle is not None:
        _assert_rejects_cycle(cycle, instances, relationships)
        return None
    return World(instances, relationships)


# --- edge storage ------------------------------------------------------------

_IDS = st.sampled_from(["as:1", "as:10", "as:2", "relay:a", "relay:b",
                        "vlink:as1-relay:a"])
_ATTRS = st.one_of(st.just({}), st.just({}), st.dictionaries(
    st.sampled_from(["weight", "note"]), st.integers(0, 3), min_size=1))


def _old_relationships(relationships):
    """The previous storage rule: the first occurrence of a (parent, child)
    pair wins, and the pairs are kept sorted."""
    unique = {}
    for r in relationships:
        unique.setdefault((r.parent, r.child), r)
    return tuple(unique[k] for k in sorted(unique))


@st.composite
def _edges_among(draw, ids, max_size):
    """(parent, child, attributes) triples whose endpoints are in `ids`;
    in about half the draws each edge follows a drawn order of `ids`, so
    that they are acyclic."""
    if not ids:
        return []
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    _ATTRS), max_size=max_size))
    if draw(st.booleans()):
        rank = dict(zip(draw(st.permutations(ids)), range(len(ids))))
        edges = [(*sorted((p, c), key=rank.get), a) for p, c, a in edges
                 if p != c]
    return edges


@settings(max_examples=80, deadline=None)
@given(st.lists(_IDS, unique=True, max_size=6), st.data(),
       st.randoms(use_true_random=False))
def test_edge_storage_matches_old_rules(ids, drawn, rnd):
    edges = drawn.draw(_edges_among(ids, 14))
    instances = [TypeInstance(i, "AS") for i in ids]
    relationships = [RelationshipInstance(p, c, a) for p, c, a in edges]
    rnd.shuffle(instances)
    world = _world_unless_cyclic(instances, relationships)
    if world is None:
        return
    assert world.relationships == _old_relationships(relationships)
    assert world.edges == tuple((r.parent, r.child)
                                for r in world.relationships)
    assert [i.id for i in world.instances] == sorted(ids)
    for node in ids:
        assert world.children(node) == tuple(sorted(
            r.child for r in world.relationships if r.parent == node))
        assert world.parents(node) == tuple(sorted(
            r.parent for r in world.relationships if r.child == node))
    assert world_from_dict(world_to_dict(world)) == world
    for name, value in (("instances", ()), ("edges", ()),
                        ("edge_attributes", {}), ("relationships", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(world, name, value)


_TYPES = st.sampled_from(["AS", "Tor Relay", "Quantum Router"])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_IDS, st.tuples(_TYPES, _ATTRS), max_size=6),
       st.data(), st.randoms(use_true_random=False))
def test_column_world_matches_a_dict_reference(nodes, drawn, rnd):
    """Instances are stored as columns alone: every lookup agrees with a
    plain {id: (type, attributes)} map, and every way of making a world
    rejects a repeated id and a relationship to an id that is no
    instance, ahead of a cycle."""
    edges = drawn.draw(_edges_among(sorted(nodes), 10))
    instances = [TypeInstance(i, t, a) for i, (t, a) in nodes.items()]
    rnd.shuffle(instances)
    relationships = [RelationshipInstance(p, c, a) for p, c, a in edges]
    world = _world_unless_cyclic(instances, relationships)
    if world is not None:
        _check_column_lookups(world, nodes, edges)
    data = _world_dict(instances, relationships)

    other = rnd.choice([*nodes, "ghost"])
    p, c = rnd.choice([("ghost", other), (other, "ghost")])
    missing = f"relationship ({p!r}, {c!r}) references a missing instance"
    dangling = list(relationships)
    dangling.insert(rnd.randrange(len(edges) + 1), RelationshipInstance(p, c))
    with pytest.raises(ValueError, match=re.escape(missing)):
        World(instances, dangling)
    with pytest.raises(ValueError, match=re.escape(missing)):
        World.from_columns(
            *([getattr(i, key) for i in instances]
              for key in ("id", "type_name", "attributes")),
            *([getattr(r, key) for r in dangling]
              for key in ("parent", "child", "attributes")))
    bad = _world_dict(instances, dangling)
    with pytest.raises(ValueError, match=re.escape(missing)):
        world_from_dict(bad)

    if instances:
        repeat = rnd.choice(instances)
        data["instances"].insert(rnd.randrange(len(instances) + 1), {
            "id": repeat.id, "type_name": repeat.type_name,
            "attributes": repeat.attributes})
        twice = f"instance id {repeat.id!r} used twice"
        with pytest.raises(ValueError, match=re.escape(twice)):
            World([*instances, repeat], relationships)
        with pytest.raises(ValueError, match=re.escape(twice)):
            World.from_columns(*([i[key] for i in data["instances"]] for key
                                 in ("id", "type_name", "attributes")),
                               [], [], [])
        with pytest.raises(ValueError, match=re.escape(twice)):
            world_from_dict(data)


def _check_column_lookups(world, nodes, edges):
    """Every lookup of `world` agrees with `nodes`, {id: (type,
    attributes)}, and the world round-trips."""
    for node in (*nodes, *(p for p, _, _ in edges), "zz"):
        assert (node in world) == (node in nodes)
        if node in nodes:
            type_name, attributes = nodes[node]
            assert world.type_of(node) == type_name
            assert world.attribute(node, "weight") == attributes.get("weight")
            assert world.attribute(node, "note", 7) == attributes.get("note", 7)
        else:
            with pytest.raises(KeyError):
                world.type_of(node)
            with pytest.raises(KeyError):
                world.attribute(node, "weight")
    for type_name in ("AS", "Tor Relay", "Quantum Router", "Teleporter"):
        assert world.of_type(type_name) == tuple(sorted(
            i for i, (t, _) in nodes.items() if t == type_name))
    assert world.instances == tuple(TypeInstance(i, *nodes[i])
                                    for i in sorted(nodes))
    assert World(world.instances, world.relationships) == world
    assert world_from_dict(world_to_dict(world)) == world


# --- integer-coded validation against the string-keyed rules ----------------

def _reference_check_acyclic(report, children, graph):
    """The string-keyed cycle check: every node of `children` ({node: its
    children}) that a Kahn sort cannot remove; children missing from the
    map are ignored."""
    indeg = dict.fromkeys(children, 0)
    for kids in children.values():
        for c in kids:
            if c in indeg:
                indeg[c] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    while queue:
        for c in children[queue.pop()]:
            if c in indeg:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
    cycle = sorted(n for n, d in indeg.items() if d > 0)
    if cycle:
        report.add("cycle",
                   f"{graph} graph has a cycle through {{{', '.join(cycle)}}}",
                   cycle)


def _reference_validate_world(world, ontology, allowed_edges=()):
    """The string-keyed world validation: one loop over the instances, one
    over the (parent, child) pairs.  A world holds no cycle, so there is
    none to report."""
    report = ValidationReport()
    for inst in world.instances:
        tdef = ontology.type_map.get(inst.type_name)
        if tdef is None:
            report.add("unknown-type",
                       f"instance {inst.id!r} has undeclared type "
                       f"{inst.type_name!r}", (inst.id,))
            continue
        declared = {a.name: a for a in tdef.attributes}
        for name, value in inst.attributes.items():
            adef = declared.get(name)
            if adef is not None and not _value_conforms(value,
                                                        adef.data_type):
                report.add(
                    "attribute-type",
                    f"instance {inst.id!r} attribute {name!r} does not "
                    f"conform to {adef.data_type}", (inst.id, name))
    exempt = set(allowed_edges)
    by_id = {i.id: i for i in world.instances}
    for parent, child in world.edges:
        if (parent, child) in exempt:
            continue
        ptype, ctype = by_id[parent].type_name, by_id[child].type_name
        if (ontology.has_type(ptype) and ontology.has_type(ctype)
                and not ontology.has_edge(ptype, ctype)):
            report.add(
                "no-ontology-edge",
                f"relationship ({parent!r}, {child!r}) has type pair "
                f"({ptype!r}, {ctype!r}) with no ontology edge",
                (parent, child))
    return report


# "Quantum Router" is undeclared; "Relay Software" must be a string.
_NODE_IDS = ("a", "b", "c", "d", "e")
_NODE_TYPES = ("AS", "Tor Relay", "Virtual Link", "Relay Family",
               "AS Organization", "Quantum Router")
_NODE_ATTRS = ({}, {}, {"Relay Software": "linux"}, {"Relay Software": 17},
               {"note": 1})


@st.composite
def _small_worlds(draw):
    """(instances, relationships, allowed edges): undeclared types, bad
    attributes, off-ontology edges and, unless the edges are drawn acyclic,
    cycles; every edge joins two instances."""
    instances = draw(st.lists(st.builds(
        TypeInstance, st.sampled_from(_NODE_IDS),
        st.sampled_from(_NODE_TYPES), st.sampled_from(_NODE_ATTRS)),
        max_size=7, unique_by=lambda inst: inst.id))
    ids = [inst.id for inst in instances]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids),
                                    st.sampled_from(ids)), max_size=14)
                 if ids else st.just([]))
    if draw(st.booleans()):
        rank = {node: r for r, node in enumerate(draw(st.permutations(
            _NODE_IDS)))}
        pairs = [tuple(sorted(pair, key=rank.get)) for pair in pairs
                 if pair[0] != pair[1]]
    relationships = [RelationshipInstance(p, c) for p, c in pairs]
    allowed = draw(st.lists(st.sampled_from(pairs), max_size=3)
                   if pairs else st.just([]))
    allowed += draw(st.lists(st.tuples(st.sampled_from(_NODE_IDS),
                                       st.sampled_from(_NODE_IDS)),
                             max_size=2))
    return instances, relationships, allowed


def _violations(report):
    return [(v.code, v.message, v.elements) for v in report.violations]


@settings(max_examples=300, deadline=None)
@given(_small_worlds())
@example(([TypeInstance("a", "AS"), TypeInstance("b", "Tor Relay")],
          [RelationshipInstance("a", "b")],
          [("a", "ghost")]))            # an allowed pair that is no edge
def test_validate_matches_string_reference(ontology, case):
    instances, relationships, allowed = case
    world = _world_unless_cyclic(instances, relationships)
    if world is None:
        return
    assert _violations(validate_world(world, ontology, allowed)) == \
        _violations(_reference_validate_world(world, ontology, allowed))


@settings(max_examples=150, deadline=None)
@given(_small_worlds())
def test_children_and_parents_answer_from_the_ranks(case):
    instances, relationships, _ = case
    world = _world_unless_cyclic(instances, relationships)
    if world is None:
        return
    for node in (*_NODE_IDS, "zz"):
        assert world.children(node) == tuple(sorted(
            r.child for r in world.relationships if r.parent == node))
        assert world.parents(node) == tuple(sorted(
            r.parent for r in world.relationships if r.child == node))


def _compiled(world, ontology):
    trust = (Absolute(parse_predicate("is RelayFamily"), 0.2),
             Relative("r", parse_predicate("is AS"), 0.1))
    try:
        return compile_bbn(EditedWorld(world=world, ontology=ontology),
                           trust)
    except CompileError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(_small_worlds())
def test_world_dict_roundtrip_keeps_the_network(ontology, case):
    instances, relationships, _ = case
    world = _world_unless_cyclic(instances, relationships)
    if world is None:
        return
    loaded = world_from_dict(world_to_dict(world))
    assert loaded == world
    assert _compiled(loaded, ontology) == _compiled(world, ontology)


_ENTRY_KEYS = {"instances": ("id", "type_name"),
               "relationships": ("parent", "child")}
_NOT_AN_OBJECT = st.sampled_from([1, 2.5, "as:1", None, True, ["id"]])
_NOT_A_STRING = st.sampled_from([1, 2.5, None, True, ["as:1"], {"id": "x"}])
_NOT_AN_ATTRIBUTE_OBJECT = st.sampled_from([[], ["a"], "x", 0, None, False])


@st.composite
def _corrupted(draw, entry, keys):
    """`entry` made malformed: not an object, a key missing, a key that is
    no string, or attributes that are no object."""
    how = draw(st.sampled_from(["object", "missing", "string", "attributes"]))
    if how == "object":
        return draw(_NOT_AN_OBJECT)
    entry = dict(entry)
    if how == "missing":
        del entry[draw(st.sampled_from(keys))]
    elif how == "string":
        entry[draw(st.sampled_from(keys))] = draw(_NOT_A_STRING)
    else:
        entry["attributes"] = draw(_NOT_AN_ATTRIBUTE_OBJECT)
    return entry


def _entry_message(where, entry, keys):
    """The message of `check_entry`, or else of the attributes rule."""
    try:
        check_entry(where, entry, keys)
    except ValueError as exc:
        return str(exc)
    return f"{where}: 'attributes' must be an object"


@settings(max_examples=200, deadline=None)
@given(_small_worlds(), st.data())
def test_world_reader_names_the_first_bad_entry(case, drawn):
    """With one to three entries of a world dict made malformed at random
    positions, `world_from_dict` names the first of them, instances before
    relationships, with the message `check_entry` or the attributes rule
    gives for it."""
    instances, relationships, _ = case
    data = _world_dict(instances, relationships)
    data["instances"].append({"id": "z", "type_name": "AS"})
    data["relationships"].append({"parent": "z", "child": "a"})
    for kind in _ENTRY_KEYS:
        for entry in data[kind]:
            if entry.get("attributes") == {} and drawn.draw(st.booleans()):
                del entry["attributes"]
    positions = [(kind, index) for kind in _ENTRY_KEYS
                 for index in range(len(data[kind]))]
    bad = drawn.draw(st.lists(st.sampled_from(positions), min_size=1,
                              max_size=3, unique=True))
    for kind, index in bad:
        data[kind][index] = drawn.draw(_corrupted(data[kind][index],
                                                  _ENTRY_KEYS[kind]))
    kind, index = min(bad, key=lambda at: (at[0] == "relationships", at[1]))
    message = _entry_message(f"{kind}[{index}]", data[kind][index],
                             _ENTRY_KEYS[kind])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        world_from_dict(data)


@st.composite
def _rank_graphs(draw):
    n = draw(st.integers(0, 14))
    if n == 0:
        return 0, [], []
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=30))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        edges = [tuple(sorted(e, key=rank.__getitem__)) for e in edges
                 if e[0] != e[1]]
    return n, [p for p, _ in edges], [c for _, c in edges]


@settings(max_examples=400, deadline=None)
@given(_rank_graphs())
@example((4, [1, 2, 2], [2, 1, 3]))     # a node below a cycle stays out
def test_topological_order_is_the_least_kahn_order(graph):
    """Each step takes the smallest node whose parents are all placed, and
    the order stops only when no such node is left."""
    n, src, dst = graph
    order = topological_order(n, src, dst)
    parents = [{p for p, c in zip(src, dst) if c == r} for r in range(n)]
    placed = set()
    for r in [*order, None]:
        ready = [v for v in range(n)
                 if v not in placed and parents[v] <= placed]
        assert r == min(ready, default=None)
        placed.add(r)


# --- datasets ----------------------------------------------------------------

def _toy_bundle():
    return DatasetBundle(
        consensus=(
            RelayRecord("fp_a", 65001, guard=True, bandwidth=100,
                        family=("fp_b",), os="linux", ip="10.0.0.1"),
            RelayRecord("fp_b", 65002, exit=True, bandwidth=50,
                        family=("fp_a",), os="windows", ip="10.1.0.1"),
        ),
        as_paths=(
            PathRecord(65001, 65002, as_path=(65001, 65002), ixps=(1,)),
            PathRecord(65002, 65001, as_path=(65002, 65001), ixps=(1,)),
        ),
        geo=(GeoRecord("relay:fp_a", "de", 52.5, 13.4),
             GeoRecord("ixp:1", "de", 50.1, 8.7)),
        uptime=(UptimeRecord(0, ("fp_a", "fp_b")),
                UptimeRecord(1, ("fp_a",))),
    )


def test_bundle_roundtrip(tmp_path):
    bundle = _toy_bundle()
    save_bundle(bundle, str(tmp_path / "b"))
    assert load_bundle(str(tmp_path / "b")) == bundle


def test_bundle_rejects_duplicate_fingerprints():
    relay = RelayRecord("fp_a", 65001)
    with pytest.raises(DatasetError):
        DatasetBundle(consensus=(relay, relay)).check()


def test_load_reports_bad_line(tmp_path):
    bundle = _toy_bundle()
    save_bundle(bundle, str(tmp_path / "b"))
    path = tmp_path / "b" / "consensus.jsonl"
    path.write_text(path.read_text() + "{not json\n")
    with pytest.raises(DatasetError, match="consensus.jsonl:3"):
        load_bundle(str(tmp_path / "b"))


@pytest.mark.parametrize("line,message", [
    ("[1, 2]", "consensus.jsonl:3: bad record: expected a JSON object"),
    ('{"as_number": 1}',
     "consensus.jsonl:3: bad record: missing 'fingerprint'"),
    ('{"fingerprint": "fp_c", "as_number": true}',
     "consensus.jsonl:3: bad record: 'as_number' must be an integer, "
     "not a boolean"),
    ('{"fingerprint": "fp_c", "as_number": 1.5}',
     "consensus.jsonl:3: bad record: 'as_number' must be an integer, "
     "not a number"),
    ('{"fingerprint": "fp_c", "as_number": 1, "family": "fp_a"}',
     "consensus.jsonl:3: bad record: 'family' must be a list, not a string"),
    ('{"fingerprint": "fp_c", "as_number": 1, "guard": 1}',
     "consensus.jsonl:3: bad record: 'guard' must be a boolean, "
     "not an integer"),
    ('{"fingerprint": null, "as_number": 1}',
     "consensus.jsonl:3: bad record: 'fingerprint' must be a string, "
     "not null"),
])
def test_load_names_malformed_record(tmp_path, line, message):
    save_bundle(_toy_bundle(), str(tmp_path / "b"))
    path = tmp_path / "b" / "consensus.jsonl"
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_bundle(str(tmp_path / "b"))


def test_load_ignores_unknown_keys_and_fills_defaults(tmp_path):
    (tmp_path / "consensus.jsonl").write_text(
        '{"fingerprint": "fp_a", "as_number": 1, "family": ["fp_b"], '
        '"note": "ignored"}\n')
    bundle = load_bundle(str(tmp_path))
    assert bundle.consensus == (RelayRecord("fp_a", 1, family=("fp_b",)),)


def test_load_accepts_an_integer_for_a_float(tmp_path):
    (tmp_path / "geo.jsonl").write_text(
        '{"entity": "ixp:1", "country": "de", "lat": 50, "lon": 8.5}\n')
    bundle = load_bundle(str(tmp_path))
    assert bundle.geo == (GeoRecord("ixp:1", "de", 50, 8.5),)


# --- synthetic generation ----------------------------------------------------

def test_synth_deterministic(small_bundle):
    params = SynthParams(n_as=12, n_ixp=2, n_relays=10,
                         family_sizes=(2, 2), as_org_sizes=(3,),
                         ixp_org_sizes=(2,), n_epochs=8)
    assert generate_synthetic(params, seed=42) == small_bundle
    assert generate_synthetic(params, seed=43) != small_bundle


def test_synth_flag_fractions(small_bundle):
    guards = [r for r in small_bundle.consensus if r.guard]
    exits = [r for r in small_bundle.consensus if r.exit]
    assert len(guards) == 4   # ceil(10 * 0.4)
    assert len(exits) == 3    # ceil(10 * 0.3)


def test_synth_families_are_mutual(small_bundle):
    by_fp = {r.fingerprint: r for r in small_bundle.consensus}
    declared = [r for r in small_bundle.consensus if r.family]
    assert len(declared) == 4
    for r in declared:
        for other in r.family:
            assert r.fingerprint in by_fp[other].family


def test_synth_paths_cover_both_directions(small_bundle):
    pairs = {(p.src, p.dst) for p in small_bundle.as_paths}
    assert all((d, s) in pairs for s, d in pairs)


def test_synth_drop_fraction_breaks_symmetry():
    params = SynthParams(n_as=12, n_ixp=2, n_relays=10,
                         drop_one_direction_fraction=0.5)
    bundle = generate_synthetic(params, seed=1)
    pairs = {(p.src, p.dst) for p in bundle.as_paths}
    missing = [(s, d) for s, d in pairs if (d, s) not in pairs]
    assert missing


@pytest.mark.parametrize("field,value,message", [
    ("drop_one_direction_fraction", -0.5,
     "drop_one_direction_fraction must be in"),
    ("drop_one_direction_fraction", 1.5,
     "drop_one_direction_fraction must be in"),
    ("n_ixp", -1, "n_ixp must not be negative"),
    ("n_epochs", -1, "n_epochs must not be negative"),
    ("family_sizes", (-1,), "family_sizes entries must be integers >= 1, "
                            "got -1"),
    ("family_sizes", (5, -2), "family_sizes entries must be integers >= 1, "
                              "got -2"),
    ("family_sizes", (2.0,), "family_sizes entries must be integers >= 1, "
                             "got 2.0"),
    ("as_org_sizes", (0, -1), "as_org_sizes entries must be integers >= 1, "
                              "got 0"),
    ("ixp_org_sizes", (True,), "ixp_org_sizes entries must be integers "
                               ">= 1, got True"),
])
def test_synth_rejects_out_of_range_parameters(field, value, message):
    with pytest.raises(ValueError, match=message):
        generate_synthetic(SynthParams(**{field: value}), 1)


def test_synth_rejects_negative_seed():
    with pytest.raises(ValueError,
                       match=r"^seed must be a non-negative integer, got -1$"):
        generate_synthetic(SynthParams(), -1)


def test_synth_rejects_oversized_families():
    with pytest.raises(ValueError):
        generate_synthetic(SynthParams(n_relays=4, family_sizes=(3, 3)), 1)


def test_unconnected_as_graph_exits_3(monkeypatch, tmp_path, capsys):
    """When none of 200 rewired rings is connected, `world synth` refuses
    with a package error, not a crash."""
    monkeypatch.setattr(synth, "shortest_paths",
                        lambda adj, src: {src: (src,)})
    out = tmp_path / "bundle"
    assert main(["world", "synth", "--seed", "1", "--n-as", "6",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: no connected graph of 6 ASes in 200 tries\n")
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("n_as", 10.5, "n_as must be an integer, got 10.5"),
    ("n_relays", 10.0, "n_relays must be an integer, got 10.0"),
    ("max_path_len", 3.5, "max_path_len must be an integer, got 3.5"),
    ("n_epochs", True, "n_epochs must be an integer, got True"),
    ("n_as", 1, "n_as must be at least 2"),
    ("max_path_len", 0, "max_path_len must be at least 1"),
    ("guard_fraction", float("nan"), "guard_fraction must be in [0,1]"),
    ("exit_fraction", 1.5, "exit_fraction must be in [0,1]"),
    ("drop_one_direction_fraction", "0.5",
     "drop_one_direction_fraction must be in [0,1]"),
])
def test_synth_counts_are_integers_and_fractions_probabilities(field, value,
                                                              message):
    """Each count is checked by the integer rule and each fraction by the
    probability rule before anything is drawn: a fractional count used to
    fail inside networkx or numpy, or pass silently."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_synthetic(SynthParams(**{field: value}), 1)


def test_synth_takes_numpy_counts_and_fractions():
    params = SynthParams(n_as=np.int64(12), n_ixp=np.int32(2),
                         n_relays=np.int64(10), guard_fraction=np.float64(0.4))
    assert generate_synthetic(params, 3) == generate_synthetic(
        SynthParams(n_as=12, n_ixp=2, n_relays=10), 3)


def test_non_finite_location_breaks_the_attribute_rule(ontology):
    """A library-built world whose relay location holds NaN or inf fails
    the coordinate-pair rule, as a string does."""
    for lat in (float("nan"), float("inf"), "52.1"):
        world = World(instances=(TypeInstance(
            "relay:fp_a", "Tor Relay", {"Physical Location": [lat, 4.3]}),))
        assert validate_world(world, ontology).codes() == ["attribute-type"]


# --- world generation --------------------------------------------------------

def test_family_uptime_mean():
    bundle = _toy_bundle()
    # fp_a runs 2/2 epochs, fp_b runs 1/2 -> (2 + 1) / (2 * 2)
    assert family_uptime(bundle, ("fp_a", "fp_b")) == pytest.approx(0.75)


def test_family_uptime_requires_epochs():
    with pytest.raises(DatasetError):
        family_uptime(DatasetBundle(), ("fp_a",))


def test_build_world_links_every_as_to_every_entry_exit(ontology,
                                                        small_bundle,
                                                        small_world):
    ases = {int(i.split(":")[1]) for i in small_world.of_type("AS")}
    entry_exit = [r for r in small_bundle.consensus if r.guard or r.exit]
    for asn in ases:
        for relay in entry_exit:
            assert vlink_id(asn, relay.fingerprint) in small_world


def test_build_world_relay_attributes(ontology, small_bundle, small_world):
    record = small_bundle.consensus[0]
    rid = f"relay:{record.fingerprint}"
    assert small_world.attribute(rid, "Relay Software") == record.os
    assert small_world.attribute(rid, "bandwidth") == record.bandwidth
    assert small_world.attribute(rid, "as_number") == record.as_number


def test_build_world_families_match_components(small_world):
    families = small_world.of_type("Relay Family")
    # 10 relays, two declared pairs -> 2 pair families + 6 singletons
    sizes = sorted(len(small_world.children(f)) for f in families)
    assert sizes == [1] * 6 + [2, 2]


def test_build_world_is_valid(ontology, small_world):
    report = validate_world(small_world, ontology)
    assert report.ok, report.summary()


def test_build_world_rejects_unknown_org_member(ontology):
    bundle = _toy_bundle()
    bad = dataclasses.replace(
        bundle, as_clusters=(ClusterRecord("org", (99999,)),))
    with pytest.raises(DatasetError):
        build_world(ontology, bad)


def test_validate_reports_every_edge_of_a_bad_type_pair(ontology):
    """Edges sharing one undeclared type pair are each reported, in edge
    order; an allowed user edge of that pair is not."""
    world = World(
        instances=(TypeInstance("as:1", "AS"), TypeInstance("as:2", "AS"),
                   TypeInstance("relay:a", "Tor Relay"),
                   TypeInstance("relay:b", "Tor Relay"),
                   TypeInstance("relay:c", "Tor Relay"),
                   TypeInstance("vlink:1a", "Virtual Link"),
                   TypeInstance("q:1", "Quantum Router")),
        relationships=(RelationshipInstance("as:2", "relay:c"),
                       RelationshipInstance("as:1", "relay:b"),
                       RelationshipInstance("as:1", "vlink:1a"),
                       RelationshipInstance("as:2", "relay:a"),
                       RelationshipInstance("as:1", "relay:a"),
                       RelationshipInstance("q:1", "relay:a"),
                       RelationshipInstance("as:1", "q:1")))
    report = validate_world(world, ontology,
                            allowed_edges=(("as:2", "relay:a"),))
    assert [(v.code, v.message, v.elements) for v in report.violations] == [
        ("unknown-type",
         "instance 'q:1' has undeclared type 'Quantum Router'", ("q:1",)),
        ("no-ontology-edge",
         "relationship ('as:1', 'relay:a') has type pair ('AS', 'Tor Relay') "
         "with no ontology edge", ("as:1", "relay:a")),
        ("no-ontology-edge",
         "relationship ('as:1', 'relay:b') has type pair ('AS', 'Tor Relay') "
         "with no ontology edge", ("as:1", "relay:b")),
        ("no-ontology-edge",
         "relationship ('as:2', 'relay:c') has type pair ('AS', 'Tor Relay') "
         "with no ontology edge", ("as:2", "relay:c"))]
