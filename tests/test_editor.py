import copy
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tortrust.beliefs import (AddInstance, AddRelationship, BeliefDocument,
                              Budget1, Budget2, CE1, CE2, RemoveInstance,
                              RemoveRelationship, SetAttribute,
                              parse_belief_document)
from tortrust.bbn import bbn_to_dict, compile_bbn
from tortrust.editor import (EditedWorld, apply_structural, children_matching,
                             edited_world_from_dict, edited_world_to_dict,
                             resolve_attachments)
from tortrust.errors import CompileError, EditError
from tortrust.ontology import ontology_from_dict, validate_ontology
from tortrust.predicates import parse_predicate, select
from tortrust.world import (RelationshipInstance, TypeInstance, World,
                            validate_world)

from conftest import INVALID_ONTOLOGY, invalid_ontology_dict

BASE = World(
    instances=(
        TypeInstance("as:1", "AS"),
        TypeInstance("as:2", "AS"),
        TypeInstance("relay:a", "Tor Relay"),
        TypeInstance("relay:b", "Tor Relay"),
        TypeInstance("vlink:as1-relay:a", "Virtual Link"),
        TypeInstance("vlink:as1-relay:b", "Virtual Link"),
    ),
    relationships=(
        RelationshipInstance("as:1", "vlink:as1-relay:a"),
        RelationshipInstance("as:1", "vlink:as1-relay:b"),
    ))


def _apply(ontology, *beliefs, scale=None):
    doc = parse_belief_document(json.dumps({
        "scale": {"mapping": {"SC": 0.999, "LC": 0.85, "U": 0.5,
                              "LT": 0.15, "ST": 0.02}},
        "structural": list(beliefs),
        "trust": []}))
    return apply_structural(BASE, ontology, doc)


def test_novel_type_and_instance(ontology):
    ew = _apply(ontology,
                ["ut", "Treaty", {"name": "string"}, None],
                ["inst", "Treaty", {"name": "pact"}, "treaty:t1"],
                ["rel", "treaty:t1", "relay:a"])
    assert ew.world.type_of("treaty:t1") == "Treaty"
    assert ew.world.attribute("treaty:t1", "name") == "pact"
    assert "relay:a" in ew.world.children("treaty:t1")
    # base world untouched
    assert "treaty:t1" not in BASE


def test_instance_of_unknown_type_rejected(ontology):
    with pytest.raises(EditError, match="unknown type"):
        _apply(ontology, ["inst", "Teleporter", {}, "t:1"])


def test_duplicate_instance_rejected(ontology):
    with pytest.raises(EditError, match="already"):
        _apply(ontology, ["inst", "AS", {}, "as:1"])


def test_remove_instance_cascades(ontology):
    ew = _apply(ontology, ["rminst", "vlink:as1-relay:a"])
    assert "vlink:as1-relay:a" not in ew.world
    assert ew.world.children("as:1") == ("vlink:as1-relay:b",)


def test_remove_unknown_instance_rejected(ontology):
    with pytest.raises(EditError):
        _apply(ontology, ["rminst", "ghost"])


def test_relationship_endpoints_must_exist(ontology):
    with pytest.raises(EditError):
        _apply(ontology, ["rel", "as:1", "ghost"])


def test_user_edge_outside_ontology_is_tracked(ontology):
    # AS -> Tor Relay has no ontology edge pair; the editor keeps it as a
    # user-supplied relationship instead of rejecting the world.
    ew = _apply(ontology, ["rel", "as:1", "relay:a"])
    assert ("as:1", "relay:a") in ew.user_edges
    assert "relay:a" in ew.world.children("as:1")


def test_cycle_rejected(ontology):
    """Cycles are found where the final world is made, and named with
    every node on or below them, in the world constructor's words."""
    cycle = ("world graph has a cycle through {as:1, as:2, vlink:as1-relay:a, "
             "vlink:as1-relay:b}")
    with pytest.raises(EditError) as excinfo:
        _apply(ontology,
               ["rel", "as:1", "as:2"],
               ["rel", "as:2", "as:1"])
    assert str(excinfo.value) == cycle
    with pytest.raises(EditError, match=r"cycle through \{as:2\}"):
        _apply(ontology, ["rel", "as:2", "as:2"])


def test_only_the_final_world_must_be_acyclic(ontology):
    ew = _apply(ontology,
                ["rel", "vlink:as1-relay:a", "as:1"],
                ["rmrel", "as:1", "vlink:as1-relay:a"])
    assert ew.world.children("vlink:as1-relay:a") == ("as:1",)
    assert ew.user_edges == {("vlink:as1-relay:a", "as:1")}


def test_edits_run_in_document_order(ontology):
    # Instance, relationship and attribute edits are not sorted by kind:
    # each sees only the edits listed before it.
    with pytest.raises(EditError, match="references unknown instance 'as:3'"):
        _apply(ontology, ["rel", "as:3", "relay:b"], ["inst", "AS", {}, "as:3"])
    ew = _apply(ontology, ["inst", "AS", {}, "as:3"], ["rel", "as:3", "relay:b"])
    assert ew.world.children("as:3") == ("relay:b",)
    with pytest.raises(EditError, match="unknown instance 'relay:a'"):
        _apply(ontology, ["rminst", "relay:a"],
               ["attr", "relay:a", "Relay Software", "linux"])
    ew = _apply(ontology, ["attr", "relay:a", "Relay Software", "linux"],
                ["rminst", "relay:a"])
    assert "relay:a" not in ew.world
    # Novel types alone are declared ahead of every edit.
    ew = _apply(ontology, ["inst", "Treaty", {}, "treaty:t1"],
                ["ut", "Treaty", None, None])
    assert ew.world.type_of("treaty:t1") == "Treaty"


def test_remove_relationship(ontology):
    ew = _apply(ontology, ["rmrel", "as:1", "vlink:as1-relay:a"])
    assert ew.world.children("as:1") == ("vlink:as1-relay:b",)


def test_set_attribute(ontology):
    ew = _apply(ontology, ["attr", "relay:a", "Relay Software", "linux"])
    assert ew.world.attribute("relay:a", "Relay Software") == "linux"


def test_set_attribute_type_checked(ontology):
    # final validation gate catches values that clash with the ontology
    with pytest.raises(EditError):
        _apply(ontology, ["attr", "relay:a", "Relay Software", 5])


def _trust_doc(*beliefs):
    return parse_belief_document(json.dumps({
        "scale": {"mapping": {"SC": 0.999, "LC": 0.85, "U": 0.5,
                              "LT": 0.15, "ST": 0.02}},
        "structural": [], "trust": list(beliefs)}))


def test_budget_attaches(ontology):
    doc = _trust_doc(["bu1", "as:1", "VirtualLink", 4],
                     ["bu2", "as:2", "all", 1])
    ew = apply_structural(BASE, ontology, doc)
    assert ew.budgets["as:1"] == (Budget1("as:1", "VirtualLink", 4),)
    assert ew.budgets["as:2"] == (Budget2("as:2", 1),)


def test_budget_on_unknown_instance_rejected(ontology):
    with pytest.raises(EditError):
        apply_structural(BASE, ontology,
                         _trust_doc(["bu1", "ghost", "VirtualLink", 2]))


def test_negative_budget_rejected(ontology):
    with pytest.raises(EditError, match="negative k"):
        apply_structural(BASE, ontology, _trust_doc(["bu2", "as:1", "all", -1]))


def test_ce_attaches(ontology):
    doc = _trust_doc(["ce1", "as:1", 'id in {"vlink:as1-relay:a"}', "LC"])
    ew = apply_structural(BASE, ontology, doc)
    (spec,) = ew.ce_specs["as:1"]
    assert isinstance(spec, CE1)
    assert spec.v == "LC"


def test_overlapping_ce_predicates_rejected(ontology):
    doc = _trust_doc(
        ["ce1", "as:1", 'id in {"vlink:as1-relay:a"}', "LC"],
        ["ce1", "as:1", "is VirtualLink", "U"])
    with pytest.raises(EditError, match="overlap"):
        apply_structural(BASE, ontology, doc)


def test_scope_attribute_warnings_count_the_scope(ontology, caplog):
    """An attribute test in a ce1 scope counts the children in scope that
    lack the attribute, not every instance of the world."""
    links = {a: [f"vlink:as{a}-relay:{r}" for r in "ab"] for a in (1, 2, 3)}
    world = World(
        [TypeInstance(f"as:{a}", "AS") for a in links]
        + [TypeInstance(v, "Virtual Link") for a in links for v in links[a]],
        [RelationshipInstance(f"as:{a}", v) for a in links for v in links[a]])
    doc = BeliefDocument(trust=tuple(
        CE1(f"as:{a}", parse_predicate('attr("x") = 1'), "LC")
        for a in links))
    with caplog.at_level("WARNING", logger="tortrust"):
        ew = apply_structural(world, ontology, doc)
        compile_bbn(ew, doc.trust, doc.scale)
    assert [r.getMessage() for r in caplog.records
            if r.name == "tortrust.predicates"] == \
        ["attribute 'x' is missing on 2 instance(s)"] * 6


def test_ce2_supersedes_ce1(ontology, caplog):
    doc = _trust_doc(
        ["ce1", "as:1", 'id in {"vlink:as1-relay:a"}', "LC"],
        ["ce2", "as:1", "top", "U"])
    with caplog.at_level("WARNING"):
        ew = apply_structural(BASE, ontology, doc)
    assert ew.ce_specs["as:1"] == (CE2("as:1", "U"),)
    assert "ce" in caplog.text.lower()


def test_top_ce_suppression_reported_once_in_two_steps(ontology, caplog):
    """apply_structural and then compile_bbn with the whole trust list warn
    once, and build the network that compile_bbn alone builds."""
    doc = _trust_doc(
        ["ce1", "as:1", 'id in {"vlink:as1-relay:a"}', "LC"],
        ["ce2", "as:1", "top", "U"])

    def compiled(ew):
        caplog.clear()
        with caplog.at_level("WARNING", logger="tortrust"):
            bbn = compile_bbn(ew, doc.trust, doc.scale)
        return bbn, [r for r in caplog.records
                     if "suppresses 1 other CE" in r.getMessage()]

    with caplog.at_level("WARNING", logger="tortrust"):
        ew = apply_structural(BASE, ontology, doc)
    assert "suppresses 1 other CE" in caplog.text
    two_step, warnings = compiled(ew)
    assert warnings == []
    one_step, warnings = compiled(EditedWorld(world=BASE, ontology=ontology))
    assert len(warnings) == 1
    assert bbn_to_dict(two_step) == bbn_to_dict(one_step)


def test_two_ce2_rejected(ontology):
    doc = _trust_doc(["ce2", "as:1", "top", "U"],
                     ["ce2", "as:1", "top", "LC"])
    with pytest.raises(EditError):
        apply_structural(BASE, ontology, doc)


def test_budget_ce_overlap_rejected(ontology):
    doc = _trust_doc(["bu1", "as:1", "VirtualLink", 2],
                     ["ce2", "as:1", "top", "U"])
    with pytest.raises(EditError, match="overlap"):
        apply_structural(BASE, ontology, doc)


def test_children_matching(ontology):
    ew = _apply(ontology)
    pred = parse_predicate('id in {"vlink:as1-relay:b"}')
    assert children_matching(ew, "as:1", pred) == ("vlink:as1-relay:b",)


def test_edited_world_roundtrip(ontology):
    doc = _trust_doc(["bu1", "as:1", "VirtualLink", 4],
                     ["ce1", "as:2", "is VirtualLink", "LC"])
    ew = apply_structural(BASE, ontology, doc)
    again = edited_world_from_dict(edited_world_to_dict(ew))
    assert again.world == ew.world
    assert again.budgets == ew.budgets
    assert again.ce_specs == ew.ce_specs
    assert again.user_edges == ew.user_edges


def test_document_without_edits_keeps_the_input_world(ontology):
    doc = _trust_doc(["bu1", "as:1", "VirtualLink", 4],
                     ["ce1", "as:2", "is VirtualLink", "LC"])
    assert apply_structural(BASE, ontology, doc).world is BASE
    # a novel type changes the ontology only
    ew = _apply(ontology, ["ut", "Treaty", {"name": "string"}, None])
    assert ew.world is BASE
    assert ew.ontology.has_type("Treaty")
    assert ew.user_edges == frozenset()


def test_edits_leave_the_input_world_unchanged(ontology):
    before = copy.deepcopy(BASE)
    ew = _apply(ontology,
                ["inst", "AS", {}, "as:3"],
                ["rel", "as:3", "relay:b"],
                ["rmrel", "as:1", "vlink:as1-relay:a"],
                ["attr", "relay:a", "Relay Software", "linux"],
                ["rminst", "vlink:as1-relay:b"])
    assert ew.world != BASE
    assert ew.world.children("as:3") == ("relay:b",)
    assert ew.world.attribute("relay:a", "Relay Software") == "linux"
    assert BASE == before
    assert BASE.children("as:1") == ("vlink:as1-relay:a", "vlink:as1-relay:b")
    assert BASE.attribute("relay:a", "Relay Software") is None


def test_required_attribute_must_be_given(ontology):
    with pytest.raises(EditError, match="\\[missing-attribute\\] instance "
                       "'cam:1' lacks required attribute 'model'"):
        _apply(ontology, ["ut", "Camera", {"model": "string"}, None],
               ["inst", "Camera", {}, "cam:1"])
    ew = _apply(ontology, ["ut", "Camera", {"model": "string"}, None],
                ["inst", "Camera", {"model": "x1"}, "cam:1"])
    assert ew.world.attribute("cam:1", "model") == "x1"


@pytest.mark.parametrize("budgets, ce_specs, message", [
    ([], [["ce1", "as:1", "is VirtualLink", "LC"],
          ["ce1", "as:1", 'id in {"vlink:as1-relay:b"}', "U"]],
     "CE predicates on 'as:1' overlap at child 'vlink:as1-relay:b'"),
    ([["bu2", "as:1", "all", 1]], [["ce1", "as:1", "is VirtualLink", "LC"]],
     "budget and CE beliefs on 'as:1' overlap at children "
     "['vlink:as1-relay:a', 'vlink:as1-relay:b']"),
])
def test_loader_rejects_overlapping_attachments(ontology, budgets, ce_specs,
                                                message):
    data = edited_world_to_dict(EditedWorld(world=BASE, ontology=ontology))
    data.update(budgets=budgets, ce_specs=ce_specs)
    with pytest.raises(EditError) as excinfo:
        edited_world_from_dict(data)
    assert str(excinfo.value) == message


def test_resolving_an_edited_worlds_beliefs_again(ontology, caplog):
    """An edited world keeps each budget once, in order, silenced ones
    included, and the CE beliefs that take effect: the last bu2 silences
    the other budgets, a ce2 drops the other CE beliefs.  Resolving them
    again gives the same scopes and logs nothing."""
    trust = (["bu1", "as:1", "VirtualLink", 1],
             ["bu2", "as:1", "all", 3],
             ["bu2", "as:1", "all", 2],
             ["bu2", "as:1", "all", 3],
             ["bu1", "as:2", "VirtualLink", 4],
             ["bu1", "as:2", "VirtualLink", 4],
             ["ce1", "relay:a", "is VirtualLink", "LC"],
             ["ce2", "relay:a", "top", "U"],
             ["ce2", "relay:a", "top", "U"])
    doc = _trust_doc(*trust)
    with caplog.at_level("WARNING", logger="tortrust"):
        ew = apply_structural(BASE, ontology, doc)
        assert "suppresses 1 other CE" in caplog.text
        caplog.clear()
        assert ew.budgets == {"as:1": (Budget1("as:1", "VirtualLink", 1),
                                       Budget2("as:1", 3),
                                       Budget2("as:1", 2)),
                              "as:2": (Budget1("as:2", "VirtualLink", 4),)}
        assert ew.ce_specs == {"relay:a": (CE2("relay:a", "U"),)}
        scopes = resolve_attachments(BASE, ontology, doc.trust)
        caplog.clear()
        kept = [b for beliefs in (*ew.budgets.values(),
                                  *ew.ce_specs.values()) for b in beliefs]
        assert resolve_attachments(BASE, ontology, kept) == scopes
        again = edited_world_from_dict(edited_world_to_dict(ew))
        assert (again.budgets, again.ce_specs) == (ew.budgets, ew.ce_specs)
    assert caplog.records == []
    assert scopes[0]["as:1"] == (
        (Budget1("as:1", "VirtualLink", 1), ()), (Budget2("as:1", 3), ()),
        (Budget2("as:1", 2), ("vlink:as1-relay:a", "vlink:as1-relay:b")))
    assert scopes[1]["relay:a"] == ((CE2("relay:a", "U"), ()),)


def test_invalid_ontology_rejected_wherever_an_edited_world_is_made():
    bad = ontology_from_dict(invalid_ontology_dict())
    message = "edited world is invalid:\n" + INVALID_ONTOLOGY
    with pytest.raises(EditError) as excinfo:
        apply_structural(BASE, bad, _trust_doc())
    assert str(excinfo.value) == message
    data = edited_world_to_dict(EditedWorld(world=BASE, ontology=bad))
    with pytest.raises(EditError) as excinfo:
        edited_world_from_dict(data)
    assert str(excinfo.value) == message


def test_novel_type_checked_by_the_gate(ontology):
    with pytest.raises(EditError, match=r"\[duplicate-type\] type 'AS' "
                       "declared twice"):
        _apply(ontology, ["ut", "AS", None, None])


@pytest.mark.parametrize("tname", ["TorRelay", "Tor-Relay"])
def test_novel_type_of_a_declared_identifier_form_rejected(ontology, tname):
    with pytest.raises(EditError, match=re.escape(
            f"[duplicate-type] types 'Tor Relay' and {tname!r} share the "
            "identifier form 'TorRelay'")):
        _apply(ontology, ["ut", tname, None, None])


def test_is_and_inst_name_one_type(ontology):
    ew = _apply(ontology, ["ut", "Treaty Org", None, None],
                ["inst", "TreatyOrg", {}, "treaty:1"],
                ["inst", "Treaty Org", {}, "treaty:2"],
                ["inst", "TorRelay", {}, "relay:c"])
    assert ew.world.of_type("Treaty Org") == ("treaty:1", "treaty:2")
    assert select(ew.world, parse_predicate("is TreatyOrg").root) == \
        ("treaty:1", "treaty:2")
    assert ew.world.type_of("relay:c") == "Tor Relay"


def test_edited_world_keeps_the_document_scale(ontology):
    doc = parse_belief_document(json.dumps({
        "scale": {"ce_mapping": {"SC": 0.9, "LC": 0.3, "U": 0.5,
                                 "LT": 0.1, "ST": 0.05}},
        "trust": [["ce2", "as:1", "top", "LC"]]}))
    ew = apply_structural(BASE, ontology, doc)
    assert ew.scale == doc.scale
    assert edited_world_from_dict(edited_world_to_dict(ew)).scale == doc.scale


def test_world_violation_reported_before_attachments(ontology):
    doc = parse_belief_document(json.dumps({
        "structural": [["attr", "relay:a", "Relay Software", 5]],
        "trust": [["bu2", "ghost", "all", 1]]}))
    with pytest.raises(EditError, match="attribute-type"):
        apply_structural(BASE, ontology, doc)
    data = edited_world_to_dict(EditedWorld(world=BASE, ontology=ontology))
    data["src"].append(data["names"].index("relay:a"))
    data["dst"].append(data["names"].index("as:1"))
    data["budgets"] = [["bu2", "ghost", "all", 1]]
    with pytest.raises(EditError, match="no-ontology-edge"):
        edited_world_from_dict(data)


@pytest.mark.parametrize("type_name", ["Teleporter", "Tele Porter"])
def test_budget_of_an_unknown_type_rejected(ontology, type_name):
    message = f"budget on 'as:1' names unknown type {type_name!r}"
    with pytest.raises(EditError) as excinfo:
        resolve_attachments(BASE, ontology, [Budget1("as:1", type_name, 2)])
    assert str(excinfo.value) == message
    ew = EditedWorld(world=BASE, ontology=ontology)
    with pytest.raises(CompileError) as excinfo:
        compile_bbn(ew, [Budget1("as:1", type_name, 2)])
    assert str(excinfo.value) == message
    for spelling in ("Virtual Link", "VirtualLink"):
        budgets, _ = resolve_attachments(BASE, ontology,
                                         [Budget1("as:1", spelling, 1)])
        assert budgets["as:1"][0][1] == ("vlink:as1-relay:a",
                                         "vlink:as1-relay:b")


# --- the editor against a reference --------------------------------------

_IDS = ["a", "b", "c", "d", "e", "f"]
_TYPES = ("AS", "Tor Relay", "Virtual Link")


def _reference_edit(world, ontology, edits):
    """The edits applied to a plain instance dict and edge set, with the
    editor's unknown-id and duplicate-id errors, then a cycle check by
    peeling off the nodes with no parent left, then the built world
    validated against the ontology: (world, user edges), or EditError."""
    types = {i.id: i.type_name for i in world.instances}
    attributes = {i.id: dict(i.attributes) for i in world.instances}
    edges = set(world.edges)
    user = set()
    for edit in edits:
        if isinstance(edit, AddInstance):
            if edit.id in types:
                raise EditError("duplicate id")
            types[edit.id] = edit.type_name
            attributes[edit.id] = dict(edit.data)
        elif isinstance(edit, RemoveInstance):
            if edit.id not in types:
                raise EditError("unknown id")
            del types[edit.id], attributes[edit.id]
            edges = {e for e in edges if edit.id not in e}
            user &= edges
        elif isinstance(edit, AddRelationship):
            pair = (edit.parent, edit.child)
            if not set(pair) <= types.keys():
                raise EditError("unknown id")
            if pair not in edges and not ontology.has_edge(
                    types[edit.parent], types[edit.child]):
                user.add(pair)
            edges.add(pair)
        elif isinstance(edit, RemoveRelationship):
            pair = (edit.parent, edit.child)
            if pair not in edges:
                raise EditError("unknown relationship")
            edges.discard(pair)
            user.discard(pair)
        else:
            if edit.id not in types:
                raise EditError("unknown id")
            attributes[edit.id][edit.name] = edit.value
    left = set(types)
    while left:
        roots = left - {c for p, c in edges if p in left}
        if not roots:
            raise EditError("cycle")
        left -= roots
    built = World(tuple(TypeInstance(i, types[i], attributes[i])
                        for i in types),
                  tuple(RelationshipInstance(p, c) for p, c in edges))
    if not (validate_ontology(ontology).ok and validate_world(
            built, ontology, allowed_edges=user).ok):
        raise EditError("invalid")
    return built, user


@st.composite
def _cases(draw):
    """A world of at most six AS, Tor Relay and Virtual Link instances with
    some of its AS -> Virtual Link edges, and one to six edits over its
    ids and two fresh ones."""
    ids = draw(st.lists(st.sampled_from(_IDS), max_size=6, unique=True))
    types = {i: draw(st.sampled_from(_TYPES)) for i in ids}
    pairs = [(p, c) for p in ids for c in ids
             if (types[p], types[c]) == ("AS", "Virtual Link")]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs \
        else []
    world = World(tuple(TypeInstance(i, types[i]) for i in ids),
                  tuple(RelationshipInstance(p, c) for p, c in edges))
    node = st.sampled_from(ids + ["g"])
    pair = st.tuples(node, node)
    present = st.one_of(st.sampled_from(edges), pair) if edges else pair
    edits = draw(st.lists(st.one_of(
        st.builds(AddInstance, st.sampled_from(_TYPES), st.just({}),
                  st.one_of(st.sampled_from(["g", "h"]), node)),
        st.builds(RemoveInstance, node),
        pair.map(lambda e: AddRelationship(*e)),
        present.map(lambda e: RemoveRelationship(*e)),
        st.builds(SetAttribute, node, st.just("Relay Software"),
                  st.sampled_from(["linux", 5]))), min_size=1, max_size=6))
    return world, edits


@settings(max_examples=200, deadline=None)
@given(_cases())
@example((BASE, [AddRelationship("vlink:as1-relay:a", "as:1"),    # a cycle
                 RemoveRelationship("as:1", "vlink:as1-relay:a")]))  # undone
@example((BASE, [AddRelationship("as:1", "as:2"),      # a cycle that stays
                 AddRelationship("as:2", "as:1")]))
@example((BASE, [AddRelationship("as:1", "as:2"),      # a user edge, removed
                 RemoveRelationship("as:1", "as:2")]))
def test_editor_matches_the_reference(ontology, case):
    """`apply_structural` fails exactly when the reference does, and
    otherwise gives its world and user edges."""
    world, edits = case
    doc = BeliefDocument(structural=tuple(edits))
    try:
        expected = _reference_edit(world, ontology, edits)
    except EditError:
        with pytest.raises(EditError):
            apply_structural(world, ontology, doc)
        return
    ew = apply_structural(world, ontology, doc)
    assert (ew.world, ew.user_edges) == expected
