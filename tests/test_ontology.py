import pytest

from tortrust.errors import OntologyError
from tortrust.ontology import (EdgeDef, Ontology, TypeDef, default_ontology,
                               extend_ontology, normalize_type_name,
                               ontology_from_dict, ontology_to_dict,
                               validate_ontology)


def test_default_ontology_is_valid(ontology):
    report = validate_ontology(ontology)
    assert report.ok, report.summary()


def test_default_output_types(ontology):
    assert ontology.output_types == frozenset({"Tor Relay", "Virtual Link"})


def test_normalize_type_name():
    assert normalize_type_name("Tor Relay") == "TorRelay"
    assert normalize_type_name("Router/Switch") == "RouterSwitch"
    assert normalize_type_name("AS") == "AS"


def test_resolve_accepts_both_spellings(ontology):
    assert ontology.resolve_type_name("TorRelay") == "Tor Relay"
    assert ontology.resolve_type_name("Tor Relay") == "Tor Relay"
    assert ontology.resolve_type_name("NoSuchThing") is None


def test_every_nonoutput_type_accepts_budget_and_ce(ontology):
    for t in ontology.types:
        names = {a.name for a in t.attributes}
        if t.is_output:
            assert "Budget" not in names
        else:
            assert {"Budget", "Compromise Effectiveness"} <= names


def test_duplicate_type_flagged():
    onto = Ontology(types=(TypeDef("A"), TypeDef("A")), edges=())
    assert "duplicate-type" in validate_ontology(onto).codes()


def test_dangling_edge_flagged():
    onto = Ontology(types=(TypeDef("A"),), edges=(EdgeDef("A", "B"),))
    assert "dangling-edge" in validate_ontology(onto).codes()


def test_system_edge_to_user_type_flagged():
    onto = Ontology(
        types=(TypeDef("A", label="system"), TypeDef("B", label="user")),
        edges=(EdgeDef("A", "B", label="system"),))
    assert "label-rule" in validate_ontology(onto).codes()


def test_output_type_with_outgoing_edge_flagged():
    onto = Ontology(
        types=(TypeDef("A", is_output=True), TypeDef("B")),
        edges=(EdgeDef("A", "B"),))
    assert "output-outgoing" in validate_ontology(onto).codes()


def test_type_cycle_flagged():
    # edges to undeclared types are reported as dangling, not as a cycle
    onto = Ontology(
        types=(TypeDef("A"), TypeDef("B"), TypeDef("C")),
        edges=(EdgeDef("A", "B"), EdgeDef("B", "A"),
               EdgeDef("C", "Z"), EdgeDef("Z", "C")))
    report = validate_ontology(onto)
    assert "cycle" in report.codes()
    cycles = [v for v in report.violations if v.code == "cycle"]
    assert [v.elements for v in cycles] == [("A", "B")]
    assert report.codes().count("dangling-edge") == 2


def test_extend_adds_user_type(ontology):
    extended = extend_ontology(
        ontology,
        new_types=(TypeDef("Treaty"),),
        new_edges=(EdgeDef("Treaty", "Legal Jurisdiction"),))
    assert extended.has_type("Treaty")
    assert extended.has_edge("Treaty", "Legal Jurisdiction")
    # original untouched
    assert not ontology.has_type("Treaty")


def test_extend_rejects_duplicate_name(ontology):
    with pytest.raises(OntologyError):
        extend_ontology(ontology, new_types=(TypeDef("AS"),))


def test_extend_rejects_cycle_creating_edge(ontology):
    with pytest.raises(OntologyError):
        extend_ontology(ontology,
                        new_edges=(EdgeDef("Tor Relay", "Relay Family"),))


def test_roundtrip_through_dict(ontology):
    assert ontology_from_dict(ontology_to_dict(ontology)) == ontology
