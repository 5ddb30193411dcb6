import os

import pytest

from tortrust.beliefs import build_the_man
from tortrust.bbn import compile_bbn
from tortrust.editor import EditedWorld, apply_structural
from tortrust.ontology import default_ontology, ontology_to_dict
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.world import RelationshipInstance, TypeInstance, World
from tortrust.worldgen import build_world

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def invalid_ontology_dict():
    """The default ontology as a dict, with the label "alien" on Legal
    Jurisdiction and an AS -> Legal Jurisdiction edge, which closes a type
    cycle."""
    data = ontology_to_dict(default_ontology())
    jurisdiction, = (t for t in data["types"]
                     if t["name"] == "Legal Jurisdiction")
    jurisdiction["label"] = "alien"
    data["edges"] += ({"from_type": "AS", "to_type": "Legal Jurisdiction"},)
    return data


# The validation report of `invalid_ontology_dict`.
INVALID_ONTOLOGY = (
    "2 violation(s):\n"
    "  [bad-label] type 'Legal Jurisdiction' has unknown label 'alien'\n"
    "  [cycle] type graph has a cycle through {AS, AS Organization, "
    "Corporation, Hosting Service, IXP, IXP Organization, Legal "
    "Jurisdiction, Router/Switch, Tor Relay, Virtual Link}")


def row_world_dict(instances, relationships):
    """The dict of a row-format world file, the layout people write by
    hand and the one files were written in before format 2: one entry per
    instance and one per relationship, in their order."""
    return {"instances": [{"id": i.id, "type_name": i.type_name,
                           "attributes": i.attributes} for i in instances],
            "relationships": [{"parent": r.parent, "child": r.child,
                               "attributes": r.attributes}
                              for r in relationships]}


@pytest.fixture(scope="session")
def ontology():
    return default_ontology()


@pytest.fixture(scope="session")
def small_bundle():
    params = SynthParams(n_as=12, n_ixp=2, n_relays=10,
                         family_sizes=(2, 2), as_org_sizes=(3,),
                         ixp_org_sizes=(2,), n_epochs=8)
    return generate_synthetic(params, seed=42)


@pytest.fixture(scope="session")
def small_world(ontology, small_bundle):
    return build_world(ontology, small_bundle)


@pytest.fixture(scope="session")
def the_man_doc(small_world):
    return build_the_man(small_world)


@pytest.fixture(scope="session")
def small_bbn(small_world, ontology, the_man_doc):
    ew = apply_structural(small_world, ontology, the_man_doc)
    return compile_bbn(ew, the_man_doc.trust, the_man_doc.scale)


@pytest.fixture
def make_edited(ontology):
    """Factory for tiny hand-built edited worlds.

    nodes: {id: type_name} or {id: (type_name, attrs)}; edges: (parent, child)
    pairs.  Skips the editor so tests can wire structures directly.
    """
    def make(nodes, edges=(), budgets=None, ce_specs=None):
        instances = []
        for node_id, value in nodes.items():
            if isinstance(value, tuple):
                type_name, attrs = value
            else:
                type_name, attrs = value, {}
            instances.append(TypeInstance(node_id, type_name, dict(attrs)))
        rels = tuple(RelationshipInstance(p, c) for p, c in edges)
        world = World(tuple(instances), rels)
        return EditedWorld(world=world, ontology=ontology,
                           budgets=budgets or {}, ce_specs=ce_specs or {},
                           user_edges=frozenset(edges))
    return make


@pytest.fixture(scope="session")
def corpus_world():
    """A small world valid under the default ontology that holds every id
    and attribute the fixture corpus `example_beliefs.json` names."""
    instances = [TypeInstance(f"country:{c}", "Legal Jurisdiction")
                 for c in ("ca", "jp", "nz", "xa", "xb", "xc")]
    instances += [
        TypeInstance("as:1", "AS"),
        TypeInstance("ixp:ams", "IXP", {"operator": "AMS-IX"}),
        TypeInstance("ixp:msk", "IXP", {"operator": "MSK-IX"}),
        TypeInstance("family:fp_aaaa", "Relay Family"),
        TypeInstance("family:fp_bbbb", "Relay Family"),
        TypeInstance("relay:fp_aaaa", "Tor Relay",
                     {"Relay Software": "windows"}),
        TypeInstance("relay:fp_bbbb", "Tor Relay",
                     {"Relay Software": "linux"}),
        TypeInstance("pc:1", "Physical Connection",
                     {"Connection Type": "submarine cable"}),
        TypeInstance("vlink:as1-relay:fp_aaaa", "Virtual Link"),
        TypeInstance("vlink:as1-relay:fp_bbbb", "Virtual Link")]
    edges = [("country:xa", "ixp:ams"), ("country:ca", "relay:fp_aaaa"),
             ("family:fp_aaaa", "relay:fp_aaaa"),
             ("family:fp_bbbb", "relay:fp_bbbb"),
             ("as:1", "vlink:as1-relay:fp_aaaa"),
             ("as:1", "vlink:as1-relay:fp_bbbb"),
             ("ixp:ams", "vlink:as1-relay:fp_aaaa"),
             ("pc:1", "vlink:as1-relay:fp_bbbb")]
    return World(instances, [RelationshipInstance(p, c) for p, c in edges])


@pytest.fixture
def example_doc_text():
    with open(os.path.join(FIXTURES, "example_beliefs.json"),
              encoding="utf-8") as fh:
        return fh.read()
