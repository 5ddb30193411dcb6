import dataclasses

import pytest

from tortrust.datasets import (ClusterRecord, DatasetBundle, GeoRecord,
                               PathRecord, RelayRecord, UptimeRecord,
                               load_bundle, save_bundle)
from tortrust.errors import DatasetError
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.world import (RelationshipInstance, TypeInstance, World,
                            validate_world, vlink_id, world_from_dict,
                            world_to_dict)
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
    assert world.attribute("relay:fp_01", "guard") == 1


def test_duplicate_relationships_collapse():
    rel = RelationshipInstance("as:1", "vlink:as1-relay:fp_01")
    world = World(
        instances=_toy_world().instances,
        relationships=(rel, rel, RelationshipInstance(
            "relay:fp_01", "vlink:as1-relay:fp_01")))
    assert len(world.relationships) == 2


def test_validate_clean(ontology):
    report = validate_world(_toy_world(), ontology)
    assert report.ok, report.summary()


def test_validate_flags_duplicate_id(ontology):
    world = World(instances=(TypeInstance("as:1", "AS"),
                             TypeInstance("as:1", "AS")))
    assert "duplicate-id" in validate_world(world, ontology).codes()


def test_validate_flags_unknown_type(ontology):
    world = World(instances=(TypeInstance("x", "Quantum Router"),))
    assert "unknown-type" in validate_world(world, ontology).codes()


def test_validate_flags_dangling_relationship(ontology):
    world = World(instances=(TypeInstance("as:1", "AS"),),
                  relationships=(RelationshipInstance("as:1", "ghost"),))
    assert "dangling-relationship" in validate_world(world, ontology).codes()


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


def test_validate_flags_cycle(ontology):
    # edges to unknown instances are reported as dangling, not as a cycle
    world = World(
        instances=(TypeInstance("as:1", "AS"), TypeInstance("as:2", "AS"),
                   TypeInstance("as:3", "AS")),
        relationships=(RelationshipInstance("as:1", "as:2"),
                       RelationshipInstance("as:2", "as:1"),
                       RelationshipInstance("as:3", "as:ghost"),
                       RelationshipInstance("as:ghost", "as:3")))
    report = validate_world(world, ontology)
    assert "cycle" in report.codes()
    cycles = [v for v in report.violations if v.code == "cycle"]
    assert [v.elements for v in cycles] == [("as:1", "as:2")]
    assert report.codes().count("dangling-relationship") == 2


def test_validate_flags_bad_attribute_value(ontology):
    world = World(instances=(
        TypeInstance("relay:a", "Tor Relay", {"Relay Software": 17}),))
    assert "attribute-type" in validate_world(world, ontology).codes()


def test_world_dict_roundtrip(small_world):
    assert world_from_dict(world_to_dict(small_world)) == small_world


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


def test_synth_rejects_oversized_families():
    with pytest.raises(ValueError):
        generate_synthetic(SynthParams(n_relays=4, family_sizes=(3, 3)), 1)


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
