import pytest

from tortrust.beliefs import Absolute, TrustScale
from tortrust.bbn import Sampler, compile_bbn
from tortrust.editor import EditedWorld
from tortrust.ontology import default_ontology
from tortrust.pathsel import (Circuit, ClientLocation, consensus_view,
                              derive_seed, draw_default_circuits,
                              exits_by_as, first_last_probability,
                              greedy_placement, guard_exposure,
                              place_servers, placement_candidates,
                              placement_row, select_circuit, select_guards,
                              tor_default_circuit)
from tortrust.predicates import parse_predicate
from tortrust.world import RelationshipInstance, TypeInstance, World

SCALE = TrustScale()


def _world(instances, edges=()):
    world = World(tuple(TypeInstance(i, t, dict(a)) for i, t, a in instances),
                  tuple(RelationshipInstance(p, c) for p, c in edges))
    return EditedWorld(world=world, ontology=default_ontology(),
                       budgets={}, ce_specs={}, user_edges=frozenset(edges))


def _abs(node_id, p):
    return Absolute(parse_predicate(f'id in {{"{node_id}"}}'), p)


def _relay(rid, asn, *, guard=False, exit=False, bandwidth=100, ip=""):
    attrs = {"guard": int(guard), "exit": int(exit),
             "bandwidth": bandwidth, "as_number": asn}
    if ip:
        attrs["ip"] = ip
    return (rid, "Tor Relay", attrs)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, "as:1") == derive_seed(3, "as:1")
    assert derive_seed(3, "as:1") != derive_seed(3, "as:2")
    assert derive_seed(3, "as:1") != derive_seed(4, "as:1")
    assert 0 <= derive_seed("x") < 2 ** 63


# --- exposure and circuit scoring ---------------------------------------------

def _two_end_world():
    """Guard observed via a client-side link, exit via a destination link."""
    ew = _world(
        [("as:100", "AS", {}), ("as:200", "AS", {}),
         ("as:300", "AS", {}), ("as:400", "AS", {}),
         _relay("relay:g", 300, guard=True),
         _relay("relay:e", 400, exit=True),
         ("vlink:as100-relay:g", "Virtual Link", {}),
         ("vlink:as200-relay:e", "Virtual Link", {})],
        [("as:300", "vlink:as100-relay:g"),
         ("as:400", "vlink:as200-relay:e")])
    bbn = compile_bbn(ew, trust=(_abs("as:300", 0.2), _abs("as:400", 0.3)),
                      scale=SCALE)
    return ew, bbn


def test_guard_exposure_through_link():
    ew, bbn = _two_end_world()
    p = guard_exposure(bbn, ew.world, ClientLocation("as:100"), "relay:g",
                       n=100_000, seed=1)
    assert p == pytest.approx(0.2, abs=0.006)


def test_first_last_independent_ends_multiply():
    ew, bbn = _two_end_world()
    circuit = Circuit(ClientLocation("as:100"), "relay:g", "relay:e",
                      "as:200")
    p = first_last_probability(bbn, ew.world, circuit, n=200_000, seed=2)
    assert p == pytest.approx(0.2 * 0.3, abs=0.004)


def test_first_last_shared_as_correlates():
    # both ends ride the same AS: P(both) = P(AS), not P(AS)^2
    ew = _world(
        [("as:100", "AS", {}), ("as:200", "AS", {}), ("as:300", "AS", {}),
         _relay("relay:g", 300, guard=True),
         _relay("relay:e", 300, exit=True),
         ("vlink:as100-relay:g", "Virtual Link", {}),
         ("vlink:as200-relay:e", "Virtual Link", {})],
        [("as:300", "vlink:as100-relay:g"),
         ("as:300", "vlink:as200-relay:e")])
    bbn = compile_bbn(ew, trust=(_abs("as:300", 0.2),), scale=SCALE)
    circuit = Circuit(ClientLocation("as:100"), "relay:g", "relay:e",
                      "as:200")
    p = first_last_probability(bbn, ew.world, circuit, n=100_000, seed=3)
    assert p == pytest.approx(0.2, abs=0.007)


def test_circuit_rejects_same_relay_twice():
    with pytest.raises(ValueError):
        Circuit(ClientLocation("as:1"), "relay:x", "relay:x", "as:2")


def _guard_menu_world():
    ew = _world(
        [("as:100", "AS", {}),
         _relay("relay:g1", 100, guard=True),
         _relay("relay:g2", 100, guard=True),
         _relay("relay:g3", 100, guard=True),
         _relay("relay:g4", 100, guard=True),
         _relay("relay:e1", 100, exit=True)])
    bbn = compile_bbn(ew, trust=(
        _abs("relay:g1", 0.01), _abs("relay:g2", 0.5),
        _abs("relay:g3", 0.02), _abs("relay:g4", 0.9),
        _abs("relay:e1", 0.05)), scale=SCALE)
    return ew, bbn


def test_select_guards_prefers_low_exposure():
    ew, bbn = _guard_menu_world()
    picked = select_guards(bbn, ew.world, "as:100", count=2, n=60_000, seed=4)
    assert picked == ["relay:g1", "relay:g3"]


def test_select_guards_requires_enough_guards():
    ew, bbn = _guard_menu_world()
    with pytest.raises(ValueError):
        select_guards(bbn, ew.world, "as:100", count=9, n=1000, seed=0)


def test_select_circuit_minimizes_joint_probability():
    ew = _world(
        [("as:100", "AS", {}), ("as:200", "AS", {}),
         _relay("relay:g1", 100, guard=True),
         _relay("relay:g2", 100, guard=True),
         _relay("relay:e1", 100, exit=True),
         _relay("relay:e2", 100, exit=True)])
    bbn = compile_bbn(ew, trust=(
        _abs("relay:g1", 0.3), _abs("relay:g2", 0.05),
        _abs("relay:e1", 0.4), _abs("relay:e2", 0.1)), scale=SCALE)
    guard, exit_, p = select_circuit(
        bbn, ew.world, "as:100", ["relay:g1", "relay:g2"], "as:200",
        n=150_000, seed=5)
    assert (guard, exit_) == ("relay:g2", "relay:e2")
    assert p == pytest.approx(0.05 * 0.1, abs=0.003)


def test_select_circuit_skips_shared_relay():
    # only relay:x serves both roles; pairing it with itself is illegal
    ew = _world(
        [("as:100", "AS", {}), ("as:200", "AS", {}),
         _relay("relay:x", 100, guard=True, exit=True)])
    bbn = compile_bbn(ew)
    with pytest.raises(ValueError):
        select_circuit(bbn, ew.world, "as:100", ["relay:x"], "as:200",
                       n=1000, seed=0)


# --- bandwidth-weighted baseline ----------------------------------------------

def _consensus_world():
    return _world(
        [("as:100", "AS", {}),
         ("family:f1", "Relay Family", {}),
         _relay("relay:g1", 100, guard=True, bandwidth=100, ip="10.1.0.1"),
         _relay("relay:g2", 100, guard=True, bandwidth=300, ip="10.2.0.1"),
         _relay("relay:e1", 100, exit=True, bandwidth=75, ip="10.3.0.1"),
         _relay("relay:e2", 100, exit=True, bandwidth=25, ip="10.4.0.1")],
        [("family:f1", "relay:g1"), ("family:f1", "relay:e1")])


def test_consensus_view_fields():
    cv = consensus_view(_consensus_world().world)
    by_id = {r.id: r for r in cv.relays}
    assert by_id["relay:g1"].family == "family:f1"
    assert by_id["relay:g1"].family == by_id["relay:e1"].family
    assert by_id["relay:g2"].family == "relay:g2"  # singleton
    assert by_id["relay:g1"].prefix16 == "10.1"
    assert by_id["relay:e2"].bandwidth == 25.0


def test_default_draws_respect_family_and_weights():
    cv = consensus_view(_consensus_world().world)
    n = 40_000
    guards, exits = draw_default_circuits(cv, n, seed=6)
    share_e1 = exits.count("relay:e1") / n
    assert share_e1 == pytest.approx(0.75, abs=0.02)
    for g, e in zip(guards, exits):
        assert g != e
        if e == "relay:e1":  # same family as g1
            assert g == "relay:g2"
    g_share = guards.count("relay:g2") / n
    assert g_share > 0.7  # g2 has 3x bandwidth and is always e1-compatible


def test_default_circuit_draw():
    cv = consensus_view(_consensus_world().world)
    circuit = tor_default_circuit(cv, "as:100", "as:200", seed=7)
    assert circuit.guard.startswith("relay:g")
    assert circuit.exit.startswith("relay:e")
    assert circuit.destination_as == "as:200"
    again = tor_default_circuit(cv, "as:100", "as:200", seed=7)
    assert again == circuit


def test_default_draw_fails_when_all_guards_conflict():
    ew = _world(
        [("family:f1", "Relay Family", {}),
         _relay("relay:g1", 100, guard=True, ip="10.1.0.1"),
         _relay("relay:e1", 100, exit=True, ip="10.2.0.1")],
        [("family:f1", "relay:g1"), ("family:f1", "relay:e1")])
    cv = consensus_view(ew.world)
    with pytest.raises(ValueError, match="compatible"):
        draw_default_circuits(cv, 10, seed=0)


# --- placement ----------------------------------------------------------------

def _placement_world():
    ew = _world(
        [("as:100", "AS", {}), ("as:400", "AS", {}), ("as:500", "AS", {}),
         _relay("relay:g", 100, guard=True),
         _relay("relay:e1", 400, exit=True),
         _relay("relay:e2", 500, exit=True),
         ("vlink:as400-relay:e1", "Virtual Link", {}),
         ("vlink:as500-relay:e2", "Virtual Link", {})],
        [("as:400", "vlink:as400-relay:e1"),
         ("as:500", "vlink:as500-relay:e2")])
    bbn = compile_bbn(ew, trust=(
        _abs("relay:g", 0.1), _abs("as:400", 0.3), _abs("as:500", 0.05)),
        scale=SCALE)
    return ew, bbn


def test_placement_candidates_are_exit_ases():
    ew, _ = _placement_world()
    assert placement_candidates(ew.world) == ["as:400", "as:500"]


def test_greedy_placement_prefers_safer_as():
    ew, bbn = _placement_world()
    result = place_servers(bbn, ew.world, ["as:100"], k=2, n=60_000, seed=8,
                           guard_count=1)
    assert result.chosen_ases[0] == "as:500"
    assert set(result.chosen_ases) == {"as:400", "as:500"}
    first_round = result.rounds[0]["as:100"]
    assert first_round == pytest.approx(0.1 * 0.05, abs=0.002)
    # adding the worse AS cannot raise the client's probability
    assert result.rounds[1]["as:100"] <= first_round + 1e-12
    assert result.per_client_probability == result.rounds[-1]


def test_placement_rejects_bad_k():
    ew, bbn = _placement_world()
    with pytest.raises(ValueError):
        place_servers(bbn, ew.world, ["as:100"], k=0, n=100, seed=0,
                      guard_count=1)
    with pytest.raises(ValueError):
        place_servers(bbn, ew.world, ["as:100"], k=3, n=100, seed=0,
                      guard_count=1)


def test_exposure_reuses_supplied_sampler():
    ew, bbn = _two_end_world()
    sampler = Sampler(bbn, 50_000, seed=9)
    a = guard_exposure(bbn, ew.world, "as:100", "relay:g", sampler=sampler)
    b = guard_exposure(bbn, ew.world, "as:100", "relay:g", sampler=sampler)
    assert a == b


def test_place_servers_composes_rows_and_greedy_rounds(small_bbn,
                                                       small_world):
    clients = sorted(small_world.of_type("AS"))[:3]
    exits_in = exits_by_as(small_world)
    rows = {}
    for client in clients:
        sampler = Sampler(small_bbn, 2000, derive_seed(5, client))
        guards = select_guards(small_bbn, small_world, client, count=2,
                               sampler=sampler)
        rows[client] = placement_row(sampler, small_world, client, guards,
                                     exits_in)
        assert list(rows[client]) == placement_candidates(small_world)
    assert place_servers(small_bbn, small_world, clients, k=2, n=2000,
                         seed=5, guard_count=2) == \
        greedy_placement(rows, clients, list(exits_in), k=2)


def test_greedy_placement_rejects_bad_k():
    rows = {"as:1": {"as:2": 0.1}}
    for k in (0, 2):
        with pytest.raises(ValueError, match=r"k must be in \[1, 1\]"):
            greedy_placement(rows, ["as:1"], ["as:2"], k)
