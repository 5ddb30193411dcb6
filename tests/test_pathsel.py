import ast
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tortrust import pathsel
from tortrust.beliefs import Absolute, TrustScale
from tortrust.bbn import Sampler, compile_bbn
from tortrust.editor import EditedWorld
from tortrust.ontology import default_ontology
from tortrust.pathsel import (_end_column, consensus_view, derive_seed,
                              draw_default_circuits, end_columns,
                              exits_by_as, first_last_matrix, place_servers,
                              placement_row, select_circuit, select_guards)
from tortrust.predicates import parse_predicate
from tortrust.world import (RelationshipInstance, TypeInstance, World,
                            as_id)

SCALE = TrustScale()


@pytest.fixture(scope="module")
def small_cv(small_world):
    return consensus_view(small_world)


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

def _exposure(sampler, cv, as_node, relay):
    """P(relay compromised or the AS-relay link observed): the mean of one
    end column."""
    return float(end_columns(sampler, cv, as_node, [relay]).mean())


def _pair_probability(sampler, cv, client, guard, exit_, destination_as):
    """P(both ends of one guard-exit pair observed): the first-last kernel
    on two one-column end column stacks."""
    return float(first_last_matrix(
        end_columns(sampler, cv, client, [guard]),
        end_columns(sampler, cv, destination_as, [exit_]),
        [guard], [exit_])[0, 0])


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


def test_end_column_exposure_through_link():
    ew, bbn = _two_end_world()
    p = _exposure(Sampler(bbn, 100_000, seed=1), consensus_view(ew.world),
                  "as:100", "relay:g")
    assert p == pytest.approx(0.2, abs=0.006)


def test_first_last_independent_ends_multiply():
    ew, bbn = _two_end_world()
    p = _pair_probability(Sampler(bbn, 200_000, seed=2),
                          consensus_view(ew.world), "as:100", "relay:g",
                          "relay:e", "as:200")
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
    p = _pair_probability(Sampler(bbn, 100_000, seed=3),
                          consensus_view(ew.world), "as:100", "relay:g",
                          "relay:e", "as:200")
    assert p == pytest.approx(0.2, abs=0.007)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_first_last_never_exceeds_either_end(small_bbn, small_world,
                                             small_cv, data):
    # both sides read the same draws, so the bound holds exactly
    ases = sorted(small_world.of_type("AS"))
    client = data.draw(st.sampled_from(ases))
    destination = data.draw(st.sampled_from(ases))
    guard = data.draw(st.sampled_from(small_cv.guards))
    exit_ = data.draw(st.sampled_from(
        [e for e in small_cv.exits if e != guard]))
    sampler = Sampler(small_bbn, 2000, seed=data.draw(st.integers(0, 99)))
    p = _pair_probability(sampler, small_cv, client, guard, exit_,
                          destination)
    assert p <= min(_exposure(sampler, small_cv, client, guard),
                    _exposure(sampler, small_cv, destination, exit_))


# --- the first-last kernel against one-pair references ------------------------

@st.composite
def _kernel_case(draw, world, cv):
    """A client, a destination, a sampler seed, and a guard list drawn from
    every guard or exit relay, so some guards are also exits."""
    ases = sorted(world.of_type("AS"))
    relays = sorted(set(cv.guards) | set(cv.exits))
    return (draw(st.sampled_from(ases)), draw(st.sampled_from(ases)),
            draw(st.integers(0, 99)),
            draw(st.lists(st.sampled_from(relays), min_size=1, max_size=4,
                          unique=True)))


def _select_circuit_loop(sampler, cv, client, guards, destination_as):
    """The guard x exit double loop that `select_circuit` replaced."""
    best = None
    for g in sorted(guards):
        for e in sorted(cv.exits):
            if g == e:
                continue
            p = float((_end_column(sampler, cv, client, g)
                       & _end_column(sampler, cv, destination_as, e))
                      .mean())
            if best is None or (p, g, e) < best:
                best = (p, g, e)
    if best is None:
        raise ValueError("no guard-exit pair with distinct relays")
    p, g, e = best
    return g, e, p


def _placement_row_loop(sampler, cv, client, guards, exits_in):
    """The per-AS triple loop that `placement_row` replaced."""
    row = {}
    for cand, exits in exits_in.items():
        row[cand] = np.inf
        for e in exits:
            last = _end_column(sampler, cv, cand, e)
            for g in guards:
                if g != e:
                    p = float((_end_column(sampler, cv, client, g)
                               & last).mean())
                    row[cand] = min(row[cand], p)
    return row


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_first_last_matrix_matches_pair_reference(small_bbn, small_world,
                                                  small_cv, data):
    client, destination, seed, guards = data.draw(
        _kernel_case(small_world, small_cv))
    exits = data.draw(st.permutations(
        sorted(set(small_cv.guards) | set(small_cv.exits))))
    sampler = Sampler(small_bbn, 2000, seed=seed)
    p = first_last_matrix(end_columns(sampler, small_cv, client, guards),
                          end_columns(sampler, small_cv, destination, exits),
                          guards, exits)
    assert p.shape == (len(guards), len(exits))
    for i, g in enumerate(guards):
        for j, e in enumerate(exits):
            if g == e:
                assert p[i, j] == np.inf
            else:
                assert p[i, j] == float(
                    (_end_column(sampler, small_cv, client, g)
                     & _end_column(sampler, small_cv, destination, e))
                    .mean())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_select_circuit_and_placement_row_match_loops(small_bbn, small_world,
                                                      small_cv, data):
    client, destination, seed, guards = data.draw(
        _kernel_case(small_world, small_cv))
    sampler = Sampler(small_bbn, 2000, seed=seed)
    assert select_circuit(sampler, small_cv, client, guards,
                          destination) == _select_circuit_loop(
        sampler, small_cv, client, guards, destination)
    exits_in = exits_by_as(small_cv)
    assert placement_row(sampler, small_cv, client, guards,
                         exits_in) == _placement_row_loop(
        sampler, small_cv, client, guards, exits_in)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_select_guards_ranks_by_end_column_mean(small_bbn, small_world,
                                                small_cv, data):
    client, _, seed, _ = data.draw(_kernel_case(small_world, small_cv))
    guards = small_cv.guards
    count = data.draw(st.integers(1, len(guards)))
    sampler = Sampler(small_bbn, 2000, seed=seed)
    ranked = sorted(
        (float(_end_column(sampler, small_cv, client, g).mean()), g)
        for g in guards)
    assert select_guards(sampler, small_cv, client, count) == [
        g for _, g in ranked[:count]]


def test_placement_row_requires_guards(small_bbn, small_cv):
    sampler = Sampler(small_bbn, 100, seed=0)
    with pytest.raises(ValueError, match="no guards supplied"):
        placement_row(sampler, small_cv, "as:1000", [],
                      exits_by_as(small_cv))


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
    picked = select_guards(Sampler(bbn, 60_000, seed=4),
                           consensus_view(ew.world), "as:100", count=2)
    assert picked == ["relay:g1", "relay:g3"]


def test_select_guards_requires_enough_guards():
    ew, bbn = _guard_menu_world()
    with pytest.raises(ValueError):
        select_guards(Sampler(bbn, 1000, seed=0), consensus_view(ew.world),
                      "as:100", count=9)


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
        Sampler(bbn, 150_000, seed=5), consensus_view(ew.world), "as:100",
        ["relay:g1", "relay:g2"], "as:200")
    assert (guard, exit_) == ("relay:g2", "relay:e2")
    assert p == pytest.approx(0.05 * 0.1, abs=0.003)


def test_select_circuit_skips_shared_relay():
    # only relay:x serves both roles; pairing it with itself is illegal
    ew = _world(
        [("as:100", "AS", {}), ("as:200", "AS", {}),
         _relay("relay:x", 100, guard=True, exit=True)])
    bbn = compile_bbn(ew)
    with pytest.raises(ValueError):
        select_circuit(Sampler(bbn, 1000, seed=0), consensus_view(ew.world),
                       "as:100", ["relay:x"], "as:200")


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


_BANDWIDTH = "'bandwidth' must be a finite real number >= 0, not"
_FLAG = "must be a boolean, 0 or 1, not"
_AS_NUMBER = "'as_number' must be the number of an AS in the world, not"


@pytest.mark.parametrize("attributes, message", [
    ({"ip": 10}, "'ip' must be a string, not 10"),
    ({"ip": None}, "'ip' must be a string, not None"),
    ({"bandwidth": [5]}, f"{_BANDWIDTH} [5]"),
    ({"bandwidth": "100"}, f"{_BANDWIDTH} '100'"),
    ({"bandwidth": True}, f"{_BANDWIDTH} True"),
    ({"bandwidth": math.nan}, f"{_BANDWIDTH} nan"),
    ({"bandwidth": math.inf}, f"{_BANDWIDTH} inf"),
    pytest.param({"bandwidth": 10 ** 400}, f"{_BANDWIDTH} {10 ** 400}",
                 id="an integer beyond the largest float"),
    ({"bandwidth": -1}, f"{_BANDWIDTH} -1"),
    ({"guard": "no"}, f"'guard' {_FLAG} 'no'"),
    ({"guard": 2}, f"'guard' {_FLAG} 2"),
    ({"guard": 1.0}, f"'guard' {_FLAG} 1.0"),
    ({"guard": None}, f"'guard' {_FLAG} None"),
    ({"exit": "false"}, f"'exit' {_FLAG} 'false'"),
    ({"exit": -1}, f"'exit' {_FLAG} -1"),
    ({"as_number": "x"}, f"{_AS_NUMBER} 'x'"),
    ({"as_number": 99}, f"{_AS_NUMBER} 99"),
    ({"as_number": 7}, f"{_AS_NUMBER} 7"),
    ({"as_number": 100.0}, f"{_AS_NUMBER} 100.0"),
    ({"as_number": True}, f"{_AS_NUMBER} True"),
    ({"as_number": None}, f"{_AS_NUMBER} None"),
])
def test_consensus_view_rejects_bad_relay_attributes(attributes, message):
    """Each case breaks one rule: the relay's own AS, as:100, is in the
    world, and as:7 is an instance that is no AS."""
    rid, type_name, attrs = _relay("relay:g1", 100, guard=True,
                                   ip="10.1.0.1")
    ew = _world([("as:100", "AS", {}), ("as:7", "IXP", {}),
                 (rid, type_name, {**attrs, **attributes})])
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'relay {rid!r}: {message}')}$"):
        consensus_view(ew.world)


def _reference_readers(world):
    """Guard ids, exit ids and exits per AS as read from the world by
    truthiness, with `as_number` unchecked."""
    relays = world.of_type("Tor Relay")
    guards = tuple(r for r in relays if world.attribute(r, "guard"))
    exits = tuple(r for r in relays if world.attribute(r, "exit"))
    exits_in = {}
    for rid in exits:
        asn = world.attribute(rid, "as_number")
        if asn is not None:
            exits_in.setdefault(as_id(asn), []).append(rid)
    return guards, exits, {a: exits_in[a] for a in sorted(exits_in)}


def _breaks_rule(name, value):
    """Whether `value` breaks the rule of relay attribute `name` in a
    world whose ASes are as:1 and as:2."""
    if name == "ip":
        return type(value) is not str
    if name == "bandwidth":
        return type(value) not in (int, float) or not (
            math.isfinite(value) and value >= 0)
    if name in ("guard", "exit"):
        return type(value) not in (bool, int) or value not in (0, 1)
    return type(value) is not int or value not in (1, 2)


_VALID = {"ip": ["", "10.1.0.1", "10.1"], "bandwidth": [0, 1, 0.5, 300],
          "guard": [True, False, 0, 1], "exit": [True, False, 0, 1],
          "as_number": [1, 2]}
_ANY = [True, False, 0, 1, 2, 1.0, -1, 0.5, math.nan, math.inf, None, "no",
        "10.1.0.1", [1]]
_AS_NUMBERS = [1, 2, 3, 99]     # as:3 is an IXP, and as:99 is no instance


@st.composite
def _relay_world(draw):
    """Relays relay:r0.. whose attributes are each absent or a valid value,
    then up to two attribute values drawn from any kind.  as:3 is an
    IXP."""
    relays = []
    for k in range(draw(st.integers(1, 6))):
        attrs = {}
        for name, valid in _VALID.items():
            if draw(st.booleans()):
                attrs[name] = draw(st.sampled_from(valid))
        relays.append((f"relay:r{k}", "Tor Relay", attrs))
    for _ in range(draw(st.integers(0, 2))):
        _, _, attrs = draw(st.sampled_from(relays))
        attrs[draw(st.sampled_from(list(_VALID)))] = draw(
            st.sampled_from(_ANY) | st.sampled_from(_AS_NUMBERS))
    return _world([("as:1", "AS", {}), ("as:2", "AS", {}),
                   ("as:3", "IXP", {})] + relays).world, relays


@settings(max_examples=300, deadline=None)
@given(_relay_world())
def test_consensus_view_checks_every_relay_attribute(case):
    world, relays = case
    bad = [(rid, {name for name, value in attrs.items()
                  if _breaks_rule(name, value)})
           for rid, _, attrs in relays]
    bad = [(rid, names) for rid, names in bad if names]
    if bad:
        rid, names = bad[0]
        with pytest.raises(ValueError) as info:
            consensus_view(world)
        m = re.fullmatch(rf"relay {re.escape(repr(rid))}: '(\w+)' must be "
                         r".+, not .+", str(info.value))
        assert m and m.group(1) in names
    else:
        cv = consensus_view(world)
        assert (cv.guards, cv.exits, exits_by_as(cv)) == \
            _reference_readers(world)


def test_consensus_view_is_the_only_step_that_takes_the_world():
    with open(pathsel.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    takers = [func.name for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              and "world" in {a.arg for a in ast.walk(func.args)
                              if isinstance(a, ast.arg)}]
    assert takers == ["consensus_view"]


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
    guards, exits = draw_default_circuits(cv, 1, seed=7)
    assert len(guards) == len(exits) == 1
    assert guards[0].startswith("relay:g")
    assert exits[0].startswith("relay:e")
    assert draw_default_circuits(cv, 1, seed=7) == (guards, exits)


def test_default_draw_fails_when_all_guards_conflict():
    ew = _world(
        [("as:100", "AS", {}), ("family:f1", "Relay Family", {}),
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


def _placement_rows(bbn, cv, clients, n, seed, guard_count):
    """{client: placement row}, each on the client's own sampler."""
    exits_in = exits_by_as(cv)
    rows = {}
    for client in clients:
        sampler = Sampler(bbn, n, derive_seed(seed, client))
        guards = select_guards(sampler, cv, client, count=guard_count)
        rows[client] = placement_row(sampler, cv, client, guards, exits_in)
    return rows, list(exits_in)


def test_placement_candidates_are_exit_ases():
    ew, _ = _placement_world()
    assert list(exits_by_as(consensus_view(ew.world))) == ["as:400",
                                                           "as:500"]


def test_greedy_placement_prefers_safer_as():
    ew, bbn = _placement_world()
    rows, candidates = _placement_rows(bbn, consensus_view(ew.world),
                                       ["as:100"], n=60_000, seed=8,
                                       guard_count=1)
    result = place_servers(rows, ["as:100"], candidates, k=2)
    assert result.chosen_ases[0] == "as:500"
    assert set(result.chosen_ases) == {"as:400", "as:500"}
    first_round = result.rounds[0]["as:100"]
    assert first_round == pytest.approx(0.1 * 0.05, abs=0.002)
    # adding the worse AS cannot raise the client's probability
    assert result.rounds[1]["as:100"] <= first_round + 1e-12


def test_exposure_reuses_supplied_sampler():
    ew, bbn = _two_end_world()
    sampler = Sampler(bbn, 50_000, seed=9)
    cv = consensus_view(ew.world)
    a = _exposure(sampler, cv, "as:100", "relay:g")
    b = _exposure(sampler, cv, "as:100", "relay:g")
    assert a == b


def test_place_servers_composes_rows_and_greedy_rounds(small_bbn,
                                                       small_world, small_cv):
    clients = sorted(small_world.of_type("AS"))[:3]
    rows, candidates = _placement_rows(small_bbn, small_cv, clients,
                                       n=2000, seed=5, guard_count=2)
    for client in clients:
        assert list(rows[client]) == candidates
    result = place_servers(rows, clients, candidates, k=2)
    for r, round_probs in enumerate(result.rounds, start=1):
        assert round_probs == {
            c: min(rows[c][a] for a in result.chosen_ases[:r])
            for c in clients}


def test_greedy_placement_rejects_bad_k():
    rows = {"as:1": {"as:2": 0.1}}
    for k in (0, 2):
        with pytest.raises(ValueError, match=r"k must be in \[1, 1\]"):
            place_servers(rows, ["as:1"], ["as:2"], k)


def test_placement_rejects_bad_k():
    ew, bbn = _placement_world()
    rows, candidates = _placement_rows(bbn, consensus_view(ew.world),
                                       ["as:100"], n=100, seed=0,
                                       guard_count=1)
    for k in (0, 3):
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\]"):
            place_servers(rows, ["as:100"], candidates, k)


@st.composite
def _placement_inputs(draw):
    clients = [f"as:{i}" for i in range(draw(st.integers(1, 4)))]
    candidates = [f"as:{100 + i}" for i in range(draw(st.integers(1, 5)))]
    p = st.floats(0, 1)
    rows = {c: {a: draw(p) for a in candidates} for c in clients}
    k = draw(st.integers(1, len(candidates)))
    return rows, clients, candidates, k


@settings(max_examples=60, deadline=None)
@given(_placement_inputs())
def test_greedy_rounds_are_running_minima(inputs):
    rows, clients, candidates, k = inputs
    result = place_servers(rows, clients, candidates, k)
    assert len(set(result.chosen_ases)) == k
    for r, round_probs in enumerate(result.rounds, start=1):
        for c in clients:
            assert round_probs[c] == min(rows[c][a]
                                         for a in result.chosen_ases[:r])
    for before, after in zip(result.rounds, result.rounds[1:]):
        assert all(after[c] <= before[c] for c in clients)
