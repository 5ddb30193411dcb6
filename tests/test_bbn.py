import copy
import dataclasses
import math
import operator
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tortrust.beliefs import (Absolute, Budget1, Budget2, CE1, CE2, Relative,
                              TrustScale, build_the_man)
from tortrust.bbn import (CompiledBbn, Sampler, _pcg64_state, _stream_words,
                          bbn_from_dict, bbn_to_dict, compile_bbn,
                          compromise_probability,
                          enumerate_exact, estimate_event, estimate_marginals,
                          exact_event, exact_marginals, load_samples,
                          parse_event, sample, sample_matrix, save_samples)
from tortrust.editor import apply_structural
from tortrust.errors import (BeliefFormatError, CompileError,
                             InvalidInputError, NetworkTooLargeError,
                             UnknownIdError)
from tortrust.files import json_text, parse_json
from tortrust.ontology import is_type
from tortrust.predicates import (And, AttrCmp, AttrIn, ChildCount, HasChild,
                                 HasParent, IdIn, IsType, Not, Or,
                                 eval_predicate, parse_predicate, select)
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.worldgen import build_world

SCALE = TrustScale()


def _pred(text):
    return parse_predicate(text)


# --- compromise formula ------------------------------------------------------

def test_formula_reference_values():
    # 1 - (1-p1)(1-p2) * (1-q)
    assert compromise_probability([], []) == 0.0
    assert compromise_probability([1.0], []) == 1.0
    assert compromise_probability([0.5], [0.15]) == pytest.approx(
        1 - 0.5 * 0.85, abs=1e-15)
    assert compromise_probability([0.2, 0.3], [0.1, 0.1]) == pytest.approx(
        1 - 0.8 * 0.7 * 0.9 * 0.9, abs=1e-15)


def test_formula_rejects_out_of_range():
    with pytest.raises(ValueError):
        compromise_probability([1.2], [])
    with pytest.raises(ValueError):
        compromise_probability([], [-0.1])


@pytest.mark.parametrize("S, R, message", [
    ([True], [], "propagation value True is not a number in [0,1]"),
    ([], [math.nan], "risk value nan is not a number in [0,1]"),
    (["0.5"], [], "propagation value '0.5' is not a number in [0,1]"),
])
def test_formula_takes_only_probabilities(S, R, message):
    """The probability rule of every input: a bool, NaN or string is not
    a probability (compromise_probability([True], []) returned 1.0)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compromise_probability(S, R)


@given(st.lists(st.floats(0, 1), max_size=6),
       st.lists(st.floats(0, 1), max_size=6))
def test_formula_stays_in_unit_interval(ws, rs):
    p = compromise_probability(ws, rs)
    assert 0.0 <= p <= 1.0
    # adding a factor can only increase the probability
    assert compromise_probability(ws + [0.5], rs) >= p - 1e-12


# --- compilation -------------------------------------------------------------

def _linear(make_edited, trust=(), budgets=None, ce_specs=None):
    """as:1 -> vlink:a, as:1 -> vlink:b edited world."""
    return make_edited(
        {"as:1": "AS",
         "vlink:a": "Virtual Link",
         "vlink:b": "Virtual Link"},
        [("as:1", "vlink:a"), ("as:1", "vlink:b")],
        budgets=budgets, ce_specs=ce_specs)


def test_compile_marks_output_nodes(make_edited):
    bbn = compile_bbn(_linear(make_edited))
    by_id = {n.id: n for n in bbn.nodes}
    assert not by_id["as:1"].is_output
    assert by_id["vlink:a"].is_output
    assert by_id["vlink:b"].is_output


def test_parents_ordered_before_children(make_edited):
    bbn = compile_bbn(_linear(make_edited))
    for pos, node in enumerate(bbn.nodes):
        assert all(pi < pos for pi, _ in node.parents)


def test_absolute_severs_parents(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(
        Absolute(_pred('id in {"as:1"}'), "SC"),
        Absolute(_pred('id in {"vlink:a"}'), 0.25)), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert by_id["vlink:a"].parents == ()
    assert by_id["vlink:a"].absolute == 0.25
    assert by_id["as:1"].absolute == 0.999
    # untouched sibling keeps its parent edge
    assert by_id["vlink:b"].parents != ()


def test_last_absolute_wins(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(
        Absolute(_pred('id in {"as:1"}'), 0.4),
        Absolute(_pred("is AS"), 0.7)), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert by_id["as:1"].absolute == 0.7


def test_relatives_accumulate_risks(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(
        Relative("one", _pred("is VirtualLink"), "LC"),
        Relative("two", _pred('id in {"vlink:a"}'), 0.3)), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert sorted(by_id["vlink:a"].risks) == [0.3, 0.85]
    assert by_id["vlink:b"].risks == (0.85,)


def test_budget_scales_edge_weights(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(Budget2("as:1", 1),), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    (weight_a,) = [w for _, w in by_id["vlink:a"].parents]
    (weight_b,) = [w for _, w in by_id["vlink:b"].parents]
    assert weight_a == weight_b == 0.5  # k=1 over 2 children


def test_budget_never_raises_weights(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(Budget2("as:1", 10),), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert all(w == 1.0 for _, w in by_id["vlink:a"].parents)


def test_last_all_budget_wins(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(
        Budget1("as:1", "VirtualLink", 2),
        Budget2("as:1", 1)), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert [w for _, w in by_id["vlink:a"].parents] == [0.5]


def test_ce_introduces_synthetic_node(make_edited):
    ew = _linear(make_edited)
    bbn = compile_bbn(ew, trust=(CE2("as:1", "U"),), scale=SCALE)
    ids = [n.id for n in bbn.nodes]
    ce_ids = [i for i in ids if i.startswith("ce:")]
    assert len(ce_ids) == 1
    by_id = {n.id: n for n in bbn.nodes}
    ce = by_id[ce_ids[0]]
    assert ce.kind == "ce"
    # both links now hang off the ce node with weight 1
    for vid in ("vlink:a", "vlink:b"):
        (parent_pos, weight) = by_id[vid].parents[0]
        assert bbn.nodes[parent_pos].id == ce_ids[0]
        assert weight == 1.0


def test_overlapping_ce_rejected_at_compile(make_edited):
    ew = _linear(make_edited)
    with pytest.raises(CompileError):
        compile_bbn(ew, trust=(
            CE1("as:1", _pred("is VirtualLink"), "U"),
            CE1("as:1", _pred('id in {"vlink:a"}'), "LC")), scale=SCALE)


def test_budget_ce_overlap_rejected(make_edited):
    ew = _linear(make_edited)
    with pytest.raises(CompileError):
        compile_bbn(ew, trust=(
            CE2("as:1", "U"), Budget2("as:1", 1)), scale=SCALE)


def test_negative_budget_rejected_at_compile(make_edited):
    ew = _linear(make_edited)
    with pytest.raises(CompileError, match="negative k"):
        compile_bbn(ew, trust=(
            Absolute(_pred("is AS"), 1.0), Budget2("as:1", -1)), scale=SCALE)


def test_duplicate_budgets_collapse(make_edited):
    budget = Budget1("as:1", "VirtualLink", 1)
    ew = _linear(make_edited, budgets={"as:1": (budget, budget)})
    bbn = compile_bbn(ew, trust=(budget,), scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert [w for _, w in by_id["vlink:a"].parents] == [0.5]


def test_ce2_supersedes_ce1_at_compile(make_edited, caplog):
    ew = _linear(make_edited)
    with caplog.at_level("WARNING"):
        bbn = compile_bbn(ew, trust=(
            CE1("as:1", _pred('id in {"vlink:a"}'), "LC"),
            CE2("as:1", "U")), scale=SCALE)
    assert [n.id for n in bbn.nodes if n.kind == "ce"] == ["ce:as:1#0"]
    assert "suppresses 1 other CE" in caplog.text


def test_ce_node_ids_name_their_own_spec(make_edited):
    """Eleven ce1 beliefs on one node ("#10" sorts before "#2"), and on a
    node whose id sorts between another's ce ids ("as:1!#" before "as:1#"):
    ce node "ce:P#i" is spec i of P, with its activation and its child."""
    nodes = {"as:1": "AS", "as:1!": "AS"}
    edges, trust, expected = [], [], {}
    for parent, base in (("as:1", 0.0), ("as:1!", 0.5)):
        for i in range(11):
            child = f"vlink:{parent}-{i}"
            nodes[child] = "Virtual Link"
            edges.append((parent, child))
            activation = base + (i + 1) / 100
            trust.append(CE1(parent, _pred(f'id in {{"{child}"}}'),
                             activation))
            expected[f"ce:{parent}#{i}"] = (parent, activation, child)
    bbn = compile_bbn(make_edited(nodes, edges), trust=tuple(trust),
                      scale=SCALE)
    by_id = {n.id: n for n in bbn.nodes}
    assert sorted(n.id for n in bbn.nodes if n.kind == "ce") == \
        sorted(expected)
    for ce_id, (parent, activation, child) in expected.items():
        assert [(bbn.ids[j], w) for j, w in by_id[ce_id].parents] == \
            [(parent, activation)]
        assert [(bbn.ids[j], w) for j, w in by_id[child].parents] == \
            [(ce_id, 1.0)]


def test_compile_rejects_cycles(make_edited):
    """A cycle is rejected where the world is made, so no edited world, and
    so no network, can hold one."""
    with pytest.raises(ValueError, match=re.escape(
            "world graph has a cycle through {as:1, as:2}")):
        make_edited({"as:1": "AS", "as:2": "AS", "as:3": "AS"},
                    [("as:1", "as:2"), ("as:2", "as:1"), ("as:3", "as:1")])


_NOT_PROBABILITY = "is not a probability in [0,1]"


@pytest.mark.parametrize("trust, scale, message", [
    ((Relative("x", _pred("is AS"), 1.5),), SCALE,
     f"trust value 1.5 {_NOT_PROBABILITY}"),
    ((Absolute(_pred("is AS"), -0.5),), SCALE,
     f"trust value -0.5 {_NOT_PROBABILITY}"),
    ((Absolute(_pred("is AS"), math.nan),), SCALE,
     f"trust value nan {_NOT_PROBABILITY}"),
    ((Relative("x", _pred("is AS"), True),), SCALE,
     f"trust value True {_NOT_PROBABILITY}"),
    ((CE2("as:1", 2),), SCALE, f"trust value 2 {_NOT_PROBABILITY}"),
    ((Relative("x", _pred("is AS"), "SC"),),
     TrustScale({"SC": 1.5, "LC": 0.85, "U": 0.5, "LT": 0.15, "ST": 0.02}),
     "trust value 'SC' maps to 1.5, not a probability in [0,1]"),
    ((CE2("as:1", "U"),),
     TrustScale(ce_mapping={"SC": 1, "LC": 1, "U": -0.1, "LT": 0, "ST": 0}),
     "trust value 'U' maps to -0.1, not a probability in [0,1]"),
])
def test_compile_rejects_trust_values_outside_the_unit_interval(
        make_edited, trust, scale, message):
    """A trust value built in code, or a scale mapping one, is checked
    where it becomes a probability, as a parsed document's is."""
    with pytest.raises(BeliefFormatError, match=f"^{re.escape(message)}$"):
        compile_bbn(_linear(make_edited), trust=trust, scale=scale)


def test_a_network_with_no_prior_and_no_risk_is_reported(make_edited,
                                                          caplog):
    """With no absolute probability and no risk every indicator is always
    false; compile_bbn says so once, and is silent when either is there."""
    ew = _linear(make_edited)
    with caplog.at_level("WARNING", logger="tortrust.bbn"):
        compile_bbn(ew)
        compile_bbn(ew, trust=(Relative("x", _pred('id in {"nothing"}'),
                                        "U"),))
    assert [r.getMessage() for r in caplog.records] == [
        "translated network has no absolute probability and no risk: "
        "every indicator is always false"] * 2
    caplog.clear()
    with caplog.at_level("WARNING", logger="tortrust.bbn"):
        compile_bbn(ew, trust=(Relative("x", _pred("is AS"), 0.0),))
        compile_bbn(ew, trust=(Absolute(_pred("is AS"), "ST"),))
    assert not caplog.records


def test_compile_rejects_dangling_relationship(make_edited):
    """A relationship to no instance is rejected where the world is made,
    so no edited world, and so no network, can hold one."""
    with pytest.raises(ValueError, match=re.escape(
            "relationship ('as:1', 'vlink:nope') references a missing "
            "instance")):
        make_edited({"as:1": "AS", "vlink:a": "Virtual Link"},
                    [("as:1", "vlink:a"), ("as:1", "vlink:nope")])


def test_compile_rejects_ce_id_of_a_world_node(make_edited):
    ew = make_edited({"as:1": "AS", "ce:as:1#0": "AS",
                      "vlink:a": "Virtual Link"}, [("as:1", "vlink:a")])
    with pytest.raises(CompileError):
        compile_bbn(ew, trust=(CE2("as:1", "U"),), scale=SCALE)


def test_select_id_and_type_at_the_root(make_edited):
    ew = _linear(make_edited)
    assert select(ew.world, _pred('id in {"as:1", "nope"}').root) == \
        ("as:1",)
    assert select(ew.world, _pred("is VirtualLink").root) == \
        ("vlink:a", "vlink:b")


_MATCH_TYPES = ("AS", "Tor Relay", "Virtual Link", "Router/Switch")
_MATCH_ATTRS = ({}, {"bandwidth": 5}, {"bandwidth": 50},
                {"bandwidth": [5, 7]}, {"bandwidth": {"k": 2}})


@st.composite
def _attributed_worlds(draw):
    """DAGs of 0-7 nodes over four types, some without a bandwidth, some
    with a list or an unhashable one."""
    from tortrust.world import RelationshipInstance, TypeInstance, World
    n = draw(st.integers(0, 7))
    names = [f"n:{i}" for i in range(n)]
    instances = [TypeInstance(name, draw(st.sampled_from(_MATCH_TYPES)),
                              draw(st.sampled_from(_MATCH_ATTRS)))
                 for name in names]
    edges = [RelationshipInstance(names[i], names[j])
             for j in range(n) for i in range(j) if draw(st.booleans())]
    return World(instances, edges)


def _holds(node, world, node_id):
    """The predicate tree `node` on one instance, by the recursive rule:
    the reference that `select`'s whole-world masks must agree with."""
    if isinstance(node, And):
        return all(_holds(n, world, node_id) for n in node.items)
    if isinstance(node, Or):
        return any(_holds(n, world, node_id) for n in node.items)
    if isinstance(node, Not):
        return not _holds(node.inner, world, node_id)
    if isinstance(node, IsType):
        return is_type(node.name, world.type_of(node_id))
    if isinstance(node, IdIn):
        return node_id in node.ids
    if isinstance(node, (AttrCmp, AttrIn)):
        attributes = world.attributes.get(node_id, {})
        if node.name not in attributes:
            return False
        value = attributes[node.name]
        try:
            if isinstance(node, AttrCmp):
                return _COMPARE[node.op](value, node.value)
            if isinstance(value, (list, tuple, set, frozenset)):
                return any(v in node.values for v in value)
            return value in node.values
        except TypeError:
            return False
    children = world.children(node_id)
    if isinstance(node, ChildCount):
        count = sum(_holds(node.pred, world, c) for c in children)
        return _COMPARE[node.op](count, node.count)
    if isinstance(node, HasParent):
        return any(_holds(node.pred, world, p)
                   for p in world.parents(node_id))
    assert isinstance(node, HasChild)
    return any(_holds(node.pred, world, c) for c in children)


_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# Atoms in both spellings of a type name, an undeclared type, unknown ids,
# attribute tests on missing, list and unhashable values, and structural
# tests under `not`.
_MATCH_ATOMS = st.one_of(
    st.sampled_from(("AS", "TorRelay", "VirtualLink", "RouterSwitch",
                     "Teleporter")).map("is {}".format),
    st.lists(st.sampled_from(("n:0", "n:1", "n:4", "nope")), max_size=3)
    .map(lambda ids: "id in {%s}" % ", ".join(f'"{i}"' for i in ids)),
    st.integers(0, 60).map('attr("bandwidth") >= {}'.format),
    st.lists(st.sampled_from((5, 7, 50, '"x"')), max_size=3)
    .map(lambda vs: 'attr("bandwidth") in {%s}' % ", ".join(map(str, vs))),
    st.sampled_from(("not has_child(is VirtualLink)",
                     "not has_parent(is AS)",
                     "not child_count(is TorRelay) < 1")))
_MATCH_PREDICATES = st.recursive(_MATCH_ATOMS, lambda inner: st.one_of(
    inner.map("not ({})".format),
    st.tuples(inner, st.sampled_from(("and", "or")), inner)
    .map(lambda t: "({}) {} ({})".format(*t)),
    inner.map("has_parent({})".format),
    inner.map("has_child({})".format),
    st.tuples(inner, st.sampled_from(("=", ">=", "<")), st.integers(0, 2))
    .map(lambda t: "child_count({}) {} {}".format(*t))), max_leaves=5)


@settings(max_examples=200, deadline=None)
@given(_attributed_worlds(), _MATCH_ATOMS, _MATCH_PREDICATES)
def test_select_is_the_predicate(world, atom, text):
    """Over every instance, and over each node's children as the editor's
    bu1 and ce1 scopes ask, `select` picks the ids on which the per-node
    reference `_holds` is true."""
    for pred in (_pred(atom), _pred(text)):
        assert select(world, pred.root) == tuple(
            i for i in world.names if _holds(pred.root, world, i))
        for node in world.names:
            children = world.children(node)
            assert select(world, pred.root, children) == tuple(
                c for c in children if _holds(pred.root, world, c))
            assert eval_predicate(pred, world, node) == \
                _holds(pred.root, world, node)


def test_relative_belief_on_an_attribute(make_edited):
    ew = make_edited({"as:1": ("AS", {"bandwidth": 10}),
                      "as:2": ("AS", {"bandwidth": 90}),
                      "as:3": "AS",
                      "vlink:a": "Virtual Link"},
                     [("as:1", "vlink:a"), ("as:2", "vlink:a")])
    bbn = compile_bbn(ew, trust=(
        Relative("fast", _pred('attr("bandwidth") >= 50'), 0.3),),
        scale=SCALE)
    assert {n.id: n.risks for n in bbn.nodes} == {
        "as:1": (), "as:2": (0.3,), "as:3": (), "vlink:a": ()}


# --- exact enumeration oracle -----------------------------------------------

def test_exact_chain_value(make_edited):
    # P(child) = P(parent) * w  +  risk on top:
    # parent ~ 0.5; child = 1 - (1-0.5*1)(1-0.15)... computed analytically
    ew = make_edited({"as:1": "AS", "vlink:a": "Virtual Link"},
                     [("as:1", "vlink:a")])
    bbn = compile_bbn(ew, trust=(
        Absolute(_pred("is AS"), 0.5),
        Relative("r", _pred("is VirtualLink"), 0.15)), scale=SCALE)
    marg = exact_marginals(bbn)
    assert marg["as:1"] == pytest.approx(0.5, abs=1e-12)
    # compromised parent forces 1-(1-1)(1-.15)=1; clean parent leaves 0.15
    assert marg["vlink:a"] == pytest.approx(0.5 * 1.0 + 0.5 * 0.15,
                                            abs=1e-12)


def test_exact_distribution_sums_to_one(make_edited):
    ew = make_edited(
        {"as:1": "AS", "as:2": "AS", "vlink:a": "Virtual Link"},
        [("as:1", "vlink:a"), ("as:2", "vlink:a")])
    bbn = compile_bbn(ew, trust=(Relative("r", _pred("is AS"), 0.3),),
                      scale=SCALE)
    dist = enumerate_exact(bbn)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0 for p in dist.values())


def test_enumeration_cap():
    nodes = {f"as:{i}": "AS" for i in range(25)}
    from tortrust.editor import EditedWorld
    from tortrust.ontology import default_ontology
    from tortrust.world import TypeInstance, World
    world = World(tuple(TypeInstance(i, "AS") for i in nodes))
    ew = EditedWorld(world=world, ontology=default_ontology(),
                     budgets={}, ce_specs={}, user_edges=frozenset())
    bbn = compile_bbn(ew)
    for refused in (lambda: enumerate_exact(bbn),
                    lambda: exact_marginals(bbn),
                    lambda: exact_event(bbn, "as:1")):
        with pytest.raises(NetworkTooLargeError, match="^25 nodes exceeds "
                           "the exact-enumeration limit of 24$"):
            refused()


# --- sampling ----------------------------------------------------------------

def _binomial_tail(k, n, p, upper):
    """P(X >= k) if `upper`, else P(X <= k), for X ~ Binomial(n, p); summed
    outward from k, which must lie on that tail's side of the mean."""
    if p <= 0.0 or p >= 1.0:
        certain = 0 if p <= 0.0 else n
        return float(certain >= k if upper else certain <= k)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    total = 0.0
    for j in (range(k, n + 1) if upper else range(k, -1, -1)):
        term = math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if term <= total * 1e-17:
            break
    return total


def _assert_close_binomial(p_hat, p, n, sigmas=4.5):
    """Exact two-sided binomial test of the count n * p_hat against p, at
    the false-alarm probability of a two-sided normal test at `sigmas`
    (6.8e-6 at 4.5, 5.7e-7 at 5).  A normal bound fails when n * p << 1:
    there it allows fewer than two hits."""
    k = round(p_hat * n)
    tail = _binomial_tail(k, n, p, upper=k >= n * p)
    alpha = math.erfc(sigmas / math.sqrt(2))
    assert tail > alpha / 2, (p_hat, p, n, tail)


def test_sampler_matches_exact_marginals(make_edited):
    ew = make_edited(
        {"as:1": "AS", "as:2": "AS",
         "vlink:a": "Virtual Link", "vlink:b": "Virtual Link",
         "relay:x": "Tor Relay"},
        [("as:1", "vlink:a"), ("as:1", "vlink:b"), ("as:2", "vlink:b")],
        budgets={"as:1": (Budget2("as:1", 1),)})
    trust = (Relative("base", _pred("is AS"), 0.3),
             Relative("lift", _pred('id in {"as:2"}'), 0.2),
             Absolute(_pred("is TorRelay"), 0.05),
             CE2("as:2", 0.6))
    # note: CE on as:2 and budget on as:1 touch different children sets
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    n = 60_000
    exact = exact_marginals(bbn)
    sampled = {e.node: e.estimate
               for e in estimate_marginals(bbn, n=n, seed=9)}
    for node, p in exact.items():
        _assert_close_binomial(sampled[node], p, n)


def test_ce_children_all_or_none(make_edited):
    ew = make_edited(
        {"as:1": "AS", "vlink:a": "Virtual Link", "vlink:b": "Virtual Link"},
        [("as:1", "vlink:a"), ("as:1", "vlink:b")])
    bbn = compile_bbn(ew, trust=(
        Absolute(_pred("is AS"), 1.0), CE2("as:1", 0.4)), scale=SCALE)
    matrix = _bits(sample_matrix(bbn, 50_000, seed=2,
                                 nodes=["vlink:a", "vlink:b"]), 2)
    a, b = matrix[:, 0], matrix[:, 1]
    assert not np.any(a ^ b), "links split despite all-or-none compromise"
    _assert_close_binomial(float(a.mean()), 0.4, 50_000)


def _bits(rows, k):
    """The (n, k) bool matrix of the packed rows of `sample_matrix`."""
    return np.unpackbits(rows, axis=1, count=k).view(bool)


def test_same_seed_same_matrix(small_bbn):
    m1 = sample_matrix(small_bbn, 2_000, seed=5)
    m2 = sample_matrix(small_bbn, 2_000, seed=5)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, sample_matrix(small_bbn, 2_000, seed=6))


def test_node_streams_independent_of_subset(small_bbn):
    """Requesting fewer columns must not shift any node's random stream."""
    all_nodes = [n.id for n in small_bbn.nodes]
    full = _bits(sample_matrix(small_bbn, 500, seed=11), len(all_nodes))
    probe = all_nodes[len(all_nodes) // 2]
    solo = _bits(sample_matrix(small_bbn, 500, seed=11, nodes=[probe]), 1)
    assert np.array_equal(solo[:, 0], full[:, all_nodes.index(probe)])


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sample_is_first_row_of_sample_matrix(small_bbn, seed):
    result = sample(small_bbn, seed)
    assert result.seed == seed
    assert np.array_equal(
        result.compromised,
        _bits(sample_matrix(small_bbn, 5, seed), len(small_bbn))[0])


def _subset(bbn, size):
    """Node ids in shuffled order; repeats an id whenever there are two."""
    ids = [node.id for node in bbn.nodes]
    rng = np.random.default_rng(size)
    if size is None:
        return [ids[i] for i in rng.permutation(len(ids))]
    picks = [ids[i] for i in rng.integers(0, len(ids), size)]
    if size > 1:
        picks[-1] = picks[0]
    return picks


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, None])
def test_sample_matrix_layout(tmp_path, small_bbn, size):
    n, seed = 301, 4
    ids = _subset(small_bbn, size)
    k = len(ids)
    rows = sample_matrix(small_bbn, n, seed, nodes=ids)
    fresh = Sampler(small_bbn, n, seed)
    expected = np.zeros((n, 0), dtype=bool)
    if ids:
        expected = np.column_stack([fresh.column(nid) for nid in ids])
    assert rows.dtype == np.uint8 and rows.flags.c_contiguous
    assert rows.shape == (n, (k + 7) // 8)
    assert np.array_equal(rows, np.packbits(expected, axis=1))
    path = tmp_path / "s.bin"
    if not ids:   # a dump without columns cannot record its row count
        with pytest.raises(ValueError, match="no nodes"):
            save_samples(str(path), rows, k)
        assert not path.exists()
        return
    save_samples(str(path), rows, k)
    assert path.read_bytes()[8:] == np.packbits(expected, axis=1).tobytes()
    loaded, n_nodes = load_samples(str(path))
    assert n_nodes == k and np.array_equal(_bits(loaded, k), expected)


def test_sample_matrix_defaults_to_every_node(small_bbn):
    fresh = Sampler(small_bbn, 50, 9)
    expected = np.column_stack([fresh.column(node.id)
                                for node in small_bbn.nodes])
    assert np.array_equal(
        _bits(sample_matrix(small_bbn, 50, 9), len(small_bbn)), expected)


def test_sampler_rejects_unknown_node(small_bbn):
    sampler = Sampler(small_bbn, 10, seed=0)
    with pytest.raises(KeyError):
        sampler.column("not-a-node")


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_sampler_rejects_bad_seed(small_bbn, seed):
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer, got {seed!r}")):
        Sampler(small_bbn, 10, seed)


@pytest.mark.parametrize("n", [2.5, True, 0, -3, "5"])
def test_estimates_reject_bad_sample_counts(small_bbn, n):
    """A draw count is an integer of at least 1, never truncated."""
    message = f"^{re.escape(f'n must be a positive integer, got {n!r}')}$"
    node = small_bbn.ids[0]
    with pytest.raises(ValueError, match=message):
        estimate_marginals(small_bbn, nodes=[node], n=n, seed=0)
    with pytest.raises(ValueError, match=message):
        estimate_event(small_bbn, f'"{node}"', n=n, seed=0)


def test_sampler_takes_counts_up_to_one_array_of_uniforms(small_bbn):
    """The largest count is the most float64 uniforms one numpy array can
    hold; one more is refused by value before anything is drawn."""
    top = np.iinfo(np.intp).max // 8
    assert Sampler(small_bbn, top, seed=0).n == top
    with pytest.raises(ValueError, match=f"^n = {top + 1} is more samples "
                                         "than an array holds$"):
        Sampler(small_bbn, np.uint64(top + 1), seed=0)


def test_estimates_take_numpy_sample_counts(small_bbn):
    node = small_bbn.ids[0]
    est, = estimate_marginals(small_bbn, nodes=[node], n=np.int64(5), seed=0)
    assert est.n_samples == 5 and type(est.n_samples) is int
    assert type(est.estimate) is float
    assert est.estimate == estimate_event(small_bbn, f'"{node}"',
                                          n=np.int64(5), seed=0)


# --- draw skipping -----------------------------------------------------------

@pytest.mark.parametrize("entry, draws", [
    ({}, False),
    ({"risks": [0.3]}, True),
    ({"risks": [0.0]}, True),
    ({"absolute": 0.0}, True),
    ({"absolute": 0.7}, True),
    ({"absolute": 0.7, "parents": [[0, 1.0]]}, True),
    ({"parents": [[0, 1.0]]}, False),
    ({"parents": [[0, 0.0]]}, False),
    ({"parents": [[0, 1.0], [1, 0.0]]}, False),
    ({"parents": [[0, 0.5]]}, True),
    ({"parents": [[0, 1.0], [1, 0.25]]}, True),
    ({"kind": "ce", "parents": [[0, 1.0]]}, False),
    ({"kind": "ce", "parents": [[1, 0.0]]}, False),
    ({"kind": "ce", "parents": [[0, 0.5]]}, True),
])
def test_needs_draws_by_node_kind(entry, draws):
    bbn = bbn_from_dict({"nodes": [{"id": "a", "absolute": 0.5},
                                   {"id": "b", "risks": [0.2]},
                                   dict(entry, id="x")]})
    assert bbn.needs_draws.tolist() == [True, True, draws]


def _count_uniforms(mp):
    """Patch Sampler._uniforms to record each node index it draws for."""
    calls = []
    uniforms = Sampler._uniforms

    def counting(self, idx):
        calls.append(idx)
        return uniforms(self, idx)

    mp.setattr(Sampler, "_uniforms", counting)
    return calls


def test_full_pass_draws_once_per_random_node(monkeypatch, small_bbn):
    calls = _count_uniforms(monkeypatch)
    sample_matrix(small_bbn, 100, seed=2)
    assert 0 < len(calls) == int(small_bbn.needs_draws.sum()) \
        < len(small_bbn.nodes)


# --- events ------------------------------------------------------------------

def test_event_estimate_matches_exact(make_edited):
    ew = make_edited(
        {"as:1": "AS", "vlink:a": "Virtual Link", "vlink:b": "Virtual Link"},
        [("as:1", "vlink:a"), ("as:1", "vlink:b")])
    bbn = compile_bbn(ew, trust=(
        Absolute(_pred("is AS"), 0.35),
        Relative("r", _pred('id in {"vlink:b"}'), 0.25)), scale=SCALE)
    expr = "vlink:a or (vlink:b and not as:1)"
    p = exact_event(bbn, expr)
    n = 80_000
    _assert_close_binomial(estimate_event(bbn, expr, n=n, seed=3), p, n)


def test_event_parse_errors():
    with pytest.raises(ValueError):
        parse_event("")
    with pytest.raises(ValueError):
        parse_event("a and")
    with pytest.raises(ValueError):
        parse_event("(a or b")


# --- serialization -----------------------------------------------------------

def test_bbn_dict_roundtrip(small_bbn):
    again = bbn_from_dict(bbn_to_dict(small_bbn))
    assert again == small_bbn


def test_bbn_dict_rejects_forward_parent():
    data = {"nodes": [
        {"id": "a", "kind": "world", "parents": [[1, 1.0]], "risks": [],
         "absolute": None, "is_output": False},
        {"id": "b", "kind": "world", "parents": [], "risks": [],
         "absolute": 0.5, "is_output": False}]}
    with pytest.raises(CompileError):
        bbn_from_dict(data)


def _node(node_id, parents=(), kind="world", risks=(), absolute=None):
    return {"id": node_id, "kind": kind, "parents": [list(p) for p in parents],
            "risks": list(risks), "absolute": absolute, "is_output": False}


@pytest.mark.parametrize("bad", [
    _node("b", parents=[(0, 2.5)]),
    _node("b", parents=[(0, -0.1)]),
    _node("b", risks=[1.01]),
    _node("b", absolute=1.5),
    _node("b", absolute=float("nan")),
    _node("b", kind="gate"),
    _node("b", kind="ce"),
    _node("b", kind="ce", parents=[(0, 0.5), (0, 0.5)]),
    _node("b", kind="ce", parents=[(0, 0.5)], risks=[0.1]),
    _node("b", kind="ce", parents=[(0, 0.5)], absolute=0.3),
    _node("b", parents=[(-1, 0.5)]),
    _node("b", parents=[("0", 1.0)]),
    _node("b", parents=[(False, 1.0)]),
    5,
    _node("a", absolute=0.9),
    dict(_node("b"), risks="1"),
    dict(_node("b"), is_output="yes"),
    dict(_node("b"), parents=5),
    dict(_node("b"), parents=[[0]]),
    _node("b", parents=[(0, "0.5")]),
    _node("b", risks=[True]),
    _node("b", absolute=[1]),
])
def test_bbn_dict_rejects_malformed_node(bad):
    data = {"nodes": [_node("a", absolute=0.5), bad]}
    with pytest.raises(CompileError):
        bbn_from_dict(data)


@pytest.mark.parametrize("bad,message", [
    ({"parents": [[0, 0.5]]}, r"^nodes\[1\]: missing 'id'$"),
    (dict(_node("b"), id=7),
     r"^nodes\[1\]: 'id' must be a string, not an integer$"),
    (_node("b", parents=[(0.5, 1.0)]),
     r"^nodes\[1\]\.parents\[0\]: 'index' must be an integer, not a number$"),
    (5, r"^nodes\[1\]: expected an object$"),
    (_node("a", absolute=0.9), r"^nodes\[1\]: duplicate node id 'a'$"),
    (dict(_node("b"), risks="1"),
     r"^nodes\[1\]: 'risks' must be a list of probabilities, not a string$"),
    (dict(_node("b"), parents=5),
     r"^nodes\[1\]: 'parents' must be a list, not an integer$"),
    (dict(_node("b"), parents=[[0]]),
     r"^nodes\[1\]\.parents\[0\]: expected a pair \[index, weight\]$"),
    (_node("b", absolute=[1]),
     r"^nodes\[1\]: 'absolute' must be a probability, not a list$"),
    (dict(_node("b"), is_output="yes"),
     r"^nodes\[1\]: 'is_output' must be a boolean, not a string$"),
    (_node("b", kind="ce", parents=[(0, 0.5)], absolute=0.3),
     r"^ce node 'b' may carry no risk and no absolute value$"),
])
def test_bbn_dict_names_the_bad_entry(bad, message):
    with pytest.raises(CompileError, match=message):
        bbn_from_dict({"nodes": [_node("a", absolute=0.5), bad]})


@pytest.mark.parametrize("bad", [[], {"nodes": 5}, "nodes"])
def test_bbn_dict_rejects_a_file_without_a_nodes_array(bad):
    fault = "'nodes' must be a list, not an integer" \
        if isinstance(bad, dict) else "expected an object"
    with pytest.raises(CompileError, match=f"^network file: {fault}$"):
        bbn_from_dict(bad)


def test_sample_dump_roundtrip(tmp_path, small_bbn):
    rows = sample_matrix(small_bbn, 999, seed=1)
    path = str(tmp_path / "s.bin")
    save_samples(path, rows, len(small_bbn))
    loaded, n_nodes = load_samples(path)
    assert n_nodes == len(small_bbn) and np.array_equal(loaded, rows)


def test_sample_dump_rejects_corruption(tmp_path, small_bbn):
    ids = [node.id for node in small_bbn.nodes][:13]
    rows = sample_matrix(small_bbn, 64, seed=1, nodes=ids)
    path = tmp_path / "s.bin"
    padded = rows.copy()
    padded[3, 1] |= 1                       # bit 15 of a 13-node row
    for bad, n_nodes, message in [
            (rows[0], 13, "2-dimensional uint8"),
            (rows.astype(np.int64), 13, "2-dimensional uint8"),
            (_bits(rows, 13), 13, "2-dimensional uint8"),
            (rows, 17, "2 bytes wide, 17 nodes need 3"),
            (rows, 8, "2 bytes wide, 8 nodes need 1"),
            (padded, 13, "padding"),
            (rows, 0, "no nodes"),
            (rows, -3, "negative")]:
        with pytest.raises(ValueError, match=message):
            save_samples(str(path), bad, n_nodes)
        assert not path.exists()
    with pytest.raises(NetworkTooLargeError):
        save_samples(str(path), rows, 1 << 24)
    with pytest.raises(TypeError):
        save_samples(str(path), rows, 13.0)
    save_samples(str(path), rows, 13)
    raw = path.read_bytes()
    path.write_bytes(raw[:8 + 3] + bytes([raw[8 + 3] | 4]) + raw[8 + 4:])
    with pytest.raises(ValueError, match="padding"):
        load_samples(str(path))
    path.write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        load_samples(str(path))
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_samples(str(path))
    path.write_bytes(raw[:5] + bytes(3) + raw[8:])   # a node count of 0
    with pytest.raises(ValueError, match="no nodes"):
        load_samples(str(path))


# --- randomized cross-check --------------------------------------------------

def _edited_inline(types, edges):
    from tortrust.editor import EditedWorld
    from tortrust.ontology import default_ontology
    from tortrust.world import RelationshipInstance, TypeInstance, World
    world = World(tuple(TypeInstance(i, t) for i, t in types.items()),
                  tuple(RelationshipInstance(p, c) for p, c in edges))
    return EditedWorld(world=world, ontology=default_ontology(),
                       budgets={}, ce_specs={}, user_edges=frozenset(edges))


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_random_networks_sample_to_exact(data):
    """Small random DAGs: sampled marginals track enumerated ones."""
    n_nodes = data.draw(st.integers(3, 8), label="n_nodes")
    names = [f"as:{i}" for i in range(n_nodes - 1)] + ["relay:out"]
    types = {name: ("AS" if name.startswith("as:") else "Tor Relay")
             for name in names}
    edges = []
    for j in range(1, n_nodes):
        for i in range(j):
            if data.draw(st.booleans(), label=f"edge{i}-{j}"):
                edges.append((names[i], names[j]))
    ew = _edited_inline(types, edges)
    trust = [Relative("seed-risk", _pred('id in {"as:0"}'), 0.5)]
    if data.draw(st.booleans(), label="extra-risk"):
        trust.append(Relative("broad", _pred("is AS"),
                              data.draw(st.floats(0.05, 0.6), label="rv")))
    if data.draw(st.booleans(), label="abs"):
        trust.append(Absolute(_pred('id in {"as:1"}'),
                              data.draw(st.floats(0.0, 1.0), label="av")))
    bbn = compile_bbn(ew, trust=tuple(trust), scale=SCALE)
    exact = exact_marginals(bbn)
    n = 25_000
    sampled = {e.node: e.estimate
               for e in estimate_marginals(bbn, n=n, seed=7)}
    for node, p in exact.items():
        _assert_close_binomial(sampled[node], p, n, sigmas=5.0)


_UNIT = st.floats(0.0, 1.0)
_OUT_OF_RANGE = st.one_of(st.floats(1.0, 10.0, exclude_min=True),
                          st.floats(-10.0, 0.0, exclude_max=True),
                          st.just(float("nan")))


@st.composite
def _network_dicts(draw):
    """Serialized networks of 1-7 nodes; every probability in [0,1]."""
    nodes = []
    for i in range(draw(st.integers(1, 7))):
        if i and draw(st.integers(0, 4)) == 0:
            nodes.append(_node(f"ce:{i}", kind="ce",
                               parents=[(draw(st.integers(0, i - 1)),
                                         draw(_UNIT))]))
            continue
        parents = [(j, draw(_UNIT)) for j in range(i) if draw(st.booleans())]
        absolute = draw(st.one_of(st.none(), _UNIT))
        nodes.append(_node(f"n:{i}", parents=parents, absolute=absolute,
                           risks=draw(st.lists(_UNIT, max_size=2))))
    return {"nodes": nodes}


@settings(max_examples=25, deadline=None)
@given(_network_dicts())
# n * p = 0.075 for n:4, and the sampler draws 2 hits in 20,000.
@example({"nodes": [_node("n:0"),
                    _node("ce:1", kind="ce", parents=[(0, 0.0)]),
                    _node("n:2", risks=[7.517105557753727e-06]),
                    _node("ce:3", kind="ce", parents=[(0, 0.0)]),
                    _node("n:4", parents=[(2, 0.5)])]})
def test_loaded_networks_sample_to_exact(data):
    bbn = bbn_from_dict(data)
    exact = exact_marginals(bbn)
    n = 20_000
    sampled = {e.node: e.estimate
               for e in estimate_marginals(bbn, n=n, seed=5)}
    for node, p in exact.items():
        assert 0.0 <= p <= 1.0 + 1e-12
        _assert_close_binomial(sampled[node], min(p, 1.0), n, sigmas=5.0)


@settings(max_examples=40, deadline=None)
@given(_network_dicts())
def test_format_2_round_trip_writes_no_default_field(data):
    """A network written in format 2 reads back equal from its JSON text,
    and the file gives every node its `parents` and no field at its
    default: no world kind, empty risks, null absolute, false is_output or
    weights that are all 1."""
    bbn = bbn_from_dict(data)
    written = bbn_to_dict(bbn)
    assert bbn_from_dict(parse_json(json_text(written))) == bbn
    assert written["format"] == 2
    for node in written["nodes"]:
        assert "parents" in node
        assert node.get("kind") != "world"
        assert node.get("risks", (0.5,)) != ()
        assert node.get("absolute", 0.5) is not None
        assert node.get("is_output") is not False
        assert any(w != 1 for w in node.get("weights", [0.5]))


@settings(max_examples=40, deadline=None)
@given(_network_dicts(), st.sampled_from(["pairs", "format 2"]), st.data())
def test_loaded_networks_reject_out_of_range(network, layout, data):
    """One value out of its range is refused in either layout: a weight, a
    risk or an absolute value outside [0, 1], and in format 2 a parent
    position that is not before its node's own.  Format 2's nodes with
    parents are given their weights, all 1 where the writer omits them."""
    if layout == "format 2":
        network = parse_json(json_text(bbn_to_dict(bbn_from_dict(network))))
    slots = []
    for i, entry in enumerate(network["nodes"]):
        parents = entry["parents"]
        if layout == "pairs":
            slots += [(pair, 1, _OUT_OF_RANGE) for pair in parents]
        else:
            slots += [(parents, k, st.one_of(st.integers(max_value=-1),
                                             st.integers(min_value=i)))
                      for k in range(len(parents))]
            if parents:
                weights = entry.setdefault("weights", [1.0] * len(parents))
                slots += [(weights, k, _OUT_OF_RANGE)
                          for k in range(len(weights))]
        risks = entry.get("risks", [])
        slots += [(risks, k, _OUT_OF_RANGE) for k in range(len(risks))]
        if entry.get("kind", "world") == "world":
            slots.append((entry, "absolute", _OUT_OF_RANGE))
    target, key, values = data.draw(st.sampled_from(slots), label="slot")
    target[key] = data.draw(values, label="value")
    with pytest.raises(CompileError):
        bbn_from_dict(network)


_WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), _UNIT)


@st.composite
def _mostly_deterministic_dicts(draw):
    """Serialized networks of 1-9 nodes, most of them plain ORs: weights
    often exactly 0 or 1, risks often empty, absolute often None."""
    nodes = []
    for i in range(draw(st.integers(1, 9))):
        if i and draw(st.integers(0, 5)) == 0:
            nodes.append(_node(f"ce:{i}", kind="ce",
                               parents=[(draw(st.integers(0, i - 1)),
                                         draw(_WEIGHT))]))
            continue
        parents = [(j, draw(_WEIGHT)) for j in range(i) if draw(st.booleans())]
        risks = draw(st.one_of(st.just([]), st.lists(_UNIT, max_size=2)))
        absolute = draw(st.one_of(st.none(), st.none(), _UNIT))
        nodes.append(_node(f"n:{i}", parents=parents, absolute=absolute,
                           risks=risks))
    return {"nodes": nodes}


def _reference_columns(bbn, n, seed):
    """The rule without skipping: every node draws n uniforms from its own
    (seed, position) stream and compares them against its probability."""
    cols = []
    for idx, node in enumerate(bbn.nodes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        u = rng.random(n)
        if node.absolute is not None:
            cols.append(u < node.absolute)
            continue
        if node.kind == "ce":
            (j, activation), = node.parents
            cols.append(cols[j] & (u < activation))
            continue
        keep_static = 1.0
        for q in node.risks:
            keep_static *= 1.0 - q
        certain = np.zeros(n, dtype=bool)
        keep = None
        for j, w in node.parents:
            if w >= 1.0:
                certain = certain | cols[j]
            elif w > 0.0:
                factor = np.where(cols[j], 1.0 - w, 1.0)
                keep = factor if keep is None else keep * factor
        p = 1.0 - (keep_static if keep is None else keep * keep_static)
        cols.append((u < p) | certain)
    return cols


@settings(max_examples=60, deadline=None)
@given(_mostly_deterministic_dicts())
def test_skipping_draws_is_byte_identical(data):
    """Every column equals the draw-everything rule, and only the nodes
    `needs_draws` marks read uniforms."""
    bbn = bbn_from_dict(data)
    for seed in (3, 2026):
        reference = _reference_columns(bbn, 257, seed)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_uniforms(mp)
            sampler = Sampler(bbn, 257, seed)
            for node, expected in zip(bbn.nodes, reference):
                assert np.array_equal(sampler.column(node.id), expected)
        assert sorted(calls) == np.flatnonzero(bbn.needs_draws).tolist()


# --- streams -----------------------------------------------------------------

_SEEDS = st.one_of(st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1,
                                    2 ** 130]),
                   st.integers(0, 2 ** 160 - 1))
_POSITIONS = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1]),
                       st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(_POSITIONS, min_size=1, max_size=4))
def test_stream_words_seed_pcg64_as_numpy_does(seed, positions):
    """One pass of words, then PCG64's seeding step, give the state that
    numpy's PCG64(SeedSequence([seed, p])) starts from, for seeds of 1 to 5
    uint32 words and every position one uint32 holds."""
    words = _stream_words(seed, positions)
    assert words.dtype == np.uint64 and words.shape == (len(positions), 4)
    for p, row in zip(positions, words.tolist()):
        assert _pcg64_state(row) == np.random.PCG64(
            np.random.SeedSequence([seed, p])).state


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("seed", [0, 2 ** 63 - 1, 2 ** 64 + 1])
def test_one_generator_draws_each_stream_as_default_rng(small_bbn, n, seed):
    """A Sampler re-seeds its one generator before each draw, so a draw
    node's uniforms are default_rng(SeedSequence([seed, p])).random(n)
    whatever was drawn before."""
    draws = np.flatnonzero(small_bbn.needs_draws).tolist()
    sampler = Sampler(small_bbn, n, seed)
    for p in draws[::-1] + draws:
        expected = np.random.default_rng(
            np.random.SeedSequence([seed, p])).random(n)
        assert np.array_equal(sampler._uniforms(p), expected)


@pytest.mark.parametrize("position", [-1, 2 ** 32, 2 ** 40])
def test_stream_positions_outside_one_uint32_are_refused(position):
    """numpy would read such a position as other entropy words."""
    with pytest.raises(ValueError, match=rf"^stream position {position} is "
                                         r"outside \[0, 2\*\*32\)$"):
        _stream_words(3, [0, position])


# --- frontiers ---------------------------------------------------------------

def _reference_frontiers(bbn):
    """Each node's frontier by its definition, one node at a time."""
    frontiers = []
    for i, node in enumerate(bbn.nodes):
        frontiers.append({i} if bbn.needs_draws[i] else set().union(
            *(frontiers[j] for j, w in node.parents if w >= 1.0)))
    return frontiers


def _needed_draws(bbn, positions):
    """The draw nodes whose columns the columns at `positions` read: the
    draw nodes of their frontiers, and for each of those the draw nodes of
    the frontiers of the parents it reads (none for an absolute node, else
    each parent of positive weight), and so on."""
    frontiers = _reference_frontiers(bbn)
    seen = set()
    stack = [d for i in positions for d in frontiers[i]]
    while stack:
        d = stack.pop()
        if d not in seen:
            seen.add(d)
            node = bbn.nodes[d]
            stack += [k for j, w in node.parents
                      if node.absolute is None and w > 0.0
                      for k in frontiers[j]]
    return seen


def _count_sampler_calls(mp):
    """Patch Sampler.column and Sampler._compute to record their
    arguments: (node ids requested, positions computed)."""
    requested, computed = [], []
    column, compute = Sampler.column, Sampler._compute

    def counting_column(self, node_id):
        requested.append(node_id)
        return column(self, node_id)

    def counting_compute(self, idx):
        computed.append(idx)
        return compute(self, idx)

    mp.setattr(Sampler, "column", counting_column)
    mp.setattr(Sampler, "_compute", counting_compute)
    return requested, computed


@settings(max_examples=80, deadline=None)
@given(_mostly_deterministic_dicts(), st.integers(1, 70),
       st.integers(0, 2 ** 16),
       st.one_of(st.none(), st.lists(st.integers(0, 99), max_size=12)))
def test_frontier_rows_equal_per_node_columns(data, n, seed, picks):
    """On networks with ce nodes, risks, fractional and zero weights, draw
    nodes with parents and parentless nodes that do not draw, each node's
    frontier is its definition's, `sample_matrix` equals the packed
    columns of a fresh Sampler byte for byte on any subset in any order
    with repeats, and `estimate_marginals` equals each column's mean.  A
    dump draws each draw node of the subset's frontiers through one
    request, in position order, and computes only the draw nodes those
    need."""
    bbn = bbn_from_dict(data)
    ptr, idx = bbn.frontier
    reference = _reference_frontiers(bbn)
    assert ptr[0] == 0 and ptr[-1] == idx.size
    assert [idx[ptr[i]:ptr[i + 1]].tolist() for i in range(len(bbn))] \
        == [sorted(frontier) for frontier in reference]
    nodes = None if picks is None else [bbn.ids[i % len(bbn)] for i in picks]
    ids = list(bbn.ids) if nodes is None else nodes
    fresh = Sampler(bbn, n, seed)
    columns = [fresh.column(x) for x in ids]
    expected = np.packbits(np.column_stack(columns) if ids
                           else np.zeros((n, 0), dtype=bool), axis=1)
    with pytest.MonkeyPatch.context() as mp:
        requested, computed = _count_sampler_calls(mp)
        rows = sample_matrix(bbn, n, seed, nodes=nodes)
    assert rows.dtype == np.uint8 and rows.flags.c_contiguous
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()
    draws = sorted(set().union(*(reference[bbn.index[x]] for x in ids)))
    assert requested == [bbn.ids[d] for d in draws]
    assert sorted(computed) == sorted(_needed_draws(bbn, draws))
    assert [(e.node, e.estimate, e.n_samples) for e in estimate_marginals(
        bbn, nodes=nodes, n=n, seed=seed)] \
        == [(x, float(col.mean()), n) for x, col in zip(ids, columns)]


def test_a_network_where_every_node_draws_is_its_own_frontier():
    bbn = bbn_from_dict({"nodes": [
        {"id": f"n:{i}", "risks": [0.5], "parents": [[0, 1.0]] if i else []}
        for i in range(6)]})
    ptr, idx = bbn.frontier
    assert ptr.tolist() == list(range(7)) and idx.tolist() == list(range(6))
    for array in (ptr, idx):
        assert not array.flags.writeable


@pytest.fixture(scope="module")
def toy_bbn(ontology):
    """The-man network of a toy-size world."""
    params = SynthParams(n_as=30, n_ixp=3, n_relays=20, family_sizes=(2, 2),
                         as_org_sizes=(3, 3), ixp_org_sizes=(2,), n_epochs=6)
    world = build_world(ontology, generate_synthetic(params, seed=11))
    doc = build_the_man(world)
    return compile_bbn(apply_structural(world, ontology, doc), doc.trust,
                       doc.scale)


# An absolute node with a parent, and a node whose only parent weighs 0:
# neither parent is read, so neither is drawn.
_UNREAD_PARENTS = {"nodes": [
    {"id": "p", "absolute": 0.5}, {"id": "q", "risks": [0.2]},
    {"id": "a", "absolute": 0.3, "parents": [[0, 1.0]]},
    {"id": "z", "risks": [0.1], "parents": [[1, 0.0]]}]}


@settings(max_examples=80, deadline=None)
@given(_mostly_deterministic_dicts(),
       st.lists(st.integers(0, 99), min_size=1, max_size=12),
       st.integers(0, 2 ** 16))
@example(_UNREAD_PARENTS, [2, 3], 0)
def test_sampler_caches_only_the_draw_nodes_asked_for(data, picks, seed):
    """After each `Sampler.column` request the cache holds exactly the draw
    nodes the requests so far need; a node that draws nothing is the OR of
    its frontier again on each request, and asking for it again computes
    and draws nothing."""
    bbn = bbn_from_dict(data)
    positions = [i % len(bbn) for i in picks]
    sampler = Sampler(bbn, 37, seed)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_uniforms(mp)
        _, computed = _count_sampler_calls(mp)
        first = []
        for k, i in enumerate(positions, 1):
            first.append(sampler.column(bbn.ids[i]))
            assert set(sampler._cols) == _needed_draws(bbn, positions[:k])
        assert sorted(calls) == sorted(computed) == sorted(sampler._cols)
        del calls[:], computed[:]
        for i, col in zip(positions, first):
            if not bbn.needs_draws[i]:
                assert np.array_equal(sampler.column(bbn.ids[i]), col)
        assert calls == computed == []


@settings(max_examples=80, deadline=None)
@given(_mostly_deterministic_dicts(),
       st.lists(st.integers(0, 99), min_size=3, max_size=3),
       st.integers(1, 70), st.integers(0, 2 ** 16))
@example(_UNREAD_PARENTS, [2, 3, 2], 9, 0)
def test_a_column_of_several_ids_is_the_or_of_theirs(data, picks, n, seed):
    """`column(a, b, c)` equals `column(a) | column(b) | column(c)` and
    draws the same draw nodes; `column()` is all False."""
    bbn = bbn_from_dict(data)
    ids = [bbn.ids[i % len(bbn)] for i in picks]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_uniforms(mp)
        joint = Sampler(bbn, n, seed).column(*ids)
        drawn = sorted(calls)
        del calls[:]
        single = Sampler(bbn, n, seed)
        expected = np.logical_or.reduce([single.column(x) for x in ids])
        assert sorted(calls) == drawn == sorted(
            _needed_draws(bbn, [bbn.index[x] for x in ids]))
    assert joint.dtype == bool and np.array_equal(joint, expected)
    none = Sampler(bbn, n, seed).column()
    assert none.shape == (n,) and not none.any()


def test_absolute_values_overriding_risks_or_parents_warn_once(caplog):
    data = copy.deepcopy(_UNREAD_PARENTS)
    with caplog.at_level("WARNING", logger="tortrust.bbn"):
        bbn_from_dict(data)
        data["nodes"].append({"id": "d", "absolute": 0.4, "risks": [0.9]})
        bbn = bbn_from_dict(data)
        bbn_from_dict({"nodes": [{"id": "p", "absolute": 0.5},
                                 {"id": "z", "parents": [[0, 1.0]]}]})
    assert [r.getMessage() for r in caplog.records] == [
        f"{k} absolute node(s) also carry risks or parents, which their "
        "absolute value overrides" for k in (1, 2)]
    assert exact_marginals(bbn)["d"] == 0.4


@pytest.mark.parametrize("network", ["small_bbn", "toy_bbn"])
def test_dump_requests_each_draw_column_once(network, request, monkeypatch):
    bbn = request.getfixturevalue(network)
    draws = np.flatnonzero(bbn.needs_draws).tolist()
    assert 0 < len(draws) < len(bbn)
    requested, computed = _count_sampler_calls(monkeypatch)
    sample_matrix(bbn, 100, seed=2)
    assert requested == [bbn.ids[d] for d in draws]
    assert sorted(computed) == sorted(_needed_draws(bbn, draws))


@pytest.mark.parametrize("network", ["small_bbn", "toy_bbn"])
def test_dump_holds_about_one_matrix(network, request):
    """Besides the rows it returns, a dump holds the draw nodes' packed
    columns, one column being drawn (n float64 uniforms and n bools), the
    rows one draw node sets with their indices, and small arrays."""
    bbn = request.getfixturevalue(network)
    n, seed = 20_000, 4
    bbn.frontier
    draws = np.flatnonzero(bbn.needs_draws).tolist()
    fresh = Sampler(bbn, n, seed)
    most_hits = max(np.count_nonzero(fresh.column(bbn.ids[d]))
                    for d in draws)
    del fresh
    width = (len(bbn) + 7) // 8
    tracemalloc.start()
    try:
        rows = sample_matrix(bbn, n, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.nbytes == n * width
    assert peak <= (rows.nbytes + len(draws) * ((n + 7) // 8) + 10 * n
                    + most_hits * (width + 8) + (1 << 16))


@pytest.mark.parametrize("gap", [0, 1, 256, 10 ** 6])
def test_dump_rows_do_not_depend_on_the_runs(gap, monkeypatch):
    """A draw node's members far apart in the request split its membership
    bytes into several runs; the rows equal the packed columns whatever
    gap splits them."""
    monkeypatch.setattr("tortrust.bbn._OR_GAP_BYTES", gap)
    bbn = bbn_from_dict({"nodes": [
        {"id": "a", "absolute": 0.5},
        {"id": "b", "parents": [[0, 1.0]]},
        {"id": "c", "parents": [[0, 1.0]], "risks": [0.3]},
        {"id": "z"}]})
    nodes = ["b", "c"] + ["z"] * 3000 + ["a", "c", "b"] + ["z"] * 9 + ["b"]
    fresh = Sampler(bbn, 50, 8)
    expected = np.packbits(np.column_stack([fresh.column(x) for x in nodes]),
                           axis=1)
    assert sample_matrix(bbn, 50, 8, nodes=nodes).tobytes() \
        == expected.tobytes()


def test_dump_refuses_rows_past_one_array_before_any_draw(monkeypatch,
                                                          small_bbn):
    """The guard reads the width of the rows it allocates, ceil(k/8)."""
    calls = _count_uniforms(monkeypatch)
    k = len(small_bbn)
    n = np.iinfo(np.intp).max // ((k + 7) // 8) + 1
    with pytest.raises(InvalidInputError, match=f"^n = {n} samples of {k} "
                       "nodes need more bytes than an array holds$"):
        sample_matrix(small_bbn, n, seed=0)
    assert calls == []


def test_unknown_ids_refused_before_any_draw(monkeypatch, small_bbn):
    """Dumps, marginals and events look up every id before they draw, and
    an exact event before it enumerates."""
    calls = _count_uniforms(monkeypatch)
    monkeypatch.setattr("tortrust.bbn._joint",
                        lambda *args: calls.append("enumerated"))
    known = small_bbn.ids[-1]
    for nodes in (["nope"], [known, "nope"], ["nope", known, known]):
        event = " and ".join(f'"{x}"' for x in nodes)
        for refused in (
                lambda: sample_matrix(small_bbn, 10, 1, nodes=nodes),
                lambda: estimate_marginals(small_bbn, nodes=nodes, n=10,
                                           seed=1),
                lambda: estimate_event(small_bbn, event, n=10, seed=1),
                lambda: exact_event(small_bbn, event)):
            with pytest.raises(UnknownIdError, match="unknown node 'nope'"):
                refused()
    assert calls == []


# --- array storage -----------------------------------------------------------

def _reference_nodes(ew, trust, scale):
    """The previous compile: string-keyed edge maps, Kahn's algorithm with
    a min-heap on node ids, one BbnNode per node."""
    import heapq
    from tortrust.bbn import BbnNode
    from tortrust.editor import resolve_attachments
    world = ew.world
    budget_scopes, ce_scopes = resolve_attachments(world, ew.ontology, trust)
    in_edges = {inst.id: {} for inst in world.instances}
    for rel in world.relationships:
        in_edges[rel.child][rel.parent] = 1.0
    ce_nodes = []
    for parent in sorted(ce_scopes):
        for i, (spec, covered) in enumerate(ce_scopes[parent]):
            if covered:
                ce_id = f"ce:{parent}#{i}"
                ce_nodes.append((ce_id, parent, scale.ce_prob(spec.v)))
                for child in covered:
                    del in_edges[child][parent]
                    in_edges[child][ce_id] = 1.0
    for parent in sorted(budget_scopes):
        for budget, scope in budget_scopes[parent]:
            for child in scope:
                in_edges[child][parent] *= min(1.0, budget.k / len(scope))
    risks = {inst.id: [] for inst in world.instances}
    absolute = {}
    for belief in trust:
        if isinstance(belief, (Relative, Absolute)):
            for node in select(world, belief.pred.root):
                if isinstance(belief, Relative):
                    risks[node].append(scale.prob(belief.v))
                else:
                    absolute[node] = scale.prob(belief.v)
    for node in absolute:
        in_edges[node] = {}
        risks[node] = []
    ce_parent = {ce_id: (parent, act) for ce_id, parent, act in ce_nodes}
    out_edges = {nid: [] for nid in list(in_edges) + list(ce_parent)}
    indegree = dict.fromkeys(out_edges, 0)
    for child, parents in in_edges.items():
        for parent in parents:
            out_edges[parent].append(child)
            indegree[child] += 1
    for ce_id, (parent, _) in ce_parent.items():
        out_edges[parent].append(ce_id)
        indegree[ce_id] += 1
    heap = sorted(nid for nid, deg in indegree.items() if deg == 0)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for child in out_edges[nid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, child)
    position = {nid: i for i, nid in enumerate(order)}
    outputs = ew.ontology.output_types
    nodes = []
    for nid in order:
        if nid in ce_parent:
            parent, act = ce_parent[nid]
            nodes.append(BbnNode(nid, "ce", ((position[parent], act),)))
        else:
            nodes.append(BbnNode(
                nid, "world",
                tuple((position[p], w) for p, w in sorted(in_edges[nid].items())),
                tuple(risks[nid]), absolute.get(nid),
                world.type_of(nid) in outputs))
    return tuple(nodes)


@st.composite
def _dag_worlds(draw):
    """Random DAGs whose id order differs from their topological order,
    with relative, absolute, budget and CE beliefs."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    types = [draw(st.sampled_from(["AS", "Virtual Link", "Tor Relay"]))
             for _ in range(n)]
    prefix = {"AS": "as", "Virtual Link": "vlink", "Tor Relay": "relay"}
    names = [f"{prefix[t]}:{labels[i]}" for i, t in enumerate(types)]
    edges = [(names[i], names[j]) for j in range(n) for i in range(j)
             if draw(st.integers(0, 2)) == 0]
    ew = _edited_inline(dict(zip(names, types)), edges)
    unit = st.floats(0.0, 1.0)
    some = st.lists(st.sampled_from(names), min_size=1, max_size=3)

    def ids(nodes):
        return _pred("id in {%s}" % ", ".join(f'"{x}"' for x in nodes))

    trust = [Relative("r", ids(draw(some)), draw(unit))
             for _ in range(draw(st.integers(0, 3)))]
    trust += [Absolute(ids(draw(some)), draw(unit))
              for _ in range(draw(st.integers(0, 2)))]
    # budgets and CE beliefs on disjoint nodes, one CE belief per node
    owners = draw(st.permutations(names))
    for node in owners[:draw(st.integers(0, 2))]:
        trust.append(draw(st.sampled_from([
            Budget1(node, "VirtualLink", draw(st.integers(0, 3))),
            Budget2(node, draw(st.integers(0, 3)))])))
    for node in owners[2:2 + draw(st.integers(0, 2))]:
        trust.append(draw(st.sampled_from([
            CE1(node, _pred("is VirtualLink"), draw(unit)),
            CE2(node, draw(unit))])))
    return ew, tuple(trust)


@settings(max_examples=80, deadline=None)
@given(_dag_worlds())
def test_compiled_arrays_match_reference(case):
    ew, trust = case
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    assert bbn.nodes == _reference_nodes(ew, trust, SCALE)
    ptr = bbn.parent_ptr
    assert ptr[0] == 0 and ptr[-1] == bbn.parent_idx.size == bbn.parent_w.size
    for i, node in enumerate(bbn.nodes):
        assert node.id == bbn.ids[i]
        assert node.parents == tuple(zip(bbn.parent_idx[ptr[i]:ptr[i + 1]],
                                         bbn.parent_w[ptr[i]:ptr[i + 1]]))
        assert all(j < i for j, _ in node.parents)
        assert node.is_output == bbn.is_output[i]
        assert (node.kind == "ce") == (i in bbn.ce)
    assert bbn_from_dict(bbn_to_dict(bbn)) == bbn
    for name in ("parent_ptr", "parent_idx", "parent_w", "is_output"):
        array = getattr(bbn, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


def test_compiled_maps_refuse_changes():
    """A network's `risks` and `absolute` maps are read-only copies, like
    its arrays, so the sampler and the exact oracle read one network."""
    data = {"nodes": [{"id": "a", "absolute": 0.5},
                      {"id": "b", "parents": [[0, 1.0]]}]}
    bbn = bbn_from_dict(data)
    bbn.needs_draws
    for change in (lambda: bbn.risks.__setitem__(1, (0.5,)),
                   lambda: bbn.absolute.__setitem__(0, 0.9),
                   lambda: bbn.absolute.pop(0), bbn.absolute.clear,
                   lambda: bbn.risks.update({1: (0.5,)})):
        with pytest.raises(TypeError):
            change()
    assert bbn == bbn_from_dict(data)
    exact = exact_marginals(bbn)
    assert exact == {"a": 0.5, "b": 0.5}
    for estimate in estimate_marginals(bbn, n=20_000, seed=3):
        assert abs(estimate.estimate - exact[estimate.node]) < 0.02
    risks = {1: (0.5,)}
    risky = dataclasses.replace(bbn, risks=risks)
    risks[1] = (0.9,)
    assert risky.risks == {1: (0.5,)}
    assert exact_marginals(risky)["b"] == 0.75
    for twin in (copy.deepcopy(risky), pickle.loads(pickle.dumps(risky))):
        assert twin == risky
        with pytest.raises(TypeError):
            twin.risks[1] = (0.1,)


def test_compiled_risk_lists_are_kept_as_tuples():
    """A network keeps each risk list as a tuple, as its nodes show it."""
    bbn = bbn_from_dict({"nodes": [{"id": "a", "risks": [0.5]}]})
    risks = {0: [0.25]}
    risky = dataclasses.replace(bbn, risks=risks)
    risks[0].append(0.9)
    assert risky.risks == {0: (0.25,)}
    assert risky.nodes[0].risks == (0.25,)
    assert exact_marginals(risky) == {"a": 0.25}


# --- packed sampler columns --------------------------------------------------

# n mostly not a multiple of 8, so the last byte of a column has padding
_PACKED_CASES = (_dag_worlds(), st.integers(1, 70), st.integers(0, 2 ** 16))
# a budget of 1 over two links: both edges weigh 0.5, so the sampler has
# to unpack the parent for its keep product
_HALF_WEIGHT_CASE = (
    _edited_inline({"as:0": "AS", "vlink:1": "Virtual Link",
                    "vlink:2": "Virtual Link"},
                   [("as:0", "vlink:1"), ("as:0", "vlink:2")]),
    (Relative("r", _pred('id in {"as:0"}'), 0.7), Budget2("as:0", 1)))


@settings(max_examples=60, deadline=None)
@given(*_PACKED_CASES)
@example(_HALF_WEIGHT_CASE, 13, 5)
def test_packed_columns_match_bool_reference(case, n, seed):
    """Unpacked columns equal the bool columns of `_reference_columns`, and
    every cached column is ceil(n/8) bytes with zero padding bits."""
    ew, trust = case
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    sampler = Sampler(bbn, n, seed)
    for node_id, expected in zip(bbn.ids, _reference_columns(bbn, n, seed)):
        col = sampler.column(node_id)
        assert col.dtype == bool and col.shape == (n,)
        assert np.array_equal(col, expected)
    padding = (1 << (-n % 8)) - 1
    assert len(sampler._cols) == int(bbn.needs_draws.sum())
    for packed in sampler._cols.values():
        assert packed.dtype == np.uint8 and packed.shape == ((n + 7) // 8,)
        assert not packed[-1] & padding


@settings(max_examples=60, deadline=None)
@given(*_PACKED_CASES, st.lists(st.integers(0, 99), max_size=20))
@example(_HALF_WEIGHT_CASE, 13, 5, [2, 1, 2])
def test_packed_sample_matrix_matches_bool_reference(case, n, seed, picks):
    ew, trust = case
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    nodes = [bbn.ids[i % len(bbn)] for i in picks]
    reference = _reference_columns(bbn, n, seed)
    expected = np.zeros((n, 0), dtype=bool)
    if nodes:
        expected = np.column_stack([reference[bbn.index[x]] for x in nodes])
    rows = sample_matrix(bbn, n, seed, nodes=nodes)
    assert rows.dtype == np.uint8 and rows.shape == (n, (len(nodes) + 7) // 8)
    assert np.array_equal(np.unpackbits(rows, axis=1, count=len(nodes)),
                          expected)
    assert np.array_equal(rows, np.packbits(expected, axis=1))


@settings(max_examples=30, deadline=None)
@given(*_PACKED_CASES)
@example(_HALF_WEIGHT_CASE, 13, 5)
def test_writing_a_returned_column_leaves_the_cache(case, n, seed):
    ew, trust = case
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    sampler = Sampler(bbn, n, seed)
    for node_id in bbn.ids:
        col = sampler.column(node_id)
        expected = col.copy()
        col ^= True
        assert np.array_equal(sampler.column(node_id), expected)


# --- events over sampled rows ------------------------------------------------

_EVENTS = st.recursive(st.integers(0, 99), lambda inner: st.one_of(
    st.tuples(st.just("not"), inner),
    st.tuples(st.sampled_from(("and", "or")), inner, inner)), max_leaves=6)


def _event_text(event, ids):
    if isinstance(event, int):
        return f'"{ids[event % len(ids)]}"'
    if event[0] == "not":
        return f"not ({_event_text(event[1], ids)})"
    return f" {event[0]} ".join(f"({_event_text(e, ids)})" for e in event[1:])


def _event_row(event, ids, row):
    """The event on one joint draw, by Python's own and/or/not."""
    if isinstance(event, int):
        return bool(row[event % len(ids)])
    if event[0] == "not":
        return not _event_row(event[1], ids, row)
    a, b = (_event_row(e, ids, row) for e in event[1:])
    return a and b if event[0] == "and" else a or b


@settings(max_examples=60, deadline=None)
@given(*_PACKED_CASES, _EVENTS)
def test_event_estimate_is_the_row_mean(case, n, seed, event):
    """`estimate_event` equals the share of `sample_matrix` rows, at the
    same seed, on which the event holds row by row."""
    ew, trust = case
    bbn = compile_bbn(ew, trust=trust, scale=SCALE)
    ids = bbn.ids
    rows = _bits(sample_matrix(bbn, n, seed), len(ids))
    hits = sum(_event_row(event, ids, row) for row in rows.tolist())
    assert estimate_event(bbn, _event_text(event, ids), n=n, seed=seed) \
        == hits / n


def test_huge_budget_compiles_as_a_full_one(make_edited):
    """A budget k at or above the scope size scales no edge; k = 10**400
    compiles without forming k / c, which overflows a float."""
    ew = _linear(make_edited)
    full = compile_bbn(ew, trust=(Budget2("as:1", 2),), scale=SCALE)
    assert compile_bbn(ew, trust=(Budget2("as:1", 10 ** 400),),
                       scale=SCALE) == full
