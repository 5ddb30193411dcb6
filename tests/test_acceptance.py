"""Acceptance gate: ten checks, one printed pass/fail line each, and a
test of the criterion-08 network's end columns against their closed form.

Sampling tolerances and runtime budgets are fixed here and must not be
loosened; each check names the property it guards.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from tortrust.beliefs import (Absolute, Budget2, CE2, Relative, TrustScale,
                              build_the_man, parse_belief_document,
                              serialize_belief_document)
from tortrust.bbn import (Sampler, bbn_to_dict, compile_bbn,
                          compromise_probability, estimate_marginals,
                          exact_marginals, sample_matrix)
from tortrust.editor import EditedWorld, apply_structural
from tortrust.experiment import ExperimentConfig, run_experiment
from tortrust.ontology import default_ontology
from tortrust.pathsel import (_end_column, consensus_view, end_columns,
                              first_last_matrix)
from tortrust.predicates import parse_predicate
from tortrust.synth import SynthParams, generate_synthetic
from tortrust.world import RelationshipInstance, TypeInstance, World, vlink_id
from tortrust.worldgen import build_world

from conftest import FIXTURES

SCALE = TrustScale()


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _edited(nodes, edges=(), budgets=None, ce_specs=None):
    world = World(
        tuple(TypeInstance(i, t) for i, t in nodes.items()),
        tuple(RelationshipInstance(p, c) for p, c in edges))
    return EditedWorld(world=world, ontology=default_ontology(),
                       budgets=budgets or {}, ce_specs=ce_specs or {},
                       user_edges=frozenset(edges))


def _ids(prefix, n):
    return [f"{prefix}:{i}" for i in range(n)]


def _abs(node_id, p):
    return Absolute(parse_predicate(f'id in {{"{node_id}"}}'), p)


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_formula_exactness():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        ws = rng.uniform(0, 1, size=rng.integers(0, 7)).tolist()
        rs = rng.uniform(0, 1, size=rng.integers(0, 7)).tolist()
        expected = 1.0
        for w in ws:
            expected *= 1.0 - w
        for r in rs:
            expected *= 1.0 - r
        expected = 1.0 - expected
        worst = max(worst, abs(compromise_probability(ws, rs) - expected))
    elapsed = time.monotonic() - started
    _report(1, "formula-exactness", worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


# -- 2 ------------------------------------------------------------------------

def _random_network(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 17))
    names = _ids("as", n - 1) + ["relay:out"]
    types = {}
    for name in names:
        types[name] = "Tor Relay" if name.startswith("relay") else "AS"
    edges = []
    children = {name: [] for name in names}
    for j in range(1, n):
        for i in range(j):
            if rng.uniform() < 0.35:
                edges.append((names[i], names[j]))
                children[names[i]].append(names[j])

    trust = [Relative("ambient", parse_predicate("is AS"),
                      float(rng.uniform(0.05, 0.5)))]
    for name in rng.choice(names, size=int(rng.integers(0, 3)),
                           replace=False):
        trust.append(_abs(str(name), float(rng.uniform(0, 1))))

    parents_with_kids = [p for p in names if len(children[p]) >= 2]
    rng.shuffle(parents_with_kids)
    if parents_with_kids and rng.uniform() < 0.6:
        p = parents_with_kids.pop()
        trust.append(Budget2(p, int(rng.integers(1, len(children[p]) + 1))))
    if parents_with_kids and rng.uniform() < 0.6:
        p = parents_with_kids.pop()
        trust.append(CE2(p, float(rng.uniform(0.2, 0.9))))
    return compile_bbn(_edited(types, edges), trust=tuple(trust), scale=SCALE)


def test_criterion_02_oracle_equivalence():
    started = time.monotonic()
    n = 200_000
    failures = []
    for i in range(50):
        bbn = _random_network(1000 + i)
        exact = exact_marginals(bbn)
        sampled = {e.node: e.estimate
                   for e in estimate_marginals(bbn, n=n, seed=i)}
        for node, p in exact.items():
            bound = 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12
            if abs(sampled[node] - p) > bound:
                failures.append((i, node, p, sampled[node]))
    elapsed = time.monotonic() - started
    _report(2, "oracle-equivalence", not failures and elapsed < 120.0,
            f"{len(failures)} misses over 50 networks, {elapsed:.1f}s")


# -- 3 ------------------------------------------------------------------------

def test_criterion_03_budget_expectation():
    n = 200_000
    worst_rel = 0.0
    for c in (4, 10):
        nodes = {"as:p": "AS"}
        nodes.update({f"vlink:{i}": "Virtual Link" for i in range(c)})
        edges = [("as:p", f"vlink:{i}") for i in range(c)]
        for k in range(1, c + 1):
            bbn = compile_bbn(
                _edited(nodes, edges),
                trust=(_abs("as:p", 1.0), Budget2("as:p", k)), scale=SCALE)
            rows = sample_matrix(
                bbn, n, seed=c * 100 + k,
                nodes=[f"vlink:{i}" for i in range(c)])
            matrix = np.unpackbits(rows, axis=1, count=c)
            mean_children = float(matrix.sum(axis=1).mean())
            worst_rel = max(worst_rel, abs(mean_children - k) / k)
    _report(3, "budget-expectation", worst_rel <= 0.02,
            f"worst relative error {worst_rel:.4f}")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_ce_all_or_none():
    p_v = 0.4
    ew = _edited(
        {"as:p": "AS", "vlink:a": "Virtual Link", "vlink:b": "Virtual Link"},
        [("as:p", "vlink:a"), ("as:p", "vlink:b")])
    bbn = compile_bbn(ew, trust=(_abs("as:p", 1.0), CE2("as:p", p_v)),
                      scale=SCALE)
    rows = sample_matrix(bbn, 100_000, seed=4,
                         nodes=["vlink:a", "vlink:b"])
    matrix = np.unpackbits(rows, axis=1, count=2).view(bool)
    a, b = matrix[:, 0], matrix[:, 1]
    exactly_one = int((a ^ b).sum())
    p_both = float((a & b).mean())
    _report(4, "ce-all-or-none",
            exactly_one == 0 and abs(p_both - p_v) <= 0.005,
            f"split samples {exactly_one}, P(both) {p_both:.4f}")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_absolute_override():
    ew = _edited({"as:anc": "AS", "as:mid": "AS"}, [("as:anc", "as:mid")])
    bbn = compile_bbn(ew, trust=(_abs("as:anc", 1.0), _abs("as:mid", 0.5)),
                      scale=SCALE)
    est = {e.node: e.estimate
           for e in estimate_marginals(bbn, nodes=["as:mid"], n=100_000,
                                       seed=5)}
    _report(5, "absolute-override", abs(est["as:mid"] - 0.5) <= 0.005,
            f"marginal {est['as:mid']:.4f}")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_trust_scale_constants():
    scale = TrustScale()
    expected = {"SC": 0.999, "LC": 0.85, "U": 0.5, "LT": 0.15, "ST": 0.02}
    ok = all(scale.prob(sym) == val for sym, val in expected.items())
    _report(6, "trust-scale-constants", ok, str(scale.mapping))


# -- 7 ------------------------------------------------------------------------

def _ends_world(shared):
    nodes = {"as:client": "AS", "as:dest": "AS", "as:left": "AS",
             "relay:g": "Tor Relay", "relay:e": "Tor Relay",
             "vlink:asclient-relay:g": "Virtual Link",
             "vlink:asdest-relay:e": "Virtual Link"}
    edges = [("as:left", "vlink:asclient-relay:g")]
    trust = [_abs("as:left", 0.1)]
    if shared:
        edges.append(("as:left", "vlink:asdest-relay:e"))
    else:
        nodes["as:right"] = "AS"
        edges.append(("as:right", "vlink:asdest-relay:e"))
        trust.append(_abs("as:right", 0.1))
    ew = _edited(nodes, edges)
    return ew, compile_bbn(ew, trust=tuple(trust), scale=SCALE)


def _first_last(shared):
    """P(both ends of the circuit as:client -> relay:g -> relay:e ->
    as:dest observed), from the first-last kernel."""
    ew, bbn = _ends_world(shared)
    sampler, cv = Sampler(bbn, 100_000, seed=7), consensus_view(ew.world)
    return float(first_last_matrix(
        end_columns(sampler, cv, "as:client", ["relay:g"]),
        end_columns(sampler, cv, "as:dest", ["relay:e"]),
        ["relay:g"], ["relay:e"])[0, 0])


def test_criterion_07_independence_floor():
    p_disjoint = _first_last(shared=False)
    p_shared = _first_last(shared=True)
    ok = abs(p_disjoint - 0.01) <= 0.004 and abs(p_shared - 0.1) <= 0.004
    _report(7, "independence-floor", ok,
            f"disjoint {p_disjoint:.4f}, shared {p_shared:.4f}")


# -- 8 ------------------------------------------------------------------------

TABLE_PARAMS = SynthParams(
    n_as=200, n_ixp=20, n_relays=100,
    guard_fraction=0.4, exit_fraction=0.3,
    family_sizes=(4, 3, 3, 2, 2, 2),
    as_org_sizes=(12, 10, 10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 6, 6),
    ixp_org_sizes=(4, 4, 3, 3, 2, 2),
    n_epochs=12)
TABLE_SEED = 2026


@pytest.fixture(scope="module")
def table_one():
    bundle = generate_synthetic(TABLE_PARAMS, TABLE_SEED)
    ontology = default_ontology()
    world = build_world(ontology, bundle)
    adversary = build_the_man(world, p_org=0.1)
    client_ases = sorted(world.of_type("AS"))
    clients = tuple(client_ases[::20][:10])
    cfg = ExperimentConfig(
        world=world, ontology=ontology, adversary=adversary,
        clients=clients, destination_as=client_ases[-3],
        n_samples=100_000, seed=3, k_servers=3, guard_count=3)
    started = time.monotonic()
    table = run_experiment(cfg)
    return table, time.monotonic() - started


def test_criterion_08_table_ordering(table_one):
    table, elapsed = table_one
    mean = {r.scenario: r.mean for r in table.rows}
    ordered = (mean["tor-default"] > mean["clients-trust"]
               > mean["clients-service-1"])
    in_window = 0.009 <= mean["clients-service-1"] <= 0.03
    stable = (abs(mean["clients-service-1"] - mean["clients-service-2"])
              <= 0.002
              and abs(mean["clients-service-1"] - mean["clients-service-3"])
              <= 0.002)
    ok = ordered and in_window and stable and elapsed < 600.0
    _report(8, "table-one-ordering", ok,
            "means default/trust/service " +
            "/".join(f"{mean[s]:.4f}" for s in
                     ("tor-default", "clients-trust", "clients-service-1")) +
            f", k2 {mean['clients-service-2']:.4f}, "
            f"k3 {mean['clients-service-3']:.4f}, {elapsed:.0f}s")


def test_end_columns_match_their_closed_form_at_desk_scale():
    """Every end column the criterion-08 experiment reads (each guard from
    the first AS, each exit from the third-last) has a closed form on the
    desk network: with every parent weight 1, no risk, no ce node and only
    absolute roots drawing, a node is the OR of the absolute roots above
    it, so the column of a relay and its vlink is set with probability
    1 - prod(1 - p) over the roots they reach.  Each column's mean lies
    within 4 standard errors of it."""
    ontology = default_ontology()
    world = build_world(ontology, generate_synthetic(TABLE_PARAMS, TABLE_SEED))
    adversary = build_the_man(world, p_org=0.1)
    ew = apply_structural(world, ontology, adversary)
    bbn = compile_bbn(ew, adversary.trust, adversary.scale)
    ptr, idx, _ = bbn.parent_lists
    roots = set(bbn.absolute)
    assert (bbn.parent_w == 1).all() and not bbn.risks and not bbn.ce
    assert set(np.flatnonzero(bbn.needs_draws).tolist()) == roots
    assert all(ptr[k] == ptr[k + 1] for k in roots)

    def reached_roots(nodes):
        seen, stack = set(), [bbn.index[node] for node in nodes]
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                stack.extend(idx[ptr[k]:ptr[k + 1]])
        return seen & roots

    cv = consensus_view(ew.world)
    ases = sorted(ew.world.of_type("AS"))
    sampler = Sampler(bbn, 5000, seed=1)
    checked = 0
    for as_node, relays in ((ases[0], cv.guards), (ases[-3], cv.exits)):
        for relay in relays:
            vlink = vlink_id(as_node.split(":", 1)[1], relay.split(":", 1)[1])
            assert vlink in bbn.index       # the column reads relay | vlink
            p = 1.0 - math.prod(1.0 - bbn.absolute[k]
                                for k in reached_roots((relay, vlink)))
            mean = _end_column(sampler, cv, as_node, relay).mean()
            assert abs(mean - p) <= 4 * math.sqrt(p * (1 - p) / sampler.n), \
                (as_node, relay, mean, p)
            checked += 1
    assert checked == len(cv.guards) + len(cv.exits) > 0


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    from tortrust.datasets import save_bundle
    params = SynthParams(n_as=16, n_ixp=3, n_relays=12, family_sizes=(2, 2))
    checks = []

    dirs = [str(tmp_path / "b1"), str(tmp_path / "b2")]
    for d in dirs:
        save_bundle(generate_synthetic(params, 5), d)
    for fname in sorted(os.listdir(dirs[0])):
        with open(os.path.join(dirs[0], fname), "rb") as f1, \
                open(os.path.join(dirs[1], fname), "rb") as f2:
            checks.append(f1.read() == f2.read())

    ontology = default_ontology()
    world = build_world(ontology, generate_synthetic(params, 5))
    doc = build_the_man(world)
    checks.append(serialize_belief_document(doc)
                  == serialize_belief_document(build_the_man(world)))

    ew = apply_structural(world, ontology, doc)
    bbn = compile_bbn(ew, doc.trust, doc.scale)
    text1 = json.dumps(bbn_to_dict(bbn), sort_keys=True)
    text2 = json.dumps(bbn_to_dict(compile_bbn(ew, doc.trust, doc.scale)),
                       sort_keys=True)
    checks.append(text1 == text2)

    m1 = sample_matrix(bbn, 5_000, seed=9)
    m2 = sample_matrix(bbn, 5_000, seed=9)
    checks.append(bool(np.array_equal(m1, m2)))

    clients = sorted(world.of_type("AS"))[:2]
    cfg = ExperimentConfig(
        world=world, ontology=ontology, adversary=doc,
        clients=tuple(clients), destination_as=sorted(world.of_type("AS"))[-1],
        n_samples=3_000, seed=13, k_servers=1)
    checks.append(run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv())

    _report(9, "determinism", all(checks),
            f"{sum(checks)}/{len(checks)} stages byte-identical")


# -- 10 -----------------------------------------------------------------------

_PRED_POOL = (
    "is AS", "is TorRelay", "is VirtualLink",
    'id in {"as:1", "as:2"}', 'id in {"relay:x"}',
    'attr("bandwidth") >= 100', 'attr("os") = "linux"',
    'attr("Connection Type") in {"submarine cable", "wireless connection"}',
    'is AS and attr("size") > 3', 'not is IXP or id in {"as:9"}',
    "child_count(is VirtualLink) >= 2", "has_parent(is ASOrganization)",
)


def _fuzz_document(rng):
    symbols = ("SC", "LC", "U", "LT", "ST")
    doc = {
        "scale": {
            "mapping": {s: float(rng.uniform()) for s in symbols},
            "ce_mapping": {s: float(rng.uniform()) for s in symbols},
        },
        "structural": [],
        "trust": [],
    }
    for i in range(int(rng.integers(0, 4))):
        kind = rng.integers(0, 3)
        if kind == 0:
            doc["structural"].append(
                ["ut", f"Type{i}", {"alpha": "string"},
                 None if rng.uniform() < 0.5 else {"beta": "integer"}])
        elif kind == 1:
            doc["structural"].append(
                ["inst", "AS", {"size": int(rng.integers(1, 50))},
                 f"as:n{i}"])
        else:
            doc["structural"].append(["attr", f"as:n{i}", "size",
                                      int(rng.integers(1, 9))])
    def value():
        if rng.uniform() < 0.5:
            return symbols[int(rng.integers(0, 5))]
        return float(rng.uniform())
    for i in range(int(rng.integers(1, 6))):
        kind = rng.integers(0, 5)
        pred = _PRED_POOL[int(rng.integers(0, len(_PRED_POOL)))]
        if kind == 0:
            doc["trust"].append([f"tag{i}", pred, value()])
        elif kind == 1:
            doc["trust"].append(["abs", pred, value()])
        elif kind == 2:
            doc["trust"].append(["bu1", f"as:{i}", "VirtualLink",
                                 int(rng.integers(1, 9))])
        elif kind == 3:
            doc["trust"].append(["bu2", f"as:{i}", "all",
                                 int(rng.integers(1, 9))])
        else:
            doc["trust"].append(["ce2", f"as:{i}", "top", value()])
    return json.dumps(doc)


def test_criterion_10_parser_roundtrip():
    with open(os.path.join(FIXTURES, "example_beliefs.json"),
              encoding="utf-8") as fh:
        corpus_text = fh.read()
    corpus = parse_belief_document(corpus_text)
    checks = [len(corpus.trust) == 14,
              parse_belief_document(serialize_belief_document(corpus))
              == corpus]

    rng = np.random.default_rng(10_000)
    for _ in range(200):
        doc = parse_belief_document(_fuzz_document(rng))
        checks.append(
            parse_belief_document(serialize_belief_document(doc)) == doc)
    _report(10, "parser-roundtrip", all(checks),
            f"{sum(checks)}/{len(checks)} documents identical")
