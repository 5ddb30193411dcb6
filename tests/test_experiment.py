import dataclasses
import itertools
import json

import numpy as np
import pytest

from tortrust import experiment
from tortrust.bbn import Sampler, compile_bbn
from tortrust.beliefs import (CE1, CE2, Absolute, BeliefDocument,
                              serialize_belief_document)
from tortrust.cli import main
from tortrust.editor import apply_structural
from tortrust.experiment import (DEFAULT_SCENARIOS, ExperimentConfig,
                                 run_experiment)
from tortrust.pathsel import (_end_column, consensus_view, derive_seed,
                              draw_default_circuits)
from tortrust.predicates import parse_predicate
from tortrust.world import (TypeInstance, World, world_from_dict,
                            world_to_dict)

from conftest import row_world_dict


@pytest.fixture(scope="module")
def config(small_world, ontology, the_man_doc):
    clients = sorted(small_world.of_type("AS"))[:3]
    destination = sorted(small_world.of_type("AS"))[-1]
    return ExperimentConfig(
        world=small_world, ontology=ontology, adversary=the_man_doc,
        clients=tuple(clients), destination_as=destination,
        n_samples=4000, seed=21, k_servers=2, guard_count=2)


@pytest.fixture(scope="module")
def table(config):
    return run_experiment(config)


def test_experiment_never_builds_the_instance_view(config):
    """A run reads a world file's columns and never makes its TypeInstance
    tuple."""
    world = world_from_dict(world_to_dict(config.world))
    run_experiment(dataclasses.replace(config, world=world))
    assert "instances" not in world.__dict__


def test_row_per_scenario(table):
    names = [r.scenario for r in table.rows]
    assert names == ["tor-default", "clients-trust",
                     "clients-service-1", "clients-service-2"]


def test_row_statistics_are_consistent(table, config):
    for row in table.rows:
        assert 0.0 <= row.min <= row.median <= row.max <= 1.0
        assert row.min <= row.mean <= row.max
        assert row.n_samples == config.n_samples
        assert row.seed == config.seed
        per_client = table.per_client[row.scenario]
        assert set(per_client) == set(config.clients)


def test_trust_beats_default_on_average(table):
    by_name = {r.scenario: r for r in table.rows}
    assert by_name["clients-trust"].mean < by_name["tor-default"].mean
    assert (by_name["clients-service-1"].mean
            <= by_name["clients-trust"].mean)


def test_more_servers_never_hurt(table):
    by_name = {r.scenario: r for r in table.rows}
    assert (by_name["clients-service-2"].mean
            <= by_name["clients-service-1"].mean + 1e-12)


def test_rerun_is_identical(config, table):
    again = run_experiment(config)
    assert again == table


def test_csv_shape(table):
    lines = table.to_csv().splitlines()
    assert lines[0] == "scenario,mean,median,min,max,n_samples,seed"
    assert len(lines) == 1 + len(table.rows)
    first = lines[1].split(",")
    assert first[0] == "tor-default"
    assert len(first) == 7
    float(first[1])  # numeric columns parse


def test_scenario_subset(config):
    cfg = ExperimentConfig(
        world=config.world, ontology=config.ontology,
        adversary=config.adversary, clients=config.clients,
        destination_as=config.destination_as,
        scenarios=("clients-trust",), n_samples=2000, seed=1)
    table = run_experiment(cfg)
    assert [r.scenario for r in table.rows] == ["clients-trust"]


def test_unknown_scenario_rejected(config):
    cfg = ExperimentConfig(
        world=config.world, ontology=config.ontology,
        adversary=config.adversary, clients=config.clients,
        destination_as=config.destination_as,
        scenarios=("clients-quantum",), n_samples=100, seed=1)
    with pytest.raises(ValueError, match="clients-quantum"):
        run_experiment(cfg)


def test_requires_clients(config):
    cfg = ExperimentConfig(
        world=config.world, ontology=config.ontology,
        adversary=config.adversary, clients=(),
        destination_as=config.destination_as, n_samples=100, seed=1)
    with pytest.raises(ValueError):
        run_experiment(cfg)


@pytest.mark.parametrize("field,value", [
    ("clients", ("as:typo",)),
    ("destination_as", "as:typo"),
    ("destination_as", "relay:fp_0000"),
])
def test_unknown_ids_rejected(config, field, value):
    cfg = dataclasses.replace(config, **{field: value}, n_samples=100)
    with pytest.raises(ValueError, match="not an AS"):
        run_experiment(cfg)


def test_default_scenarios_constant():
    assert DEFAULT_SCENARIOS == ("tor-default", "clients-trust",
                                 "clients-service")


# --- shared per-client pass -----------------------------------------------------

def _per_draw_reference(bbn, cv, cfg, client):
    """(tor-default estimate, guard positions drawn), one draw at a time:
    draw i reads its guard's and its exit's end column at row i."""
    sampler = Sampler(bbn, cfg.n_samples,
                      derive_seed(cfg.seed, client, "adversary"))
    g_at, e_at = draw_default_circuits(
        cv, cfg.n_samples, derive_seed(cfg.seed, client, "circuits"))
    hits = [bool(_end_column(sampler, cv, client, cv.guards[g])[i]
                 & _end_column(sampler, cv, cfg.destination_as,
                               cv.exits[e])[i])
            for i, (g, e) in enumerate(zip(g_at, e_at))]
    return sum(hits) / len(hits), set(g_at.tolist())


def test_tor_default_matches_per_draw_reference(config, small_bbn):
    cfg = dataclasses.replace(config, n_samples=300)
    cv = consensus_view(config.world)
    for client in cfg.clients:
        expected, _ = _per_draw_reference(small_bbn, cv, cfg, client)
        assert experiment._tor_default_probability(
            small_bbn, cv, cfg, client) == expected


def test_tor_default_stacks_a_guard_that_is_never_drawn(config, ontology):
    """A zero-bandwidth guard is never drawn, but its end column is still
    stacked at its view position: the estimate reads the others right."""
    data = world_to_dict(config.world)
    guard = next(node for node, attributes in data["attributes"].items()
                 if attributes.get("guard"))
    data["attributes"] = {**data["attributes"], guard: {
        **data["attributes"][guard], "bandwidth": 0}}
    cfg = dataclasses.replace(config, world=world_from_dict(data),
                              n_samples=300)
    ew = apply_structural(cfg.world, ontology, cfg.adversary)
    bbn = compile_bbn(ew, cfg.adversary.trust, cfg.adversary.scale)
    cv = consensus_view(ew.world)
    zero = cv.guards.index(guard)
    for client in cfg.clients:
        expected, drawn = _per_draw_reference(bbn, cv, cfg, client)
        assert zero not in drawn
        assert experiment._tor_default_probability(
            bbn, cv, cfg, client) == expected


@pytest.mark.parametrize("scenarios", [
    order for k in (1, 2, 3)
    for order in itertools.permutations(DEFAULT_SCENARIOS, k)],
    ids="+".join)
def test_scenario_subsets_match_full_run(config, table, scenarios):
    """Every ordered selection of scenarios gives the full run's rows, in
    the configured order, one per `per_client` entry."""
    sub = run_experiment(dataclasses.replace(config, scenarios=scenarios))
    full_rows = {r.scenario: r for r in table.rows}
    names = [name for s in scenarios for name in (
        [f"{s}-{i}" for i in range(1, config.k_servers + 1)]
        if s == "clients-service" else [s])]
    assert [r.scenario for r in sub.rows] == names == list(sub.per_client)
    for row in sub.rows:
        assert row == full_rows[row.scenario]
        assert sub.per_client[row.scenario] == table.per_client[row.scenario]


# --- ids without a type prefix ------------------------------------------------

def _prefix_free_config(ontology):
    """Two ASes and two relays whose ids hold no colon, and relays that
    name no AS: no pair has a virtual link."""
    world = World([
        TypeInstance("AS1", "AS"), TypeInstance("AS2", "AS"),
        TypeInstance("g1", "Tor Relay",
                     {"bandwidth": 10, "ip": "10.0.0.1", "guard": 1}),
        TypeInstance("x1", "Tor Relay",
                     {"bandwidth": 10, "ip": "10.1.0.1", "exit": 1})])
    return ExperimentConfig(
        world=world, ontology=ontology,
        adversary=BeliefDocument(
            trust=(Absolute(parse_predicate("is AS"), 0.1),)),
        clients=("AS1",), destination_as="AS2",
        scenarios=("tor-default", "clients-trust"), n_samples=400, seed=3,
        guard_count=1)


def test_prefix_free_ids_run(ontology):
    table = run_experiment(_prefix_free_config(ontology))
    assert [r.scenario for r in table.rows] == ["tor-default",
                                                 "clients-trust"]


def test_prefix_free_ids_take_the_two_endpoint_path(ontology):
    """A pair with no virtual link reads the relay's column or the AS's."""
    cfg = _prefix_free_config(ontology)
    ew = apply_structural(cfg.world, ontology, cfg.adversary)
    sampler = Sampler(compile_bbn(ew, cfg.adversary.trust), 400, 1)
    column = _end_column(sampler, consensus_view(ew.world), "AS1", "g1")
    assert np.array_equal(column, sampler.column("g1")
                          | sampler.column("AS1"))
    assert column.any() and not column.all()


def test_experiment_run_reads_prefix_free_ids(ontology, tmp_path, capsys):
    cfg = _prefix_free_config(ontology)
    world, doc = tmp_path / "world.json", tmp_path / "doc.json"
    world.write_text(json.dumps(row_world_dict(cfg.world.instances, ())))
    doc.write_text(serialize_belief_document(cfg.adversary))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "world": str(world), "adversary": str(doc), "clients": ["AS1"],
        "destination_as": "AS2", "scenarios": list(cfg.scenarios),
        "n_samples": 400, "seed": 3, "guard_count": 1}))
    assert main(["experiment", "run", "--config", str(path)]) == 0
    assert [line.split(",")[0] for line in
            capsys.readouterr().out.splitlines()[1:]] == ["tor-default",
                                                          "clients-trust"]


# --- config checks ---------------------------------------------------------------

# The small world has four guard relays and three exit-hosting ASes.
@pytest.mark.parametrize("field,value,message", [
    ("guard_count", -1, r"guard count must be in \[1, 4\]"),
    ("guard_count", 0, r"guard count must be in \[1, 4\]"),
    ("guard_count", 5, r"guard count must be in \[1, 4\]"),
    ("k_servers", -1, r"k must be in \[1, 3\]"),
    ("k_servers", 0, r"k must be in \[1, 3\]"),
    ("k_servers", 4, r"k must be in \[1, 3\]"),
    ("clients", ("as:1000", "as:1000", "as:1001"),
     "client 'as:1000' is listed twice"),
])
def test_bad_counts_rejected_before_compiling(config, monkeypatch, field,
                                              value, message):
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before checking the config")

    monkeypatch.setattr(experiment, "compile_bbn", no_compile)
    with pytest.raises(ValueError, match=message):
        run_experiment(dataclasses.replace(config, **{field: value}))


def test_n_samples_checked_before_applying(config, monkeypatch):
    def no_apply(*args, **kwargs):
        raise AssertionError("applied before checking the config")

    monkeypatch.setattr(experiment, "apply_structural", no_apply)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            run_experiment(dataclasses.replace(config, n_samples=n))


@pytest.mark.parametrize("field,value,kind", [
    ("guard_count", True, "an integer"),
    ("seed", 1.5, "an integer"),
    ("k_servers", 2.0, "an integer"),
    ("n_samples", 2.5, "an integer"),
    ("clients", "as:1000", "a list of strings"),
])
def test_wrong_typed_values_rejected_before_applying(config, monkeypatch,
                                                     field, value, kind):
    def no_apply(*args, **kwargs):
        raise AssertionError("applied before checking the config")

    monkeypatch.setattr(experiment, "apply_structural", no_apply)
    with pytest.raises(ValueError, match=f"^experiment config: {field!r} "
                                         f"must be {kind}, not "):
        run_experiment(dataclasses.replace(config, **{field: value}))


def test_lists_and_numpy_integers_accepted(config, table):
    cfg = dataclasses.replace(
        config, clients=list(config.clients), scenarios=["clients-trust"],
        n_samples=np.int64(config.n_samples), seed=np.int64(config.seed))
    row, = run_experiment(cfg).rows
    assert row == {r.scenario: r for r in table.rows}["clients-trust"]


@pytest.mark.parametrize("scenarios,message", [
    ((), "experiment config has no scenarios"),
    (("tor-default", "clients-trust", "tor-default"),
     "scenario 'tor-default' is listed twice"),
])
def test_scenarios_checked_before_applying(config, monkeypatch, scenarios,
                                           message):
    def no_apply(*args, **kwargs):
        raise AssertionError("applied before checking the config")

    monkeypatch.setattr(experiment, "apply_structural", no_apply)
    with pytest.raises(ValueError, match=message):
        run_experiment(dataclasses.replace(config, scenarios=scenarios))


@pytest.mark.parametrize("scenarios,unused", [
    (("tor-default", "clients-trust"), {"k_servers": 0}),
    (("tor-default",), {"k_servers": 0, "guard_count": 0}),
])
def test_counts_unchecked_where_unused(config, scenarios, unused):
    cfg = dataclasses.replace(config, scenarios=scenarios, n_samples=200,
                              **unused)
    assert [r.scenario for r in run_experiment(cfg).rows] == list(scenarios)


def test_top_ce_suppression_warns_once(config, caplog):
    node = config.clients[0]
    doc = dataclasses.replace(config.adversary, trust=(
        config.adversary.trust
        + (CE1(node, parse_predicate("is VirtualLink"), "LC"),
           CE2(node, "U"))))
    cfg = dataclasses.replace(config, adversary=doc, n_samples=200)
    with caplog.at_level("WARNING", logger="tortrust"):
        run_experiment(cfg)
    warnings = [r for r in caplog.records if "suppresses" in r.getMessage()]
    assert len(warnings) == 1
