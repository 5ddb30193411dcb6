import dataclasses

import pytest

from tortrust.experiment import (DEFAULT_SCENARIOS, ExperimentConfig,
                                 run_experiment)


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


def test_threaded_run_matches_sequential(config, table, monkeypatch):
    monkeypatch.setenv("TORTRUST_THREADS", "4")
    assert run_experiment(config) == table


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
