"""Experiment harness: first-last correlation probability per scenario.

Produces one table row per scenario with mean/median/min/max over the
configured client ASes:

    tor-default        bandwidth-weighted selection, fixed destination
    clients-trust      trust-aware guard + circuit selection
    clients-service-K  trust-aware selection with K greedily placed servers

Per-client work is independent; TORTRUST_THREADS > 1 fans it out across a
thread pool with results identical to the sequential order.
"""

import io
import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ontology as ont
from .bbn import Sampler, compile_bbn
from .editor import apply_structural
from .pathsel import (_client_as, _end_column, consensus_view, derive_seed,
                      draw_default_circuits, place_servers, select_circuit,
                      select_guards)

SCENARIO_TOR_DEFAULT = "tor-default"
SCENARIO_CLIENTS_TRUST = "clients-trust"
SCENARIO_CLIENTS_SERVICE = "clients-service"

DEFAULT_SCENARIOS = (SCENARIO_TOR_DEFAULT, SCENARIO_CLIENTS_TRUST,
                     SCENARIO_CLIENTS_SERVICE)


@dataclass(frozen=True)
class ExperimentConfig:
    world: object
    ontology: object
    adversary: object                  # BeliefDocument
    clients: tuple
    destination_as: str
    scenarios: tuple = DEFAULT_SCENARIOS
    n_samples: int = 100_000
    seed: int = 0
    k_servers: int = 3
    guard_count: int = 3


@dataclass(frozen=True)
class ExperimentRow:
    scenario: str
    mean: float
    median: float
    min: float
    max: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ExperimentTable:
    rows: tuple
    per_client: dict = field(default_factory=dict)  # scenario -> {client: p}

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "mean", "median", "min", "max",
                         "n_samples", "seed"])
        for row in self.rows:
            writer.writerow([row.scenario,
                             f"{row.mean:.6f}", f"{row.median:.6f}",
                             f"{row.min:.6f}", f"{row.max:.6f}",
                             row.n_samples, row.seed])
        return buf.getvalue()


def _worker_count():
    raw = os.environ.get("TORTRUST_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _per_client(clients, fn):
    """fn(client) for each client, optionally on a thread pool; result
    order always follows the client list."""
    workers = _worker_count()
    if workers == 1:
        return [fn(c) for c in clients]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, clients))


def _row(scenario, values, cfg):
    arr = np.array(values, dtype=float)
    return ExperimentRow(scenario=scenario,
                         mean=float(arr.mean()),
                         median=float(np.median(arr)),
                         min=float(arr.min()),
                         max=float(arr.max()),
                         n_samples=cfg.n_samples,
                         seed=cfg.seed)


def _tor_default_probability(bbn, world, cv, cfg, client):
    """Mean first-last indicator over paired (circuit draw, adversary draw)."""
    n = cfg.n_samples
    sampler = Sampler(bbn, n, derive_seed(cfg.seed, client, "adversary"))
    guard_ids, exit_ids = draw_default_circuits(
        cv, n, derive_seed(cfg.seed, client, "circuits"))
    guards = np.array(guard_ids)
    exits = np.array(exit_ids)
    hit = np.zeros(n, dtype=bool)
    first_cols = {}
    for g in np.unique(guards):
        first_cols[g] = _end_column(sampler, world, client, str(g))
    for e in np.unique(exits):
        last = _end_column(sampler, world, cfg.destination_as, str(e))
        e_mask = exits == e
        for g in np.unique(guards[e_mask]):
            mask = e_mask & (guards == g)
            hit[mask] = (first_cols[g] & last)[mask]
    return float(hit.mean())


def _clients_trust_probability(bbn, world, cfg, client):
    sampler = Sampler(bbn, cfg.n_samples, derive_seed(cfg.seed, client))
    guards = select_guards(bbn, world, client, count=cfg.guard_count,
                           sampler=sampler)
    _, _, p = select_circuit(bbn, world, client, guards,
                             cfg.destination_as, sampler=sampler)
    return p


def run_experiment(cfg):
    """Apply the adversary document, compile, and evaluate every scenario."""
    for key in ("world", "ontology", "adversary", "clients",
                "destination_as"):
        if getattr(cfg, key) is None:
            raise ValueError(f"experiment config is missing {key}")
    clients = [_client_as(c) for c in cfg.clients]
    if not clients:
        raise ValueError("experiment config has no clients")

    ew = apply_structural(cfg.world, cfg.ontology, cfg.adversary)
    world = ew.world
    for role, node in ([("client", c) for c in clients]
                       + [("destination_as", cfg.destination_as)]):
        if node not in world.by_id or world.type_of(node) != ont.AS:
            raise ValueError(f"{role} {node!r} is not an AS of the world")
    bbn = compile_bbn(ew, cfg.adversary.trust, cfg.adversary.scale)

    rows = []
    per_client = {}
    for scenario in cfg.scenarios:
        if scenario == SCENARIO_TOR_DEFAULT:
            cv = consensus_view(world)
            values = _per_client(
                clients,
                lambda c: _tor_default_probability(bbn, world, cv, cfg, c))
            per_client[scenario] = dict(zip(clients, values))
            rows.append(_row(scenario, values, cfg))
        elif scenario == SCENARIO_CLIENTS_TRUST:
            values = _per_client(
                clients,
                lambda c: _clients_trust_probability(bbn, world, cfg, c))
            per_client[scenario] = dict(zip(clients, values))
            rows.append(_row(scenario, values, cfg))
        elif scenario == SCENARIO_CLIENTS_SERVICE:
            placement = place_servers(bbn, world, clients, cfg.k_servers,
                                      n=cfg.n_samples, seed=cfg.seed,
                                      guard_count=cfg.guard_count)
            for i, round_probs in enumerate(placement.rounds, start=1):
                label = f"{SCENARIO_CLIENTS_SERVICE}-{i}"
                values = [round_probs[c] for c in clients]
                per_client[label] = dict(round_probs)
                rows.append(_row(label, values, cfg))
        else:
            raise ValueError(f"unknown scenario {scenario!r}")
    return ExperimentTable(rows=tuple(rows), per_client=per_client)
