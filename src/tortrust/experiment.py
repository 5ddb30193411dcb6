"""Experiment harness: first-last correlation probability per scenario.

Produces one table row per scenario with mean/median/min/max over the
configured client ASes:

    tor-default        bandwidth-weighted selection, fixed destination
    clients-trust      trust-aware guard + circuit selection
    clients-service-K  trust-aware selection with K greedily placed servers

The consensus view of the edited world is built once per run, before any
sampling, and every scenario reads it.  One pass over the configured
scenarios fills `per_client`; the rows are read off it in that order.

tor-default draws n bandwidth-weighted (guard, exit) circuits per client
and pairs draw i with adversary draw i: the estimate is the share of draws
whose guard end column and exit end column are both set at row i.  The
end columns of every guard and exit of the view, in view order, are stacked
into n x G and n x E matrices and gathered at (i, g_at[i]) and (i, e_at[i]).

clients-trust and clients-service share one pass per client, run first
and only when either is requested: one Sampler and one guard selection,
then the clients-trust circuit probability and/or the client's placement
row, as the requested scenarios need.  The greedy placement rounds then
run over the rows through `place_servers`.

Per-client work runs in client order and holds one client's sampler
columns at a time.  Per-client seeds come from the experiment seed and the
client id.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ontology as ont
from .bbn import Sampler, compile_bbn
from .editor import apply_structural
from .errors import InvalidInputError
from .files import csv_text
from .pathsel import (_end_column, check_guard_count, check_server_count,
                      consensus_view, derive_seed, draw_default_circuits,
                      exits_by_as, place_servers, placement_row,
                      select_circuit, select_guards)
from .validation import REQUIRED, check_sample_count, read_record

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


# The fields of an experiment config file: the paths of its world, its
# adversary document and, if not the default one, its ontology, then the
# fields of ExperimentConfig that hold plain data.
CONFIG_FILES = ("world", "adversary", "ontology")
CONFIG_FIELDS = {
    "world": ("a string", REQUIRED), "adversary": ("a string", REQUIRED),
    "ontology": ("a string", ""), "clients": ("a list of strings", REQUIRED),
    "destination_as": ("a string", REQUIRED),
    "scenarios": ("a list of strings", DEFAULT_SCENARIOS),
    "n_samples": ("an integer", REQUIRED), "seed": ("an integer", REQUIRED),
    "k_servers": ("an integer", ExperimentConfig.k_servers),
    "guard_count": ("an integer", ExperimentConfig.guard_count),
}


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
        return csv_text(["scenario", "mean", "median", "min", "max",
                         "n_samples", "seed"],
                        [[row.scenario, f"{row.mean:.6f}", f"{row.median:.6f}",
                          f"{row.min:.6f}", f"{row.max:.6f}", row.n_samples,
                          row.seed] for row in self.rows])


def _row(scenario, probs, cfg):
    arr = np.fromiter(probs.values(), dtype=float)
    return ExperimentRow(scenario=scenario,
                         mean=float(arr.mean()),
                         median=float(np.median(arr)),
                         min=float(arr.min()),
                         max=float(arr.max()),
                         n_samples=cfg.n_samples,
                         seed=cfg.seed)


def _tor_default_probability(bbn, cv, cfg, client):
    """Mean first-last indicator over paired (circuit draw, adversary draw):
    draw i is a hit when its guard's end column and its exit's end column
    are both set at row i; a draw's view positions index the stacks."""
    n = cfg.n_samples
    sampler = Sampler(bbn, n, derive_seed(cfg.seed, client, "adversary"))
    g_at, e_at = draw_default_circuits(
        cv, n, derive_seed(cfg.seed, client, "circuits"))
    first = np.column_stack([_end_column(sampler, cv, client, g)
                             for g in cv.guards])
    last = np.column_stack([_end_column(sampler, cv, cfg.destination_as, e)
                            for e in cv.exits])
    rows = np.arange(n)
    return float((first[rows, g_at] & last[rows, e_at]).mean())


def _clients_trust_probability(bbn, cv, cfg, client, exits_in):
    """One client's trust-aware pass on one sampler and one guard set:
    (its clients-trust probability if `cfg` asks for it, else None; its
    placement row over `exits_in`, or None when that is None)."""
    sampler = Sampler(bbn, cfg.n_samples, derive_seed(cfg.seed, client))
    guards = select_guards(sampler, cv, client, count=cfg.guard_count)
    p = row = None
    if SCENARIO_CLIENTS_TRUST in cfg.scenarios:
        _, _, p = select_circuit(sampler, cv, client, guards,
                                 cfg.destination_as)
    if exits_in is not None:
        row = placement_row(sampler, cv, client, guards, exits_in)
    return p, row


def run_experiment(cfg):
    """Apply the adversary document, compile, and evaluate every scenario."""
    for key in ("world", "ontology", "adversary", "clients",
                "destination_as"):
        if getattr(cfg, key) is None:
            raise InvalidInputError(f"experiment config is missing {key}")
    read_record({key: getattr(cfg, key) for key in CONFIG_FIELDS
                 if key not in CONFIG_FILES},
                {key: field for key, field in CONFIG_FIELDS.items()
                 if key not in CONFIG_FILES},
                "experiment config", InvalidInputError)
    clients = list(cfg.clients)
    if not clients:
        raise InvalidInputError("experiment config has no clients")
    for k, client in enumerate(clients):
        if client in clients[:k]:
            raise InvalidInputError(f"client {client!r} is listed twice")
    if not cfg.scenarios:
        raise InvalidInputError("experiment config has no scenarios")
    for k, scenario in enumerate(cfg.scenarios):
        if scenario not in DEFAULT_SCENARIOS:
            raise InvalidInputError(f"unknown scenario {scenario!r}")
        if scenario in cfg.scenarios[:k]:
            raise InvalidInputError(f"scenario {scenario!r} is listed twice")
    check_sample_count(cfg.n_samples,
                       f"n_samples must be at least 1, not {cfg.n_samples}")
    trusted = {SCENARIO_CLIENTS_TRUST, SCENARIO_CLIENTS_SERVICE}.intersection(
        cfg.scenarios)

    ew = apply_structural(cfg.world, cfg.ontology, cfg.adversary)
    world = ew.world
    for role, node in ([("client", c) for c in clients]
                       + [("destination_as", cfg.destination_as)]):
        if node not in world or world.type_of(node) != ont.AS:
            raise InvalidInputError(
                f"{role} {node!r} is not an AS of the world")
    cv = consensus_view(world)
    if trusted:
        check_guard_count(cv, cfg.guard_count)
    exits_in = None
    if SCENARIO_CLIENTS_SERVICE in trusted:
        exits_in = exits_by_as(cv)
        check_server_count(cfg.k_servers, exits_in)
    bbn = compile_bbn(ew, cfg.adversary.trust, cfg.adversary.scale)

    # Each scenario draws from its own seeds, so the trust passes run first.
    passes = {c: _clients_trust_probability(bbn, cv, cfg, c, exits_in)
              for c in clients} if trusted else {}
    per_client = {}
    for scenario in cfg.scenarios:
        if scenario == SCENARIO_TOR_DEFAULT:
            per_client[scenario] = {
                c: _tor_default_probability(bbn, cv, cfg, c) for c in clients}
        elif scenario == SCENARIO_CLIENTS_TRUST:
            per_client[scenario] = {c: p for c, (p, _) in passes.items()}
        else:
            placement = place_servers(
                {c: row for c, (_, row) in passes.items()}, clients,
                list(exits_in), cfg.k_servers)
            for i, round_probs in enumerate(placement.rounds, start=1):
                per_client[f"{scenario}-{i}"] = dict(round_probs)
    rows = tuple(_row(label, p, cfg) for label, p in per_client.items())
    return ExperimentTable(rows=rows, per_client=per_client)
