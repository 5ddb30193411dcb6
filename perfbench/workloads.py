"""Workload definitions: world shape, experiment config and the CLI call
that one operation makes.

Pure data, so the orchestrator reads it without importing tortrust.  The
workload seed picks the synthetic world; the experiment and sample seeds
are fixed program arguments, as in acceptance criterion 08.
"""

from dataclasses import dataclass

DEFAULT_SEED = 2026        # the world seed of acceptance criterion 08
HELD_OUT_SEED = 7919       # kept for checking a claim on an unused seed
EXPERIMENT_SEED = 3
SAMPLE_SEED = 1
P_ORG = 0.1
N_CLIENTS = 10
K_SERVERS = 3

# The criterion-08 world (tests/test_acceptance.py, TABLE_PARAMS).
DESK_WORLD = dict(
    n_as=200, n_ixp=20, n_relays=100,
    guard_fraction=0.4, exit_fraction=0.3,
    family_sizes=(4, 3, 3, 2, 2, 2),
    as_org_sizes=(12, 10, 10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 6, 6),
    ixp_org_sizes=(4, 4, 3, 3, 2, 2),
    n_epochs=12)

# 1.5x the ASes, IXPs and relays with the same family and org sizes; the
# network grows about 2.25x because every AS links to every end relay.
WIDE_WORLD = dict(DESK_WORLD, n_as=300, n_ixp=30, n_relays=150)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "table": experiment run; "sample": bbn sample
    world: dict
    n_samples: int


WORKLOADS = {w.name: w for w in (
    Workload("desk-table", "table", DESK_WORLD, 5_000),
    Workload("wide-table", "table", WIDE_WORLD, 1_000),
    Workload("desk-sample", "sample", DESK_WORLD, 10_000),
)}


def experiment_config(workload, as_ids):
    """The criterion-08 config: every 20th AS as a client (at most ten),
    the third-last AS as destination."""
    ases = sorted(as_ids)
    return {
        "world": "world.json",
        "adversary": "theman.json",
        "clients": ases[::20][:N_CLIENTS],
        "destination_as": ases[-3],
        "n_samples": workload.n_samples,
        "seed": EXPERIMENT_SEED,
        "k_servers": K_SERVERS,
    }


def output_name(workload):
    return "table.csv" if workload.kind == "table" else "samples.bin"


def operation_argv(workload, work_dir):
    """tortrust CLI arguments of one operation on inputs in work_dir."""
    out = f"{work_dir}/{output_name(workload)}"
    if workload.kind == "table":
        return ["experiment", "run", "--config", f"{work_dir}/config.json",
                "--out", out]
    return ["bbn", "sample", "--bbn", f"{work_dir}/bbn.json",
            "--n", str(workload.n_samples), "--seed", str(SAMPLE_SEED),
            "--out", out]
