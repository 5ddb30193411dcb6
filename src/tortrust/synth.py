"""Seeded synthetic dataset generator.

Produces a desk-scale DatasetBundle with the statistical shape of the real
inputs: a small-world AS topology with shortest-path routing, IXPs sitting
on a subset of inter-AS links, relays spread over ASes with guard/exit
flags and mutually-referencing families, organization clusters, geo records
and per-epoch uptime.  Regenerating with the same seed is byte-identical.
"""

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .datasets import (ClusterRecord, DatasetBundle, GeoRecord, PathRecord,
                       RelayRecord, UptimeRecord)
from .validation import check_seed, is_integer

_COUNTRIES = ("US", "DE", "FR", "NL", "GB", "SE", "CH", "CA", "RO", "AT")
_OS_STRINGS = ("Linux", "FreeBSD", "OpenBSD", "Windows", "Darwin")
_UPTIME_LOW, _UPTIME_HIGH = 0.5, 1.0   # range of a relay's running chance
_AS_DEGREE = 4                         # Watts-Strogatz neighbours per AS
_REWIRE_P = 0.3                        # Watts-Strogatz rewiring chance


@dataclass(frozen=True)
class SynthParams:
    n_as: int = 50
    n_ixp: int = 5
    n_relays: int = 30
    guard_fraction: float = 0.4
    exit_fraction: float = 0.3
    family_sizes: tuple = ()
    as_org_sizes: tuple = ()
    ixp_org_sizes: tuple = ()
    n_epochs: int = 12
    max_path_len: int = 6
    drop_one_direction_fraction: float = 0.0


def _check_params(p):
    if p.n_as < 2:
        raise ValueError("n_as must be at least 2")
    for name in ("n_ixp", "n_epochs"):
        if getattr(p, name) < 0:
            raise ValueError(f"{name} must not be negative")
    if not 0.0 <= p.drop_one_direction_fraction <= 1.0:
        raise ValueError("drop_one_direction_fraction must be in [0,1]")
    if p.n_relays < 2:
        raise ValueError("n_relays must be at least 2")
    if p.max_path_len < 1:
        raise ValueError("max_path_len must be at least 1")
    if not (0.0 <= p.guard_fraction <= 1.0 and 0.0 <= p.exit_fraction <= 1.0):
        raise ValueError("guard/exit fractions must be in [0,1]")
    for name in ("family_sizes", "as_org_sizes", "ixp_org_sizes"):
        for size in getattr(p, name):
            if not is_integer(size) or size < 1:
                raise ValueError(f"{name} entries must be integers >= 1, "
                                 f"got {size!r}")
    if sum(p.family_sizes) > p.n_relays:
        raise ValueError("family_sizes exceed relay count")
    if sum(p.as_org_sizes) > p.n_as:
        raise ValueError("as_org_sizes exceed AS count")
    if sum(p.ixp_org_sizes) > p.n_ixp:
        raise ValueError("ixp_org_sizes exceed IXP count")


def _as_graph(p, seed):
    k = min(_AS_DEGREE, p.n_as - 1)
    if k % 2 == 1:
        k = max(2, k - 1)
    return nx.connected_watts_strogatz_graph(p.n_as, k, _REWIRE_P,
                                             tries=200, seed=seed)


def _bfs_tree(graph, src):
    """Predecessor map with lowest-numbered-neighbor tie-breaking."""
    return {src: None,
            **dict(nx.bfs_predecessors(graph, src, sort_neighbors=sorted))}


def _path_from_pred(pred, dst):
    path = [dst]
    while pred[path[-1]] is not None:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def generate_synthetic(params, seed):
    """Deterministic bundle for the given params and seed."""
    seed = check_seed(seed)
    _check_params(params)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    graph = _as_graph(params, seed % (2 ** 31))
    asns = [1000 + i for i in range(params.n_as)]
    node_to_asn = {i: asns[i] for i in range(params.n_as)}

    # IXPs sit on distinct AS-graph edges; paths crossing the edge cross the IXP.
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    n_ixp = min(params.n_ixp, len(edges))
    ixp_edge_idx = rng.choice(len(edges), size=n_ixp, replace=False) if n_ixp else []
    ixp_on_edge = {}
    for ixp_num, edge_i in enumerate(sorted(int(i) for i in ixp_edge_idx), start=1):
        u, v = edges[edge_i]
        ixp_on_edge[(u, v)] = ixp_num
        ixp_on_edge[(v, u)] = ixp_num

    # Relays.
    n_guard = math.ceil(params.n_relays * params.guard_fraction)
    n_exit = math.ceil(params.n_relays * params.exit_fraction)
    order = rng.permutation(params.n_relays)
    guard_set = set(int(i) for i in order[:n_guard])
    exit_set = set(int(i) for i in order[params.n_relays - n_exit:])
    relay_as_idx = [int(i) for i in rng.integers(0, params.n_as,
                                                 size=params.n_relays)]
    host_counter = {}
    fingerprints = [f"fp_{i:04x}" for i in range(params.n_relays)]

    # Families: explicit sizes carve up a shuffled prefix; the rest are loners.
    fam_order = [int(i) for i in rng.permutation(params.n_relays)]
    family_of = {}
    cursor = 0
    for fam_num, size in enumerate(params.family_sizes):
        members = fam_order[cursor:cursor + size]
        cursor += size
        for m in members:
            family_of[m] = members
    consensus = []
    for i in range(params.n_relays):
        as_idx = relay_as_idx[i]
        host = host_counter.get(as_idx, 0) + 1
        host_counter[as_idx] = host
        others = [fingerprints[m] for m in family_of.get(i, []) if m != i]
        consensus.append(RelayRecord(
            fingerprint=fingerprints[i],
            as_number=node_to_asn[as_idx],
            guard=i in guard_set,
            exit=i in exit_set,
            bandwidth=int(rng.integers(1_000, 100_000)),
            family=tuple(sorted(others)),
            os=_OS_STRINGS[int(rng.integers(0, len(_OS_STRINGS)))],
            ip=f"10.{as_idx % 250}.{as_idx // 250}.{host}",
        ))

    # Paths from every AS to every relay-hosting AS, both directions.
    relay_as_nodes = sorted({relay_as_idx[i] for i in range(params.n_relays)})
    pairs = set()
    for src in range(params.n_as):
        for dst in relay_as_nodes:
            pairs.add((src, dst))
            pairs.add((dst, src))
    preds = {src: _bfs_tree(graph, src) for src in sorted({a for a, _ in pairs})}
    records = {}
    for src, dst in sorted(pairs):
        node_path = _path_from_pred(preds[src], dst)
        if len(node_path) > params.max_path_len:
            node_path = [src, dst] if src != dst else [src]
        ixps = []
        for a, b in zip(node_path, node_path[1:]):
            ixp = ixp_on_edge.get((a, b))
            if ixp is not None:
                ixps.append(ixp)
        records[(src, dst)] = PathRecord(
            src=node_to_asn[src], dst=node_to_asn[dst],
            as_path=tuple(node_to_asn[n] for n in node_path),
            ixps=tuple(ixps))
    if params.drop_one_direction_fraction > 0.0:
        unordered = sorted({tuple(sorted(k)) for k in records if k[0] != k[1]})
        n_drop = int(len(unordered) * params.drop_one_direction_fraction)
        drop_idx = rng.choice(len(unordered), size=n_drop, replace=False)
        for i in sorted(int(j) for j in drop_idx):
            a, b = unordered[i]
            del records[(a, b) if int(rng.integers(0, 2)) == 0 else (b, a)]
    as_paths = [records[k] for k in sorted(records)]

    # Organizations: explicit cluster sizes first, singletons for the rest.
    as_clusters = _clusters("asorg", params.as_org_sizes, asns, rng)
    ixp_clusters = _clusters("ixporg", params.ixp_org_sizes,
                             list(range(1, n_ixp + 1)), rng)

    geo = []
    for i, rec in enumerate(consensus):
        cc = _COUNTRIES[int(rng.integers(0, len(_COUNTRIES)))]
        geo.append(GeoRecord(entity=f"relay:{rec.fingerprint}", country=cc,
                             lat=round(float(rng.uniform(-60, 70)), 4),
                             lon=round(float(rng.uniform(-180, 180)), 4)))
    for ixp_num in range(1, n_ixp + 1):
        cc = _COUNTRIES[int(rng.integers(0, len(_COUNTRIES)))]
        geo.append(GeoRecord(entity=f"ixp:{ixp_num}", country=cc,
                             lat=round(float(rng.uniform(-60, 70)), 4),
                             lon=round(float(rng.uniform(-180, 180)), 4)))

    up_prob = rng.uniform(_UPTIME_LOW, _UPTIME_HIGH,
                          size=params.n_relays)
    uptime = []
    for epoch in range(params.n_epochs):
        draws = rng.random(params.n_relays)
        running = sorted(fingerprints[i] for i in range(params.n_relays)
                         if draws[i] < up_prob[i])
        uptime.append(UptimeRecord(epoch=epoch, running=tuple(running)))

    bundle = DatasetBundle(
        consensus=tuple(consensus),
        as_paths=tuple(as_paths),
        as_clusters=tuple(as_clusters),
        ixp_clusters=tuple(ixp_clusters),
        geo=tuple(geo),
        uptime=tuple(uptime),
    )
    bundle.check()
    return bundle


def _clusters(prefix, sizes, members, rng):
    order = [members[int(i)] for i in rng.permutation(len(members))]
    clusters = []
    cursor = 0
    for num, size in enumerate(sizes, start=1):
        group = sorted(order[cursor:cursor + size])
        cursor += size
        clusters.append(ClusterRecord(org=f"{prefix}{num}", members=tuple(group)))
    for extra, member in enumerate(sorted(order[cursor:]), start=len(sizes) + 1):
        clusters.append(ClusterRecord(org=f"{prefix}{extra}", members=(member,)))
    return clusters
