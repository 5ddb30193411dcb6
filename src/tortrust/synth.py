"""Seeded synthetic dataset generator.

Produces a desk-scale DatasetBundle with the statistical shape of the real
inputs: a small-world AS topology (the graph networkx 3's
`connected_watts_strogatz_graph` draws, reproduced draw for draw) with
shortest-path routing, IXPs sitting on a subset of inter-AS links, relays
spread over ASes with guard/exit flags and mutually-referencing families,
organization clusters, geo records and per-epoch uptime.  Regenerating
with the same seed is byte-identical.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .datasets import (ClusterRecord, DatasetBundle, GeoRecord, PathRecord,
                       RelayRecord, UptimeRecord)
from .errors import InvalidInputError
from .validation import check_seed, is_integer, is_probability, shortest_paths

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
    for name, least in (("n_as", 2), ("n_ixp", 0), ("n_relays", 2),
                        ("n_epochs", 0), ("max_path_len", 1)):
        n = getattr(p, name)
        if not is_integer(n):
            raise InvalidInputError(f"{name} must be an integer, got {n!r}")
        if n < least:
            raise InvalidInputError(f"{name} must be at least {least}" if least
                                    else f"{name} must not be negative")
    for name in ("guard_fraction", "exit_fraction",
                 "drop_one_direction_fraction"):
        if not is_probability(getattr(p, name)):
            raise InvalidInputError(f"{name} must be in [0,1]")
    for name in ("family_sizes", "as_org_sizes", "ixp_org_sizes"):
        for size in getattr(p, name):
            if not is_integer(size) or size < 1:
                raise InvalidInputError(f"{name} entries must be integers "
                                        f">= 1, got {size!r}")
    if sum(p.family_sizes) > p.n_relays:
        raise InvalidInputError("family_sizes exceed relay count")
    if sum(p.as_org_sizes) > p.n_as:
        raise InvalidInputError("as_org_sizes exceed AS count")
    if sum(p.ixp_org_sizes) > p.n_ixp:
        raise InvalidInputError("ixp_org_sizes exceed IXP count")


def _as_graph(n, seed):
    """Neighbour sets of networkx 3's `connected_watts_strogatz_graph(n,
    2 * half, _REWIRE_P, tries=200, seed)`, drawn as it draws them."""
    half = max(1, min(_AS_DEGREE, n - 1) // 2)     # ring neighbours per side
    rng, nodes = random.Random(seed), range(n)
    for _ in range(200):
        adj = [{(u + j) % n for j in range(-half, half + 1) if j}
               for u in nodes]
        for j in range(1, half + 1):        # rewire (u, u + j), u in order
            for u in nodes:
                if rng.random() < _REWIRE_P:
                    w = rng.choice(nodes)
                    while w == u or w in adj[u]:    # no loop, no 2nd edge
                        w = rng.choice(nodes)
                        if len(adj[u]) >= n - 1:
                            break                   # u is full: no rewire
                    else:
                        adj[u].remove((u + j) % n)
                        adj[(u + j) % n].remove(u)
                        adj[u].add(w)
                        adj[w].add(u)
        if len(shortest_paths(adj, 0)) == n:
            return adj
    raise InvalidInputError(f"no connected graph of {n} ASes in 200 tries")


def generate_synthetic(params, seed):
    """Deterministic bundle for the given params and seed."""
    seed = check_seed(seed)
    _check_params(params)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    graph = _as_graph(params.n_as, seed % (2 ** 31))
    asns = [1000 + i for i in range(params.n_as)]     # by graph node

    # IXPs sit on distinct AS-graph edges; paths crossing the edge cross the IXP.
    edges = sorted((u, v) for u, vs in enumerate(graph) for v in vs if u < v)
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
            as_number=asns[as_idx],
            guard=i in guard_set,
            exit=i in exit_set,
            bandwidth=int(rng.integers(1_000, 100_000)),
            family=tuple(sorted(others)),
            os=_OS_STRINGS[int(rng.integers(0, len(_OS_STRINGS)))],
            ip=f"10.{as_idx % 250}.{as_idx // 250}.{host}",
        ))

    # Paths from every AS to every relay-hosting AS, both directions.
    pairs = {pair for src in range(params.n_as) for dst in set(relay_as_idx)
             for pair in ((src, dst), (dst, src))}
    paths = [shortest_paths(graph, src) for src in range(params.n_as)]
    records = {}
    for src, dst in sorted(pairs):
        node_path = paths[src][dst]
        if len(node_path) > params.max_path_len:
            node_path = (src, dst) if src != dst else (src,)
        ixps = []
        for a, b in zip(node_path, node_path[1:]):
            ixp = ixp_on_edge.get((a, b))
            if ixp is not None:
                ixps.append(ixp)
        records[(src, dst)] = PathRecord(
            src=asns[src], dst=asns[dst],
            as_path=tuple(asns[n] for n in node_path),
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
