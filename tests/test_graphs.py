"""The in-house graph routines against networkx, their reference: the
Watts-Strogatz AS graph of `world synth`, breadth-first shortest paths and
relay families.  networkx is a test-only dependency; without it these
properties are skipped."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tortrust.synth import _REWIRE_P, _as_graph
from tortrust.validation import shortest_paths
from tortrust.worldgen import _mutual_families

nx = pytest.importorskip("networkx")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n_paths=st.integers(2, 80))
def test_as_graph_and_paths_match_networkx(seed, n_paths):
    """For every AS count synth takes from 2 to 80 (k = 2 below five ASes,
    4 from five on), the graph is networkx's edge for edge at this seed;
    at `n_paths` ASes the path from every AS to every other follows
    `bfs_predecessors` with sorted neighbours."""
    for n in range(2, 81):
        reference = nx.connected_watts_strogatz_graph(
            n, 2 if n < 5 else 4, _REWIRE_P, tries=200, seed=seed)
        adj = _as_graph(n, seed)
        assert {(u, v) for u, vs in enumerate(adj) for v in vs if u < v} \
            == {tuple(sorted(e)) for e in reference.edges()}
        if n != n_paths:
            continue
        for src in range(n):
            expected = {src: (src,)}
            for node, pred in nx.bfs_predecessors(reference, src,
                                                  sort_neighbors=sorted):
                expected[node] = expected[pred] + (node,)
            assert shortest_paths(adj, src) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 15)), max_size=12))
def test_families_match_networkx_components(families):
    """Family lists may name the relay itself, a relay that does not name
    it back, or a fingerprint that is not in the consensus."""
    consensus = [SimpleNamespace(fingerprint=f"fp_{i:02}",
                                 family=tuple(f"fp_{j:02}" for j in fam))
                 for i, fam in enumerate(families)]
    listed = {r.fingerprint: set(r.family) for r in consensus}
    graph = nx.Graph()
    graph.add_nodes_from(listed)
    graph.add_edges_from((fp, other) for fp, fam in listed.items()
                         for other in fam
                         if other in listed and fp in listed[other])
    assert _mutual_families(consensus) == sorted(
        sorted(c) for c in nx.connected_components(graph))
