"""Violation reports shared by ontology and world validation, the one
topological sort (on integer ranks) behind the compiled network's order
and `find_cycle`, which the world constructor and ontology validation
share, the one breadth-first walk (`shortest_paths`), the entry check
shared by the ontology and world file parsers, and the one rule of each
input value kind (`is_integer`, `is_real`, `is_probability`,
`VALUE_KINDS`), of a seed and of a sample count.

Validators never raise on bad input; every broken invariant becomes one
Violation entry so a caller (or the CLI) can show all problems at once.
The parsers stop at the first malformed entry and name it.
"""

import heapq
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class Violation:
    code: str            # machine-readable, e.g. "cycle", "dangling-edge"
    message: str         # human-readable, names the offending elements
    elements: tuple = () # ids/names involved


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    def add(self, code, message, elements=()):
        self.violations.append(Violation(code, message, tuple(elements)))

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return [v.code for v in self.violations]

    def summary(self):
        if self.ok:
            return "valid: no violations"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.code}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def topological_order(n, src, dst):
    """Kahn's algorithm over nodes 0..n-1 with edges src[k] -> dst[k],
    always taking the smallest ready node: the nodes in topological order.
    The nodes on a directed cycle, or downstream of one, are missing."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    indegree = np.bincount(dst, minlength=n).tolist()
    child_ptr = np.concatenate(([0], np.cumsum(
        np.bincount(src, minlength=n)))).tolist()
    children = dst[np.argsort(src, kind="stable")].tolist()
    heap = [r for r in range(n) if indegree[r] == 0]   # sorted: a heap
    order = []
    while heap:
        r = heapq.heappop(heap)
        order.append(r)
        for child in children[child_ptr[r]:child_ptr[r + 1]]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, child)
    return order


def shortest_paths(adj, src):
    """{node: path from src} by a breadth-first walk reading each `adj[node]`
    sorted, as networkx's `bfs_predecessors(..., sort_neighbors=sorted)`."""
    paths, queue = {src: (src,)}, [src]
    for u in queue:
        for v in sorted(adj[u]):
            if v not in paths:
                paths[v] = paths[u] + (v,)
                queue.append(v)
    return paths


def find_cycle(graph, names, src, dst):
    """(message, nodes) naming every node of the graph on `names` (sorted)
    with edges src -> dst (ranks) that lies on a directed cycle or
    downstream of one, the nodes `topological_order` cannot place; None
    when the graph has no cycle."""
    order = topological_order(len(names), src, dst)
    if len(order) == len(names):
        return None
    stuck = np.ones(len(names), dtype=bool)
    stuck[order] = False
    cycle = [names[r] for r in np.flatnonzero(stuck).tolist()]
    return f"{graph} graph has a cycle through {{{', '.join(cycle)}}}", cycle


def check_entry(where, entry, keys):
    """Raise ValueError naming `where` unless `entry` is an object whose
    fields `keys` are present and are strings."""
    if not isinstance(entry, dict):
        raise InvalidInputError(f"{where}: expected an object")
    for key in keys:
        if key not in entry:
            raise InvalidInputError(f"{where}: missing {key!r}")
        if not isinstance(entry[key], str):
            raise InvalidInputError(f"{where}: {key!r} must be a string")


def is_integer(value):
    """Whether `value` is an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) \
        and not isinstance(value, bool)


def is_real(value):
    """Whether `value` is a finite int or float, numpy scalars included, in
    the float range; a bool is not one."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return is_integer(value) and abs(int(value)) <= sys.float_info.max


def is_probability(value):
    """Whether `value` is a real number in [0, 1]."""
    return is_real(value) and 0 <= value <= 1


# The rule of each JSON value kind, by the name a message gives it.  An
# integer is also a number, a list of strings or of integers also a list.
VALUE_KINDS = {
    "a string": lambda v: isinstance(v, str), "an integer": is_integer,
    "a number": is_real, "a boolean": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, (list, tuple)),
    "a list of strings": lambda v: isinstance(v, (list, tuple))
    and all(isinstance(s, str) for s in v),
    "a list of integers": lambda v: isinstance(v, (list, tuple))
    and all(map(is_integer, v)),
    "an object": lambda v: isinstance(v, dict),
}


def check_seed(seed):
    """`seed` as an int; ValueError unless it is a non-negative integer."""
    if not is_integer(seed) or seed < 0:
        raise InvalidInputError(
            f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def check_sample_count(n, too_few):
    """`n` as an int; InvalidInputError (`too_few` below 1) unless it is an
    integer up to the most float64 uniforms numpy holds in one array."""
    if not is_integer(n) or n < 1:
        raise InvalidInputError(too_few)
    if n > np.iinfo(np.intp).max // 8:
        raise InvalidInputError(f"n = {n} is more samples than an array holds")
    return int(n)
