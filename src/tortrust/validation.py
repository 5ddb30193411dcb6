"""Violation reports shared by ontology and world validation, the one
topological sort (on integer ranks) behind the compiled network's order,
the one peel of a graph's indegree-zero nodes in numpy rounds
(`peel_rounds`, behind the compiled network's frontiers and `find_cycle`,
the order-free check that the world constructor and ontology validation
share), the one breadth-first walk
(`shortest_paths`), the one rule of each input value kind (`is_integer`,
`is_real`, `is_probability`, `VALUE_KINDS`), of a seed and of a sample
count, the one reader of every input format's field table
(`read_record`), and the one rule that picks the table of a file with a
`format` key (`format_table`).

A field table maps each field to (kind, default), REQUIRED for a field
that must be present.  The reader tests each field across all records at
once and walks its values one by one only when the test fails, to name the
first bad record in one of these shapes:

    <where>: expected an object
    <where>: unknown key '<key>'
    <where>: missing '<field>'
    <where>: '<field>' must be <kind>, not <kind of the value>

Validators never raise on bad input; every broken invariant becomes one
Violation entry so a caller (or the CLI) can show all problems at once.
The parsers stop at the first malformed entry and name it.
"""

import bisect
import heapq
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import accumulate, chain

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


def concat_ranges(starts, counts):
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i
    in turn, as one int64 array: the gather index of many CSR rows."""
    counts = np.asarray(counts, dtype=np.int64)
    at = np.repeat(np.asarray(starts, dtype=np.int64) - np.cumsum(counts)
                   + counts, counts)
    return at + np.arange(at.size)


def peel_rounds(n, src, dst):
    """Kahn's algorithm by rounds over nodes 0..n-1 with edges src[k] ->
    dst[k]: yields first the nodes of indegree zero, then each round the
    nodes whose last parent the round before peeled, each round sorted.
    A round reads only the children of the round before, so a chain of n
    nodes costs n short rounds.  The nodes on a directed cycle, or
    downstream of one, are never yielded."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    indegree = np.bincount(dst, minlength=n)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    children = dst[np.argsort(src)]     # any order: np.unique sorts a round
    peeled = np.flatnonzero(indegree == 0)
    while peeled.size:
        yield peeled
        hit, times = np.unique(
            children[concat_ranges(ptr[peeled], ptr[peeled + 1]
                                   - ptr[peeled])], return_counts=True)
        indegree[hit] -= times
        peeled = hit[indegree[hit] == 0]


def find_cycle(graph, names, src, dst):
    """(message, nodes) naming every node of the graph on `names` (sorted)
    with edges src -> dst (ranks) that lies on a directed cycle or
    downstream of one, the nodes `peel_rounds` never peels; None when the
    graph has no cycle.  No order is built."""
    n = len(names)
    placed = np.zeros(n, dtype=bool)
    for peeled in peel_rounds(n, src, dst):
        placed[peeled] = True
    if placed.all():
        return None
    cycle = [names[r] for r in np.flatnonzero(~placed).tolist()]
    return f"{graph} graph has a cycle through {{{', '.join(cycle)}}}", cycle


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
    "a probability": is_probability,
    "a list of probabilities": lambda v: isinstance(v, (list, tuple))
    and all(map(is_probability, v)),
    "an object of objects": lambda v: isinstance(v, dict)
    and all(isinstance(x, dict) for x in v.values()),
}

# The container and item kinds of each kind that holds items, and the
# plain types of each other kind, with numpy's 64-bit numbers and tuples:
# a column whose values are all of these types needs no walk, bar the
# range of its numbers.
_ITEM_KINDS = {"a list of strings": ("a list", "a string"),
               "a list of integers": ("a list", "an integer"),
               "a list of probabilities": ("a list", "a probability"),
               "an object of objects": ("an object", "an object")}
_NUMBERS = {int, float, np.int64, np.float64}
_PLAIN_TYPES = {"a string": {str}, "an integer": {int, np.int64},
                "a number": _NUMBERS, "a probability": _NUMBERS,
                "a boolean": {bool}, "a list": {list, tuple},
                "an object": {dict}}

REQUIRED = object()     # the default of a field that must be present


def format_table(data, tables, where, error):
    """The field table of the file format of `data`: tables[None] when it
    has no `format` key, else tables[format]; `error` names any other
    format value, `<where>: unknown format <value>`."""
    if not (isinstance(data, dict) and "format" in data):
        return tables[None]
    if not (is_integer(data["format"]) and data["format"] in tables):
        raise error(f"{where}: unknown format {data['format']!r}")
    return tables[data["format"]]


def read_record(record, table, where, error):
    """{field: value} of the object `record` named `where`, read by
    `table`; a list of objects or arrays reads as {field: column} of its
    entries, and a list nested in them as (lengths, {field: column})."""
    columns = _read([record], table, lambda i: where, lambda i: "", error)
    return {name: column[1] if isinstance(table[name][0], tuple | dict)
            else column[0] for name, column in columns.items()}


def _read(entries, table, name, prefix, error):
    """{field: column} of `entries`, objects of `table` or arrays of its
    (slot, kind) pairs; entry i is named name(i) and its list `field`
    prefix(i) + field.  The entries, then each field's column, are tested
    whole, and walked one by one only when the test fails, to name the
    first bad entry."""
    arrays = isinstance(table, tuple)
    fields = {slot: (kind, REQUIRED) for slot, kind in table} if arrays \
        else table
    if not (set(map(type, entries)) <= _PLAIN_TYPES[
            "a list" if arrays else "an object"]
            and (set(map(len, entries)) <= {len(table)} if arrays
                 else set().union(*entries) <= table.keys())):
        for i, entry in enumerate(entries):
            if arrays and not (VALUE_KINDS["a list"](entry)
                               and len(entry) == len(table)):
                raise error(f"{name(i)}: expected "
                            f"{('a pair', 'a triple')[len(table) - 2]} "
                            f"[{', '.join(fields)}]")
            if not (arrays or isinstance(entry, dict)):
                raise error(f"{name(i)}: expected an object")
            for key in () if arrays else entry:
                if key not in table:
                    raise error(f"{name(i)}: unknown key {key!r}")
    columns = {}
    for k, (field, (kind, default)) in enumerate(fields.items()):
        column = list(map(operator.itemgetter(k), entries)) if arrays \
            else [entry.get(field, default) for entry in entries]
        expected = kind if isinstance(kind, str) else "a list"
        if not _fits(expected, column if default is not None
                     else [v for v in column if v is not None]):
            for i, value in enumerate(column):
                if value is REQUIRED:
                    raise error(f"{name(i)}: missing {field!r}")
                if not (value is None and default is None
                        or VALUE_KINDS[expected](value)):
                    raise error(f"{name(i)}: {field!r} must be {expected}, "
                                f"not {_kind_of(value, expected)}")
        if expected != kind:
            lengths = list(map(len, column))

            def item(p, field=field, lengths=lengths):
                offsets = list(accumulate(lengths, initial=0))
                i = bisect.bisect_right(offsets, p) - 1
                return f"{prefix(i)}{field}[{p - offsets[i]}]"
            column = (lengths, _read(list(chain.from_iterable(column)), kind,
                                     item, lambda p: f"{item(p)}.", error))
        columns[field] = column
    return columns


def _fits(kind, column):
    """Whether `VALUE_KINDS[kind]` holds for each value of `column`, by
    tests of the whole column; False also for some valid values of other
    types, such as numpy float32 numbers or dict subclasses."""
    if kind in _ITEM_KINDS:
        container, item = _ITEM_KINDS[kind]
        if not _fits(container, column):
            return False
        items = [v.values() if container == "an object" else v
                 for v in column]
        return _fits(item, items[0] if len(items) == 1
                     else list(chain.from_iterable(items)))
    if not set(map(type, column)) <= _PLAIN_TYPES[kind]:
        return False
    if kind in ("a number", "a probability") and column:
        try:
            p = np.array(column, dtype=np.float64)
        except OverflowError:           # an int past the float range
            return False
        # An int just past the float range rounds to ±max: the walk decides.
        return bool(((p >= 0) & (p <= 1)).all() if kind == "a probability"
                    else (np.abs(p) < sys.float_info.max).all())
    return True


def _kind_of(value, kind=""):
    """The first kind `value` fits, as a message names it; a container that
    is not of `kind` is named by its first item that is not."""
    if kind in _ITEM_KINDS and VALUE_KINDS[_ITEM_KINDS[kind][0]](value):
        container, item = _ITEM_KINDS[kind]
        bad = next(x for x in (value.values() if container == "an object"
                               else value) if not VALUE_KINDS[item](x))
        return f"{container} holding {_kind_of(bad)}"
    return next((k for k, fits in VALUE_KINDS.items() if fits(value)), "null")


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
