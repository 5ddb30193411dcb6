"""Translation of an edited world plus trust beliefs into a BBN of binary
compromise indicators, with sampling, estimation, and an exact oracle.

Node distributions are never tabulated.  Each node carries edge weights,
a risk multiset and an optional absolute probability; conditioned on its
parents' indicators X_j the node is compromised with probability

    1 - prod_{j: X_j=1} (1 - w_j) * prod_{q in risks} (1 - q)

which the noisy-OR structure keeps linear in the parent count.  CE beliefs
become synthetic "ce" nodes, one parent edge weighted by the activation,
propagating with weight 1 to all covered children.  Absolute beliefs sever
a node from its parents.

Sampling uses one independent substream per node index, so estimating a
subset of nodes draws exactly the same values as estimating all of them,
and reruns with one seed are byte-identical.  Deterministic nodes (no risk,
no absolute, every parent weight 0 or 1) are the OR of their weight-1
parents and read no uniforms at all; since every other node's stream is
keyed by its own position, skipping them changes no draw.

Every estimate reads the lazy `Sampler` through each node's *frontier*
(`CompiledBbn.frontier`): the draw nodes it reaches over weight-1 edges
through nodes that do not draw, itself if it draws.  The Sampler draws
and caches only the draw nodes a request needs, bit-packed (np.packbits
order, eight draws to a byte, the padding bits of the last byte zero), and
ORs every node's column from its frontier's, so on a network where few
nodes draw it builds few columns.  `sample_matrix` returns packed rows,
(n, ceil(k/8)) uint8 in np.packbits(axis=1) order, which are exactly the
payload of a sample dump: `save_samples(path, rows, n_nodes)` writes them
as they are and `load_samples(path)` returns `(rows, n_nodes)`.

A CompiledBbn is array-backed and read-only: node ids in topological
order, parents in CSR form (offsets, indices, weights), sparse risks,
absolute values and ce flags.  One row walk, `CompiledBbn.rows`, feeds
`bbn_to_dict` and the BbnNode view `CompiledBbn.nodes`, built only when
read; the sampler and the exact oracle read the arrays.
The topological order is `validation.topological_order`, Kahn's
algorithm taking the smallest ready node id first, on the world's integer
ranks: `compile_bbn` reads the world's rank arrays directly, drops the
edges into absolute nodes, patches budget weights and ce reroutes by edge
position, and shifts the ranks past the ce ids that join the id order.
A world holds no cycle, and cutting edges into absolute nodes or routing
edges through ce nodes closes none, so the order holds every node.

A network file is written in format 2: {"format": 2, "nodes": [...]},
each node its `id`, its `parents` as a flat list of positions, and only
the fields not at their default (`weights` when one is not 1, `risks`,
`absolute`, `kind` "ce", `is_output` true).  `bbn_from_dict` also reads
the pair layout of older files, with no `format` key, every field, and
each parent an [index, weight] pair.
"""

import bisect
import logging
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain

import numpy as np

from .beliefs import Absolute, Relative
from .editor import ATTACHMENT_BELIEFS, resolve_attachments
from .errors import (CompileError, EditError, InvalidInputError,
                     NetworkTooLargeError, UnknownIdError)
from .files import atomic_write, json_text, read_json, write_text
from .predicates import evaluate, parse_event, select
from .validation import (REQUIRED, check_sample_count, check_seed,
                         concat_ranges, format_table, is_probability,
                         peel_rounds, read_record, topological_order)
from .world import ReadOnlyDict

log = logging.getLogger(__name__)

EXACT_NODE_CAP = 24

NETWORK_FORMAT = 2      # the layout `bbn_to_dict` writes

SAMPLE_MAGIC = b"TBBN"
SAMPLE_VERSION = 1

# `sample_matrix` ORs a run of membership bytes into at most this many
# bytes of sample rows at once, which bounds the copy that fancy indexing
# makes when a node is set in most rows.
_OR_BLOCK_BYTES = 1 << 20
# A draw node's membership bytes split into runs at every gap of more than
# this many bytes; ORing a shorter gap of zeros costs less than one more
# fancy-indexed slice.
_OR_GAP_BYTES = 256


def compromise_probability(S, R):
    """1 - prod_{p in S}(1-p) * prod_{q in R}(1-q); empty products are 1.
    ValueError unless every value is a number in [0,1]."""
    keep = 1.0
    for what, values in (("propagation value", S), ("risk value", R)):
        for p in values:
            if not is_probability(p):
                raise InvalidInputError(
                    f"{what} {p!r} is not a number in [0,1]")
            keep *= 1.0 - p
    return 1.0 - keep


@dataclass(frozen=True)
class BbnNode:
    id: str
    kind: str                 # "world" or "ce"
    parents: tuple = ()       # ((parent index, weight), ...)
    risks: tuple = ()
    absolute: object = None
    is_output: bool = False


@dataclass(frozen=True, eq=False)
class CompiledBbn:
    """A network stored as arrays, one position per node in topological
    order.  Node i's parents are parent_idx[parent_ptr[i]:parent_ptr[i+1]]
    with weights parent_w[...] (CSR).  `risks` and `absolute` map only the
    positions that have them, `ce` holds the positions of ce nodes.  The
    arrays and the two maps are copied on construction and read-only, each
    risk list as a tuple; `nodes` is a view of the same network as BbnNode
    objects, built on first use from `rows`."""

    ids: tuple
    parent_ptr: np.ndarray
    parent_idx: np.ndarray
    parent_w: np.ndarray
    risks: dict
    absolute: dict
    ce: frozenset
    is_output: np.ndarray

    def __post_init__(self):
        for name, dtype in _ARRAY_FIELDS:
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "risks", ReadOnlyDict(
            zip(self.risks, map(tuple, self.risks.values()))))
        object.__setattr__(self, "absolute", ReadOnlyDict(self.absolute))

    def __eq__(self, other):
        if not isinstance(other, CompiledBbn):
            return NotImplemented
        return (self.ids == other.ids and self.risks == other.risks
                and self.absolute == other.absolute and self.ce == other.ce
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name, _ in _ARRAY_FIELDS))

    def __len__(self):
        return len(self.ids)

    @cached_property
    def index(self):
        return {node_id: i for i, node_id in enumerate(self.ids)}

    def position(self, node_id):
        """The position of `node_id`; UnknownIdError if it is no node."""
        try:
            return self.index[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node {node_id!r}") from None

    @cached_property
    def parent_lists(self):
        """(parent_ptr, parent_idx, parent_w) as Python lists, for loops
        that visit one node at a time."""
        return (self.parent_ptr.tolist(), self.parent_idx.tolist(),
                self.parent_w.tolist())

    @cached_property
    def nodes(self):
        return tuple(BbnNode(**row) for row in self.rows())

    def rows(self):
        """Each node's fields by position, lists as tuples and parents as
        (index, weight) pairs: the pair layout's node, which `bbn_to_dict`
        maps to format 2's."""
        ptr, idx, w = self.parent_lists
        outputs = self.is_output.tolist()
        for i, node_id in enumerate(self.ids):
            yield {"id": node_id, "kind": "ce" if i in self.ce else "world",
                   "parents": tuple(zip(idx[ptr[i]:ptr[i + 1]],
                                        w[ptr[i]:ptr[i + 1]])),
                   "risks": self.risks.get(i, ()),
                   "absolute": self.absolute.get(i), "is_output": outputs[i]}

    @cached_property
    def needs_draws(self):
        """Bool per node: does sampling it read its own uniforms?  False only
        for an OR of parents: no absolute, no risks, and no parent weight (a
        ce node's activation among them) strictly inside (0, 1)."""
        draws = np.zeros(len(self.ids), dtype=bool)
        draws[np.fromiter([*self.absolute, *self.risks],
                          dtype=np.intp)] = True
        owner = np.repeat(np.arange(len(self.ids)), np.diff(self.parent_ptr))
        w = self.parent_w
        draws[owner[(w > 0.0) & (w < 1.0)]] = True
        return draws

    @cached_property
    def frontier(self):
        """(ptr, idx), read-only, in CSR form: node i's frontier is the
        sorted draw positions idx[ptr[i]:ptr[i + 1]].  A node that draws is
        its own frontier.  Any other node's is the union of its weight-1
        parents' frontiers (weight-0 edges drop out), so its column is the
        OR of its frontier's columns.  Built one `peel_rounds` round at a
        time over the weight-1 edges into nodes that do not draw; its size
        is the sum of the frontiers' sizes."""
        n = len(self.ids)
        draws = self.needs_draws
        ptr = self.parent_ptr
        owner = np.repeat(np.arange(n), np.diff(ptr))
        certain = (self.parent_w >= 1.0) & ~draws[owner]
        start = np.zeros(n, dtype=np.int64)
        count = np.zeros(n, dtype=np.int64)
        store = np.empty(n, dtype=np.int64)     # the rounds' frontiers
        used = 0
        for nodes in peel_rounds(n, self.parent_idx[certain], owner[certain]):
            edges = concat_ranges(ptr[nodes], ptr[nodes + 1] - ptr[nodes])
            edges = edges[certain[edges]]
            parents = self.parent_idx[edges]
            own = nodes[draws[nodes]]
            # one key node * n + draw per frontier entry of the round
            keys = np.sort(np.concatenate((
                own * n + own,
                np.repeat(owner[edges] * n, count[parents])
                + store[concat_ranges(start[parents], count[parents])])))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            node, draw = np.divmod(keys, n)
            if used + keys.size > store.size:
                store = np.concatenate((store[:used],
                                        np.empty(used + keys.size, np.int64)))
            store[used:used + keys.size] = draw
            hit, size = np.unique(node, return_counts=True)
            start[hit] = used + np.cumsum(size) - size
            count[hit] = size
            used += keys.size
        frontier = (np.concatenate(([0], np.cumsum(count))),
                    store[concat_ranges(start, count)])
        for array in frontier:
            array.flags.writeable = False
        return frontier


_ARRAY_FIELDS = (("parent_ptr", np.int64), ("parent_idx", np.int64),
                 ("parent_w", np.float64), ("is_output", bool))


@dataclass(frozen=True, eq=False)
class SampleResult:
    compromised: np.ndarray
    seed: int


@dataclass(frozen=True)
class MarginalEstimate:
    node: str
    estimate: float
    n_samples: int


# --- Compilation -------------------------------------------------------------

def compile_bbn(ew, trust=(), scale=None):
    """Translate EditedWorld + trust beliefs into a CompiledBbn.

    Budget and CE beliefs may arrive attached to `ew`, in `trust`, or both
    (value-equal duplicates collapse), so a belief document can be applied
    in one step or two.  Either way `editor.resolve_attachments` checks
    and resolves them; beliefs of `trust` that the editor already consumed
    into `ew` are not resolved, or reported, again.  Without a `scale`,
    the one `ew` carries applies: its document's, or the default.  With no
    absolute probability and no risk, every indicator is false: a warning.
    """
    if scale is None:
        scale = ew.scale
    world = ew.world
    relatives = []
    absolutes = []
    attached = [b for node in ew.budgets for b in ew.budgets[node]]
    attached += [s for node in ew.ce_specs for s in ew.ce_specs[node]]
    for belief in trust:
        if isinstance(belief, Relative):
            relatives.append(belief)
        elif isinstance(belief, Absolute):
            absolutes.append(belief)
        elif not isinstance(belief, ATTACHMENT_BELIEFS):
            raise CompileError(f"unknown trust belief {belief!r}")
        elif belief not in ew.consumed:
            attached.append(belief)
    try:
        budget_scopes, ce_scopes = resolve_attachments(world, ew.ontology,
                                                       attached)
    except EditError as exc:
        raise CompileError(str(exc)) from exc

    # CE nodes reroute covered children through a synthetic activation node.
    ce_nodes = []              # (ce id, parent id, activation)
    rerouted = {}              # (parent id, child id) -> ce id
    for parent in sorted(ce_scopes):
        for i, (spec, covered) in enumerate(ce_scopes[parent]):
            if not covered:
                continue
            ce_id = f"ce:{parent}#{i}"
            ce_nodes.append((ce_id, parent, scale.ce_prob(spec.v)))
            for child in covered:
                rerouted[(parent, child)] = ce_id
    ce_nodes.sort()            # in id order: "#10" sorts before "#2"

    # Budgets scale the parent's outgoing edge weights by min(1, k/c), where
    # c counts the children in scope in the edited world.  Other world
    # edges weigh 1.
    weights = {}
    for parent in sorted(budget_scopes):
        for budget, scope in budget_scopes[parent]:
            if not scope:
                continue
            factor = 1.0 if budget.k >= len(scope) else budget.k / len(scope)
            for child in scope:
                weights[(parent, child)] = \
                    weights.get((parent, child), 1.0) * factor

    risks = {}
    for belief in relatives:
        p = scale.prob(belief.v)
        for node in select(world, belief.pred.root):
            risks.setdefault(node, []).append(p)

    absolute = {}
    for belief in absolutes:
        p = scale.prob(belief.v)
        for node in select(world, belief.pred.root):
            absolute[node] = p
    if not absolute and not risks:
        log.warning("translated network has no absolute probability and no "
                    "risk: every indicator is always false")

    # Node ranks are positions in id order: the world's ranks, shifted past
    # the ce ids that sort before them.
    names = world.names
    ce_ids = [ce_id for ce_id, _, _ in ce_nodes]
    slots = np.array([bisect.bisect_left(names, ce_id) for ce_id in ce_ids],
                     dtype=np.int64)
    if any(slot < len(names) and names[slot] == ce_id
           for slot, ce_id in zip(slots.tolist(), ce_ids)):
        raise CompileError("translated network has a duplicate node id")
    n = len(names) + len(ce_ids)
    all_ids = sorted((*names, *ce_ids))
    remap = np.arange(len(names)) + np.searchsorted(
        slots, np.arange(len(names)), side="right")
    ce_rank = slots + np.arange(len(ce_ids))

    # World edges in rank order; budget weights and ce reroutes are patched
    # by edge position (their scopes never share an edge, so a rerouted
    # edge keeps weight 1), and an absolute node keeps no in-edges.
    src = remap[world.src]
    dst = remap[world.dst]
    w = np.ones(len(src), dtype=np.float64)
    w[world.edge_positions(weights)] = list(weights.values())
    ce_of = dict(zip(ce_ids, ce_rank.tolist()))
    src[world.edge_positions(rerouted)] = [ce_of[ce_id]
                                           for ce_id in rerouted.values()]
    keep = ~np.isin(world.dst, [world.index[node] for node in absolute])
    src = np.concatenate((src[keep], remap[[world.index[parent]
                                            for _, parent, _ in ce_nodes]]))
    dst = np.concatenate((dst[keep], ce_rank))
    w = np.concatenate((w[keep], [a for _, _, a in ce_nodes]))
    order = topological_order(n, src, dst)

    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    pos = position[remap].tolist()        # by world rank
    index = world.index
    child_pos = position[dst]
    by_child = np.lexsort((src, child_pos))   # parents in id order
    outputs = [k for k, t in enumerate(world.type_names)
               if t in ew.ontology.output_types]
    is_output = np.zeros(n, dtype=bool)
    is_output[position[remap[np.isin(world.type_code, outputs)]]] = True
    return CompiledBbn(
        ids=tuple(all_ids[r] for r in order),
        parent_ptr=np.concatenate(([0], np.cumsum(
            np.bincount(child_pos, minlength=n)))),
        parent_idx=position[src][by_child],
        parent_w=w[by_child],
        risks={pos[index[node]]: tuple(values)
               for node, values in risks.items() if node not in absolute},
        absolute={pos[index[node]]: p for node, p in absolute.items()},
        ce=frozenset(position[ce_rank].tolist()),
        is_output=is_output)


# --- Sampling ----------------------------------------------------------------

class Sampler:
    """Lazy column-wise sampler over a compiled network.

    Only draw nodes (`CompiledBbn.needs_draws`) have columns of their own:
    n draws each, computed on first need and cached bit-packed,
    uint8[ceil(n/8)] in np.packbits order with the unused low bits of the
    last byte zero.  Every node's column is the OR of its frontier's
    (`CompiledBbn.frontier`) cached columns, so a request computes only the
    draw nodes that frontier needs and never visits a node that draws
    nothing.  `column` unpacks a fresh (n,) bool array on every call, so no
    caller can write into the cache.  Columns depend only on (seed, node
    position), never on the request pattern.
    """

    def __init__(self, bbn, n, seed):
        self.bbn = bbn
        self.n = check_sample_count(
            n, f"n must be a positive integer, got {n!r}")
        self.seed = check_seed(seed)
        self._cols = {}

    def column(self, node_id):
        return self._unpack(self._column(self.bbn.position(node_id)))

    def _unpack(self, packed):
        return np.unpackbits(packed, count=self.n).view(bool)

    def _column(self, idx):
        """Packed column of position idx, the OR of its frontier's columns
        (a draw node's is the cached array itself, so callers only read
        it).  A draw node that is not cached yet needs the draw nodes of
        the frontiers of the parents it reads (`_parents_read`) too; all of
        them are computed in position order, which is topological."""
        front_ptr, front = self.bbn.frontier
        frontier = front[front_ptr[idx]:front_ptr[idx + 1]].tolist()
        needed = set()
        stack = list(frontier)
        while stack:
            d = stack.pop()
            if d in needed or d in self._cols:
                continue
            needed.add(d)
            for j, _ in self._parents_read(d):
                stack += front[front_ptr[j]:front_ptr[j + 1]].tolist()
        for d in sorted(needed):
            self._cols[d] = self._compute(d)
        cols = [self._cols[d] for d in frontier]
        return reduce(operator.or_, cols) if cols else np.zeros(
            (self.n + 7) // 8, dtype=np.uint8)

    def _uniforms(self, idx):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, idx]))
        return rng.random(self.n)

    def _parents_read(self, idx):
        """(position, weight) of each parent draw node idx reads: none for an
        absolute node, else each of positive weight."""
        if idx in self.bbn.absolute:
            return []
        ptr, parent_idx, parent_w = self.bbn.parent_lists
        return [(j, w) for j, w in zip(parent_idx[ptr[idx]:ptr[idx + 1]],
                                       parent_w[ptr[idx]:ptr[idx + 1]])
                if w > 0.0]

    def _compute(self, idx):
        """Packed column of draw node idx by the noisy-OR rule; the draw
        nodes its parents' columns read are already cached.  ORs act on the
        packed bytes, which keeps the padding zero; only a parent of weight
        strictly inside (0, 1) is unpacked."""
        absolute = self.bbn.absolute.get(idx)
        if absolute is not None:
            return np.packbits(self._uniforms(idx) < absolute)
        certain = np.zeros((self.n + 7) // 8, dtype=np.uint8)
        keep = 1.0
        for j, w in self._parents_read(idx):
            if w >= 1.0:
                certain |= self._column(j)
            else:
                keep = keep * np.where(self._unpack(self._column(j)),
                                       1.0 - w, 1.0)
        keep_static = 1.0
        for q in self.bbn.risks.get(idx, ()):
            keep_static *= 1.0 - q
        return certain | np.packbits(self._uniforms(idx)
                                     < 1.0 - keep * keep_static)


def sample(bbn, seed):
    """One joint draw over every node."""
    row = sample_matrix(bbn, 1, seed)[0]
    return SampleResult(compromised=np.unpackbits(row, count=len(bbn))
                        .view(bool), seed=int(seed))


def sample_matrix(bbn, n, seed, nodes=None):
    """(n, ceil(k/8)) C-contiguous uint8 rows of joint draws, k = len(nodes),
    bit-packed in np.packbits(axis=1) order: node i of row r is bit
    7 - i % 8 of rows[r, i // 8], and the padding bits are zero.  These are
    the bytes of a sample dump; `np.unpackbits(rows, axis=1, count=k)`
    gives the (n, k) matrix.

    Only the draw nodes of the requested nodes' frontiers are drawn, each
    through one `Sampler.column` request in position order.  A draw node's
    membership bytes hold the bits of the requested nodes whose frontier
    holds it; each run of them (`_OR_GAP_BYTES`) is ORed into the rows
    where the draw node is set, so every other node is the OR of its
    frontier's columns, and the work is bounded by n times the frontiers'
    total size.  An n whose rows one array cannot hold is refused before
    any draw."""
    sampler = Sampler(bbn, n, seed)
    ids = list(bbn.ids if nodes is None else nodes)
    width = (len(ids) + 7) // 8
    if width * sampler.n > np.iinfo(np.intp).max:
        raise InvalidInputError(f"n = {n} samples of {len(ids)} nodes need "
                                "more bytes than an array holds")
    positions = np.array([bbn.position(x) for x in ids], dtype=np.int64)
    ptr, front = bbn.frontier
    counts = ptr[positions + 1] - ptr[positions]
    which = np.repeat(np.arange(positions.size), counts)
    draw = front[concat_ranges(ptr[positions], counts)]
    order = np.lexsort((which, draw))
    draw, which = draw[order], which[order]
    byte = which >> 3
    first = np.ones(byte.size, dtype=bool)       # the first entry of a run
    first[1:] = (draw[1:] != draw[:-1]) | (np.diff(byte) > _OR_GAP_BYTES)
    last = np.ones(byte.size, dtype=bool)
    last[:-1] = first[1:]
    lo, hi = byte[first], byte[last] + 1
    offset = np.concatenate(([0], np.cumsum(hi - lo)))
    run = np.cumsum(first) - 1
    values = np.zeros(offset[-1], dtype=np.uint8)   # each run's bytes
    np.bitwise_or.at(values, offset[run] + byte - lo[run],
                     np.right_shift(128, which & 7).astype(np.uint8))
    rows = np.zeros((sampler.n, width), dtype=np.uint8)
    drawn = None
    for d, a, b, at in zip(draw[first].tolist(), lo.tolist(), hi.tolist(),
                           offset.tolist()):
        if d != drawn:
            hits = np.flatnonzero(sampler.column(bbn.ids[d]))
            drawn = d
        block = max(1, _OR_BLOCK_BYTES // (b - a))
        for start in range(0, hits.size, block):
            rows[hits[start:start + block], a:b] |= values[at:at + b - a]
    return rows


def estimate_marginals(bbn, nodes=None, n=100_000, seed=0):
    """Each node's share of n joint draws, in the order asked: the set bits
    of its `Sampler` column.  Every id is looked up before any draw."""
    sampler = Sampler(bbn, n, seed)
    ids = list(bbn.ids if nodes is None else nodes)
    positions = [bbn.position(x) for x in ids]
    counts = [int(np.count_nonzero(np.unpackbits(sampler._column(i))))
              for i in positions]
    return [MarginalEstimate(node=x, estimate=count / sampler.n,
                             n_samples=sampler.n)
            for x, count in zip(ids, counts)]


# --- Event expressions -------------------------------------------------------

def estimate_event(bbn, event, n=100_000, seed=0):
    """Monte Carlo estimate of a boolean event over node indicators.

    `event` is an expression string (and/or/not/parentheses over node ids)
    or a pre-parsed tree."""
    tree = _event_tree(bbn, event)
    sampler = Sampler(bbn, n, seed)
    return float(evaluate(tree, lambda a: sampler.column(a.node_id)).mean())


def _event_tree(bbn, event):
    """The tree of an event string or tree, after looking up every atom's
    node (`evaluate` visits each, and the leaf's value is unused), so an
    unknown id is refused before any draw or enumeration."""
    tree = parse_event(event) if isinstance(event, str) else event
    evaluate(tree, lambda atom: np.bool_(bbn.position(atom.node_id)))
    return tree


# --- Exact enumeration -------------------------------------------------------

def _joint(bbn):
    """(prob, on): the probability of each of the 2^m joint states, bit i of
    a state being node i in topological order, and on(i), the mask of the
    states in which node i is compromised.  A ce node reads its own rule, not
    the sampler's noisy-OR one, so the two stay independent.  A network of
    more than EXACT_NODE_CAP nodes is refused before anything is allocated."""
    m = len(bbn)
    if m > EXACT_NODE_CAP:
        raise NetworkTooLargeError(f"{m} nodes exceeds the exact-enumeration "
                                   f"limit of {EXACT_NODE_CAP}")
    states = np.arange(1 << m, dtype=np.uint32)

    def on(i):
        return ((states >> np.uint32(i)) & np.uint32(1)).astype(bool)

    prob = np.ones(states.size)
    ptr, parent_idx, parent_w = bbn.parent_lists
    for i in range(m):
        parents = zip(parent_idx[ptr[i]:ptr[i + 1]],
                      parent_w[ptr[i]:ptr[i + 1]])
        absolute = bbn.absolute.get(i)
        if absolute is not None:
            p_on = absolute
        elif i in bbn.ce:
            (j, activation), = parents
            p_on = np.where(on(j), activation, 0.0)
        else:
            keep = np.ones(states.size)
            for q in bbn.risks.get(i, ()):
                keep *= 1.0 - q
            for j, w in parents:
                keep = keep * np.where(on(j), 1.0 - w, 1.0)
            p_on = 1.0 - keep
        prob *= np.where(on(i), p_on, 1.0 - p_on)
    return prob, on


def enumerate_exact(bbn):
    """Joint distribution as {state bitmask: probability}, zero states
    omitted; bit i of the mask is node i in topological order."""
    prob, _ = _joint(bbn)
    return {int(s): float(prob[s]) for s in np.flatnonzero(prob)}


def exact_marginals(bbn):
    """Exact marginal per node id, by full enumeration."""
    prob, on = _joint(bbn)
    return {node_id: float(prob[on(i)].sum())
            for i, node_id in enumerate(bbn.ids)}


def exact_event(bbn, event):
    """Exact probability of an event expression, by full enumeration."""
    tree = _event_tree(bbn, event)
    prob, on = _joint(bbn)
    return float(prob[evaluate(
        tree, lambda atom: on(bbn.position(atom.node_id)))].sum())


# --- Serialization -----------------------------------------------------------

def bbn_to_dict(bbn):
    """The dict of a network file in format 2: each `CompiledBbn.rows` row
    with its parents as a flat list of positions, their `weights` only when
    one is not 1, and no other field at its default."""
    return {"format": NETWORK_FORMAT,
            "nodes": [_sparse_node(row) for row in bbn.rows()]}


# The fields a format-2 node omits at these values.
_OMITTED = {"kind": "world", "risks": (), "absolute": None, "is_output": False}


def _sparse_node(row):
    """The format-2 node of a `CompiledBbn.rows` row."""
    parents = row["parents"]
    node = {"id": row["id"], "parents": [j for j, _ in parents]}
    if any(w != 1.0 for _, w in parents):
        node["weights"] = [w for _, w in parents]
    node.update((key, row[key]) for key, default in _OMITTED.items()
                if row[key] != default)
    return node


# The fields of a network file in format 2 and of each of its nodes, and
# those of the pair layout, a file without a `format` key.
_NODE_FIELDS = {"id": ("a string", REQUIRED), "kind": ("a string", "world"),
                "parents": ("a list of integers", []),
                "weights": ("a list of probabilities", None),
                "risks": ("a list of probabilities", []),
                "absolute": ("a probability", None),
                "is_output": ("a boolean", False)}
_NETWORK_FIELDS = {"format": ("an integer", REQUIRED),
                   "nodes": (_NODE_FIELDS, [])}
_PAIR_NODE_FIELDS = {
    **{key: field for key, field in _NODE_FIELDS.items() if key != "weights"},
    "parents": ((("index", "an integer"), ("weight", "a probability")), [])}
_PAIR_FIELDS = {"nodes": (_PAIR_NODE_FIELDS, [])}


def _parent_columns(fields):
    """(lengths, positions, weights) of the nodes' parents, flat, in node
    order: the pair layout's columns as `read_record` reads them, or format
    2's `parents` chained, with weights of 1 where a node has no
    `weights`.  CompileError names a node whose `weights` and `parents`
    differ in length."""
    nodes = fields["nodes"]
    if "format" not in fields:
        lengths, parents = nodes["parents"]
        return lengths, parents["index"], parents["weight"]
    lengths = list(map(len, nodes["parents"]))
    positions = list(chain.from_iterable(nodes["parents"]))
    weights = np.ones(len(positions))
    at = 0
    for i, (n, w) in enumerate(zip(lengths, nodes["weights"])):
        if w is not None:
            if len(w) != n:
                raise CompileError(f"nodes[{i}]: {len(w)} weights for {n} "
                                   "parents")
            weights[at:at + n] = w
        at += n
    return lengths, positions, weights


def bbn_from_dict(data):
    """Rebuild a network from a network file's dict, in format 2 or in the
    pair layout (no `format` key), rejecting what the sampler and the exact
    oracle would read differently: besides what the fields' kinds rule out,
    `weights` and `parents` of different lengths, duplicate ids, forward
    parents, unknown kinds, and ce nodes without exactly one parent or with
    a risk or an absolute value.  An absolute value overrides its node's
    risks and parents; one warning counts the absolute nodes that have
    any."""
    fields = read_record(data, format_table(
        data, {None: _PAIR_FIELDS, NETWORK_FORMAT: _NETWORK_FIELDS},
        "network file", CompileError), "network file", CompileError)
    nodes = fields["nodes"]
    ids, kinds, risks = nodes["id"], nodes["kind"], nodes["risks"]
    lengths, positions, weights = _parent_columns(fields)
    absolute = {i: float(a) for i, a in enumerate(nodes["absolute"])
                if a is not None}
    if len(set(ids)) < len(ids):
        seen = set()
        i = next(i for i, x in enumerate(ids) if x in seen or seen.add(x))
        raise CompileError(f"nodes[{i}]: duplicate node id {ids[i]!r}")
    for i in ([] if set(kinds) <= {"world"} else range(len(ids))):
        if kinds[i] not in ("world", "ce"):
            raise CompileError(f"node {ids[i]!r} has unknown kind "
                               f"{kinds[i]!r}")
        if kinds[i] == "ce" and lengths[i] != 1:
            raise CompileError(f"ce node {ids[i]!r} needs exactly one "
                               f"parent, has {lengths[i]}")
        if kinds[i] == "ce" and (risks[i] or i in absolute):
            raise CompileError(f"ce node {ids[i]!r} may carry no risk and "
                               "no absolute value")
    owner = np.repeat(np.arange(len(ids)), lengths)
    try:
        idx = np.fromiter(positions, np.int64, len(positions))
        forward = not ((idx >= 0) & (idx < owner)).all()
    except OverflowError:               # past int64, so out of range
        forward = True
    if forward:
        j, i = next((j, i) for j, i in zip(positions, owner.tolist())
                    if not 0 <= j < i)
        raise CompileError(f"node {ids[i]!r} has parent index {j} not before "
                           f"its own position {i}")
    overridden = sum(1 for i in absolute if risks[i] or lengths[i])
    if overridden:
        log.warning("%d absolute node(s) also carry risks or parents, which "
                    "their absolute value overrides", overridden)
    return CompiledBbn(
        ids=tuple(ids), parent_ptr=list(accumulate(lengths, initial=0)),
        parent_idx=idx, parent_w=weights,
        risks={i: tuple(map(float, r)) for i, r in enumerate(risks) if r},
        absolute=absolute,
        ce=frozenset(i for i, kind in enumerate(kinds) if kind == "ce"),
        is_output=nodes["is_output"])


def save_bbn(bbn, path):
    write_text(path, json_text(bbn_to_dict(bbn)))


def load_bbn(path):
    return bbn_from_dict(read_json(path))


def _padding_set(rows, n_nodes):
    """True if any bit past node n_nodes - 1 in the last byte is set."""
    spare = -n_nodes % 8
    return bool(spare) and bool(np.any(rows[:, -1] & ((1 << spare) - 1)))


def save_samples(path, rows, n_nodes):
    """Bit-packed sample dump: magic, version byte, node count as 3 bytes
    little-endian, then `rows`, the (n, ceil(n_nodes/8)) uint8 rows of
    `sample_matrix`, written from their buffer."""
    n_nodes = operator.index(n_nodes)
    if n_nodes < 0:
        raise InvalidInputError(f"node count {n_nodes} is negative")
    if n_nodes == 0:
        raise InvalidInputError(
            "a dump of no nodes cannot record its sample count")
    if n_nodes >= 1 << 24:
        raise NetworkTooLargeError("sample dump supports at most 2^24-1 nodes")
    rows = np.ascontiguousarray(rows)
    if rows.ndim != 2 or rows.dtype != np.uint8:
        raise InvalidInputError(
            "sample rows must be a 2-dimensional uint8 array")
    if rows.shape[1] != (n_nodes + 7) // 8:
        raise InvalidInputError(f"sample rows are {rows.shape[1]} bytes wide, "
                                f"{n_nodes} nodes need {(n_nodes + 7) // 8}")
    if _padding_set(rows, n_nodes):
        raise InvalidInputError("sample rows have padding bits set")

    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.write(SAMPLE_MAGIC)
            fh.write(bytes([SAMPLE_VERSION]))
            fh.write(n_nodes.to_bytes(3, "little"))
            fh.write(rows)
    atomic_write(path, write)


def load_samples(path):
    """(rows, n_nodes) of a dump written by `save_samples`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8 or header[:4] != SAMPLE_MAGIC:
            raise InvalidInputError(f"{path} is not a sample dump")
        if header[4] != SAMPLE_VERSION:
            raise InvalidInputError(
                f"unsupported sample dump version {header[4]}")
        n_nodes = int.from_bytes(header[5:8], "little")
        payload = np.fromfile(fh, dtype=np.uint8)
    row_bytes = (n_nodes + 7) // 8
    if row_bytes == 0:
        raise InvalidInputError(f"{path} records no nodes, so no row count")
    if payload.size % row_bytes:
        raise InvalidInputError("truncated sample dump")
    rows = payload.reshape(-1, row_bytes)
    if _padding_set(rows, n_nodes):
        raise InvalidInputError(f"{path} has padding bits set")
    return rows, n_nodes
