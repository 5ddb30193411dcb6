"""Translation of an edited world plus trust beliefs into a BBN of binary
compromise indicators, with sampling, estimation, and an exact oracle.

Node distributions are never tabulated.  Each node carries edge weights,
a risk multiset and an optional absolute probability; conditioned on its
parents' indicators X_j the node is compromised with probability

    1 - prod_{j: X_j=1} (1 - w_j) * prod_{q in risks} (1 - q)

which the noisy-OR structure keeps linear in the parent count.  CE beliefs
become synthetic "ce" nodes: Bernoulli(activation) when their single parent
is compromised, propagating with weight 1 to all covered children.
Absolute beliefs sever a node from its parents.

Sampling uses one independent substream per node index, so estimating a
subset of nodes draws exactly the same values as estimating all of them,
and reruns with one seed are byte-identical.  Deterministic nodes (no risk,
no absolute, not ce, every parent weight 0 or 1) are the OR of their
weight-1 parents and read no uniforms at all; since every other node's
stream is keyed by its own position, skipping them changes no draw.

The sampler caches every column bit-packed (np.packbits order, eight
draws to a byte, the padding bits of the last byte zero) and unpacks a
fresh bool column for each `Sampler.column` call.  `sample_matrix` returns
packed rows, (n, ceil(k/8)) uint8 in np.packbits(axis=1) order, which are
exactly the payload of a sample dump: `save_samples(path, rows, n_nodes)`
writes them as they are and `load_samples(path)` returns
`(rows, n_nodes)`.

A CompiledBbn is array-backed: node ids in topological order, parents in
CSR form (offsets, indices, weights), and sparse per-position risks,
absolute values and ce flags.  `CompiledBbn.nodes` is a BbnNode view of
the same network, built only when read; the sampler and the exact oracle
read the arrays.
The topological order is `validation.topological_order`, Kahn's
algorithm taking the smallest ready node id first, on the world's integer
ranks: `compile_bbn` reads the world's rank arrays directly, drops the
edges into absolute nodes, patches budget weights and ce reroutes by edge
position, and shifts the ranks past the ce ids that join the id order.
A world holds no cycle, and cutting edges into absolute nodes or routing
edges through ce nodes closes none, so the order holds every node.
"""

import bisect
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .beliefs import Absolute, Relative
from .editor import ATTACHMENT_BELIEFS, resolve_attachments
from .errors import (CompileError, EditError, InvalidInputError,
                     NetworkTooLargeError, UnknownIdError)
from .files import atomic_write, json_text, read_json, write_text
from .predicates import evaluate, parse_event, select
from .validation import (check_sample_count, check_seed, is_integer,
                         is_probability, is_real, topological_order)

EXACT_NODE_CAP = 24

SAMPLE_MAGIC = b"TBBN"
SAMPLE_VERSION = 1


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
    arrays are copied on construction and read-only; `nodes` is a view of
    the same network as BbnNode objects, built on first use."""

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

    @cached_property
    def parent_lists(self):
        """(parent_ptr, parent_idx, parent_w) as Python lists, for loops
        that visit one node at a time."""
        return (self.parent_ptr.tolist(), self.parent_idx.tolist(),
                self.parent_w.tolist())

    @cached_property
    def nodes(self):
        ptr, idx, w = self.parent_lists
        outputs = self.is_output.tolist()
        return tuple(
            BbnNode(id=node_id, kind="ce" if i in self.ce else "world",
                    parents=tuple(zip(idx[ptr[i]:ptr[i + 1]],
                                      w[ptr[i]:ptr[i + 1]])),
                    risks=self.risks.get(i, ()),
                    absolute=self.absolute.get(i), is_output=outputs[i])
            for i, node_id in enumerate(self.ids))

    @cached_property
    def needs_draws(self):
        """Bool per node: does sampling it read its own uniforms?  False only
        for an OR of parents: no absolute, not ce, no risks, and no parent
        weight strictly inside (0, 1)."""
        draws = np.zeros(len(self.ids), dtype=bool)
        draws[np.fromiter([*self.absolute, *self.ce, *self.risks],
                          dtype=np.intp)] = True
        owner = np.repeat(np.arange(len(self.ids)), np.diff(self.parent_ptr))
        w = self.parent_w
        draws[owner[(w > 0.0) & (w < 1.0)]] = True
        return draws


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
    the one `ew` carries applies: its document's, or the default.
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
    if weights:
        w[world.edge_positions(weights)] = list(weights.values())
    if rerouted:
        at = world.edge_positions(rerouted)
        ce_of = {ce_id: r for ce_id, r in zip(ce_ids, ce_rank.tolist())}
        src[at] = [ce_of[ce_id] for ce_id in rerouted.values()]
    if absolute:
        cut = np.zeros(len(names), dtype=bool)
        cut[[world.index[node] for node in absolute]] = True
        keep = ~cut[world.dst]
        src, dst, w = src[keep], dst[keep], w[keep]
    if ce_nodes:
        src = np.concatenate((src, remap[[world.index[parent]
                                          for _, parent, _ in ce_nodes]]))
        dst = np.concatenate((dst, ce_rank))
        w = np.concatenate((w, [a for _, _, a in ce_nodes]))
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

    Materializes one column of `n` draws per node, computing only the
    ancestor closure of whatever is requested.  Columns are cached
    bit-packed: uint8[ceil(n/8)] in np.packbits order, with the unused low
    bits of the last byte zero.  `column` unpacks a fresh (n,) bool array
    on every call, so no caller can write into the cache.  Columns depend
    only on (seed, node position), never on the request pattern.  Nodes
    that `CompiledBbn.needs_draws` marks False read no uniforms: their
    column is the OR of their weight-1 parents' columns.
    """

    def __init__(self, bbn, n, seed):
        self.bbn = bbn
        self.n = check_sample_count(
            n, f"n must be a positive integer, got {n!r}")
        self.seed = check_seed(seed)
        self._cols = {}

    def column(self, node_id):
        try:
            idx = self.bbn.index[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node {node_id!r}") from None
        return self._unpack(self._column(idx))

    def _unpack(self, packed):
        return np.unpackbits(packed, count=self.n).view(bool)

    def _column(self, idx):
        col = self._cols.get(idx)
        if col is not None:
            return col
        ptr, parents, _ = self.bbn.parent_lists
        needed = set()
        stack = [idx]
        while stack:
            k = stack.pop()
            if k in needed or k in self._cols:
                continue
            needed.add(k)
            stack.extend(parents[ptr[k]:ptr[k + 1]])
        # Node positions are already topologically sorted.
        for k in sorted(needed):
            self._cols[k] = self._compute(k)
        return self._cols[idx]

    def _uniforms(self, idx):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, idx]))
        return rng.random(self.n)

    def _compute(self, idx):
        """Packed column of node idx; its parents are already cached.  ORs
        and ANDs act on the packed bytes, which keeps the padding zero; only
        a parent of weight strictly inside (0, 1) is unpacked."""
        bbn = self.bbn
        ptr, parent_idx, parent_w = bbn.parent_lists
        parents = zip(parent_idx[ptr[idx]:ptr[idx + 1]],
                      parent_w[ptr[idx]:ptr[idx + 1]])
        absolute = bbn.absolute.get(idx)
        if absolute is not None:
            return np.packbits(self._uniforms(idx) < absolute)
        if idx in bbn.ce:
            (j, activation), = parents
            return self._cols[j] & np.packbits(self._uniforms(idx)
                                               < activation)
        certain = np.zeros((self.n + 7) // 8, dtype=np.uint8)
        keep = 1.0
        for j, w in parents:
            if w >= 1.0:
                certain |= self._cols[j]
            elif w > 0.0:
                keep = keep * np.where(self._unpack(self._cols[j]),
                                       1.0 - w, 1.0)
        if not bbn.needs_draws[idx]:
            return certain
        keep_static = 1.0
        for q in bbn.risks.get(idx, ()):
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

    Each column is shifted into a (ceil(k/8), n) byte buffer as it is
    drawn; the sampler's columns are dropped before the buffer is
    transposed once."""
    sampler = Sampler(bbn, n, seed)
    ids = list(bbn.ids if nodes is None else nodes)
    k = len(ids)
    packed = np.zeros(((k + 7) // 8, sampler.n), dtype=np.uint8)
    shifted = np.empty(sampler.n, dtype=np.uint8)
    for i, nid in enumerate(ids):
        np.left_shift(sampler.column(nid).view(np.uint8), 7 - i % 8,
                      out=shifted)
        packed[i // 8] |= shifted
    del sampler
    return np.ascontiguousarray(packed.T)


def estimate_marginals(bbn, nodes=None, n=100_000, seed=0):
    sampler = Sampler(bbn, n, seed)
    ids = list(bbn.ids if nodes is None else nodes)
    return [MarginalEstimate(node=nid,
                             estimate=float(sampler.column(nid).mean()),
                             n_samples=sampler.n)
            for nid in ids]


# --- Event expressions -------------------------------------------------------

def estimate_event(bbn, event, n=100_000, seed=0):
    """Monte Carlo estimate of a boolean event over node indicators.

    `event` is an expression string (and/or/not/parentheses over node ids)
    or a pre-parsed tree."""
    tree = parse_event(event) if isinstance(event, str) else event
    sampler = Sampler(bbn, n, seed)
    return float(evaluate(tree, lambda a: sampler.column(a.node_id)).mean())


# --- Exact enumeration -------------------------------------------------------

def _state_bit(states, i):
    """Boolean mask of the states in which node i is compromised."""
    return ((states >> np.uint32(i)) & np.uint32(1)).astype(bool)


def _joint_vector(bbn, cap):
    if cap > EXACT_NODE_CAP:
        raise NetworkTooLargeError(
            f"cap {cap} is above the exact-enumeration limit of "
            f"{EXACT_NODE_CAP}")
    m = len(bbn)
    if m > cap:
        raise NetworkTooLargeError(
            f"{m} nodes exceeds the exact-enumeration cap of {cap}")
    n_states = 1 << m
    states = np.arange(n_states, dtype=np.uint32)
    prob = np.ones(n_states)
    ptr, parent_idx, parent_w = bbn.parent_lists
    for i in range(m):
        on = _state_bit(states, i)
        parents = zip(parent_idx[ptr[i]:ptr[i + 1]],
                      parent_w[ptr[i]:ptr[i + 1]])
        absolute = bbn.absolute.get(i)
        if absolute is not None:
            p_on = absolute
        elif i in bbn.ce:
            (j, activation), = parents
            p_on = np.where(_state_bit(states, j), activation, 0.0)
        else:
            keep = np.ones(n_states)
            for q in bbn.risks.get(i, ()):
                keep *= 1.0 - q
            for j, w in parents:
                keep = keep * np.where(_state_bit(states, j), 1.0 - w, 1.0)
            p_on = 1.0 - keep
        prob *= np.where(on, p_on, 1.0 - p_on)
    return prob


def enumerate_exact(bbn, cap=EXACT_NODE_CAP):
    """Joint distribution as {state bitmask: probability}, zero states
    omitted; bit i of the mask is node i in topological order."""
    prob = _joint_vector(bbn, cap)
    nonzero = np.flatnonzero(prob)
    return {int(s): float(prob[s]) for s in nonzero}


def exact_marginals(bbn, cap=EXACT_NODE_CAP):
    """Exact marginal per node id, by full enumeration."""
    prob = _joint_vector(bbn, cap)
    states = np.arange(prob.size, dtype=np.uint32)
    return {node_id: float(prob[_state_bit(states, i)].sum())
            for i, node_id in enumerate(bbn.ids)}


def exact_event(bbn, event, cap=EXACT_NODE_CAP):
    """Exact probability of an event expression, by full enumeration."""
    tree = parse_event(event) if isinstance(event, str) else event
    prob = _joint_vector(bbn, cap)
    states = np.arange(prob.size, dtype=np.uint32)

    def leaf(atom):
        try:
            return _state_bit(states, bbn.index[atom.node_id])
        except KeyError:
            raise UnknownIdError(f"unknown node {atom.node_id!r}") from None

    return float(prob[evaluate(tree, leaf)].sum())


# --- Serialization -----------------------------------------------------------

def bbn_to_dict(bbn):
    ptr, idx, w = bbn.parent_lists
    outputs = bbn.is_output.tolist()
    return {
        "nodes": [
            {"id": node_id, "kind": "ce" if i in bbn.ce else "world",
             "parents": [[j, wj] for j, wj in zip(idx[ptr[i]:ptr[i + 1]],
                                                  w[ptr[i]:ptr[i + 1]])],
             "risks": list(bbn.risks.get(i, ())),
             "absolute": bbn.absolute.get(i),
             "is_output": outputs[i]}
            for i, node_id in enumerate(bbn.ids)
        ],
    }


def bbn_from_dict(data):
    """Rebuild a network, rejecting what the sampler and the exact oracle
    would read differently: a file that is not an object with a `nodes`
    array, nodes that are not objects, missing or duplicate ids, fields of
    the wrong type, non-integer or forward parents, unknown kinds, ce nodes
    without exactly one parent, and probabilities outside [0,1]."""
    if not isinstance(data, dict) \
            or not isinstance(data.get("nodes", []), list):
        raise CompileError("network file must be an object with a 'nodes' "
                           "array")
    index, ptr, parent_idx, parent_w, outputs = {}, [0], [], [], []
    risks, absolute, ce = {}, {}, set()
    for i, entry in enumerate(data.get("nodes", [])):
        if not isinstance(entry, dict):
            raise CompileError(f"nodes[{i}]: node must be an object")
        node_id = entry.get("id")
        if not isinstance(node_id, str):
            raise CompileError(f"nodes[{i}]: missing 'id'")
        if node_id in index:
            raise CompileError(f"nodes[{i}]: duplicate node id {node_id!r}")
        index[node_id] = i
        kind = entry.get("kind", "world")
        parents = _node_field(entry, "parents", node_id, list, "an array")
        node_risks = tuple(_probability(q, node_id, "risk") for q in
                           _node_field(entry, "risks", node_id, list,
                                       "an array"))
        node_absolute = entry.get("absolute")
        node_absolute = None if node_absolute is None \
            else _probability(node_absolute, node_id, "absolute")
        is_output = _node_field(entry, "is_output", node_id, bool,
                                "a boolean")
        if kind not in ("world", "ce"):
            raise CompileError(f"node {node_id!r} has unknown kind {kind!r}")
        if kind == "ce" and len(parents) != 1:
            raise CompileError(f"ce node {node_id!r} needs exactly one "
                               f"parent, has {len(parents)}")
        for pair in parents:
            if not isinstance(pair, list) or len(pair) != 2:
                raise CompileError(f"node {node_id!r} has parent {pair!r}, "
                                   f"not an [index, weight] pair")
            j, w = pair
            if not is_integer(j):
                raise CompileError(f"node {node_id!r} has parent index "
                                   f"{j!r}, not an integer")
            if not 0 <= j < i:
                raise CompileError(
                    f"node {node_id!r} has parent index {j} not before "
                    f"its own position {i}")
            parent_idx.append(j)
            parent_w.append(_probability(w, node_id, "edge weight"))
        ptr.append(len(parent_idx))
        if node_risks:
            risks[i] = node_risks
        if node_absolute is not None:
            absolute[i] = node_absolute
        if kind == "ce":
            ce.add(i)
        outputs.append(is_output)
    return CompiledBbn(ids=tuple(index), parent_ptr=ptr,
                       parent_idx=parent_idx, parent_w=parent_w, risks=risks,
                       absolute=absolute, ce=frozenset(ce), is_output=outputs)


def _node_field(entry, key, node_id, cls, what):
    value = entry.get(key, cls())
    if not isinstance(value, cls):
        raise CompileError(f"node {node_id!r} has {key} {value!r}, "
                           f"not {what}")
    return value


def _probability(p, node_id, what):
    if not is_probability(p):
        raise CompileError(f"node {node_id!r} has {what} {p!r}, not a number"
                           if not is_real(p) else
                           f"node {node_id!r} has {what} {p!r} outside [0,1]")
    return float(p)


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
