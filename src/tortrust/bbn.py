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
"""

import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .beliefs import Absolute, Relative, default_scale
from .editor import ATTACHMENT_BELIEFS, attachment_scopes, group_attachments
from .errors import CompileError, EditError, NetworkTooLargeError
from .predicates import (IdIn, IsType, eval_event, eval_predicate,
                         is_type, parse_event)

EXACT_NODE_CAP = 24

SAMPLE_MAGIC = b"TBBN"
SAMPLE_VERSION = 1


def compromise_probability(S, R):
    """1 - prod_{p in S}(1-p) * prod_{q in R}(1-q); empty products are 1."""
    keep = 1.0
    for p in S:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"propagation value {p!r} outside [0,1]")
        keep *= 1.0 - p
    for q in R:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"risk value {q!r} outside [0,1]")
        keep *= 1.0 - q
    return 1.0 - keep


@dataclass(frozen=True)
class BbnNode:
    id: str
    kind: str                 # "world" or "ce"
    parents: tuple = ()       # ((parent index, weight), ...)
    risks: tuple = ()
    absolute: object = None
    is_output: bool = False


@dataclass(frozen=True)
class CompiledBbn:
    nodes: tuple

    @cached_property
    def index(self):
        return {node.id: i for i, node in enumerate(self.nodes)}

    @cached_property
    def needs_draws(self):
        """Bool per node: does sampling it read its own uniforms?  False only
        for an OR of parents: no absolute, not ce, no risks, and no parent
        weight strictly inside (0, 1)."""
        return np.array([node.absolute is not None or node.kind == "ce"
                         or bool(node.risks)
                         or any(0.0 < w < 1.0 for _, w in node.parents)
                         for node in self.nodes], dtype=bool)

    def __len__(self):
        return len(self.nodes)


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

def matching_nodes(world, pred):
    """World node ids satisfying pred, sorted. Fast paths for the two
    predicate shapes adversary documents are made of."""
    root = pred.root
    if isinstance(root, IdIn):
        return tuple(i for i in sorted(root.ids) if i in world.by_id)
    if isinstance(root, IsType):
        return tuple(sorted(i for tname in world.ids_by_type
                            if is_type(root.name, tname)
                            for i in world.ids_by_type[tname]))
    return tuple(inst.id for inst in world.instances
                 if eval_predicate(pred, world, inst.id, ctx="trust"))


def compile_bbn(ew, trust=(), scale=None):
    """Translate EditedWorld + trust beliefs into a CompiledBbn.

    Budget and CE beliefs may arrive attached to `ew`, in `trust`, or both
    (value-equal duplicates collapse), so a belief document can be applied
    in one step or two.  Either way they are checked by the editor's rules.
    """
    if scale is None:
        scale = default_scale()
    world = ew.world
    relatives = []
    absolutes = []
    for belief in trust:
        if isinstance(belief, Relative):
            relatives.append(belief)
        elif isinstance(belief, Absolute):
            absolutes.append(belief)
        elif not isinstance(belief, ATTACHMENT_BELIEFS):
            raise CompileError(f"unknown trust belief {belief!r}")
    attached = [b for node in ew.budgets for b in ew.budgets[node]]
    attached += [s for node in ew.ce_specs for s in ew.ce_specs[node]]
    try:
        budget_scopes, ce_scopes = attachment_scopes(
            world, *group_attachments(world, attached + list(trust)))
    except EditError as exc:
        raise CompileError(str(exc)) from exc

    # Edge map: child id -> {parent id: weight}; world edges default to 1.
    in_edges = {inst.id: {} for inst in world.instances}
    for rel in world.relationships:
        in_edges[rel.child][rel.parent] = 1.0

    # CE nodes reroute covered children through a synthetic activation node.
    ce_nodes = []              # (ce id, parent id, activation, children)
    for parent in sorted(ce_scopes):
        for i, (spec, covered) in enumerate(ce_scopes[parent]):
            if not covered:
                continue
            ce_id = f"ce:{parent}#{i}"
            ce_nodes.append((ce_id, parent, scale.ce_prob(spec.v), covered))
            for child in covered:
                del in_edges[child][parent]
                in_edges[child][ce_id] = 1.0

    # Budgets scale the parent's outgoing edge weights by min(1, k/c), where
    # c counts the children in scope in the edited world.
    for parent in sorted(budget_scopes):
        for budget, scope in budget_scopes[parent]:
            if not scope:
                continue
            factor = min(1.0, budget.k / len(scope))
            for child in scope:
                in_edges[child][parent] *= factor

    risks = {inst.id: [] for inst in world.instances}
    for belief in relatives:
        p = scale.prob(belief.v)
        for node in matching_nodes(world, belief.pred):
            risks[node].append(p)

    absolute = {}
    for belief in absolutes:
        p = scale.prob(belief.v)
        for node in matching_nodes(world, belief.pred):
            absolute[node] = p
    for node in absolute:
        in_edges[node] = {}
        risks[node] = []

    # Deterministic topological order: Kahn's algorithm, min-heap on id.
    all_ids = sorted(in_edges) + [ce_id for ce_id, _, _, _ in ce_nodes]
    ce_children = {ce_id: (parent, activation, children)
                   for ce_id, parent, activation, children in ce_nodes}
    out_edges = {nid: [] for nid in all_ids}
    indegree = {nid: 0 for nid in all_ids}
    for child, parent_map in in_edges.items():
        for parent in parent_map:
            out_edges[parent].append(child)
            indegree[child] += 1
    for ce_id, (parent, _, _) in ce_children.items():
        out_edges[parent].append(ce_id)
        indegree[ce_id] += 1

    heap = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for child in sorted(out_edges[nid]):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, child)
    if len(order) != len(all_ids):
        raise CompileError("translated network is cyclic")

    position = {nid: i for i, nid in enumerate(order)}
    outputs = ew.ontology.output_types
    nodes = []
    for nid in order:
        if nid in ce_children:
            parent, activation, _ = ce_children[nid]
            nodes.append(BbnNode(id=nid, kind="ce",
                                 parents=((position[parent], activation),),
                                 risks=(), absolute=None, is_output=False))
            continue
        parent_items = sorted(in_edges[nid].items())
        nodes.append(BbnNode(
            id=nid, kind="world",
            parents=tuple((position[p], w) for p, w in parent_items),
            risks=tuple(risks[nid]),
            absolute=absolute.get(nid),
            is_output=world.type_of(nid) in outputs))
    return CompiledBbn(nodes=tuple(nodes))


# --- Sampling ----------------------------------------------------------------

class Sampler:
    """Lazy column-wise sampler over a compiled network.

    Materializes one boolean column of `n` draws per node, computing only
    the ancestor closure of whatever is requested.  Columns depend only on
    (seed, node position), never on the request pattern.  Nodes that
    `CompiledBbn.needs_draws` marks False read no uniforms: their column is
    the OR of their weight-1 parents' columns.
    """

    def __init__(self, bbn, n, seed):
        if n < 1:
            raise ValueError("need at least one sample")
        self.bbn = bbn
        self.n = int(n)
        self.seed = int(seed)
        self._cols = {}

    def column(self, node_id):
        try:
            idx = self.bbn.index[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None
        return self._column(idx)

    def _column(self, idx):
        col = self._cols.get(idx)
        if col is not None:
            return col
        needed = set()
        stack = [idx]
        while stack:
            k = stack.pop()
            if k in needed or k in self._cols:
                continue
            needed.add(k)
            for j, _ in self.bbn.nodes[k].parents:
                stack.append(j)
        # Node positions are already topologically sorted.
        for k in sorted(needed):
            self._cols[k] = self._compute(k)
        return self._cols[idx]

    def _uniforms(self, idx):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, idx]))
        return rng.random(self.n)

    def _compute(self, idx):
        node = self.bbn.nodes[idx]
        if not self.bbn.needs_draws[idx]:
            col = np.zeros(self.n, dtype=bool)
            for j, w in node.parents:
                if w >= 1.0:
                    col |= self._cols[j]
            return col
        u = self._uniforms(idx)
        if node.absolute is not None:
            return u < node.absolute
        if node.kind == "ce":
            (j, activation), = node.parents
            return self._cols[j] & (u < activation)
        keep_static = 1.0
        for q in node.risks:
            keep_static *= 1.0 - q
        certain = None
        keep = None
        for j, w in node.parents:
            parent_col = self._cols[j]
            if w >= 1.0:
                certain = parent_col if certain is None \
                    else certain | parent_col
            elif w > 0.0:
                factor = np.where(parent_col, 1.0 - w, 1.0)
                keep = factor if keep is None else keep * factor
        if keep is None:
            col = u < (1.0 - keep_static)
        else:
            col = u < (1.0 - keep * keep_static)
        if certain is not None:
            col = col | certain
        return col


def sample(bbn, seed):
    """One joint draw over every node."""
    return SampleResult(compromised=sample_matrix(bbn, 1, seed)[0],
                        seed=int(seed))


def sample_matrix(bbn, n, seed, nodes=None):
    """(n, k) C-contiguous boolean matrix of joint draws, k = len(nodes).

    Each column is packed into a (ceil(k/8), n) byte buffer as it is drawn,
    column i at bit 7 - i % 8 of byte row i // 8 (np.packbits order); the
    sampler's columns are dropped before the buffer is transposed and
    unpacked into the matrix."""
    sampler = Sampler(bbn, n, seed)
    ids = [node.id for node in bbn.nodes] if nodes is None else list(nodes)
    k = len(ids)
    packed = np.zeros(((k + 7) // 8, sampler.n), dtype=np.uint8)
    shifted = np.empty(sampler.n, dtype=np.uint8)
    for i, nid in enumerate(ids):
        np.left_shift(sampler.column(nid).view(np.uint8), 7 - i % 8,
                      out=shifted)
        packed[i // 8] |= shifted
    del sampler
    rows = np.ascontiguousarray(packed.T)
    return np.unpackbits(rows, axis=1, count=k).view(bool)


def estimate_marginals(bbn, nodes=None, n=100_000, seed=0):
    sampler = Sampler(bbn, n, seed)
    ids = [node.id for node in bbn.nodes] if nodes is None else list(nodes)
    return [MarginalEstimate(node=nid,
                             estimate=float(sampler.column(nid).mean()),
                             n_samples=n)
            for nid in ids]


# --- Event expressions -------------------------------------------------------

def estimate_event(bbn, event, n=100_000, seed=0):
    """Monte Carlo estimate of a boolean event over node indicators.

    `event` is an expression string (and/or/not/parentheses over node ids)
    or a pre-parsed tree."""
    tree = parse_event(event) if isinstance(event, str) else event
    sampler = Sampler(bbn, n, seed)
    return float(eval_event(tree, sampler.column).mean())


# --- Exact enumeration -------------------------------------------------------

def _state_bit(states, i):
    """Boolean mask of the states in which node i is compromised."""
    return ((states >> np.uint32(i)) & np.uint32(1)).astype(bool)


def _joint_vector(bbn, cap):
    m = len(bbn.nodes)
    if m > cap:
        raise NetworkTooLargeError(
            f"{m} nodes exceeds the exact-enumeration cap of {cap}")
    n_states = 1 << m
    states = np.arange(n_states, dtype=np.uint32)
    prob = np.ones(n_states)
    for i, node in enumerate(bbn.nodes):
        on = _state_bit(states, i)
        if node.absolute is not None:
            p_on = node.absolute
        elif node.kind == "ce":
            (j, activation), = node.parents
            p_on = np.where(_state_bit(states, j), activation, 0.0)
        else:
            keep = np.ones(n_states)
            for q in node.risks:
                keep *= 1.0 - q
            for j, w in node.parents:
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
    out = {}
    for i, node in enumerate(bbn.nodes):
        out[node.id] = float(prob[_state_bit(states, i)].sum())
    return out


def exact_event(bbn, event, cap=EXACT_NODE_CAP):
    """Exact probability of an event expression, by full enumeration."""
    tree = parse_event(event) if isinstance(event, str) else event
    prob = _joint_vector(bbn, cap)
    states = np.arange(prob.size, dtype=np.uint32)

    def leaf(node_id):
        try:
            return _state_bit(states, bbn.index[node_id])
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    return float(prob[eval_event(tree, leaf)].sum())


# --- Serialization -----------------------------------------------------------

def bbn_to_dict(bbn):
    return {
        "nodes": [
            {"id": node.id, "kind": node.kind,
             "parents": [[j, w] for j, w in node.parents],
             "risks": list(node.risks),
             "absolute": node.absolute,
             "is_output": node.is_output}
            for node in bbn.nodes
        ],
    }


def bbn_from_dict(data):
    """Rebuild a network, rejecting what the sampler and the exact oracle
    would read differently: forward parents, unknown kinds, ce nodes
    without exactly one parent, and probabilities outside [0,1]."""
    nodes = []
    for i, entry in enumerate(data.get("nodes", [])):
        node_id = entry["id"]
        kind = entry.get("kind", "world")
        parents = tuple((int(j), float(w)) for j, w in entry.get("parents", []))
        risks = tuple(float(q) for q in entry.get("risks", []))
        absolute = entry.get("absolute")
        absolute = None if absolute is None else float(absolute)
        if kind not in ("world", "ce"):
            raise CompileError(f"node {node_id!r} has unknown kind {kind!r}")
        if kind == "ce" and len(parents) != 1:
            raise CompileError(f"ce node {node_id!r} needs exactly one "
                               f"parent, has {len(parents)}")
        for j, _ in parents:
            if not 0 <= j < i:
                raise CompileError(
                    f"node {node_id!r} has parent index {j} not before "
                    f"its own position {i}")
        for what, values in (("edge weight", [w for _, w in parents]),
                             ("risk", risks),
                             ("absolute", () if absolute is None
                              else (absolute,))):
            for p in values:
                if not 0.0 <= p <= 1.0:
                    raise CompileError(f"node {node_id!r} has {what} {p!r} "
                                       f"outside [0,1]")
        nodes.append(BbnNode(id=node_id, kind=kind, parents=parents,
                             risks=risks, absolute=absolute,
                             is_output=bool(entry.get("is_output", False))))
    return CompiledBbn(nodes=tuple(nodes))


def save_bbn(bbn, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bbn_to_dict(bbn), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bbn(path):
    with open(path, encoding="utf-8") as fh:
        return bbn_from_dict(json.load(fh))


def save_samples(path, matrix):
    """Bit-packed sample dump: magic, version byte, node count as 3 bytes
    little-endian, then one packed row per sample."""
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError("sample matrix must be 2-dimensional")
    n_nodes = matrix.shape[1]
    if n_nodes >= 1 << 24:
        raise NetworkTooLargeError("sample dump supports at most 2^24-1 nodes")
    with open(path, "wb") as fh:
        fh.write(SAMPLE_MAGIC)
        fh.write(bytes([SAMPLE_VERSION]))
        fh.write(int(n_nodes).to_bytes(3, "little"))
        fh.write(np.packbits(matrix, axis=1).tobytes())


def load_samples(path):
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8 or header[:4] != SAMPLE_MAGIC:
            raise ValueError(f"{path} is not a sample dump")
        if header[4] != SAMPLE_VERSION:
            raise ValueError(f"unsupported sample dump version {header[4]}")
        n_nodes = int.from_bytes(header[5:8], "little")
        payload = fh.read()
    row_bytes = (n_nodes + 7) // 8
    if row_bytes == 0:
        return np.zeros((0, 0), dtype=bool)
    if len(payload) % row_bytes:
        raise ValueError("truncated sample dump")
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(-1, row_bytes)
    return np.unpackbits(packed, axis=1)[:, :n_nodes].astype(bool)
