"""Trust-aware path selection and greedy server placement.

An "end" of a circuit is observed when the relay itself or the virtual
link between an AS and that relay is compromised; a first-last correlation
succeeds when both ends are observed in the same joint adversary draw.
All estimates for one client share a single batch of joint samples so that
argmin comparisons between candidate relays are consistent.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import ontology as ont
from .bbn import Sampler
from .world import as_id, vlink_id


@dataclass(frozen=True)
class ClientLocation:
    as_id: str


@dataclass(frozen=True)
class Circuit:
    client: ClientLocation
    guard: str
    exit: str
    destination_as: str

    def __post_init__(self):
        if self.guard == self.exit:
            raise ValueError("guard and exit must differ")


@dataclass(frozen=True)
class RelayView:
    id: str
    bandwidth: float
    guard: bool
    exit: bool
    family: str
    prefix16: str


@dataclass(frozen=True)
class ConsensusView:
    relays: tuple

    def __post_init__(self):
        for r in self.relays:
            if r.bandwidth < 0:
                raise ValueError(f"negative bandwidth on {r.id}")


@dataclass(frozen=True)
class PlacementResult:
    chosen_ases: tuple
    rounds: tuple          # per round: {client as id: probability}

    @property
    def per_client_probability(self):
        return dict(self.rounds[-1])


def derive_seed(*parts):
    """Stable 63-bit seed from arbitrary string/int parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _client_as(client):
    return client.as_id if isinstance(client, ClientLocation) else str(client)


def _end_column(sampler, world, as_node, relay):
    """Joint indicator: relay compromised or the AS-relay link observed."""
    asn = as_node.split(":", 1)[1]
    fp = relay.split(":", 1)[1]
    col = sampler.column(relay)
    vid = vlink_id(asn, fp)
    if vid in sampler.bbn.index:
        return col | sampler.column(vid)
    # No link instance: degrade to the two-endpoint path.
    if as_node in sampler.bbn.index:
        col = col | sampler.column(as_node)
    relay_asn = world.attribute(relay, "as_number")
    if relay_asn is not None and as_id(relay_asn) in sampler.bbn.index:
        col = col | sampler.column(as_id(relay_asn))
    return col


def guard_exposure(bbn, world, client, guard, n=100_000, seed=0, sampler=None):
    """P(guard compromised or client-guard link observed)."""
    if sampler is None:
        sampler = Sampler(bbn, n, seed)
    col = _end_column(sampler, world, _client_as(client), guard)
    return float(col.mean())


def guard_relays(world):
    return [r for r in world.of_type(ont.TOR_RELAY)
            if world.attribute(r, "guard")]


def exit_relays(world):
    return [r for r in world.of_type(ont.TOR_RELAY)
            if world.attribute(r, "exit")]


def checked_guard_relays(world, count):
    """The world's guard relays; raises ValueError unless `count` of them
    can be selected."""
    guards = guard_relays(world)
    if not 1 <= count <= len(guards):
        raise ValueError(f"guard count must be in [1, {len(guards)}], "
                         f"got {count}")
    return guards


def select_guards(bbn, world, client, count=3, n=100_000, seed=0, sampler=None):
    """The `count` guards with smallest exposure; ties break on id."""
    guards = checked_guard_relays(world, count)
    if sampler is None:
        sampler = Sampler(bbn, n, seed)
    client_as = _client_as(client)
    ranked = sorted(
        (float(_end_column(sampler, world, client_as, g).mean()), g)
        for g in guards)
    return [g for _, g in ranked[:count]]


def first_last_probability(bbn, world, circuit, n=100_000, seed=0,
                           sampler=None):
    """P(both circuit ends observed) under joint adversary draws."""
    if sampler is None:
        sampler = Sampler(bbn, n, seed)
    first = _end_column(sampler, world, _client_as(circuit.client),
                        circuit.guard)
    last = _end_column(sampler, world, circuit.destination_as, circuit.exit)
    return float((first & last).mean())


def select_circuit(bbn, world, client, guards, destination_as, n=100_000,
                   seed=0, sampler=None):
    """Argmin of first-last probability over guards x all exit relays."""
    if not guards:
        raise ValueError("no guards supplied")
    exits = exit_relays(world)
    if not exits:
        raise ValueError("world has no exit relays")
    if sampler is None:
        sampler = Sampler(bbn, n, seed)
    client_as = _client_as(client)
    first_cols = {g: _end_column(sampler, world, client_as, g) for g in guards}
    last_cols = {e: _end_column(sampler, world, destination_as, e)
                 for e in exits}
    best = None
    for g in sorted(guards):
        for e in sorted(exits):
            if g == e:
                continue
            p = float((first_cols[g] & last_cols[e]).mean())
            key = (p, g, e)
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError("no guard-exit pair with distinct relays")
    p, g, e = best
    return g, e, p


# --- Tor's default selection (bandwidth-weighted baseline) -------------------

def consensus_view(world):
    family_of = {}
    for fam in world.of_type(ont.RELAY_FAMILY):
        for child in world.children(fam):
            family_of[child] = fam
    relays = []
    for rid in world.of_type(ont.TOR_RELAY):
        ip = world.attribute(rid, "ip", "")
        octets = ip.split(".")
        prefix16 = ".".join(octets[:2]) if len(octets) == 4 else rid
        relays.append(RelayView(
            id=rid,
            bandwidth=float(world.attribute(rid, "bandwidth", 0)),
            guard=bool(world.attribute(rid, "guard")),
            exit=bool(world.attribute(rid, "exit")),
            family=family_of.get(rid, rid),
            prefix16=prefix16))
    return ConsensusView(relays=tuple(relays))


def draw_default_circuits(cv, n, seed):
    """n bandwidth-weighted (guard id, exit id) draws, exit first, guard
    excluding the exit's relay, family, and /16."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    exits = [r for r in cv.relays if r.exit]
    guards = [r for r in cv.relays if r.guard]
    if not exits:
        raise ValueError("no exit relays in consensus")
    if not guards:
        raise ValueError("no guard relays in consensus")
    exit_w = np.array([r.bandwidth for r in exits], dtype=float)
    if exit_w.sum() <= 0:
        raise ValueError("exit bandwidth is all zero")
    exit_idx = rng.choice(len(exits), size=n, p=exit_w / exit_w.sum())
    guard_w = np.array([r.bandwidth for r in guards], dtype=float)
    guard_idx = np.empty(n, dtype=int)
    for e_i in np.unique(exit_idx):
        e = exits[int(e_i)]
        w = guard_w.copy()
        for j, g in enumerate(guards):
            if g.id == e.id or g.family == e.family \
                    or g.prefix16 == e.prefix16:
                w[j] = 0.0
        if w.sum() <= 0:
            raise ValueError(
                f"no guard compatible with exit {e.id} has bandwidth")
        mask = exit_idx == e_i
        guard_idx[mask] = rng.choice(len(guards), size=int(mask.sum()),
                                     p=w / w.sum())
    return ([guards[int(i)].id for i in guard_idx],
            [exits[int(i)].id for i in exit_idx])


def tor_default_circuit(cv, client, destination_as, seed):
    guard_ids, exit_ids = draw_default_circuits(cv, 1, seed)
    client = client if isinstance(client, ClientLocation) \
        else ClientLocation(as_id=str(client))
    return Circuit(client=client, guard=guard_ids[0], exit=exit_ids[0],
                   destination_as=destination_as)


# --- Greedy server placement -------------------------------------------------

def exits_by_as(world):
    """{AS id: its exit relays} over the ASes holding at least one exit
    relay, in AS id order."""
    exits_in = {}
    for rid in exit_relays(world):
        asn = world.attribute(rid, "as_number")
        if asn is not None:
            exits_in.setdefault(as_id(asn), []).append(rid)
    return {a: exits_in[a] for a in sorted(exits_in)}


def placement_candidates(world):
    """ASes containing at least one exit relay, sorted."""
    return list(exits_by_as(world))


def check_server_count(k, candidates):
    """Raises ValueError unless k servers can be placed on `candidates`."""
    if not candidates:
        raise ValueError("no AS contains an exit relay")
    if not 1 <= k <= len(candidates):
        raise ValueError(f"k must be in [1, {len(candidates)}], got {k}")


def placement_row(sampler, world, client, guards, exits_in):
    """One client's best first-last probability per candidate AS: the
    minimum over (its guards) x (the exits in that AS), on the client's
    sampler.  `exits_in` is `exits_by_as(world)`."""
    client = _client_as(client)
    first_cols = {g: _end_column(sampler, world, client, g) for g in guards}
    row = {}
    for cand, exits in exits_in.items():
        cand_best = np.inf
        for e in exits:
            last = _end_column(sampler, world, cand, e)
            for g in guards:
                if g == e:
                    continue
                p = float((first_cols[g] & last).mean())
                if p < cand_best:
                    cand_best = p
        row[cand] = cand_best
    return row


def greedy_placement(best, clients, candidates, k):
    """Greedy rounds over `best` ({client: placement row}).

    A client's probability for a chosen set is its minimum row entry over
    that set; it only improves as ASes are added, so each round keeps the
    running minimum and picks the AS whose addition gives the lowest mean.
    """
    check_server_count(k, candidates)
    chosen = []
    current = {client: np.inf for client in clients}
    rounds = []
    for _ in range(k):
        scored = []
        for cand in candidates:
            if cand in chosen:
                continue
            mean = float(np.mean([min(current[c], best[c][cand])
                                  for c in clients]))
            scored.append((mean, cand))
        mean, pick = min(scored)
        chosen.append(pick)
        current = {c: min(current[c], best[c][pick]) for c in clients}
        rounds.append(dict(current))
    return PlacementResult(chosen_ases=tuple(chosen), rounds=tuple(rounds))


def place_servers(bbn, world, clients, k, n=100_000, seed=0, guard_count=3):
    """Greedy placement of k servers over exit-hosting ASes: one
    `placement_row` per client, on its own sampler and guards, then
    `greedy_placement` over the rows."""
    clients = [_client_as(c) for c in clients]
    exits_in = exits_by_as(world)
    check_server_count(k, exits_in)
    best = {}
    for client in clients:
        sampler = Sampler(bbn, n, derive_seed(seed, client))
        guards = select_guards(bbn, world, client, count=guard_count,
                               sampler=sampler)
        best[client] = placement_row(sampler, world, client, guards, exits_in)
    return greedy_placement(best, clients, list(exits_in), k)
