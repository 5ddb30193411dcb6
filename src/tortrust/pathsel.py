"""Trust-aware path selection and greedy server placement.

Path selection reads a world's relays through one `ConsensusView`, which
`consensus_view(world)`, the only reader of relay attributes, builds and
checks; every step below takes the view, not the world.

An "end" of a circuit is observed when the relay itself or the virtual
link between an AS and that relay is compromised; a first-last correlation
succeeds when both ends are observed in the same joint adversary draw.
Every estimator takes the client's `Sampler`, one batch of joint adversary
draws, so that argmin comparisons between candidate relays are consistent.
Clients and destinations are AS ids such as "as:100".
Guard ranking, circuit choice and placement all read `end_columns` and
the one first-last kernel, `first_last_matrix`.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ontology as ont
from .errors import InvalidInputError
from .validation import check_sample_count, check_seed, is_integer, is_real
from .world import as_id, link_id


@dataclass(frozen=True)
class RelayView:
    id: str
    bandwidth: float       # a finite real number >= 0
    guard: bool
    exit: bool
    family: str
    prefix16: str


@dataclass(frozen=True)
class ConsensusView:
    """A world's relays as path selection reads them; `consensus_view`
    builds it."""
    relays: tuple          # RelayView per relay, in id order
    guards: tuple          # guard relay ids, in id order
    exits: tuple           # exit relay ids, in id order
    as_of: dict            # relay id -> the AS id of its as_number, or None

    @cached_property
    def compatible(self):
        """(len(guards), len(exits)) bool, read-only: may guard g and exit e
        make one circuit?  Their relays, families and /16s all differ."""
        guards = [r for r in self.relays if r.guard]
        exits = [r for r in self.relays if r.exit]
        ok = np.ones((len(guards), len(exits)), dtype=bool)
        for key in ("id", "family", "prefix16"):
            code = {}       # each value of `key` -> a small int
            g, e = (np.array([code.setdefault(getattr(r, key), len(code))
                              for r in relays], dtype=np.intp)
                    for relays in (guards, exits))
            ok &= g[:, None] != e
        ok.flags.writeable = False
        return ok


@dataclass(frozen=True)
class PlacementResult:
    chosen_ases: tuple
    rounds: tuple          # per round: {client as id: probability}


def derive_seed(*parts):
    """Stable 63-bit seed from arbitrary string/int parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _bad(rid, name, rule, value):
    return InvalidInputError(f"relay {rid!r}: {name!r} must be {rule}, not "
                             f"{value!r}")


def consensus_view(world):
    """The world's relays as path selection reads them; the one reader of
    relay attributes.  An absent attribute reads as ip "", bandwidth 0,
    not a guard, not an exit, no AS.  `guard` and `exit` are True, False,
    0 or 1, and `as_number` is an integer n such that "as:n" is an AS of
    the world.  ValueError names the first relay, in id order, whose value
    breaks its attribute's rule."""
    family_of = {child: fam for fam in world.of_type(ont.RELAY_FAMILY)
                 for child in world.children(fam)}
    relays, as_of = [], {}
    for rid in world.of_type(ont.TOR_RELAY):
        attrs = world.attributes.get(rid, {})
        ip = attrs.get("ip", "")
        if not isinstance(ip, str):
            raise _bad(rid, "ip", "a string", ip)
        bandwidth = attrs.get("bandwidth", 0)
        if not is_real(bandwidth) or bandwidth < 0:
            raise _bad(rid, "bandwidth", "a finite real number >= 0",
                       bandwidth)
        guard, exit_ = attrs.get("guard", False), attrs.get("exit", False)
        for name, flag in (("guard", guard), ("exit", exit_)):
            if not (isinstance(flag, int) and flag in (0, 1)):
                raise _bad(rid, name, "a boolean, 0 or 1", flag)
        asn = attrs.get("as_number")
        if "as_number" in attrs and (
                not is_integer(asn) or as_id(asn) not in world
                or world.type_of(as_id(asn)) != ont.AS):
            raise _bad(rid, "as_number", "the number of an AS in the world",
                       asn)
        as_of[rid] = None if asn is None else as_id(asn)
        octets = ip.split(".")
        relays.append(RelayView(
            id=rid, bandwidth=bandwidth, guard=bool(guard),
            exit=bool(exit_), family=family_of.get(rid, rid),
            prefix16=".".join(octets[:2]) if len(octets) == 4 else rid))
    return ConsensusView(relays=tuple(relays),
                         guards=tuple(r.id for r in relays if r.guard),
                         exits=tuple(r.id for r in relays if r.exit),
                         as_of=as_of)


def end_support(cv, index, as_node, relay):
    """The node ids whose OR is the end column of `relay` seen from
    `as_node`, given `index`, the ids of the network: the relay and their
    virtual link if the network holds it, else the relay plus whichever of
    `as_node` and the relay's AS it holds (the two-endpoint path)."""
    vid = link_id(as_node, relay)
    if vid in index:
        return (relay, vid)
    return (relay, *(a for a in (as_node, cv.as_of[relay]) if a in index))


def _end_column(sampler, cv, as_node, relay):
    """Joint indicator: relay compromised or the AS-relay link observed; one
    `Sampler.column` request over the relay's `end_support`."""
    return sampler.column(*end_support(cv, sampler.bbn.index, as_node, relay))


def end_columns(sampler, cv, as_node, relays):
    """(n, len(relays)) bool matrix whose column r is the end column of
    relays[r] as seen from `as_node`."""
    cols = np.empty((sampler.n, len(relays)), dtype=bool)
    for r, relay in enumerate(relays):
        cols[:, r] = _end_column(sampler, cv, as_node, relay)
    return cols


def first_last_matrix(first, last, guards, exits):
    """P(first[:, g] and last[:, e]) for every guard g and exit e, from
    `end_columns` stacks; inf where guard and exit are one relay.

    The float64 product of 0/1 columns sums integers no larger than n, so
    each count is exact and count / n equals `(a & b).mean()` bit for bit.
    """
    counts = first.T.astype(np.float64) @ last.astype(np.float64)
    p = counts / first.shape[0]
    p[np.asarray(guards, dtype=str)[:, None]
      == np.asarray(exits, dtype=str)] = np.inf
    return p


def check_guard_count(cv, count):
    """Raises ValueError unless `count` guards can be selected."""
    if not 1 <= count <= len(cv.guards):
        raise InvalidInputError(f"guard count must be in [1, "
                                f"{len(cv.guards)}], got {count}")


def select_guards(sampler, cv, client, count=3):
    """The `count` guards with smallest exposure; ties break on id."""
    check_guard_count(cv, count)
    exposure = end_columns(sampler, cv, client, cv.guards).mean(axis=0)
    ranked = sorted(zip(exposure.tolist(), cv.guards))
    return [g for _, g in ranked[:count]]


def select_circuit(sampler, cv, client, guards, destination_as):
    """Argmin of first-last probability over guards x all exit relays;
    ties break on guard id, then exit id."""
    if not guards:
        raise InvalidInputError("no guards supplied")
    if not cv.exits:
        raise InvalidInputError("world has no exit relays")
    guards, exits = sorted(guards), list(cv.exits)
    p = first_last_matrix(end_columns(sampler, cv, client, guards),
                          end_columns(sampler, cv, destination_as, exits),
                          guards, exits)
    # Rows and columns are in id order, so the first minimum in row-major
    # order is the (p, guard, exit) minimum.
    g, e = np.unravel_index(np.argmin(p), p.shape)
    if p[g, e] == np.inf:
        raise InvalidInputError("no guard-exit pair with distinct relays")
    return guards[g], exits[e], float(p[g, e])


# --- Tor's default selection (bandwidth-weighted baseline) -------------------

def draw_default_circuits(cv, n, seed):
    """n bandwidth-weighted draws as (positions in `cv.guards`, positions in
    `cv.exits`), exit first, guard excluding the exit's relay, family and
    /16; `n` and `seed` follow the Sampler's rules."""
    n = check_sample_count(n, f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(np.random.SeedSequence([check_seed(seed)]))
    exits = [r for r in cv.relays if r.exit]
    guards = [r for r in cv.relays if r.guard]
    if not exits:
        raise InvalidInputError("no exit relays in consensus")
    if not guards:
        raise InvalidInputError("no guard relays in consensus")
    exit_w = np.array([r.bandwidth for r in exits], dtype=float)
    guard_w = np.array([r.bandwidth for r in guards], dtype=float)
    with np.errstate(over="ignore"):    # an overflowing sum is refused
        for what, total in (("exit", exit_w.sum()), ("guard", guard_w.sum())):
            if not np.isfinite(total):
                raise InvalidInputError(f"{what} bandwidth sum is not finite")
    if exit_w.sum() <= 0:
        raise InvalidInputError("exit bandwidth is all zero")
    e_at = rng.choice(len(exits), size=n, p=exit_w / exit_w.sum())
    g_at = np.empty(n, dtype=int)
    for e in np.flatnonzero(np.bincount(e_at)):     # drawn exits, in order
        w = guard_w * cv.compatible[:, e]
        if w.sum() <= 0:
            raise InvalidInputError(
                f"no guard compatible with exit {exits[e].id} has bandwidth")
        mask = e_at == e
        g_at[mask] = rng.choice(len(guards), size=mask.sum(), p=w / w.sum())
    return g_at, e_at


# --- Greedy server placement -------------------------------------------------

def exits_by_as(cv):
    """{AS id: its exit relays} over the ASes holding at least one exit
    relay, in AS id order."""
    exits_in = {}
    for rid in cv.exits:
        if cv.as_of[rid] is not None:
            exits_in.setdefault(cv.as_of[rid], []).append(rid)
    return {a: exits_in[a] for a in sorted(exits_in)}


def check_server_count(k, candidates):
    """Raises ValueError unless k servers can be placed on `candidates`."""
    if not candidates:
        raise InvalidInputError("no AS contains an exit relay")
    if not 1 <= k <= len(candidates):
        raise InvalidInputError(
            f"k must be in [1, {len(candidates)}], got {k}")


def placement_row(sampler, cv, client, guards, exits_in):
    """One client's best first-last probability per candidate AS: the
    minimum over (its guards) x (the exits in that AS), on the client's
    sampler.  `exits_in` is `exits_by_as(cv)`.  An AS whose only pairs
    share one relay reads inf."""
    if not guards:
        raise InvalidInputError("no guards supplied")
    first = end_columns(sampler, cv, client, guards)
    row = {}
    for cand, exits in exits_in.items():
        last = end_columns(sampler, cv, cand, exits)
        row[cand] = float(first_last_matrix(first, last, guards, exits)
                          .min(initial=np.inf))
    return row


def place_servers(best, clients, candidates, k):
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
