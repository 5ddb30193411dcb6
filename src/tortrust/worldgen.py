"""Builds the preliminary world from a dataset bundle.

Construction order: relays, families (connected components of mutual family
references), ASes and IXPs, virtual links, organizations, jurisdictions.
Families, organizations and jurisdictions are added by one helper, `group`.
The result is a pure function of (ontology, bundle).
"""

import logging

from . import ontology as ont
from .errors import DatasetError
from .validation import shortest_paths
from .world import (World, as_id, as_org_id, family_id, ixp_id, ixp_org_id,
                    jurisdiction_id, relay_id, vlink_id)

log = logging.getLogger(__name__)


def family_uptime(bundle, family):
    """Fraction of (member, epoch) pairs in which the member was Running."""
    members = set(family)
    if not members:
        raise DatasetError("family_uptime of an empty family")
    if not bundle.uptime:
        raise DatasetError("bundle has no uptime epochs")
    running = sum(len(members.intersection(e.running)) for e in bundle.uptime)
    return running / (len(members) * len(bundle.uptime))


def _mutual_families(consensus):
    """Sorted connected components (networkx's `connected_components`) of
    the mutual-family-reference graph, each walked from its least member."""
    listed = {r.fingerprint: set(r.family) for r in consensus}
    mutual = {fp: [o for o in fam if o in listed and fp in listed[o]]
              for fp, fam in listed.items()}
    families, seen = [], set()
    for fp in sorted(mutual):
        if fp not in seen:
            families.append(sorted(shortest_paths(mutual, fp)))
            seen.update(families[-1])
    return families


def build_world(ontology, bundle):
    """Assemble the system world. See module docstring for the steps."""
    bundle.check()
    instances = []                  # (id, type name, attributes) rows
    parents, children = [], []      # the relationship columns

    def group(gid, type_name, members, attributes):
        """Add group instance `gid` and an edge from it to each member."""
        instances.append((gid, type_name, attributes))
        parents.extend([gid] * len(members))
        children.extend(members)

    # Relays.  Operational fields (bandwidth, flags, ip, as_number) ride
    # along as undeclared attributes so downstream predicates can test them.
    geo_by_entity = {g.entity: g for g in bundle.geo}
    for rec in bundle.consensus:
        attrs = {
            ont.RELAY_SOFTWARE_ATTR: rec.os,
            "bandwidth": rec.bandwidth,
            "guard": 1 if rec.guard else 0,
            "exit": 1 if rec.exit else 0,
            "ip": rec.ip,
            "as_number": rec.as_number,
        }
        geo = geo_by_entity.get(relay_id(rec.fingerprint))
        if geo is not None:
            attrs[ont.PHYSICAL_LOCATION_ATTR] = [geo.lat, geo.lon]
        instances.append((relay_id(rec.fingerprint), ont.TOR_RELAY, attrs))

    # Families.
    for members in _mutual_families(bundle.consensus):
        group(family_id(members), ont.RELAY_FAMILY,
              [relay_id(m) for m in members],
              {"uptime": family_uptime(bundle, members)} if bundle.uptime
              else {})

    # ASes: everything on any path plus every relay's AS.
    asns = {rec.as_number for rec in bundle.consensus}
    for p in bundle.as_paths:
        asns.update((p.src, p.dst, *p.as_path))
    instances += [(as_id(asn), ont.AS, {}) for asn in sorted(asns)]

    # IXPs: everything on any path plus cluster members.
    ixps = {x for p in bundle.as_paths for x in p.ixps}
    ixps.update(x for c in bundle.ixp_clusters for x in c.members)
    for x in sorted(ixps):
        attrs = {}
        geo = geo_by_entity.get(ixp_id(x))
        if geo is not None:
            attrs[ont.PHYSICAL_LOCATION_ATTR] = [geo.lat, geo.lon]
        instances.append((ixp_id(x), ont.IXP, attrs))

    # Virtual links: one per (AS, guard-or-exit relay) pair, parented by the
    # union of on-path ASes and IXPs in both directions.  A missing directed
    # record degrades that direction to the two-endpoint path.
    paths = {(p.src, p.dst): p for p in bundle.as_paths}
    edge_relays = [r for r in bundle.consensus if r.guard or r.exit]
    relay_asns = sorted({r.as_number for r in edge_relays})
    pair_parents = {}
    for src in sorted(asns):
        for dst in relay_asns:
            on_path = set()
            for key in ((src, dst), (dst, src)):
                p = paths.get(key)
                if p is None:
                    on_path.update(as_id(a) for a in key)
                else:
                    on_path.update(as_id(a) for a in p.as_path)
                    on_path.update(ixp_id(x) for x in p.ixps)
            pair_parents[(src, dst)] = sorted(on_path)
    for rec in edge_relays:
        for src in sorted(asns):
            vid = vlink_id(src, rec.fingerprint)
            instances.append((vid, ont.VIRTUAL_LINK, {}))
            on_path = pair_parents[(src, rec.as_number)]
            parents += on_path
            children += [vid] * len(on_path)

    # Organizations.
    for c in bundle.as_clusters:
        for member in c.members:
            if member not in asns:
                raise DatasetError(
                    f"AS cluster {c.org!r} references unknown AS {member}")
        group(as_org_id(c.org), ont.AS_ORGANIZATION,
              [as_id(m) for m in c.members], {})
    for c in bundle.ixp_clusters:
        group(ixp_org_id(c.org), ont.IXP_ORGANIZATION,
              [ixp_id(x) for x in c.members], {})

    # Jurisdictions from geo records that attach to a relay or IXP.
    located = {relay_id(r.fingerprint) for r in bundle.consensus}.union(
        map(ixp_id, ixps))
    countries = {}
    for g in geo_by_entity.values():
        if g.entity in located:
            countries.setdefault(g.country, []).append(g.entity)
        else:
            log.debug("geo record for unknown entity %s ignored", g.entity)
    for cc in sorted(countries):
        group(jurisdiction_id(cc), ont.LEGAL_JURISDICTION,
              sorted(countries[cc]), {})

    ids, types, attributes = zip(*instances) if instances else [()] * 3
    return World.from_columns(ids, types, attributes, parents, children,
                              [{}] * len(parents))
