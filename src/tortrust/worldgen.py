"""Builds the preliminary world from a dataset bundle.

Construction order: relays, families (connected components of mutual family
references), ASes and IXPs, virtual links, organizations, jurisdictions.
The result is a pure function of (ontology, bundle).
"""

import logging

import networkx as nx

from . import ontology as ont
from .errors import DatasetError
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
    """Connected components of the mutual-family-reference graph."""
    listed = {r.fingerprint: set(r.family) for r in consensus}
    g = nx.Graph()
    g.add_nodes_from(listed)
    g.add_edges_from((fp, other) for fp, fam in listed.items()
                     for other in fam
                     if other in listed and fp in listed[other])
    return sorted(sorted(c) for c in nx.connected_components(g))


def build_world(ontology, bundle):
    """Assemble the system world. See module docstring for the steps."""
    bundle.check()
    instances = []                  # (id, type name, attributes) rows
    parents, children = [], []      # the relationship columns

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
        fid = family_id(members)
        attrs = {}
        if bundle.uptime:
            attrs["uptime"] = family_uptime(bundle, members)
        instances.append((fid, ont.RELAY_FAMILY, attrs))
        parents += [fid] * len(members)
        children += map(relay_id, members)

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
        oid = as_org_id(c.org)
        instances.append((oid, ont.AS_ORGANIZATION, {}))
        for member in c.members:
            if member not in asns:
                raise DatasetError(
                    f"AS cluster {c.org!r} references unknown AS {member}")
        parents += [oid] * len(c.members)
        children += map(as_id, c.members)
    for c in bundle.ixp_clusters:
        oid = ixp_org_id(c.org)
        instances.append((oid, ont.IXP_ORGANIZATION, {}))
        parents += [oid] * len(c.members)
        children += map(ixp_id, c.members)

    # Jurisdictions from geo records that attach to a relay or IXP.
    relay_ids = {relay_id(r.fingerprint) for r in bundle.consensus}
    ixp_ids = {ixp_id(x) for x in ixps}
    countries = {}
    for g in geo_by_entity.values():
        if g.entity in relay_ids or g.entity in ixp_ids:
            countries.setdefault(g.country, []).append(g.entity)
        else:
            log.debug("geo record for unknown entity %s ignored", g.entity)
    for cc in sorted(countries):
        jid = jurisdiction_id(cc)
        instances.append((jid, ont.LEGAL_JURISDICTION, {}))
        parents += [jid] * len(countries[cc])
        children += sorted(countries[cc])

    ids, types, attributes = zip(*instances) if instances else [()] * 3
    return World.from_columns(ids, types, attributes, parents, children,
                              [{}] * len(parents))
