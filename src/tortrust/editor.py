"""Applies a belief document's structural part to a world.

The construction sequence declares the novel types first, then applies the
instance, relationship and attribute edits in document order, then attaches
budgets and CE beliefs.  Each edit sees the edits listed before it, so a
relationship must follow the instances it joins, and each edit checks the
ids it names.  The output is an EditedWorld: the new world graph plus
per-node budget and CE attachments, the augmented ontology and the
document's trust scale.  A document without instance, relationship or
attribute edits leaves the world as it is: the EditedWorld holds the input
world itself, with the maps it has already built.

Every EditedWorld made here passes one gate, `_checked`: the ontology, then
the world against it with the user relationships exempt, both into one
report, then the budget and CE beliefs by `resolve_attachments`.  Only the
final world is built, so its constructor rejects a cycle (an EditError
here), and edits that pass through a cycle but end acyclic stand.
`apply_structural` and the edited-world loader both end in the gate; the
loader first checks each key and entry of the file by shape and each user
relationship against the world's relationships.

`resolve_attachments` is the one rule for budget and CE beliefs: their
checks, duplicates, silenced beliefs, scopes and scope overlaps.
The gate and `compile_bbn` each run it once, and an EditedWorld keeps the
beliefs it resolves them to.  Scopes are chosen by `predicates.select`.
"""

import logging
from dataclasses import dataclass, field

from .beliefs import (TRUST_TAGS, AddInstance, AddRelationship, Budget1,
                      Budget2, CE1, CE2, NovelType, RemoveInstance,
                      RemoveRelationship, SetAttribute, TrustScale,
                      belief_to_json, beliefs_from_json, scale_from_json,
                      scale_to_json)
from .errors import EditError, InvalidInputError
from .files import read_json
from .ontology import (AttributeDef, Ontology, TypeDef, USER,
                       ontology_from_dict, ontology_to_dict,
                       validate_ontology)
from .predicates import IsType, select
from .validation import REQUIRED, read_record
from .world import (World, validate_world, world_fields, world_from_fields,
                    world_to_dict)

log = logging.getLogger(__name__)

# Trust beliefs that attach to one instance rather than weight nodes.
ATTACHMENT_BELIEFS = (Budget1, Budget2, CE1, CE2)


@dataclass(frozen=True)
class EditedWorld:
    world: World
    ontology: object
    # NodeId -> tuple of the budget or CE beliefs there, as
    # `resolve_attachments` leaves them: each budget once, silenced ones
    # included, and the CE beliefs that take effect.
    budgets: dict = field(default_factory=dict)
    ce_specs: dict = field(default_factory=dict)
    user_edges: frozenset = frozenset()            # (parent, child) pairs
    # The document's budget and CE beliefs that the editor resolved into
    # `budgets` and `ce_specs`, silenced ones included; compile_bbn skips
    # them in its `trust` argument.
    consumed: frozenset = frozenset()
    # The document's trust scale, which compile_bbn uses unless given one.
    scale: object = field(default_factory=TrustScale)


def children_matching(ew, node_id, pred):
    """Children of node_id satisfying pred, ordered by id."""
    return select(ew.world, pred.root, ew.world.children(node_id))


def apply_structural(world, ontology, doc):
    """Run the construction sequence; raises EditError on any violation.

    A document without instance, relationship or attribute edits leaves
    the world as it is: the edited world is the input world itself, with
    its cached maps."""
    ontology = document_ontology(ontology, doc)
    edits = [b for b in doc.structural if not isinstance(b, NovelType)]
    edited, user_edges = _edit(world, ontology, edits) if edits \
        else (world, set())
    consumed = frozenset(b for b in doc.trust
                         if isinstance(b, ATTACHMENT_BELIEFS))
    return _checked(edited, ontology, user_edges, doc.trust, doc.scale,
                    consumed)


def _checked(world, ontology, user_edges, beliefs, scale,
             consumed=frozenset()):
    """The one gate every EditedWorld of this module passes: the ontology
    and the world, with `user_edges` exempt, go into one report, raised as
    an EditError; then `resolve_attachments` checks the budget and CE
    beliefs among `beliefs`."""
    report = validate_ontology(ontology)
    report.violations += validate_world(
        world, ontology, allowed_edges=user_edges).violations
    if not report.ok:
        raise EditError("edited world is invalid:\n" + report.summary())
    budget_scopes, ce_scopes = resolve_attachments(world, ontology, beliefs)
    return EditedWorld(world=world, ontology=ontology,
                       budgets=_beliefs(budget_scopes),
                       ce_specs=_beliefs(ce_scopes),
                       user_edges=frozenset(user_edges), consumed=consumed,
                       scale=scale)


def _edit(world, ontology, edits):
    """A new world with `edits` applied in order, and the set of user
    edges: added relationships with no ontology edge for their types."""
    types = dict(zip(world.names, map(world.type_names.__getitem__,
                                      world.type_code.tolist())))
    attributes = dict(world.attributes)
    edges = dict.fromkeys(world.edges, {})
    edges.update(world.edge_attributes)
    user_edges = set()

    for belief in edits:
        if isinstance(belief, AddInstance):
            _add_instance(belief, ontology, types, attributes)
        elif isinstance(belief, RemoveInstance):
            _remove_instance(belief, types, edges, user_edges)
        elif isinstance(belief, AddRelationship):
            _add_relationship(belief, ontology, types, edges, user_edges)
        elif isinstance(belief, RemoveRelationship):
            _remove_relationship(belief, edges, user_edges)
        elif isinstance(belief, SetAttribute):
            _set_attribute(belief, types, attributes)
        else:
            raise EditError(f"unknown structural belief {belief!r}")
    try:
        return World.from_columns(
            list(types), list(types.values()),
            list(map(attributes.get, types)), [p for p, _ in edges],
            [c for _, c in edges], list(edges.values())), user_edges
    except InvalidInputError as exc:    # a cycle
        raise EditError(str(exc)) from None


def document_ontology(ontology, doc):
    """`ontology` with the novel types of `doc` declared, unvalidated."""
    novel_types = [b for b in doc.structural if isinstance(b, NovelType)]
    if not novel_types:
        return ontology
    type_defs = []
    for nt in novel_types:
        attrs = tuple(AttributeDef(name, dtype, USER, "required")
                      for name, dtype in nt.struct_req)
        attrs += tuple(AttributeDef(name, dtype, USER, "optional")
                       for name, dtype in nt.struct_opt)
        type_defs.append(TypeDef(name=nt.tname, label=USER, attributes=attrs))
    return Ontology(types=ontology.types + tuple(type_defs),
                    edges=ontology.edges)


def _add_instance(belief, ontology, types, attributes):
    if belief.id in types:
        raise EditError(f"instance id {belief.id!r} already exists")
    resolved = ontology.resolve_type_name(belief.type_name)
    if resolved is None:
        raise EditError(f"instance {belief.id!r} has unknown type "
                        f"{belief.type_name!r}")
    types[belief.id] = resolved
    attributes[belief.id] = belief.data


def _remove_instance(belief, types, edges, user_edges):
    if belief.id not in types:
        raise EditError(f"cannot remove unknown instance {belief.id!r}")
    del types[belief.id]
    for key in [key for key in edges if belief.id in key]:
        del edges[key]
        user_edges.discard(key)


def _add_relationship(belief, ontology, types, edges, user_edges):
    p, c = belief.parent, belief.child
    for node in (p, c):
        if node not in types:
            raise EditError(f"relationship references unknown instance {node!r}")
    if (p, c) in edges:
        return
    edges[(p, c)] = {}
    if not ontology.has_edge(types[p], types[c]):
        # No declared ontology edge: keep it, with default propagation
        # semantics, and exempt it from world validation.
        user_edges.add((p, c))


def _remove_relationship(belief, edges, user_edges):
    key = (belief.parent, belief.child)
    if key not in edges:
        raise EditError(f"cannot remove unknown relationship {key!r}")
    del edges[key]
    user_edges.discard(key)


def _set_attribute(belief, types, attributes):
    if belief.id not in types:
        raise EditError(f"cannot set attribute on unknown instance {belief.id!r}")
    attributes[belief.id] = {**attributes.get(belief.id, {}),
                             belief.name: belief.value}


def resolve_attachments(world, ontology, beliefs):
    """Check the budget and CE beliefs among `beliefs` against `world` and
    `ontology` and resolve them, each with the children it covers:
    ({node: ((budget, children), ...)}, {node: ((CE belief, children),
    ...)}).

    Value-equal duplicates count once.  The last "all" budget on a node
    silences its other budgets: they keep their place, in order, and cover
    no children, so that an edited world's budgets resolved ahead of its
    document's own still leave the document's last bu2 in force.  A top CE
    belief drops the node's other CE beliefs, with a warning.  A bu1 budget
    covers the children of its type, a ce1 belief those passing its
    predicate, bu2 and ce2 all children.
    Raises EditError for an unknown instance, a negative budget, a bu1
    naming no type of `ontology`, two different top CE beliefs on one node,
    and where CE beliefs, or a budget and a CE belief, cover the same child.
    """
    budgets = {}
    ce_specs = {}
    for belief in beliefs:
        if isinstance(belief, (Budget1, Budget2)):
            what, groups = "budget", budgets
        elif isinstance(belief, (CE1, CE2)):
            what, groups = "CE belief", ce_specs
        else:
            continue
        if belief.instance not in world:
            raise EditError(f"{what} targets unknown instance "
                            f"{belief.instance!r}")
        if groups is budgets and belief.k < 0:
            raise EditError(f"budget on {belief.instance!r} has negative k")
        if isinstance(belief, Budget1) and \
                ontology.resolve_type_name(belief.type_name) is None:
            raise EditError(f"budget on {belief.instance!r} names unknown "
                            f"type {belief.type_name!r}")
        groups.setdefault(belief.instance, {})[belief] = None
    budget_scopes = {}
    for node, entries in budgets.items():
        all_budgets = [b for b in entries if isinstance(b, Budget2)]
        live = all_budgets[-1:] or entries
        budget_scopes[node] = tuple(
            (b, _scope(world, node, b) if b in live else ()) for b in entries)
    ce_scopes = {}
    for node, specs in ce_specs.items():
        tops = [s for s in specs if isinstance(s, CE2)]
        if len(tops) > 1:
            raise EditError(f"multiple top CE beliefs on {node!r}")
        if tops and len(specs) > 1:
            log.warning("top CE belief on %s suppresses %d other CE "
                        "beliefs", node, len(specs) - 1)
        scoped = tuple((s, _scope(world, node, s)) for s in tops or specs)
        claimed = set()
        for _, children in scoped:
            for child in children:
                if child in claimed:
                    raise EditError(f"CE predicates on {node!r} overlap at "
                                    f"child {child!r}")
                claimed.add(child)
        overlap = {c for _, children in budget_scopes.get(node, ())
                   for c in children if c in claimed}
        if overlap:
            raise EditError(f"budget and CE beliefs on {node!r} overlap at "
                            f"children {sorted(overlap)[:3]}")
        ce_scopes[node] = scoped
    return budget_scopes, ce_scopes


def _scope(world, node, belief):
    children = world.children(node)
    if isinstance(belief, Budget1):
        return select(world, IsType(belief.type_name), children)
    if isinstance(belief, CE1):
        return select(world, belief.pred.root, children)
    return children


def _beliefs(scopes):
    """{node: beliefs} of resolved {node: ((belief, children), ...)}."""
    return {node: tuple(b for b, _ in scoped)
            for node, scoped in scopes.items()}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def edited_world_to_dict(ew):
    payload = world_to_dict(ew.world)
    payload["ontology"] = ontology_to_dict(ew.ontology)
    for key, beliefs in (("budgets", ew.budgets), ("ce_specs", ew.ce_specs)):
        payload[key] = [belief_to_json(b)
                        for n in sorted(beliefs) for b in beliefs[n]]
    payload["user_relationships"] = sorted(list(e) for e in ew.user_edges)
    payload["scale"] = scale_to_json(ew.scale)
    return payload


# The fields an edited-world file adds to those of its world.
_EDITED_FIELDS = {"ontology": ("an object", REQUIRED),
                  "budgets": ("a list", []), "ce_specs": ("a list", []),
                  "user_relationships": ((("parent", "a string"),
                                          ("child", "a string")), []),
                  "scale": ("an object", None)}


def edited_world_from_dict(data):
    """Parse an edited-world file's dict; without `scale` it gets the
    default scale.  Raises ValueError naming the first malformed key or
    entry, and EditError when a user relationship is not a relationship of
    the world or when the gate rejects the ontology, the world or the
    budget and CE beliefs."""
    fields = read_record(data, {**world_fields(data), **_EDITED_FIELDS},
                         "edited world file", InvalidInputError)
    world = world_from_fields(fields)
    ontology = ontology_from_dict(fields["ontology"])
    attached = []
    for key, kinds, what in (("budgets", (Budget1, Budget2), "budget"),
                             ("ce_specs", (CE1, CE2), "CE belief")):
        for i, belief in enumerate(beliefs_from_json(fields[key], key,
                                                     TRUST_TAGS)):
            if not isinstance(belief, kinds):
                raise InvalidInputError(
                    f"{key}[{i}]: {fields[key][i][0]!r} is not a {what}")
            attached.append(belief)
    user_edges = list(zip(*fields["user_relationships"].values()))
    for i, at in enumerate(world.edge_positions(user_edges).tolist()):
        if at < 0:
            raise EditError(f"user_relationships[{i}]: {user_edges[i]!r} is "
                            "not a relationship of the world")
    return _checked(world, ontology, user_edges, attached,
                    scale_from_json(fields["scale"]))


def load_edited_world(path):
    return edited_world_from_dict(read_json(path))
