"""Belief documents: structural edits plus trust statements.

A document is a JSON file with keys `scale`, `structural`, `trust`.
Structural beliefs are ordered tuples (arrays) that edit the world; trust
beliefs attach probabilities.  Tuple tags:

    structural: ["ut", tname, struct_req, struct_opt]
                ["inst", type_name, data, id]            (extra fields ignored)
                ["rminst", id]
                ["rel", parent, child]
                ["rmrel", parent, child]
                ["attr", id, name, value]
    trust:      [tag, predicate, value]                  relative (any free tag)
                ["abs", predicate, value]                absolute, last match wins
                ["bu1", instance, type_name, k]          budget over one child type
                ["bu2", instance, "all", k]              budget over all children
                ["ce1", instance, predicate, value]      compromise effectiveness
                ["ce2", instance, "top", value]          CE over all children

Trust values are the five-symbol scale (SC, LC, U, LT, ST) or a literal
probability in [0, 1].  Values of relative beliefs with the same tag form
one risk source; absolute beliefs detach a node from its parents.
"""

import json
from dataclasses import dataclass, field

from .errors import BeliefFormatError, DatasetError, PredicateSyntaxError
from .files import write_text
from .ontology import normalize_type_name
from .predicates import Predicate, parse_predicate
from . import ontology as ont

TRUST_SYMBOLS = ("SC", "LC", "U", "LT", "ST")

_DEFAULT_MAPPING = {"SC": 0.999, "LC": 0.85, "U": 0.5, "LT": 0.15, "ST": 0.02}

_RESERVED_TAGS = frozenset({"abs", "bu1", "bu2", "ce1", "ce2",
                            "ut", "inst", "rminst", "rel", "rmrel", "attr"})


@dataclass(frozen=True)
class TrustScale:
    mapping: dict = field(default_factory=lambda: dict(_DEFAULT_MAPPING))
    ce_mapping: dict = None

    def __post_init__(self):
        if self.ce_mapping is None:
            object.__setattr__(self, "ce_mapping", dict(self.mapping))

    def prob(self, value):
        """Probability for a trust symbol or a numeric literal."""
        return _resolve(value, self.mapping)

    def ce_prob(self, value):
        return _resolve(value, self.ce_mapping)


def _resolve(value, mapping):
    if isinstance(value, str):
        if value not in mapping:
            raise BeliefFormatError(f"unknown trust value {value!r}")
        return float(mapping[value])
    return float(value)


def default_scale():
    return TrustScale()


# --- Structural beliefs ------------------------------------------------------

@dataclass(frozen=True)
class NovelType:
    tname: str
    struct_req: tuple = ()   # ((attr name, data type), ...)
    struct_opt: tuple = ()


@dataclass(frozen=True)
class AddInstance:
    type_name: str
    data: dict
    id: str


@dataclass(frozen=True)
class RemoveInstance:
    id: str


@dataclass(frozen=True)
class AddRelationship:
    parent: str
    child: str


@dataclass(frozen=True)
class RemoveRelationship:
    parent: str
    child: str


@dataclass(frozen=True)
class SetAttribute:
    id: str
    name: str
    value: object


# --- Trust beliefs -----------------------------------------------------------

@dataclass(frozen=True)
class Relative:
    tag: str
    pred: Predicate
    v: object


@dataclass(frozen=True)
class Absolute:
    pred: Predicate
    v: object


@dataclass(frozen=True)
class Budget1:
    instance: str
    type_name: str
    k: int


@dataclass(frozen=True)
class Budget2:
    instance: str
    k: int


@dataclass(frozen=True)
class CE1:
    instance: str
    pred: Predicate
    v: object


@dataclass(frozen=True)
class CE2:
    instance: str
    v: object


@dataclass(frozen=True)
class BeliefDocument:
    scale: TrustScale = field(default_factory=default_scale)
    structural: tuple = ()
    trust: tuple = ()


# --- Parsing -----------------------------------------------------------------

def parse_belief_document(text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise BeliefFormatError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BeliefFormatError("document root must be an object")
    for key in data:
        if key not in ("scale", "structural", "trust"):
            raise BeliefFormatError(f"unknown top-level key {key!r}")

    scale = _parse_scale(data.get("scale"))
    structural = tuple(
        _parse_structural(entry, f"structural[{i}]")
        for i, entry in enumerate(_expect_list(data.get("structural", []),
                                               "structural")))
    _check_novel_type_names(structural)
    trust = tuple(
        _parse_trust(entry, f"trust[{i}]", scale)
        for i, entry in enumerate(_expect_list(data.get("trust", []), "trust")))
    return BeliefDocument(scale=scale, structural=structural, trust=trust)


def _expect_list(value, path):
    if not isinstance(value, list):
        raise BeliefFormatError(f"{path} must be an array", path=path)
    return value


def _parse_scale(data):
    if data is None:
        return default_scale()
    if not isinstance(data, dict):
        raise BeliefFormatError("scale must be an object", path="scale")
    mapping = data.get("mapping", dict(_DEFAULT_MAPPING))
    ce_mapping = data.get("ce_mapping")
    for name, m in (("mapping", mapping), ("ce_mapping", ce_mapping)):
        if m is None:
            continue
        if set(m) != set(TRUST_SYMBOLS):
            raise BeliefFormatError(
                f"scale.{name} must map exactly the symbols "
                f"{', '.join(TRUST_SYMBOLS)}", path=f"scale.{name}")
        for sym, p in m.items():
            _check_probability(p, f"scale.{name}.{sym}")
    return TrustScale(mapping=dict(mapping),
                      ce_mapping=None if ce_mapping is None else dict(ce_mapping))


def _check_probability(p, path):
    if not isinstance(p, (int, float)) or isinstance(p, bool) \
            or not 0.0 <= float(p) <= 1.0:
        raise BeliefFormatError(f"{path}: probability must be in [0,1], "
                                f"got {p!r}", path=path)


def _parse_structural(entry, path):
    if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
        raise BeliefFormatError(f"{path}: belief must be a tagged array",
                                path=path)
    tag = entry[0]
    if tag == "ut":
        _arity(entry, 4, path)
        tname, req, opt = entry[1], entry[2], entry[3]
        _expect_str(tname, f"{path}: type name")
        return NovelType(tname=tname,
                         struct_req=_parse_attr_decls(req, f"{path}.struct_req"),
                         struct_opt=_parse_attr_decls(opt, f"{path}.struct_opt"))
    if tag == "inst":
        # (T, D, n, P, C) in full; P and C carry no defined meaning and are
        # accepted but dropped.
        if len(entry) not in (4, 5, 6):
            raise BeliefFormatError(f"{path}: inst needs 4 to 6 fields",
                                    path=path)
        _expect_str(entry[1], f"{path}: type name")
        if not isinstance(entry[2], dict):
            raise BeliefFormatError(f"{path}: instance data must be an object",
                                    path=path)
        _expect_str(entry[3], f"{path}: instance id")
        return AddInstance(type_name=entry[1], data=dict(entry[2]), id=entry[3])
    if tag == "rminst":
        _arity(entry, 2, path)
        _expect_str(entry[1], f"{path}: instance id")
        return RemoveInstance(id=entry[1])
    if tag in ("rel", "rmrel"):
        _arity(entry, 3, path)
        _expect_str(entry[1], f"{path}: parent id")
        _expect_str(entry[2], f"{path}: child id")
        cls = AddRelationship if tag == "rel" else RemoveRelationship
        return cls(parent=entry[1], child=entry[2])
    if tag == "attr":
        _arity(entry, 4, path)
        _expect_str(entry[1], f"{path}: instance id")
        _expect_str(entry[2], f"{path}: attribute name")
        return SetAttribute(id=entry[1], name=entry[2], value=entry[3])
    raise BeliefFormatError(f"{path}: unknown structural tag {tag!r}", path=path)


def _parse_attr_decls(decls, path):
    if decls is None:
        return ()
    if not isinstance(decls, dict):
        raise BeliefFormatError(f"{path} must be null or an object", path=path)
    out = []
    for name in sorted(decls):
        data_type = decls[name]
        if data_type not in ont.DATA_TYPES:
            raise BeliefFormatError(
                f"{path}.{name}: unknown data type {data_type!r}", path=path)
        out.append((name, data_type))
    return tuple(out)


def _check_novel_type_names(structural):
    seen = set()
    for belief in structural:
        if isinstance(belief, NovelType):
            if belief.tname in seen:
                raise BeliefFormatError(
                    f"novel type {belief.tname!r} declared twice")
            seen.add(belief.tname)


def _parse_trust(entry, path, scale):
    if not isinstance(entry, list) or not entry or not isinstance(entry[0], str):
        raise BeliefFormatError(f"{path}: belief must be a tagged array",
                                path=path)
    tag = entry[0]
    if tag == "abs":
        _arity(entry, 3, path)
        return Absolute(pred=_parse_pred(entry[1], path),
                        v=_parse_value(entry[2], path, scale))
    if tag in ("bu1", "bu2"):
        _arity(entry, 4, path)
        _expect_str(entry[1], f"{path}: instance id")
        k = entry[3]
        if not isinstance(k, int) or isinstance(k, bool):
            raise BeliefFormatError(f"{path}: budget k must be an integer",
                                    path=path)
        if tag == "bu1":
            _expect_str(entry[2], f"{path}: type name")
            return Budget1(instance=entry[1], type_name=entry[2], k=k)
        if entry[2] != "all":
            raise BeliefFormatError(f"{path}: bu2 scope must be \"all\"",
                                    path=path)
        return Budget2(instance=entry[1], k=k)
    if tag == "ce1":
        _arity(entry, 4, path)
        _expect_str(entry[1], f"{path}: instance id")
        return CE1(instance=entry[1], pred=_parse_pred(entry[2], path),
                   v=_parse_value(entry[3], path, scale))
    if tag == "ce2":
        _arity(entry, 4, path)
        _expect_str(entry[1], f"{path}: instance id")
        if entry[2] not in ("top", "⊤"):
            raise BeliefFormatError(f"{path}: ce2 scope must be \"top\"",
                                    path=path)
        return CE2(instance=entry[1], v=_parse_value(entry[3], path, scale))
    if tag in _RESERVED_TAGS:
        raise BeliefFormatError(f"{path}: tag {tag!r} is reserved", path=path)
    _arity(entry, 3, path)
    return Relative(tag=tag, pred=_parse_pred(entry[1], path),
                    v=_parse_value(entry[2], path, scale))


def _parse_pred(text, path):
    if not isinstance(text, str):
        raise BeliefFormatError(f"{path}: predicate must be a string", path=path)
    try:
        return parse_predicate(text)
    except PredicateSyntaxError as exc:
        raise BeliefFormatError(f"{path}: bad predicate: {exc}",
                                path=path) from exc


def _parse_value(v, path, scale):
    if isinstance(v, str):
        if v not in TRUST_SYMBOLS:
            raise BeliefFormatError(
                f"{path}: unknown trust value {v!r}", path=path)
        return v
    _check_probability(v, path)
    return float(v)


def _arity(entry, n, path):
    if len(entry) != n:
        raise BeliefFormatError(
            f"{path}: {entry[0]!r} belief needs {n} fields, got {len(entry)}",
            path=path)


def _expect_str(value, what):
    if not isinstance(value, str):
        raise BeliefFormatError(f"{what} must be a string")


# --- Serialization -----------------------------------------------------------

def _structural_to_json(belief):
    if isinstance(belief, NovelType):
        return ["ut", belief.tname,
                dict(belief.struct_req) or None,
                dict(belief.struct_opt) or None]
    if isinstance(belief, AddInstance):
        return ["inst", belief.type_name, belief.data, belief.id]
    if isinstance(belief, RemoveInstance):
        return ["rminst", belief.id]
    if isinstance(belief, AddRelationship):
        return ["rel", belief.parent, belief.child]
    if isinstance(belief, RemoveRelationship):
        return ["rmrel", belief.parent, belief.child]
    if isinstance(belief, SetAttribute):
        return ["attr", belief.id, belief.name, belief.value]
    raise TypeError(f"not a structural belief: {belief!r}")


def _trust_to_json(belief):
    if isinstance(belief, Relative):
        return [belief.tag, belief.pred.text, belief.v]
    if isinstance(belief, Absolute):
        return ["abs", belief.pred.text, belief.v]
    if isinstance(belief, Budget1):
        return ["bu1", belief.instance, belief.type_name, belief.k]
    if isinstance(belief, Budget2):
        return ["bu2", belief.instance, "all", belief.k]
    if isinstance(belief, CE1):
        return ["ce1", belief.instance, belief.pred.text, belief.v]
    if isinstance(belief, CE2):
        return ["ce2", belief.instance, "top", belief.v]
    raise TypeError(f"not a trust belief: {belief!r}")


def serialize_belief_document(doc):
    payload = {
        "scale": {"mapping": doc.scale.mapping,
                  "ce_mapping": doc.scale.ce_mapping},
        "structural": [_structural_to_json(b) for b in doc.structural],
        "trust": [_trust_to_json(b) for b in doc.trust],
    }
    return json.dumps(payload, indent=2) + "\n"


def load_belief_document(path):
    with open(path, encoding="utf-8") as fh:
        return parse_belief_document(fh.read())


def save_belief_document(doc, path):
    write_text(path, serialize_belief_document(doc))


# --- Adversary generator -----------------------------------------------------

def build_the_man(world, p_org=0.1, p_fam_max=0.1, p_fam_min=0.001):
    """Belief document for the single powerful adversary.

    Every relay family is compromised with a probability that falls
    linearly from p_fam_max (never-running family) to p_fam_min (family
    with perfect uptime); every AS and IXP organization independently
    with p_org.
    """
    trust = []
    for fid in world.of_type(ont.RELAY_FAMILY):
        uptime = world.attribute(fid, "uptime")
        if uptime is None:
            raise DatasetError(f"family {fid!r} has no uptime attribute")
        p = p_fam_max - (p_fam_max - p_fam_min) * float(uptime)
        trust.append(Absolute(pred=parse_predicate(f'id in {{"{fid}"}}'), v=p))
    org_types = (ont.AS_ORGANIZATION, ont.IXP_ORGANIZATION)
    for type_name in org_types:
        if world.of_type(type_name):
            pred = parse_predicate(f"is {normalize_type_name(type_name)}")
            trust.append(Absolute(pred=pred, v=float(p_org)))
    return BeliefDocument(trust=tuple(trust))
