import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tortrust.beliefs import (RELATIVE_ROW, STRUCTURAL_TAGS, TRUST_SYMBOLS,
                              TRUST_TAGS, _SLOTS, Absolute, Budget1, CE2,
                              Relative, TrustScale, belief_to_json,
                              build_the_man, parse_belief_document,
                              serialize_belief_document)
from tortrust.bbn import compile_bbn
from tortrust.editor import apply_structural
from tortrust.errors import BeliefFormatError, DatasetError, EditError
from tortrust.ontology import DATA_TYPES, default_ontology
from tortrust.predicates import IdIn, parse_predicate
from tortrust.world import TypeInstance, World
from tortrust.worldgen import family_uptime


def test_scale_defaults():
    scale = TrustScale()
    assert scale.prob("SC") == 0.999
    assert scale.prob("LC") == 0.85
    assert scale.prob("U") == 0.5
    assert scale.prob("LT") == 0.15
    assert scale.prob("ST") == 0.02
    # ce mapping mirrors the trust mapping unless overridden
    assert scale.ce_prob("LC") == 0.85


def test_scale_accepts_numeric_values():
    scale = TrustScale()
    assert scale.prob(0.37) == 0.37
    assert scale.ce_prob(1.0) == 1.0


def test_scale_custom_ce_mapping():
    scale = TrustScale(ce_mapping={"SC": 0.9, "LC": 0.7, "U": 0.5,
                                   "LT": 0.3, "ST": 0.1})
    assert scale.prob("LC") == 0.85
    assert scale.ce_prob("LC") == 0.7


def test_scale_rejects_unknown_symbol():
    with pytest.raises(BeliefFormatError):
        TrustScale().prob("XX")


def test_corpus_parses(example_doc_text):
    doc = parse_belief_document(example_doc_text)
    assert len(doc.structural) == 5
    assert len(doc.trust) == 14
    tags = [b.tag for b in doc.trust if isinstance(b, Relative)]
    assert "countries-trusted" in tags
    budgets = [b for b in doc.trust if isinstance(b, Budget1)]
    assert budgets == [Budget1("as:1", "VirtualLink", 4)]


def test_corpus_applies_and_compiles(example_doc_text, corpus_world,
                                     caplog):
    """The corpus's novel types are new to the default ontology, so it
    applies to a world holding its ids; each attribute test logs one
    warning with the count of instances lacking the attribute."""
    doc = parse_belief_document(example_doc_text)
    with caplog.at_level("WARNING"):
        bbn = compile_bbn(apply_structural(corpus_world, default_ontology(),
                                           doc), doc.trust, doc.scale)
    absolute = {n.id: n.absolute for n in bbn.nodes if n.absolute is not None}
    assert absolute == {"country:xc": 0.999, "family:fp_bbbb": 0.02,
                        "op:ra": 0.02, "host:h1": 0.02}
    risks = {n.id: n.risks for n in bbn.nodes}
    assert risks["op:rb"] == risks["ixp:ams"] == (0.15,)
    assert risks["pc:1"] == risks["relay:fp_aaaa"] == (0.5,)
    assert risks["relay:fp_bbbb"] == ()
    assert [r.getMessage() for r in caplog.records] == [
        "attribute 'operator' is missing on 17 instance(s)",
        "attribute 'operator' is missing on 17 instance(s)",
        "attribute 'Connection Type' is missing on 18 instance(s)",
        "attribute 'Connection Type' is missing on 18 instance(s)",
        "attribute 'Relay Software' is missing on 17 instance(s)"]


def test_parse_serialize_identity(example_doc_text):
    doc = parse_belief_document(example_doc_text)
    text = serialize_belief_document(doc)
    assert parse_belief_document(text) == doc
    # serialization is a fixed point
    assert serialize_belief_document(parse_belief_document(text)) == text


def _doc(**overrides):
    base = {"scale": {"mapping": {"SC": 0.999, "LC": 0.85, "U": 0.5,
                                  "LT": 0.15, "ST": 0.02}},
            "structural": [], "trust": []}
    base.update(overrides)
    return json.dumps(base)


def test_unknown_top_level_key_rejected():
    with pytest.raises(BeliefFormatError,
                       match="^belief document: unknown key 'extras'$"):
        parse_belief_document(_doc(extras=[]))


def test_scale_must_name_all_five_values():
    with pytest.raises(BeliefFormatError):
        parse_belief_document(json.dumps(
            {"scale": {"mapping": {"SC": 0.9}}, "structural": [],
             "trust": []}))


def test_reserved_tag_rejected_for_relative():
    with pytest.raises(BeliefFormatError, match="reserved"):
        parse_belief_document(_doc(trust=[["inst", "is AS", "U"]]))


def test_probability_range_checked():
    with pytest.raises(BeliefFormatError, match=r"trust\[0\]"):
        parse_belief_document(_doc(trust=[["ops", "is AS", 1.5]]))


def test_bad_predicate_reports_belief_path():
    with pytest.raises(BeliefFormatError, match=r"trust\[1\]"):
        parse_belief_document(_doc(trust=[["abs", "is AS", "U"],
                                          ["abs", "is AS and", "U"]]))


def test_bu2_scope_is_all():
    with pytest.raises(BeliefFormatError, match="bu2"):
        parse_belief_document(_doc(trust=[["bu2", "as:1", "some", 3]]))


def test_ce2_scope_symbol():
    doc = parse_belief_document(_doc(trust=[["ce2", "as:1", "top", "LC"]]))
    assert doc.trust == (CE2("as:1", "LC"),)
    doc2 = parse_belief_document(_doc(trust=[["ce2", "as:1", "⊤", "LC"]]))
    assert doc2.trust == doc.trust


def test_duplicate_novel_type_rejected(small_world, ontology):
    """A novel type declared twice parses; the ontology's duplicate-type
    rule rejects it where the document is applied."""
    doc = parse_belief_document(_doc(structural=[
        ["ut", "Treaty", None, None],
        ["ut", "Treaty", None, None]]))
    with pytest.raises(EditError, match=re.escape(
            "[duplicate-type] type 'Treaty' declared twice")):
        apply_structural(small_world, ontology, doc)


@pytest.mark.parametrize("doc,path", [
    ({"structural": [["ut", "X", {"a": []}, None]]}, "structural[0].struct_req"),
    ({"scale": {"mapping": {"SC": 0.9}}}, "scale.mapping"),
    ({"scale": {"ce_mapping": {"SC": 0.9}}}, "scale.ce_mapping"),
    ({"structural": [["rel", "a", 5]]}, "structural[0]"),
])
def test_malformed_entry_names_its_path(doc, path):
    with pytest.raises(BeliefFormatError) as info:
        parse_belief_document(json.dumps(doc))
    assert str(info.value).startswith(path)


def test_serializer_refuses_what_is_not_a_belief():
    with pytest.raises(TypeError, match="not a belief"):
        belief_to_json(("abs", "is AS", "U"))


# --- the tag table -----------------------------------------------------------

def test_each_row_fills_every_field_of_its_class():
    rows = [*STRUCTURAL_TAGS.values(), *TRUST_TAGS.values()]
    for row in rows:
        filled = [kind for kind in row.slots if not isinstance(kind, tuple)]
        assert len(filled) == len(fields(row.cls)), row
    # a relative belief's free tag fills its first field
    assert len(RELATIVE_ROW.slots) + 1 == len(fields(RELATIVE_ROW.cls))
    assert len({row.cls for row in rows + [RELATIVE_ROW]}) == len(rows) + 1
    # every slot kind a row names has its one entry in the slot table
    assert {kind for row in rows + [RELATIVE_ROW] for kind in row.slots
            if not isinstance(kind, tuple)} == set(_SLOTS)


_TRUST_VALUES = st.recursive(
    st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(TRUST_SYMBOLS),
    lambda inner: st.lists(inner, max_size=2), max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(_TRUST_VALUES)
@example(1.5)
@example(True)
@example("sc")
def test_a_trust_slot_keeps_the_scale_rule(v):
    """A trust slot is rejected if and only if the scale cannot resolve its
    value, with the scale's message after the slot's place."""
    text = json.dumps({"trust": [["abs", "is AS", v]]})
    try:
        TrustScale().prob(v)
    except BeliefFormatError as exc:
        with pytest.raises(BeliefFormatError,
                           match=f"^{re.escape(f'trust[0]: {exc}')}$"):
            parse_belief_document(text)
    else:
        parse_belief_document(text)


# The array shapes of the module docstring, written out apart from the tag
# table so that a slot moved within a row shows up as a changed document.
_NAME = st.text(max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_ATTR_TYPES = st.none() | st.dictionaries(
    _NAME, st.sampled_from(sorted(DATA_TYPES)), max_size=3)
_PRED = st.sampled_from(["is AS", 'id in {"as:1", "as:2"}',
                         'is AS and attr("size") > 3',
                         "child_count(is VirtualLink) >= 2"])
_VALUE = st.sampled_from(TRUST_SYMBOLS) | st.floats(0, 1) | st.integers(0, 1)
_K = st.integers(-3, 10**12)
_RESERVED = {"ut", "inst", "rminst", "rel", "rmrel", "attr",
             "abs", "bu1", "bu2", "ce1", "ce2"}


def _entry(tag, *slots):
    return st.tuples(st.just(tag) if isinstance(tag, str) else tag,
                     *slots).map(list)


_STRUCTURAL = st.one_of(
    _entry("ut", _NAME, _ATTR_TYPES, _ATTR_TYPES),
    st.tuples(_entry("inst", _NAME, st.dictionaries(_NAME, _JSON, max_size=3),
                     _NAME),
              st.lists(_JSON, max_size=2)).map(lambda t: t[0] + t[1]),
    _entry("rminst", _NAME),
    _entry("rel", _NAME, _NAME),
    _entry("rmrel", _NAME, _NAME),
    _entry("attr", _NAME, _NAME, _JSON))
_TRUST = st.one_of(
    _entry("abs", _PRED, _VALUE),
    _entry("bu1", _NAME, _NAME, _K),
    _entry("bu2", _NAME, st.just("all"), _K),
    _entry("ce1", _NAME, _PRED, _VALUE),
    _entry("ce2", _NAME, st.sampled_from(["top", "⊤"]), _VALUE),
    _entry(st.text(max_size=8).filter(lambda t: t not in _RESERVED),
           _PRED, _VALUE))
_MAPPING = st.fixed_dictionaries({s: st.floats(0, 1) for s in TRUST_SYMBOLS})


def _one_type_each(structural):
    """Drops each novel type declared a second time."""
    seen = set()
    kept = []
    for entry in structural:
        if entry[0] == "ut":
            if entry[1] in seen:
                continue
            seen.add(entry[1])
        kept.append(entry)
    return kept


_DOCUMENTS = st.fixed_dictionaries(
    {"structural": st.lists(_STRUCTURAL, max_size=6).map(_one_type_each),
     "trust": st.lists(_TRUST, max_size=6)},
    optional={"scale": st.fixed_dictionaries(
        {"mapping": _MAPPING}, optional={"ce_mapping": _MAPPING})})


def test_grammar_covers_every_tag():
    assert _RESERVED == set(STRUCTURAL_TAGS) | set(TRUST_TAGS)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_every_tag_round_trips(data):
    doc = parse_belief_document(json.dumps(data))
    text = serialize_belief_document(doc)
    assert parse_belief_document(text) == doc
    assert serialize_belief_document(parse_belief_document(text)) == text


# --- default adversary -------------------------------------------------------

def test_the_man_family_probability_tracks_uptime(small_world, small_bundle,
                                                  the_man_doc):
    families = {}
    for belief in the_man_doc.trust:
        if isinstance(belief, Absolute) and "family:" in belief.pred.text:
            fid = next(iter(
                i for i in small_world.of_type("Relay Family")
                if i in belief.pred.text))
            families[fid] = belief.v
    assert len(families) == len(small_world.of_type("Relay Family"))
    for fid, value in families.items():
        members = tuple(small_world.children(fid))
        uptime = family_uptime(
            small_bundle, tuple(m.split(":", 1)[1] for m in members))
        expected = 0.1 - (0.1 - 0.001) * uptime
        assert math.isclose(value, expected)


def test_the_man_targets_organizations(small_world, the_man_doc):
    org_beliefs = [b for b in the_man_doc.trust
                   if isinstance(b, Absolute) and "Organization" in b.pred.text]
    assert len(org_beliefs) == 2  # one per organization kind present
    assert all(b.v == 0.1 for b in org_beliefs)


def test_the_man_requires_uptime_data(small_world):
    from tortrust.datasets import DatasetBundle
    from tortrust.worldgen import build_world
    from tortrust.ontology import default_ontology
    from tortrust.datasets import RelayRecord
    bundle = DatasetBundle(consensus=(
        RelayRecord("fp_a", 65001, guard=True, ip="10.0.0.1"),
        RelayRecord("fp_b", 65002, exit=True, ip="10.1.0.1")))
    world = build_world(default_ontology(), bundle)
    with pytest.raises(DatasetError):
        build_the_man(world)


@pytest.mark.parametrize("option,value", [
    ("p_org", 1.5), ("p_org", -0.1), ("p_fam_max", 2), ("p_fam_min", -1e-9),
    ("p_fam_min", float("nan")), ("p_org", True), ("p_org", "0.1")])
def test_the_man_rejects_an_option_outside_the_unit_interval(small_world,
                                                             option, value):
    with pytest.raises(ValueError, match=f"^{option} must be a number in"):
        build_the_man(small_world, **{option: value})


@pytest.mark.parametrize("uptime", [1.5, -0.5, "0.5", True, None])
def test_the_man_rejects_a_family_uptime_outside_the_unit_interval(uptime):
    from tortrust.world import TypeInstance, World
    world = World([TypeInstance("family:a", "Relay Family",
                                {"uptime": uptime})])
    error = DatasetError if uptime is None else ValueError
    with pytest.raises(error, match="family 'family:a'"):
        build_the_man(world)


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("family:fp\tab")
@example('family:fp"q')
@example("family:fp\\x")
@example("family:\U0001f600")
def test_the_man_family_predicate_is_its_id(fid):
    """Whatever text a family id holds, the-man's belief on that family
    parses to `id in` that one id, and its document round-trips."""
    doc = build_the_man(World([TypeInstance(fid, "Relay Family",
                                            {"uptime": 0.5})]))
    belief, = doc.trust
    assert belief.pred.root == IdIn(frozenset({fid}))
    assert parse_predicate(belief.pred.text) == belief.pred
    assert parse_belief_document(serialize_belief_document(doc)) == doc


def test_the_man_in_range_options_parse_back(small_world):
    doc = build_the_man(small_world, p_org=1, p_fam_max=0, p_fam_min=1.0)
    assert parse_belief_document(serialize_belief_document(doc)) == doc
