import ast
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tortrust
from tortrust.errors import PredicateSyntaxError
from tortrust.predicates import (EventAtom, Or, eval_predicate, parse_event,
                                 parse_predicate, select)
from tortrust.world import RelationshipInstance, TypeInstance, World

WORLD = World(
    instances=(
        TypeInstance("as:1", "AS", {"size": 40, "operator": "AMS-IX"}),
        TypeInstance("as:2", "AS", {"size": 3}),
        TypeInstance("relay:a", "Tor Relay",
                     {"Relay Software": "windows", "bandwidth": 9000}),
        TypeInstance("vlink:as1-relay:a", "Virtual Link"),
    ),
    relationships=(
        RelationshipInstance("as:1", "vlink:as1-relay:a"),
    ))


def ev(text, node):
    return eval_predicate(parse_predicate(text), WORLD, node)


def test_type_test_accepts_identifier_form():
    assert ev("is TorRelay", "relay:a")
    assert not ev("is TorRelay", "as:1")
    assert ev("is VirtualLink", "vlink:as1-relay:a")


def test_id_set_membership():
    assert ev('id in {"as:1", "as:2"}', "as:1")
    assert not ev('id in {"as:1"}', "relay:a")
    assert not ev("id in {}", "as:1")


def test_attribute_comparisons():
    assert ev('attr("size") >= 10', "as:1")
    assert not ev('attr("size") >= 10', "as:2")
    assert ev('attr("Relay Software") = "windows"', "relay:a")
    assert ev('attr("Relay Software") != "linux"', "relay:a")
    assert ev('attr("bandwidth") in {9000, 100}', "relay:a")


def test_missing_attribute_is_false(caplog):
    with caplog.at_level("WARNING"):
        assert not ev('attr("nope") = 1', "as:1")
    assert "nope" in caplog.text


def test_mismatched_comparison_type_is_false():
    assert not ev('attr("size") < "ten"', "as:1")


def test_boolean_operators_and_precedence():
    # not > and > or
    assert ev('is AS and attr("size") >= 10 or is TorRelay', "relay:a")
    assert not ev('is AS and (attr("size") >= 10 or is TorRelay)', "relay:a")
    assert ev("not is AS", "relay:a")
    assert ev("not is AS and not is IXP", "relay:a")


def test_structural_tests_in_trust_context():
    assert ev("has_child(is VirtualLink)", "as:1")
    assert not ev("has_child(is VirtualLink)", "as:2")
    assert ev("has_parent(is AS)", "vlink:as1-relay:a")
    assert ev("child_count(is VirtualLink) >= 1", "as:1")
    assert ev("child_count(is VirtualLink) = 0", "as:2")


def test_unknown_instance_raises():
    with pytest.raises(KeyError):
        ev("is AS", "as:999")


@pytest.mark.parametrize("bad", [
    "",
    "is",
    "id in",
    'attr("x") =',
    "(is AS",
    "is AS extra",
    'child_count(is AS) = -1',
    'attr(size) = 3',        # attr name must be quoted
    'id in {1, 2}',          # id sets hold strings
])
def test_syntax_errors(bad):
    with pytest.raises(PredicateSyntaxError):
        parse_predicate(bad)


def test_error_carries_position():
    with pytest.raises(PredicateSyntaxError, match=re.escape(
            "(line 1, column ")):
        parse_predicate("is AS and and")


# --- grammar fuzz ------------------------------------------------------------

_names = st.sampled_from(["size", "bandwidth", "Relay Software", "operator"])
_strings = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                           exclude_characters='"\\'), max_size=8)
_numbers = st.integers(min_value=-1000, max_value=1000)


def _literal(value):
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


_atoms = st.one_of(
    st.sampled_from(["is AS", "is TorRelay", "is VirtualLink", "is IXP"]),
    st.lists(_strings, max_size=3).map(
        lambda ids: "id in {%s}" % ", ".join(f'"{i}"' for i in ids)),
    st.tuples(_names, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
              st.one_of(_strings, _numbers)).map(
        lambda t: f'attr("{t[0]}") {t[1]} {_literal(t[2])}'),
    st.tuples(_names, st.lists(st.one_of(_strings, _numbers), max_size=3)).map(
        lambda t: f'attr("{t[0]}") in {{{", ".join(map(_literal, t[1]))}}}'),
)

_predicates = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        kids.map(lambda p: f"not ({p})"),
        st.tuples(kids, kids).map(lambda t: f"({t[0]}) and ({t[1]})"),
        st.tuples(kids, kids).map(lambda t: f"({t[0]}) or ({t[1]})"),
    ),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_predicates)
def test_generated_predicates_parse_and_evaluate(text):
    pred = parse_predicate(text)
    # reparsing the stored text reproduces the same tree
    assert parse_predicate(pred.text).root == pred.root
    for node in ("as:1", "relay:a"):
        assert eval_predicate(pred, WORLD, node) in (True, False)


def test_select_is_the_only_selector():
    """Nodes are picked by predicate through `predicates.select` alone:
    outside ontology.py and predicates.py nothing calls `is_type` or
    `eval_predicate`."""
    src = os.path.dirname(tortrust.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name in ("ontology.py",
                                                "predicates.py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            source = fh.read()
        assert not re.search(r"\b(is_type|eval_predicate)\(", source), name


def test_non_ascii_literals():
    assert parse_predicate('attr("city") = "Zürich"').root.value == "Zürich"
    assert parse_predicate('attr("c") = "a\\"b\\u00fc"').root.value == 'a"bü'
    world = World(instances=(TypeInstance("as:ü", "AS", {"city": "Zürich"}),))
    assert eval_predicate(parse_predicate('id in {"as:ü"}'), world, "as:ü")
    assert eval_predicate(parse_predicate('attr("city") = "Zürich"'), world,
                          "as:ü")
    assert parse_event('"as:ü" or as:ö') == Or(
        (EventAtom("as:ü"), EventAtom("as:ö")))
    with pytest.raises(PredicateSyntaxError, match="bad string escape"):
        parse_predicate('attr("c") = "\\x4"')
    with pytest.raises(ValueError, match="bad string escape"):
        parse_event('"\\N{no such name}"')


def test_in_on_an_unhashable_value_is_false(caplog):
    world = World(instances=(
        TypeInstance("as:1", "AS", {"Budget": {"k": 2}}),
        TypeInstance("as:2", "AS", {"Budget": [[1, 2]]}),
        TypeInstance("as:3", "AS", {"Budget": 1})))
    with caplog.at_level("WARNING"):
        assert select(world, parse_predicate('attr("Budget") in {1}').root) \
            == ("as:3",)
    assert [r.getMessage() for r in caplog.records] == [
        "attribute 'Budget' on 2 instance(s) is not comparable with the test"]


def test_one_warning_per_attribute_test(caplog):
    """A whole-world attribute test logs once, counting the instances that
    lack the attribute, not once per instance."""
    with caplog.at_level("WARNING"):
        assert select(WORLD, parse_predicate(
            'attr("size") > 10 or attr("nope") = 1').root) == ("as:1",)
    assert [r.getMessage() for r in caplog.records] == [
        "attribute 'size' is missing on 2 instance(s)",
        "attribute 'nope' is missing on 4 instance(s)"]


def test_evaluate_is_the_only_boolean_evaluator():
    """Only `predicates.evaluate` in the package branches on And, Or or
    Not: predicate masks and event columns share its and/or/not."""
    src = os.path.dirname(tortrust.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "isinstance"
                        and {"And", "Or", "Not"} & {
                            n.id for n in ast.walk(call.args[1])
                            if isinstance(n, ast.Name)}):
                    found.append((name, func.name))
    assert set(found) == {("predicates.py", "evaluate")}


@pytest.mark.parametrize("text, column", [
    ("(" * 101 + "is AS" + ")" * 101, 102),
    ("not " * 101 + "is AS", 405),
    ("has_child(" * 101 + "is AS" + ")" * 101, 1011),
    ("(" * 2000 + "is AS" + ")" * 2000, 102),
])
def test_nesting_past_the_limit_is_a_syntax_error(text, column):
    """Nesting is bounded where it is parsed, so that no later walk of the
    tree runs out of stack."""
    with pytest.raises(PredicateSyntaxError,
                       match=rf"nested more than 100 deep \(line 1, "
                             rf"column {column}\)"):
        parse_predicate(text)
    with pytest.raises(ValueError, match="^bad event expression: "):
        parse_event(text.replace("is AS", "a").replace("has_child", ""))


def test_nesting_at_the_limit_parses():
    assert parse_predicate("(" * 100 + "is AS" + ")" * 100).root.name == "AS"
    assert parse_event("not " * 100 + "a") is not None


def test_number_of_too_many_digits_is_a_syntax_error():
    with pytest.raises(PredicateSyntaxError,
                       match=r"number has too many digits \(line 1, column "
                             r"13\)"):
        parse_predicate('attr("x") = ' + "1" * 5000)
