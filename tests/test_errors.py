"""The class of an error is the one rule that sets the CLI's exit code: a
scan for stray stdlib error types in the package, and a property that
mutates small valid input files and holds every verb that reads them to
exit 0, 2, 3 or 4."""

import ast
import contextlib
import copy
import dataclasses
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import tortrust
from tortrust import (beliefs, bbn, cli, datasets, editor, experiment,
                      ontology, world)
from tortrust.cli import main
from tortrust.errors import (InvalidInputError, JsonSyntaxError, ParseError,
                             TrustModelError, UnknownIdError)
from tortrust.files import json_text
from tortrust.ontology import default_ontology, ontology_to_dict
from tortrust.validation import REQUIRED, VALUE_KINDS
from tortrust.world import load_world

from conftest import row_world_dict

SRC = os.path.dirname(tortrust.__file__)
EXPR = "relay:fp_0000 or not vlink:as1000-relay:fp_0001"
BUNDLE_FILES = ("as_clusters.jsonl", "as_paths.jsonl", "consensus.jsonl",
                "geo.jsonl", "ixp_clusters.jsonl", "uptime.jsonl")


def test_package_constructs_no_bare_value_or_key_error():
    """Every input check raises a package error, whose class sets the exit
    code; a bare ValueError or KeyError would read as a bug."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in ("ValueError",
                                                         "KeyError")]
    assert found == []


def test_error_classes_hold_their_exit_codes():
    assert issubclass(JsonSyntaxError, json.JSONDecodeError)
    assert (ParseError.exit_code, JsonSyntaxError.exit_code) == (2, 2)
    assert InvalidInputError.exit_code == UnknownIdError.exit_code == 3
    assert TrustModelError.exit_code == 1
    error = UnknownIdError("unknown node 'x'")
    assert isinstance(error, KeyError) and isinstance(error, ValueError)
    assert str(error) == "unknown node 'x'"


# --- small valid inputs ------------------------------------------------------

@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The parsed contents of one small valid input of each kind, and the
    paths of the valid files.  The CLI writes the world and the edited
    world in format 2; "rows" is the same world in the row format."""
    root = tmp_path_factory.mktemp("valid")
    paths = {kind: str(root / name) for kind, name in (
        ("bundle", "bundle"), ("world", "world.json"), ("doc", "doc.json"),
        ("edited", "edited.json"), ("bbn", "bbn.json"), ("rows", "rows.json"),
        ("ontology", "ontology.json"), ("config", "config.json"))}
    for argv in (
            ["world", "synth", "--seed", "7", "--out", paths["bundle"],
             "--n-as", "6", "--n-ixp", "1", "--n-relays", "6",
             "--family-sizes", "2", "--n-epochs", "3"],
            ["world", "build", "--datasets", paths["bundle"],
             "--out", paths["world"]],
            ["beliefs", "the-man", "--world", paths["world"],
             "--out", paths["doc"]],
            ["beliefs", "apply", "--doc", paths["doc"], "--world",
             paths["world"], "--out", paths["edited"]],
            ["bbn", "compile", "--edited", paths["edited"], "--doc",
             paths["doc"], "--out", paths["bbn"]]):
        assert main(argv) == 0
    with open(paths["rows"], "w", encoding="utf-8") as fh:
        world = load_world(paths["world"])
        fh.write(json_text(row_world_dict(world.instances,
                                          world.relationships)))
    contents = {kind: _read(paths[kind])
                for kind in ("world", "rows", "doc", "edited", "bbn")}
    contents["bundle"] = {}
    for name in BUNDLE_FILES:
        with open(os.path.join(paths["bundle"], name), encoding="utf-8") as fh:
            contents["bundle"][name] = [json.loads(line) for line in fh]
    contents["ontology"] = json.loads(json.dumps(
        ontology_to_dict(default_ontology())))
    contents["config"] = {
        "world": paths["world"], "adversary": paths["doc"],
        "clients": ["as:1000", "as:1002"], "destination_as": "as:1005",
        "n_samples": 8, "seed": 1, "k_servers": 1, "guard_count": 1}
    contents["expr"] = EXPR
    for kind in ("ontology", "config"):
        with open(paths[kind], "w", encoding="utf-8") as fh:
            json.dump(contents[kind], fh)
    out = tmp_path_factory.mktemp("mutated")
    assert main(["experiment", "run", "--config", paths["config"],
                 "--out", str(out / "table.csv")]) == 0
    return contents, paths, str(out)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# The verbs that read each kind of input; "{kind}" stands for the path of
# the input of that kind, the mutated one among them.
VERBS = {
    "world": [["world", "validate", "--world", "{world}"],
              ["beliefs", "apply", "--doc", "{doc}", "--world", "{world}",
               "--out", "{out}"],
              ["beliefs", "the-man", "--world", "{world}", "--out", "{out}"],
              ["experiment", "run", "--config", "{config}"]],
    "ontology": [["world", "validate", "--world", "{world}", "--ontology",
                  "{ontology}"],
                 ["world", "build", "--datasets", "{bundle}", "--ontology",
                  "{ontology}", "--out", "{out}"],
                 ["beliefs", "check", "--doc", "{doc}", "--ontology",
                  "{ontology}"]],
    "doc": [["beliefs", "check", "--doc", "{doc}"],
            ["beliefs", "check", "--doc", "{doc}", "--world", "{world}"],
            ["beliefs", "apply", "--doc", "{doc}", "--world", "{world}",
             "--out", "{out}"],
            ["bbn", "compile", "--edited", "{edited}", "--doc", "{doc}",
             "--out", "{out}"],
            ["experiment", "run", "--config", "{config}"]],
    "bundle": [["world", "build", "--datasets", "{bundle}", "--out", "{out}"]],
    "edited": [["bbn", "compile", "--edited", "{edited}", "--out", "{out}"],
               ["bbn", "compile", "--edited", "{edited}", "--doc", "{doc}",
                "--out", "{out}"]],
    "bbn": [["bbn", "sample", "--bbn", "{bbn}", "--n", "16", "--seed", "1",
             "--out", "{out}"],
            ["bbn", "marginals", "--bbn", "{bbn}", "--n", "16", "--seed",
             "1"],
            ["bbn", "event", "--bbn", "{bbn}", "--expr={expr}", "--n", "16",
             "--seed", "1"],
            ["bbn", "exact", "--bbn", "{bbn}"]],
    "config": [["experiment", "run", "--config", "{config}"]],
    "expr": [["bbn", "event", "--bbn", "{bbn}", "--expr={expr}", "--n", "16",
              "--seed", "1"]],
}
VERBS["rows"] = [[a.replace("{world}", "{rows}") for a in verb]
                 for verb in VERBS["world"]]


# --- the format tables -------------------------------------------------------

# Each kind of input: the name of its file in messages, the exit code of a
# field of the wrong kind, and the table of its fields.  The belief rows'
# slot kinds and a bundle's records are added below.
FORMATS = {
    "world": ("world file", 3, world._COLUMN_FIELDS),
    "rows": ("world file", 3, world._ROW_FIELDS),
    "ontology": ("ontology file", 3, ontology._ONTOLOGY_FIELDS),
    "bbn": ("network file", 3, bbn._NETWORK_FIELDS),
    "edited": ("edited world file", 3,
               {**world._COLUMN_FIELDS, **editor._EDITED_FIELDS}),
    "doc": ("belief document", 2, beliefs._DOCUMENT_FIELDS),
    "config": ("experiment config", 2, experiment.CONFIG_FIELDS),
}
# A value of each kind, and an empty list of records.
VALID = {"a string": "x", "an integer": 0, "a number": 0,
         "a probability": 0, "a boolean": False, "a list": [],
         "an object": {}, "a list of strings": [], "a list of integers": [],
         "a list of probabilities": [], "an object of objects": {}}


def _fields(table):
    """(field, (kind, default)) of a table of an object or of an array."""
    if isinstance(table, tuple):
        return [(slot, (kind, None)) for slot, kind in table]
    return list(table.items())


def _minimal(table):
    """A record of `table` holding only its required fields."""
    if isinstance(table, tuple):
        return [VALID[kind] for _, kind in table]
    return {field: VALID.get(kind, []) for field, (kind, default) in
            _fields(table) if default is REQUIRED}


def _records(target, where, table, top=(), steps=(), name=None):
    """(target, top, steps, table, name) of `table` and of every list of
    records nested in it: `steps` are the (field, table) of the lists that
    lead from the object at path `top` to one record, named `name`."""
    yield target, list(top), list(steps), table, name or where
    for field, (kind, _) in _fields(table):
        if not isinstance(kind, str):
            at = f"{name}.{field}[0]" if steps else f"{field}[0]"
            yield from _records(target, where, kind, top,
                                [*steps, (field, kind)], at)


def _field_cases():
    """One case per field of every table, and per slot kind of every belief
    row: (target, top, steps, table, name, field, kind)."""
    tables = [record for target, (where, _, table) in FORMATS.items()
              for record in _records(target, where, table)]
    tables += [("doc", ["scale"], [], beliefs._SCALE_FIELDS, "scale"),
               ("doc", ["scale", "mapping"], [], beliefs._MAPPING_FIELDS,
                "scale.mapping")]
    tables += [("bundle", [], [(f"{name}.jsonl", datasets._TABLES[cls])],
                datasets._TABLES[cls], f"{name}.jsonl:1: bad record")
               for name, cls in sorted(datasets._RECORDS.items())]
    for target, top, steps, table, name in tables:
        for field, (kind, _) in _fields(table):
            if field != "format":       # the world file's format key
                yield pytest.param(target, top, steps, table, name, field,
                                   kind, id=f"{target}-{name}-{field}")
    for key, tags in (("structural", beliefs.STRUCTURAL_TAGS),
                      ("trust", beliefs.TRUST_TAGS)):
        for row in tags.values():
            fields = iter(dataclasses.fields(row.cls))
            for slot, kind in enumerate(row.slots):
                if isinstance(kind, tuple):
                    continue
                field = next(fields).name
                if beliefs._SLOTS[kind].check:
                    yield pytest.param(
                        "doc", [key], slot, row, f"{key}[0]", field,
                        beliefs._SLOTS[kind].check[0],
                        id=f"doc-{key}[0]-{row.tag}-{field}")


def _belief_row(row, slot, wrong):
    """A `row` belief whose slot `slot` holds `wrong`, its other slots of
    their kinds."""
    filler = {"trust value": "U", "attribute value": 1, "predicate": "x"}
    return [row.tag] + [
        wrong if k == slot else kind[0] if isinstance(kind, tuple)
        else filler.get(kind) or VALID[beliefs._SLOTS[kind].check[0]]
        for k, kind in enumerate(row.slots)]


FIELD_CASES = list(_field_cases())


@pytest.mark.parametrize("target, top, steps, table, name, field, kind",
                         FIELD_CASES)
def test_a_field_of_the_wrong_kind_exits_with_its_format_code(
        inputs, target, top, steps, table, name, field, kind):
    """For every table and every field, a value of the wrong kind exits
    with the code of its format and the one message shape.  `steps` lead
    from the object at path `top` to the record, made of required fields
    only; for a belief row, `steps` is the slot."""
    contents, paths, out = inputs
    expected = kind if isinstance(kind, str) else "a list"
    wrong, named = ("x", "a string") if VALUE_KINDS[expected](5) \
        else (5, "an integer")
    mutated = copy.deepcopy(contents[target])
    record = mutated
    for key in top:
        record = record[key]
    if isinstance(steps, int):
        record[:] = [_belief_row(table, steps, wrong)]
    else:
        for key, sub in steps:
            record[key] = [_minimal(sub)]
            record = record[key][0]
        if isinstance(record, list):
            record[[slot for slot, _ in table].index(field)] = wrong
        else:
            record[field] = wrong
    code = FORMATS[target][1] if target in FORMATS else 2
    assert run_cli(_argv(VERBS[target][0],
                         _write_mutated(target, mutated, paths, out), out)) \
        == (code, f"error: {name}: {field!r} must be {expected}, not "
                  f"{named}\n")


# --- mutations ---------------------------------------------------------------

class Raw(str):
    """JSON text written into a file as it is, not as a string."""


def _resolve(value, path):
    """(container, key) that `path` leads to in `value`: an int step picks
    a key or index modulo the container's size, a str step names a key
    (a new one only as the last step).  The walk stops early where no step
    fits."""
    container, key = None, None
    for i, step in enumerate(path):
        target = value if container is None else container[key]
        if isinstance(step, str):
            if not isinstance(target, dict) or (
                    step not in target and i < len(path) - 1):
                break
            container, key = target, step
        elif isinstance(target, (dict, list)) and target:
            keys = sorted(target) if isinstance(target, dict) \
                else range(len(target))
            container, key = target, keys[step % len(target)]
        else:
            break
    return container, key


REJECTED = object()     # what `_mutate` returns for an op that does not fit


def _mutate(value, path, op):
    """`value` with `op` applied where `path` leads, or REJECTED when the
    op does not fit the value found there."""
    root = {"root": copy.deepcopy(value)}
    container, key = _resolve(root["root"], path)
    if container is None:
        container, key = root, "root"
    kind = op[0]
    if kind not in ("set", "every") and isinstance(container, dict) \
            and key not in container:
        return REJECTED
    if kind == "drop":
        del container[key]
    elif kind == "set":
        container[key] = op[1]
    elif kind == "append":
        target = container[key]
        if not isinstance(target, list):
            return REJECTED
        target.append(op[1])
    elif kind == "every":           # every object's op[1] field
        _set_every(root, op[1], op[2])
    else:                           # ("nest", how, depth)
        _, how, depth = op
        old = container[key]
        if how == "json":
            container[key] = Raw("[" * depth + _render(old) + "]" * depth)
        elif not isinstance(old, str):
            return REJECTED
        else:
            container[key] = ("not " * depth + old if how == "not"
                              else "(" * depth + old + ")" * depth)
    return root.get("root", {})


def _set_every(value, field, new):
    if isinstance(value, dict):
        for key in value:
            if key == field:
                value[key] = new
            else:
                _set_every(value[key], field, new)
    elif isinstance(value, list):
        for item in value:
            _set_every(item, field, new)


def _render(value):
    """JSON text of `value`, with each Raw part written as it is."""
    raws = []

    def mark(v):
        if isinstance(v, Raw):
            raws.append(str(v))
            return f"@@raw{len(raws) - 1}@@"
        if isinstance(v, dict):
            return {k: mark(x) for k, x in v.items()}
        if isinstance(v, list):
            return [mark(x) for x in v]
        return v
    text = json.dumps(mark(value))
    for i, raw in enumerate(raws):
        text = text.replace(f'"@@raw{i}@@"', raw, 1)
    return text


def _write_mutated(target, mutated, paths, out):
    """The paths of every input, with the mutated one of kind `target`
    written under `out`."""
    paths = dict(paths, expr=EXPR)
    if target == "expr":
        paths["expr"] = mutated if isinstance(mutated, str) \
            else _render(mutated)
        return paths
    if target == "bundle":
        directory = os.path.join(out, "bundle")
        os.makedirs(directory, exist_ok=True)
        for name in BUNDLE_FILES:
            if os.path.exists(os.path.join(directory, name)):
                os.remove(os.path.join(directory, name))
        for name, records in (mutated.items() if isinstance(mutated, dict)
                              else ()):
            lines = records if isinstance(records, list) else [records]
            with open(os.path.join(directory, str(name)), "w",
                      encoding="utf-8") as fh:
                fh.writelines(_render(r) + "\n" for r in lines)
        paths["bundle"] = directory
        return paths
    path = os.path.join(out, f"mutated-{target}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render(mutated))
    paths[target] = path
    if target in ("world", "rows", "doc"):
        config = dict(_read(paths["config"]),
                      **{"adversary" if target == "doc" else "world": path})
        paths["config"] = os.path.join(out, "mutated-config.json")
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    return paths


def _argv(verb, paths, out):
    """`verb` with each "{kind}" replaced by the path of that input, and
    "{out}" by an output path under `out`."""
    return [a.format(**paths, out=os.path.join(out, "out")) for a in verb]


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _check_verbs(target, mutated, paths, out):
    paths = _write_mutated(target, mutated, paths, out)
    for verb in VERBS[target]:
        argv = _argv(verb, paths, out)
        code, err = run_cli(argv)
        assert code in (0, 2, 3, 4), (argv[:2], code, err[-2000:])
        if code:
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            report = re.search(r"^\d+ violation\(s\):$", err, re.M)
            assert len(errors) == 1 or (report and not errors), err[-2000:]


# A value of each kind the tables name, after values of other types.
TYPE_SWAPS = [None, True, "x", 0, 1.5, -1, [], {}, ["x"], [1], {"x": 1}] + [
    VALID[kind] for kind in sorted({case.values[6] for case in FIELD_CASES
                                    if isinstance(case.values[6], str)})]
OUT_OF_RANGE = [-1, 2, 10 ** 400, 1e308, -1e308, 2 ** 63, Raw("1e400"),
                Raw("-1e400"), Raw("1" * 5000), Raw("-" + "9" * 4301)]
# Steps into an input: a position, or a field of any table.
PATHS = st.lists(st.one_of(st.integers(0, 40), st.sampled_from(sorted(
    {case.values[5] for case in FIELD_CASES}))), max_size=6)
OPS = st.one_of(
    st.just(("drop",)),
    st.sampled_from(TYPE_SWAPS).map(lambda v: ("set", v)),
    st.sampled_from(OUT_OF_RANGE).map(lambda v: ("set", v)),
    st.tuples(st.just("nest"), st.sampled_from(["json", "parens", "not"]),
              st.sampled_from([3, 100, 101, 300, 950, 2000, 100_000])))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(target=st.sampled_from(sorted(VERBS)), path=PATHS, op=OPS)
@example(target="world", path=["attributes", 0, "size"],
         op=("set", Raw("1e400")))
@example(target="world", path=["attributes", 0, "size"],
         op=("set", Raw("1" * 5000)))
@example(target="rows", path=["instances", 0, "attributes", "size"],
         op=("set", Raw("1e400")))
@example(target="world", path=["src", 0], op=("set", True))
@example(target="edited", path=["dst", 0], op=("set", 10 ** 400))
@example(target="world", path=["edge_attributes"], op=("append", [0, 0, {}]))
@example(target="world", path=[], op=("nest", "json", 100_000))
@example(target="doc", path=["trust", 0, 1], op=("nest", "parens", 2000))
@example(target="expr", path=[], op=("nest", "not", 3000))
@example(target="expr", path=[], op=("nest", "not", 950))
@example(target="doc", path=["trust"],
         op=("append", ["bu2", "as:1000", "all", 10 ** 400]))
@example(target="bundle", path=["as_paths.jsonl", 0, "ixps"],
         op=("set", [1, "a"]))
@example(target="world", path=[], op=("every", "bandwidth", 1.7e308))
def test_mutated_inputs_never_exit_1(inputs, target, path, op):
    """Every verb that reads a mutated input exits 0, 2, 3 or 4 with one
    `error:` line (or a violation report) on failure, never 1."""
    contents, paths, out = inputs
    if target == "config" and path[:1] == ["n_samples"]:
        assume(op[0] != "set" or not isinstance(op[1], int)
               or op[1] < 1000)     # a size that drives allocation
    mutated = _mutate(contents[target], path, op)
    assume(mutated is not REJECTED)
    if target == "config" and isinstance(mutated, dict):
        n = mutated.get("n_samples")
        assume(not isinstance(n, int) or n < 1000)
    _check_verbs(target, mutated, paths, out)


def _probe(inputs, target, path, op, verb):
    contents, paths, out = inputs
    mutated = _mutate(contents[target], path, op)
    assert mutated is not REJECTED
    return run_cli(_argv(verb, _write_mutated(target, mutated, paths, out),
                         out))


@pytest.mark.parametrize("target, path, op, verb, code, message", [
    ("world", ["attributes", 0, "size"], ("set", Raw("1e400")),
     ["world", "validate", "--world", "{world}"], 2,
     "error: number overflows a float: line 1 column "),
    ("world", ["attributes", 0, "size"],
     ("set", Raw("1" * 5000)), ["world", "validate", "--world", "{world}"], 2,
     "error: integer has more than 4300 digits: line 1 column "),
    ("world", [], ("nest", "json", 100_000),
     ["world", "validate", "--world", "{world}"], 2,
     "error: nesting is too deep: line 1 column "),
    ("doc", ["trust", 0, 1], ("nest", "parens", 2000),
     ["beliefs", "check", "--doc", "{doc}"], 2,
     "error: trust[0]: bad predicate: expression is nested more than 100 "
     "deep (line 1, column 102)"),
    ("bundle", ["as_paths.jsonl", 0, "ixps"], ("set", [1, "a"]),
     ["world", "build", "--datasets", "{bundle}", "--out", "{out}"], 2,
     "error: as_paths.jsonl:1: bad record: 'ixps' must be a list of "
     "integers, not a list holding a string"),
    ("world", [], ("every", "bandwidth", 1.7e308),
     ["experiment", "run", "--config", "{config}"], 3,
     "error: exit bandwidth sum is not finite"),
    ("rows", ["instances", 0, "attributes", "size"], ("set", Raw("1e400")),
     ["world", "validate", "--world", "{rows}"], 2,
     "error: number overflows a float: line 1 column "),
    ("world", ["src", 0], ("set", True),
     ["world", "validate", "--world", "{world}"], 3,
     "error: world file: 'src' must be a list of integers, not a list "
     "holding a boolean"),
    ("edited", ["type_code", 0], ("set", 10 ** 400),
     ["bbn", "compile", "--edited", "{edited}", "--out", "{out}"], 3,
     "error: type_code[0]: 1" + "0" * 400 + " is not a position in "
     "type_names "),
    ("rows", ["relationship"], ("set", []),
     ["world", "validate", "--world", "{rows}"], 3,
     "error: world file: unknown key 'relationship'\n"),
    ("bbn", ["nodes", 0, "absolut"], ("set", 0.5),
     ["bbn", "marginals", "--bbn", "{bbn}", "--n", "16", "--seed", "1"], 3,
     "error: nodes[0]: unknown key 'absolut'\n"),
    ("ontology", ["types", 0, "is_ouput"], ("set", True),
     ["world", "validate", "--world", "{world}", "--ontology",
      "{ontology}"], 3, "error: types[0]: unknown key 'is_ouput'\n"),
    ("world", ["names"], ("drop",),
     ["world", "validate", "--world", "{world}"], 3,
     "error: world file: missing 'names'\n"),
    ("edited", ["note"], ("set", 1),
     ["bbn", "compile", "--edited", "{edited}", "--out", "{out}"], 3,
     "error: edited world file: unknown key 'note'\n"),
])
def test_probes_exit_with_their_code(inputs, target, path, op, verb, code,
                                     message):
    got, err = _probe(inputs, target, path, op, verb)
    assert (got, err.startswith(message)) == (code, True), err[-500:]


def test_deep_event_is_a_bad_event_expression(inputs):
    _, paths, _ = inputs
    code, err = run_cli(["bbn", "event", "--bbn", paths["bbn"], "--expr",
                         "not " * 3000 + "relay:fp_0000", "--n", "16",
                         "--seed", "1"])
    assert code == 3
    assert err.startswith("error: bad event expression: expression is "
                          "nested more than 100 deep (line 1, column 405)")


def test_huge_budget_runs_as_a_full_one(inputs):
    """A `bu2` budget of k = 10**400 scales no edge: `beliefs apply`, `bbn
    compile` and `experiment run` all succeed."""
    contents, paths, out = inputs
    op = ("append", ["bu2", "as:1000", "all", 10 ** 400])
    for verb in (["beliefs", "apply", "--doc", "{doc}", "--world", "{world}",
                  "--out", "{out}"],
                 ["bbn", "compile", "--edited", "{edited}", "--doc", "{doc}",
                  "--out", "{out}"],
                 ["experiment", "run", "--config", "{config}"]):
        assert _probe(inputs, "doc", ["trust"], op, verb) == (0, "")


def test_internal_value_error_exits_1(inputs, monkeypatch):
    """A stdlib ValueError from inside the package is a bug: exit 1."""
    _, paths, _ = inputs

    def broken(path):
        raise ValueError("an internal fault")
    monkeypatch.setattr(cli, "load_world", broken)
    code, err = run_cli(["world", "validate", "--world", paths["world"]])
    assert (code, err) == (1, "error: an internal fault\n")
