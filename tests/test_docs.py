"""The README's Python examples run, it names only real CLI flags and
the network file's real fields, and every public name of the package has
a reader outside the tests."""

import ast
import os
import re

import tortrust
from tortrust import bbn
from tortrust.cli import _COMMANDS
from tortrust.validation import REQUIRED

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_readme_python_examples_run(capsys):
    """The Library block builds `edited` and `bbn`; the path-selection
    block, which comes earlier in the README, reads them."""
    before, library = _readme().split("\n## Library\n", 1)
    path_selection, = _python_blocks(before)
    library, = _python_blocks(library.split("\n## ", 1)[0])
    namespace = {}
    exec(compile(library, "README.md: Library", "exec"), namespace)
    exec(compile(path_selection, "README.md: path selection", "exec"),
         namespace)
    assert len(namespace["placement"].chosen_ases) == 3
    assert capsys.readouterr().out.startswith("as:1000 ")


def test_readme_names_only_real_cli_flags():
    """Every `--flag` the README names is an option of some verb, apart
    from pip's `--no-build-isolation`."""
    options = {flag for _, _, verbs in _COMMANDS
               for _, _, _, verb_options in verbs
               for flag, _ in verb_options}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme()))
    assert sorted(named - options - {"--no-build-isolation"}) == []


def _field_names(table):
    """{name: required} of every field of a field table, of the tables
    nested in it and of the slots of its arrays, which a row names but
    does not mark required."""
    if isinstance(table, tuple):
        return {slot: False for slot, _ in table}
    names = {}
    for field, (kind, default) in table.items():
        names[field] = default is REQUIRED
        if not isinstance(kind, str):
            names.update(_field_names(kind))
    return names


def test_readme_network_file_rows_name_the_table_fields():
    """Each network-file row of the README's format table names exactly
    the fields of its layout's table, nested `parents` slots included, in
    backticks, and marks bold exactly the required ones."""
    rows = {line.split("|")[1].strip(): line
            for line in _readme().splitlines()
            if line.startswith("| network file")}
    tables = {"network file, format 2": bbn._NETWORK_FIELDS,
              "network file, pair layout": bbn._PAIR_FIELDS}
    assert sorted(rows) == sorted(tables)
    for label, table in tables.items():
        fields = _field_names(table)
        named = {name for span in re.findall(r"`([^`]*)`", rows[label])
                 for name in re.findall(r"\w+", span)}
        bold = set(re.findall(r"\*\*`(\w+)`\*\*", rows[label]))
        assert named == set(fields), label
        assert bold == {name for name, required in fields.items()
                        if required}, label


def test_every_public_name_has_a_reader():
    """Each public top-level function or class in the package is read
    somewhere in the package, exported in `tortrust.__all__` or named in
    the README: no public name exists only for the tests."""
    src = os.path.dirname(tortrust.__file__)
    defined, read = [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defined += [(name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    readers = read | set(tortrust.__all__) | set(re.findall(r"\w+",
                                                            _readme()))
    assert [(module, name) for module, name in defined
            if name not in readers] == []
