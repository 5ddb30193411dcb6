"""numpy is the package's only runtime dependency: the CLI loads no other
third-party library, and no module imports one."""

import ast
import os
import subprocess
import sys

import tortrust

SRC = os.path.dirname(tortrust.__file__)


def test_cli_import_loads_no_networkx():
    """A fresh `import tortrust.cli`, which every verb pays, leaves networkx
    out of `sys.modules`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tortrust.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_package_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "tortrust"}
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(name, module) for module in modules
                      if module.split(".")[0] not in allowed]
    assert found == []
