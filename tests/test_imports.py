"""Import hygiene of the package modules, read with the stdlib ``ast``:
no module imports a name it never uses, and none imports an
underscore name from another package module; and ``import gsds.cli``
loads nothing from outside the package and the standard library, and
neither ``argparse`` nor ``gettext``."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gsds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports(tree):
    """(bound name, imported name, from a package module) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, False
        elif isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "gsds"
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, internal


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [bound for bound, _, _ in imports(tree) if bound not in used]


def private_imports(source):
    return [name for _, name, internal in imports(ast.parse(source))
            if internal and name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_the_package(path):
    assert private_imports(path.read_text()) == []


def test_the_checks_find_unused_and_private_imports():
    source = ("import json\nimport os.path\nfrom .polyring import _rows, parse_poly\n"
              "from gsds.files import _DEPTH\nfrom ._x import y\nparse_poly(os.sep, y)\n")
    assert unused_imports(source) == ["json", "_rows", "_DEPTH"]
    assert private_imports(source) == ["_rows", "_DEPTH"]


def test_cli_imports_only_the_package_and_the_standard_library():
    # modules that site or .pth files load before the import are diffed away
    code = ("import json, sys; before = set(sys.modules); import gsds.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
    assert "gsds.cli" in loaded
    outside = [name for name in loaded if name.split(".")[0] != "gsds"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    assert "argparse" not in loaded and "gettext" not in loaded
