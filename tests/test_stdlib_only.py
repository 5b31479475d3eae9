"""The runtime depends on the standard library alone.

Every import in every module under src/syzdepth must name a standard-library
module or be relative to the package.
"""

import ast
import os
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "syzdepth")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_the_standard_library(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        tree = ast.parse(fh.read(), filename=name)
    outside = sorted(set(_imported_roots(tree)) - sys.stdlib_module_names)
    assert not outside, f"{name} imports {outside}"


def test_every_module_is_parsed():
    assert "cli.py" in MODULES and "complexes.py" in MODULES
