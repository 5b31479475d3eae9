"""The runtime depends on the standard library alone.

Every import in every module under src/syzdepth must name a standard-library
module or be relative to the package, and the CLI reads no private name of
argparse.  The same AST reads keep dead names out: every definition under
src/syzdepth is read by the package or a demo, or exported by syzdepth.
"""

import ast
import collections
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


def _parsed(name):
    with open(os.path.join(PACKAGE, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def _names_defined_or_imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[-1]
                yield alias.name.split(".")[-1]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_defines_or_imports_a_module_vector(name):
    # Rows are the library's only element form; the vector form lives in
    # tests/reference_vectors.py, as the reference the engines are checked
    # against.
    assert "ModuleVector" not in set(_names_defined_or_imported(_parsed(name)))


def test_only_linalg_and_blocks_import_fractions():
    # linalg alone makes coefficients; blocks uses Fractions for the
    # densities of its schedule, not for coefficients.
    importers = sorted(name for name in MODULES
                       if "fractions" in set(_imported_roots(_parsed(name))))
    assert importers == ["blocks.py", "linalg.py"]


def _private_attributes(tree):
    """(object, attribute) for every use of an attribute named _x, dunder
    names left out."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))):
            yield ast.unparse(node.value), node.attr


def test_cli_reads_no_private_argparse_name():
    # The grammar is one table in cli, which builds argparse's parsers from
    # it; nothing is read back out of them.
    tree = _parsed("cli.py")
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "argparse"
                for alias in node.names}
    assert not {name for name in imported if name.startswith("_")}
    assert set(_private_attributes(tree)) == {("MonomialIdeal", "_made")}


def test_only_cli_defines_a_json_writer():
    # The JSON layout is written in cli alone: _dumps, the list joiners, the
    # streamed-object writer and the writers of the complex and the
    # squarefree certificate.
    writers = [(name, node.name) for name in MODULES for node in ast.walk(_parsed(name))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (node.name.endswith("_json") or node.name in ("_json_list", "_json_ints"))]
    assert [writer for writer in writers if writer[0] != "cli.py"] == []
    assert [writer for writer in writers if writer[1] == "_json_list"] == [("cli.py", "_json_list")]


DEMOS = os.path.join(os.path.dirname(PACKAGE), os.pardir, "demos")


def _loads(tree):
    """Every name read in the tree, as a name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _definitions(tree):
    """Module-level functions and classes, and their classes' methods,
    dunders left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, functions)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_is_read_or_exported():
    # A name the package and the demos never read, and syzdepth does not
    # export, has no caller but the tests: it is dead.  A read inside the
    # definition itself, a recursion, does not count.
    trees = {name: _parsed(name) for name in MODULES}
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            with open(os.path.join(DEMOS, name)) as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    reads = collections.Counter(read for tree in trees.values() for read in _loads(tree))
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = [f"{name}: {node.name}" for name in MODULES for node in _definitions(trees[name])
            if node.name not in exported
            and reads[node.name] == sum(read == node.name for read in _loads(node))]
    assert dead == []


def test_names_defined_more_than_once_are_pinned():
    # The test above matches reads by name, so a read of one definition
    # also counts for every other of the same name: a live MonomialIdeal.is_zero
    # hid a dead InitialModule.is_zero.  Each name here has a reader for
    # every one of its definitions; a new shared name fails until its
    # readers are checked and it is added.
    counts = collections.Counter(node.name for name in MODULES
                                 for node in _definitions(_parsed(name)))
    shared = sorted(name for name, count in counts.items() if count > 1)
    assert shared == ["_made", "is_squarefree", "rank", "to_jsonable"]
