"""The library's exception classes are its exit-code table.

A caller's bad setting is a ``ValueError`` (exit 1), bad input data a
``TexturedgeError`` (exit 2, ``MalformedLineError`` for an index line), a
broken invariant an ``InternalInvariantError`` (exit 3). No other class is
raised, and ``errors.py`` defines no other, so a new failure picks its exit
code by picking one of these.
"""
import ast
from pathlib import Path

import pytest

import texturedge

PACKAGE = Path(texturedge.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
RAISABLE = {"ValueError", "TexturedgeError", "MalformedLineError", "InternalInvariantError",
            "argparse.ArgumentTypeError"}


def raised_names(tree: ast.AST) -> list[str]:
    """The class each ``raise`` names, e.g. ``argparse.ArgumentTypeError``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(ast.unparse(exc) if exc is not None else "<bare raise>")
    return names


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_an_exit_code_class(source):
    names = raised_names(ast.parse(source.read_text(), filename=str(source)))
    assert [n for n in names if n not in RAISABLE] == []


def test_errors_module_defines_three_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["TexturedgeError", "MalformedLineError", "InternalInvariantError"]
