"""The package imports no test-only dependency: sympy is an oracle for the
tests, and hypothesis and pytest run them."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "superelliptic"
TEST_ONLY = {"sympy", "hypothesis", "pytest"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_no_test_only_dependency():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = {(f.name, root) for f in files
             for root in _imported_roots(ast.parse(f.read_text(), str(f))) if root in TEST_ONLY}
    assert not found
