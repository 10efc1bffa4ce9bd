"""The package imports no test-only dependency: sympy is an oracle for the
tests, and hypothesis and pytest run them.  No module but ``rings`` uses
the helpers that build tower raws, finds roots mod p or certifies tower
steps, and reduction mod p goes through one image routine."""

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


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def test_only_rings_reads_tower_raws():
    """``_canonical`` and ``_ZERO`` build tower raws over Q; only ``rings``,
    which owns that layout, may use them."""
    found = {(f.name, name) for f in sorted(SRC.glob("*.py")) if f.name != "rings.py"
             for name in _names_used(ast.parse(f.read_text(), str(f))) if name in {"_canonical", "_ZERO"}}
    assert not found


def test_one_mod_p_image_layer():
    """``rings._mod_p_image`` builds every image mod p; only ``rings`` and the
    ``unipoly`` helper that reduces a polynomial through it name it, and
    ``groups`` builds no ``PrimeField`` image of its own."""
    used = {f.name: set(_names_used(ast.parse(f.read_text(), str(f)))) for f in sorted(SRC.glob("*.py"))}
    assert {name for name, names in used.items() if "_mod_p_image" in names} == {"rings.py", "unipoly.py"}
    assert "PrimeField" not in used["groups.py"]


def test_only_rings_finds_roots_mod_p_and_certifies_steps():
    """Root chains and step certificates are decided once per domain in
    ``rings``; ``unipoly`` and ``groups`` only ask for a domain's primes
    and images."""
    helpers = {"_fp_roots", "_fp_irreducible", "_fp_powmod", "_root_chains", "_chain_image", "_certified_field",
               "_kept"}
    found = {(f.name, name) for f in sorted(SRC.glob("*.py")) if f.name != "rings.py"
             for name in _names_used(ast.parse(f.read_text(), str(f))) if name in helpers}
    assert not found


def test_groups_and_catalog_keep_no_arithmetic_mod_p():
    """Primes, roots mod p and irreducibility mod p are decided in
    ``rings``: ``groups`` and ``catalog`` name none of its prime tests or
    int-list kernels, and keep no evaluation mod p of their own."""
    found = {(name, used) for name in ("groups.py", "catalog.py")
             for used in _names_used(ast.parse((SRC / name).read_text(), name))
             if used in {"_is_prime", "_poly_mod_p", "_eval_mod"} or used.startswith("_fp_")}
    assert not found
