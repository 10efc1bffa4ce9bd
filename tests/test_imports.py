"""The package imports no test-only dependency: sympy is an oracle for the
tests, and hypothesis and pytest run them.  No module but ``rings`` uses
the helpers that build tower raws, finds roots mod p or certifies tower
steps, and reduction mod p goes through one image routine.  The one
univariate product and long division over a ``Domain`` live in ``rings``."""

import ast
import pathlib
import re

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


def _calls(node):
    """The names a node calls: methods by attribute, aliases by name."""
    return {getattr(n.func, "attr", getattr(n.func, "id", None)) for n in ast.walk(node) if isinstance(n, ast.Call)}


def _term_loops(tree):
    """The functions with a loop nested in a loop that multiplies and adds
    or subtracts, the shape of a product or a long division of terms."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and any(
                isinstance(outer, (ast.For, ast.While)) and any(
                    inner is not outer and isinstance(inner, ast.For)
                    and "mul" in (called := _calls(inner)) and called & {"add", "sub"}
                    for inner in ast.walk(outer))
                for outer in ast.walk(fn)):
            yield fn.name


def test_one_univariate_kernel():
    """``rings.up_mul`` and ``rings.up_divrem`` are the one univariate
    product and long division over a ``Domain``: no ``_ul_*`` name is left
    in ``src/``, and no other module keeps a term loop, except the two named
    here with the reason each stays."""
    assert not {(f.name, m) for f in sorted(SRC.glob("*.py")) for m in re.findall(r"\b_ul_\w*", f.read_text())}
    allowed = {
        # fraction-free pseudo-remainder: merge takes resultants over rings
        # that are no field
        ("unipoly.py", "_prem"),
        # a linear solve for template parameters, not a polynomial product
        ("groups.py", "_solve_unique"),
    }
    found = {(f.name, name) for f in sorted(SRC.glob("*.py")) if f.name != "rings.py"
             for name in _term_loops(ast.parse(f.read_text(), str(f)))}
    assert found == allowed


def test_unipoly_ring_operations_and_cyclotomic_keep_no_term_loop():
    """``UniPoly``'s sum, difference, negation, product and division call
    the kernel and the term-dict helpers and loop over nothing of their
    own; ``rings._cyclotomic`` loops over the divisors of n only, and
    multiplies and divides by the kernel."""
    loops = (ast.For, ast.While)
    tree = ast.parse((SRC / "unipoly.py").read_text(), "unipoly.py")
    (unipoly,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "UniPoly"]
    methods = [n for n in unipoly.body
               if isinstance(n, ast.FunctionDef) and n.name in {"__add__", "__neg__", "__sub__", "__mul__", "divrem"}]
    assert len(methods) == 5
    assert not [fn.name for fn in methods if any(isinstance(n, (*loops, ast.comprehension)) for n in ast.walk(fn))]
    tree = ast.parse((SRC / "rings.py").read_text(), "rings.py")
    (cyclotomic,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cyclotomic"]
    assert not [inner for outer in ast.walk(cyclotomic) if isinstance(outer, loops)
                for inner in ast.walk(outer) if inner is not outer and isinstance(inner, loops)]
    assert {"up_mul", "up_divrem"} <= _calls(cyclotomic)
