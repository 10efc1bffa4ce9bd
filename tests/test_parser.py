import pytest

from superelliptic import QQ, ParseError, UniPoly, mpq, parse_expression
from superelliptic.catalog import fixture_by_name
from superelliptic.parser import build_domain, parse_constant, scan_sugar

from conftest import qpoly


def test_basic_polynomials():
    f = qpoly("x^6 + a*x^3 + 1", "a")
    assert int(f.degree()) == 6
    dom = f.domain
    assert dom.eq(f.coeff(3), dom.param("a"))
    assert qpoly("2*x^3") == UniPoly(QQ, {3: mpq(2)})


def test_sugar_declares_quadratic_steps():
    f = qpoly("x^6 + 5*I*sqrt(2)*x^3 + 1")
    names = [link.name for link in __import__("superelliptic").tower_chain(f.domain) if hasattr(link, "name")]
    assert "I" in names and "sqrt2" in names
    assert scan_sugar("5*I*sqrt(2) + sqrt(3)") == (True, [2, 3])


def test_precedence_and_unary():
    assert qpoly("2*x^3") == UniPoly(QQ, {3: mpq(2)})
    assert qpoly("-x^2") == UniPoly(QQ, {2: mpq(-1)})
    assert qpoly("--x") == UniPoly(QQ, {1: mpq(1)})
    assert qpoly("1/2/3") == UniPoly(QQ, {0: mpq(1, 6)})
    assert qpoly("x - 5/6") == UniPoly(QQ, {1: mpq(1), 0: mpq(-5, 6)})
    assert qpoly("(x+1)^2") == UniPoly(QQ, {2: mpq(1), 1: mpq(2), 0: mpq(1)})


def test_syntax_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        qpoly("x^^2")
    assert e.value.pos == 2
    with pytest.raises(ParseError) as e:
        qpoly("x + $")
    assert e.value.pos == 4
    with pytest.raises(ParseError):
        qpoly("x + ")
    with pytest.raises(ParseError) as e:
        qpoly("x^(2)")
    assert e.value.pos == 2


def test_sqrt_takes_an_integer_literal_with_a_root_in_the_domain():
    # the parser's own checks, which the CLI's sugar scan runs before it
    assert parse_expression("sqrt(4)*x", QQ) == UniPoly(QQ, {1: mpq(2)})
    with pytest.raises(ParseError, match=r"sqrt\(5\) was not declared in this domain"):
        parse_expression("sqrt(5)", QQ)
    with pytest.raises(ParseError, match=r"sqrt\(\) takes a single integer literal"):
        parse_expression("x^3 + sqrt(x)", QQ)


def test_undeclared_identifier():
    with pytest.raises(ParseError) as e:
        qpoly("x + b", "a")
    assert "b" in str(e.value)


def test_division_rules():
    with pytest.raises(ParseError):
        qpoly("1/x")
    with pytest.raises(ParseError):
        qpoly("x/0")
    with pytest.raises(ParseError):
        qpoly("x^-2")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        qpoly("2 x")


def test_parse_constant():
    dom = build_domain(0, [("s3", "t^2-3")], ())
    v = parse_constant("1 + 2*s3", dom)
    assert dom.coords(v) == (mpq(1), mpq(2))
    with pytest.raises(ParseError):
        parse_constant("x + 1", dom)


def test_build_domain_validation():
    with pytest.raises(ValueError):
        build_domain(0, [("t", "t - 1")], ())  # degree 1
    with pytest.raises(ValueError):
        build_domain(0, [("t", "2*t^2 - 1")], ())  # not monic
    with pytest.raises(ValueError):
        build_domain(0, [], ("a", "a"))
    with pytest.raises(ValueError):
        build_domain(3, [], (), sugar_i=True)


def test_extension_referencing_previous_generator():
    dom = build_domain(0, [("s5", "t^2-5"), ("E", "t^2 - (5 + s5)")], ())
    e = parse_constant("E", dom)
    s5 = parse_constant("s5", dom)
    assert dom.eq(dom.mul(e, e), dom.add(dom.from_int(5), s5))


def test_print_parse_roundtrip_on_catalog():
    # every serialized fixture value re-parses to itself
    for name in ("cyclic(3)", "cyclic(4)", "dihedral(2)", "dihedral(3)", "dihedral(4)",
                 "dihedral(5)", "dihedral(6)", "dihedral_b(3)", "dihedral_b(4)", "a4",
                 "a4_b", "s4", "s4_b", "s4_c", "a5", "a5_b", "elem_abelian(3,1,2)",
                 "elem_abelian(3,2,4)", "psl(3,2)", "pgl(3,2)"):
        fx = fixture_by_name(name)
        dom = fx.domain
        for orb in fx.special_orbits:
            assert parse_expression(str(orb.poly), dom) == orb.poly, (name, orb.name)
        for g in fx.generators:
            for entry in g.entries():
                txt = dom.fmt(entry)
                assert dom.eq(parse_constant(txt, dom), entry), (name, txt)
        for value, _ in fx.excluded:
            txt = dom.fmt(value)
            assert dom.eq(parse_constant(txt, dom), value), (name, txt)
        if fx.t0 is not None:
            assert parse_expression(str(fx.t0), dom) == fx.t0
            assert parse_expression(str(fx.t1), dom) == fx.t1


def test_roundtrip_rational_functions():
    dom = build_domain(0, [], ("a", "b"))
    val = dom.div(dom.add(dom.param("a"), dom.one()), dom.mul(dom.from_int(2), dom.param("b")))
    assert dom.eq(parse_constant(dom.fmt(val), dom), val)
