import functools
import hashlib
import itertools
import pathlib

import pytest

from superelliptic import (
    ClosureBoundError,
    DecompositionError,
    ExcludedParameterError,
    GroupError,
    Mobius,
    PrimeField,
    QQ,
    SpecialOrbit,
    UniPoly,
    ZeroDivisorError,
    adjoin,
    classify,
    delta_form,
    embed,
    group_elements,
    is_invariant,
    merge,
    mpq,
    orbit_decomposition,
    orbit_points,
    orbit_polynomial,
    orbit_set_invariant,
)
from superelliptic.catalog import (
    _moved,
    _orbit_from_transport,
    a4_fixture,
    a5_c_fixture,
    catalog_to_json,
    finite_field,
    fixture_by_name,
    load_catalog,
    multiplicative_generator,
    psl_pgl_case_b_generators,
    zeta5_field,
)
from superelliptic import groups, rings, unipoly
from superelliptic.groups import orbit_image
from superelliptic.parser import build_domain, parse_expression
from superelliptic.unipoly import INF

from conftest import qpoly

# fixtures cheap enough for the default suite; a5_b is exercised separately
CHEAP = [
    "cyclic(3)",
    "cyclic(4)",
    "dihedral(2)",
    "dihedral(3)",
    "dihedral(4)",
    "dihedral(5)",
    "dihedral(6)",
    "dihedral_b(3)",
    "dihedral_b(4)",
    "a4",
    "a4_b",
    "s4",
    "s4_b",
    "s4_c",
    "a5",
    "elem_abelian(3,1,2)",
    "elem_abelian(3,2,4)",
    "psl(3,2)",
    "pgl(3,2)",
]


def test_group_closures():
    for name in CHEAP:
        fx = fixture_by_name(name)
        assert len(fx.elements()) == fx.order, name
    # perfbench's tower deck samples transports from fx.elements(), so the
    # entries and the closure order of the fixtures over F_q are pinned
    for name, digest in {
        "psl(3,2)": "49a97fd6ec2b678f8ffe2f958b3cf404",
        "pgl(3,2)": "83d315216bbddb7bcbb0557faca33169",
        "elem_abelian(3,2,4)": "c9283795f948c9e52e77ade76f861181",
        "pgl(2,3)": "3c742b06d4b1009f5ac082cda963c0fd",
        "pgl(2,2)": "d6524364e875548a7ff2dd80b89f5021",
    }.items():
        fx = fixture_by_name(name)
        listing = repr([tuple(fx.domain.key(e) for e in g.entries()) for g in fx.elements()])
        assert hashlib.md5(listing.encode()).hexdigest() == digest, name


def test_closure_examples():
    d3 = fixture_by_name("dihedral(3)")
    assert len(group_elements(d3.generators)) == 6
    a4 = a4_fixture()
    assert len(group_elements(a4.generators)) == 12
    F3 = PrimeField(3)
    shift = Mobius.from_ints(F3, 1, 1, 0, 1)
    assert len(group_elements([shift])) == 3
    with pytest.raises(ClosureBoundError):
        group_elements(a4.generators, bound=5)


def test_orbit_polynomial_examples():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    els = d3.elements()
    assert orbit_polynomial(els, dom.one()) == d3.orbit("B-").poly
    assert orbit_polynomial(els, dom.zero()) == UniPoly.gen(dom)
    pts = orbit_points(els, dom.zero())
    assert INF in pts and len(pts) == 2


def test_orbit_polynomial_symbolic_seed_matches_template():
    d3 = fixture_by_name("dihedral(3)")
    dom = build_domain(0, [("z3", "t^2+t+1")], ("b",))
    els = [g.map_domain(dom) for g in d3.elements()]
    b = dom.param("b")
    orb = orbit_polynomial(els, b)
    # (x^3 - b^3)(x^3 - b^-3) expands to x^6 + a x^3 + 1, a = -(b^3 + b^-3)
    a_val = dom.neg(dom.add(dom.pow(b, 3), dom.inv(dom.pow(b, 3))))
    assert orb == d3.generic_template(dom, a_val)


def test_special_orbits_invariant_and_sized():
    # every orbit is a stable point set, its infinity flag included;
    # branch-capable orbit polynomials also transport proportionally
    for name in CHEAP:
        fx = fixture_by_name(name)
        for orb in fx.special_orbits:
            if orb.poly.is_constant():
                continue
            assert orbit_set_invariant(orb, fx), (name, orb.name)
            if orb.branchable:
                assert is_invariant(orb.poly, fx), (name, orb.name)
            assert orb.size * (fx.order // orb.size) == fx.order, (name, orb.name)


def test_orbit_seed_reproduces_catalog_polynomials():
    # seeds available inside each fixture's own tower
    a5 = fixture_by_name("a5")
    assert orbit_polynomial(a5.elements(), a5.domain.zero()) == a5.orbit("Binf").poly
    ea = fixture_by_name("elem_abelian(3,1,2)")
    assert orbit_polynomial(ea.elements(), ea.domain.zero()) == ea.orbit("B0").poly
    pgl = fixture_by_name("pgl(3,2)")
    assert orbit_polynomial(pgl.elements(), pgl.domain.zero()) == pgl.orbit("Binf").poly
    assert orbit_polynomial(pgl.elements(), INF) == pgl.orbit("Binf").poly
    d4 = fixture_by_name("dihedral(4)")
    assert orbit_polynomial(d4.elements(), d4.domain.from_int(-1)) == d4.orbit("B-").poly


def test_is_invariant_examples():
    d3 = fixture_by_name("dihedral(3)")
    assert is_invariant(qpoly("x^6 + a*x^3 + 1", "a"), d3)
    assert not is_invariant(qpoly("x^4 + x + 1"), d3)
    s4 = fixture_by_name("s4")
    assert is_invariant(qpoly("x^8 + 14*x^4 + 1"), s4)


def test_template_exclusions_and_degenerations():
    d3 = fixture_by_name("dihedral(3)")
    dom3 = d3.domain
    with pytest.raises(ExcludedParameterError) as e:
        d3.generic_template(dom3, dom3.from_int(2))
    assert e.value.orbit == "B+"
    with pytest.raises(ExcludedParameterError) as e:
        d3.generic_template(dom3, dom3.from_int(-2))
    assert e.value.orbit == "B-"

    s4 = fixture_by_name("s4")
    dom = s4.domain
    with pytest.raises(ExcludedParameterError) as e:
        s4.generic_template(dom, dom.from_int(108))
    assert e.value.orbit == "B2"
    # the degeneration is exactly the square of the 12-point orbit polynomial
    t0, t1 = s4.t0, s4.t1
    b2 = s4.orbit("B2").poly
    assert t0 - t1.scale(dom.from_int(108)) == b2 * b2

    # a seed template: the seed -1 is a root of the sextic orbit polynomial
    a4b = fixture_by_name("a4_b")
    dom4 = a4b.domain
    assert dom4.is_zero(a4b.orbit("B1").poly.evaluate(dom4.from_int(-1)))
    with pytest.raises(ExcludedParameterError) as e:
        a4b.generic_template(dom4, dom4.from_int(-1))
    assert e.value.orbit == "B1"

    a5 = fixture_by_name("a5")
    dom5 = a5.domain
    i5 = parse_expression("I", dom5).coeff(0)
    bad = dom5.mul(dom5.from_int(-1728), i5)
    with pytest.raises(ExcludedParameterError) as e:
        a5.generic_template(dom5, bad)
    assert e.value.orbit == "B0*"
    b0star = a5.orbit("B0*").poly
    assert a5.t0 - a5.t1.scale(bad) == b0star * b0star


def test_a4_template_invariance_and_delta_form():
    a4 = fixture_by_name("a4")
    dom = a4.domain
    tpl = a4.generic_template(dom, dom.from_int(5))
    assert int(tpl.degree()) == 12
    assert is_invariant(tpl, a4)
    assert 2 in __import__("superelliptic").admissible_deltas(tpl)


def test_decomposition_single_special_orbit():
    d3 = fixture_by_name("dihedral(3)")
    rep = orbit_decomposition(d3.orbit("B-").poly, d3)
    assert rep.counts["B-"] == 1 and rep.t_generic == 0
    assert rep.cofactor.is_constant()


def test_decomposition_symbolic_template():
    d3 = fixture_by_name("dihedral(3)")
    f = qpoly("x^6 + a*x^3 + 1", "a")
    rep = orbit_decomposition(f, d3)
    assert rep.t_generic == 1
    (a_rec,) = rep.generic_params
    assert rep.domain.fmt(a_rec) == "a"
    s4 = fixture_by_name("s4")
    fs = qpoly("(x^8 + 14*x^4 + 1)^3 - a*(x^5 - x)^4", "a")
    rep = orbit_decomposition(fs, s4)
    assert rep.t_generic == 1 and rep.domain.fmt(rep.generic_params[0]) == "a"


def test_decomposition_rational_parameter_recovery():
    s4 = fixture_by_name("s4")
    dom = s4.domain
    tpl = s4.generic_template(dom, dom.from_int(7))
    rep = orbit_decomposition(tpl, s4)
    assert rep.t_generic == 1 and rep.generic_params == (dom.from_int(7),)

    a4 = fixture_by_name("a4")
    dom4 = a4.domain
    tpl4 = a4.generic_template(dom4, dom4.from_int(5))
    rep4 = orbit_decomposition(tpl4, a4)
    # the three tied parameters {5, -22/3, -2/7} describe the same orbit;
    # any representative is a valid recovery
    assert rep4.t_generic == 1 and rep4.generic_params is not None
    assert a4.generic_template(dom4, rep4.generic_params[0]) == tpl4

    db = fixture_by_name("dihedral_b(3)")
    domb = db.domain
    tplb = db.generic_template(domb, domb.from_int(3))
    repb = orbit_decomposition(tplb, db)
    assert repb.t_generic == 1 and repb.generic_params is not None
    seed = repb.generic_params[0]
    assert orbit_polynomial([g for g in db.elements()], seed) == tplb

    a4b = fixture_by_name("a4_b")
    domab = a4b.domain
    tplab = a4b.generic_template(domab, domab.from_int(4))
    repab = orbit_decomposition(tplab, a4b)
    assert repab.t_generic == 1 and repab.generic_params is not None
    rep11 = orbit_decomposition(a4b.generic_template(domab, domab.from_int(11)), a4b)
    assert rep11.generic_params == (domab.from_int(11),)

    ea = fixture_by_name("elem_abelian(3,1,2)")
    dome = ea.domain
    tple = ea.generic_template(dome, dome.from_int(1))
    repe = orbit_decomposition(tple, ea)
    assert repe.t_generic == 1 and repe.generic_params == (dome.from_int(1),)


def test_decomposition_two_generic_orbits_with_recovery():
    s4 = fixture_by_name("s4")
    dom = s4.domain
    fa = s4.generic_template(dom, dom.from_int(2))
    fb = s4.generic_template(dom, dom.from_int(5))
    dfa, dfb = delta_form(fa, 4), delta_form(fb, 4)
    merged = merge(dfa, dfb)
    rep = orbit_decomposition(merged.to_unipoly(), s4)
    assert rep.t_generic == 2
    assert sorted(rep.generic_params, key=str) == sorted(
        (dom.from_int(2), dom.from_int(5)), key=str
    )
    assert rep.cofactor.is_constant()


def test_decomposition_recovers_large_prime_parameters():
    # the candidates are the divisors of a product of two primes above a
    # million; a trial-division scan capped below them finds neither
    s4 = fixture_by_name("s4")
    dom = s4.domain
    params = (dom.from_int(1000003), dom.from_int(1000033))
    merged = merge(*(delta_form(s4.generic_template(dom, a), 4) for a in params))
    rep = orbit_decomposition(merged.to_unipoly(), s4)
    assert rep.t_generic == 2 and not rep.warnings
    assert sorted(rep.generic_params, key=str) == sorted(params, key=str)
    assert rep.cofactor.is_constant()


def test_rational_roots_order():
    # by |numerator|, then denominator, then sign with positive first: the
    # order _recover_seeds tries seeds in, so the reported seed depends on it
    # the denominator 15015 = 3*5*7*11*13 puts the first primes above the
    # degree into the lead, so _q_roots passes over them
    roots = [mpq(-3, 2), mpq(2), mpq(-1, 3), mpq(3, 2), mpq(0), mpq(1), mpq(-2), mpq(1, 15015)]
    expected = ["0", "1", "-1/3", "1/15015", "2", "-2", "3/2", "-3/2"]
    for f in (qpoly("x^2 + 5*x + 7"), qpoly("x^2 + I*x + 7")):
        dom = f.domain
        for r in roots:
            f = f * UniPoly(dom, {1: dom.one(), 0: dom.neg(embed(QQ, dom, r))})
        found = groups._rational_roots(dom, f.to_list())
        assert [dom.fmt(r) for r in found] == expected


def test_rational_root_cost_is_bounded_by_degree(monkeypatch):
    # a4_b at a = 3: the seeds are the roots of the degree-12 cofactor; at
    # most deg f candidates are checked in the tower and at most deg f over
    # Q, however many divisors the coefficients have
    checked = {"Q": 0, "tower": 0}
    degrees = []
    real_evaluate, real_roots = UniPoly.evaluate, groups._rational_roots

    def evaluate(self, x):
        checked["Q" if self.domain == QQ else "tower"] += 1
        return real_evaluate(self, x)

    def rational_roots(dom, coeffs):
        degrees.append(len(coeffs) - 1)
        monkeypatch.setattr(UniPoly, "evaluate", evaluate)
        try:
            return real_roots(dom, coeffs)
        finally:
            monkeypatch.setattr(UniPoly, "evaluate", real_evaluate)

    monkeypatch.setattr(groups, "_rational_roots", rational_roots)
    a4b = fixture_by_name("a4_b")
    dom = a4b.domain
    rep = orbit_decomposition(a4b.generic_template(dom, dom.from_int(3)), a4b)
    assert rep.generic_params == (dom.from_int(3),)
    assert degrees == [12]
    assert checked["tower"] <= 12 and checked["Q"] <= 12, checked


def test_decomposition_mixed_special_and_generic():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    f = d3.orbit("B-").poly * d3.generic_template(dom, dom.from_int(4))
    rep = orbit_decomposition(f, d3)
    assert rep.counts["B-"] == 1 and rep.t_generic == 1
    assert rep.generic_params == (dom.from_int(4),)


def test_decomposition_invariant_fallback_across_towers():
    a4b = fixture_by_name("a4_b")
    f = qpoly("x^6 + 5*I*sqrt(2)*x^3 + 1")
    rep = orbit_decomposition(f, a4b)
    assert rep.matched_by == "invariants"
    assert rep.counts["B1"] == 1 and rep.t_generic == 0


def test_rational_invariants_none_cases():
    # an inadmissible delta, then u_1 = 1 + I^3 = 1 - I, which is not rational
    assert groups._rational_invariants(qpoly("x^3 + x + 1"), 3) is None
    assert groups._rational_invariants(qpoly("x^3 + I*x^2 + x + 1"), 1) is None
    assert groups._rational_invariants(qpoly("x^3 + 2*x^2 + x + 1"), 1) == (9, 4, 2)


def test_decomposition_cofactor_warning_for_noninvariant():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    f = d3.orbit("B-").poly * UniPoly(dom, {1: dom.one(), 0: dom.from_int(-2)})
    rep = orbit_decomposition(f, d3)
    assert rep.t_generic == 0 and not rep.cofactor.is_constant()
    assert any("not a multiple" in w for w in rep.warnings)


def test_decomposition_requires_squarefree():
    d3 = fixture_by_name("dihedral(3)")
    b = d3.orbit("B-").poly
    with pytest.raises(DecompositionError):
        orbit_decomposition(b * b, d3)


@pytest.mark.parametrize("name, orbit, param", [("dihedral(3)", "B-", 5), ("s4", "B2", 7)],
                         ids=["dihedral(3)", "s4"])
def test_a_special_orbit_squared_times_a_template_is_not_squarefree(name, orbit, param):
    # the squarefree test rejects f before any orbit is divided out, so an
    # orbit that divides f twice never reaches the orbit loop
    fx = fixture_by_name(name)
    dom = fx.domain
    b = fx.orbit(orbit).poly
    with pytest.raises(DecompositionError, match="^branch polynomial must be squarefree$"):
        orbit_decomposition(b * b * fx.generic_template(dom, dom.from_int(param)), fx)


def test_pgl_decomposition_char3():
    pgl = fixture_by_name("pgl(3,2)")
    dom = pgl.domain
    w = dom.gen()
    tpl = pgl.generic_template(dom, w)
    assert int(tpl.degree()) == 720
    rep = orbit_decomposition(tpl, pgl)
    assert rep.t_generic == 1 and rep.generic_params == (w,)
    rep0 = orbit_decomposition(pgl.orbit("B0").poly, pgl)
    assert rep0.counts["B0"] == 1 and rep0.t_generic == 0


def test_psl_decomposition_char3():
    psl = fixture_by_name("psl(3,2)")
    dom = psl.domain
    tpl = psl.generic_template(dom, dom.from_int(1))
    assert int(tpl.degree()) == 360
    rep = orbit_decomposition(tpl, psl)
    assert rep.t_generic == 1 and rep.generic_params == (dom.one(),)
    aut = classify(psl, rep, n=4)
    assert aut.reduced == "PSL(2,9)" and aut.dimension == 1


def test_classify_cyclic_family():
    cyc = fixture_by_name("cyclic(3)")
    dom = cyc.domain
    rep = orbit_decomposition(cyc.generic_template(dom, dom.from_int(5)), cyc)
    aut = classify(cyc, rep, n=3)
    assert aut.reduced == "C_3" and aut.dimension == 1
    assert any("structure table" in c for c in aut.caveats)


def test_classification_tables():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    # neither inversion fixed point branches: G3
    rep = orbit_decomposition(d3.generic_template(dom, dom.from_int(4)), d3)
    aut = classify(d3, rep, n=3)
    assert aut.full_group == "Z/3Z x| D_3" and aut.dimension == 1
    # only -1 branches (delta odd: B+): G2 presentation
    f = d3.orbit("B+").poly * d3.generic_template(dom, dom.from_int(4))
    aut = classify(d3, orbit_decomposition(f, d3), n=3)
    assert "(R*S)^2 = 1" in aut.full_group
    # both fixed points branch: binary presentation with a caveat
    f = d3.orbit("B-").poly * d3.orbit("B+").poly
    aut = classify(d3, orbit_decomposition(f, d3), n=3)
    assert "R*S*R^-1 = S^-1" in aut.full_group and aut.caveats

    a4 = fixture_by_name("a4")
    dom4 = a4.domain
    rep = orbit_decomposition(a4.generic_template(dom4, dom4.from_int(5)), a4)
    aut = classify(a4, rep, n=2)
    assert aut.full_group == "Z/2Z x A_4" and aut.dimension == 1
    rep = orbit_decomposition(a4.orbit("B1").poly, a4)
    aut = classify(a4, rep, n=2)
    assert aut.full_group == "Z/6Z x V_4"

    db = fixture_by_name("dihedral_b(3)")
    domb = db.domain
    f = db.orbit("B1").poly * db.generic_template(domb, domb.from_int(3))
    aut = classify(db, orbit_decomposition(f, db), n=2)
    assert aut.full_group == "C_6 x| C_2" and aut.dimension == 1
    aut = classify(db, orbit_decomposition(db.generic_template(domb, domb.from_int(3)), db), n=2)
    assert aut.full_group == "C_2 x| D_3"

    s4 = fixture_by_name("s4")
    doms = s4.domain
    aut = classify(s4, orbit_decomposition(s4.generic_template(doms, doms.from_int(7)), s4), n=4)
    assert aut.full_group == "C_4 x S_4"

    s4b = fixture_by_name("s4_b")
    domsb = s4b.domain
    f = s4b.orbit("B0'").poly * s4b.orbit("B2'").poly
    aut = classify(s4b, orbit_decomposition(f, s4b), n=6)
    assert "T^6 = 1" in aut.full_group and any("k in 1..6" in c for c in aut.caveats)
    aut = classify(s4b, orbit_decomposition(f, s4b), n=12)  # 12 = 0 mod 4: direct product
    assert aut.full_group == "Z/12Z x S_4"

    s4c = fixture_by_name("s4_c")
    domc = s4c.domain
    rep = orbit_decomposition(s4c.orbit("B0''").poly, s4c)
    aut = classify(s4c, rep, n=2)
    assert aut.full_group == "S_4 x| Z_2"

    a5 = fixture_by_name("a5")
    rep = orbit_decomposition(a5.orbit("B0").poly, a5)
    aut = classify(a5, rep, n=5)
    assert aut.full_group == "A_5 x Z/5Z" and aut.dimension == 0
    rep = orbit_decomposition(a5.orbit("B0*").poly, a5)
    aut = classify(a5, rep, n=10)
    assert "complicated presentation" in " ".join(aut.caveats)

    # a4_b with no B1 orbit is a direct product
    a4b = fixture_by_name("a4_b")
    domab = a4b.domain
    rep = orbit_decomposition(a4b.generic_template(domab, domab.from_int(3)), a4b)
    aut = classify(a4b, rep, n=3)
    assert rep.counts["B1"] == 0 and aut.full_group == "Z/3Z x A_4" and aut.dimension == 1

    a5b = fixture_by_name("a5_b")
    aut = classify(a5b, orbit_decomposition(a5b.orbit("B0*'").poly, a5b), n=2)
    assert (aut.reduced, aut.full_group, aut.dimension) == ("A_5", "Z/2Z x A_5", 0)
    with pytest.raises(GroupError, match="orbit report was computed against a different fixture"):
        classify(a5b, rep, n=2)  # rep is a4_b's

    ea = fixture_by_name("elem_abelian(3,1,2)")
    dome = ea.domain
    rep = orbit_decomposition(ea.generic_template(dome, dome.from_int(1)), ea)
    aut = classify(ea, rep, n=2)
    assert aut.full_group == "((Z/3Z)^1 x| Z/2Z) x Z/2Z" and aut.dimension == 1

    pgl = fixture_by_name("pgl(3,2)")
    rep = orbit_decomposition(pgl.orbit("B0").poly, pgl)
    aut = classify(pgl, rep, n=8)
    assert aut.full_group == "Z/8Z x PGL(2,9)"
    assert any("characteristic" in c for c in aut.caveats)
    # without the rational-point orbit branching and even n: restriction map caveat
    w = pgl.domain.gen()
    rep = orbit_decomposition(pgl.generic_template(pgl.domain, w), pgl)
    aut = classify(pgl, rep, n=8)
    assert "restriction map" in " ".join(aut.caveats)


def test_a5_b_ring_is_two_copies_of_q_i_zeta5():
    # e2^2 = 10 - 2 sqrt5 = (2i(zeta5^2 - zeta5^3))^2 already in Q(i, zeta5),
    # so the step splits: the fixture's ring is Q(i, zeta5) x Q(i, zeta5)
    a5b = fixture_by_name("a5_b")
    dom = a5b.domain
    i = dom.from_base(dom.base.from_base(dom.base.base.gen()))
    z = dom.from_base(dom.base.gen())
    root = dom.mul(dom.mul(dom.from_int(2), i), dom.sub(dom.pow(z, 2), dom.pow(z, 3)))
    with pytest.raises(ZeroDivisorError, match="modulus has factor of degree 1"):
        dom.inv(dom.sub(dom.gen(), root))
    # the step certificate refuses the ring, though it is declared a field
    assert dom.is_field and not rings._certified_field(dom)
    assert rings._certified_field(dom.base)
    # every computation runs in both factors at once, so a generic orbit
    # still classifies
    rep = orbit_decomposition(a5b.generic_template(dom, dom.from_int(2)), a5b)
    aut = classify(a5b, rep, n=2)
    assert rep.t_generic == 1 and aut.full_group == "Z/2Z x A_5"


def test_elem_abelian_template_invariance():
    # (x^3 - x)^m - a is stable under both x -> x + 1 and the order-m scaling
    ea = fixture_by_name("elem_abelian(3,1,2)")
    dom = ea.domain
    tpl = ea.generic_template(dom, dom.from_int(1))
    assert is_invariant(tpl, ea)
    for g in ea.generators:
        assert is_invariant(tpl, [g])


def test_decomposition_roundtrip_randomized(rng):
    # random products of distinct special and generic orbits decompose back
    # to exactly the counts and parameters they were built from
    for name in ("dihedral(3)", "dihedral(4)", "a4", "s4"):
        fx = fixture_by_name(name)
        dom = fx.domain
        for _ in range(10):
            f = UniPoly.one(fx.domain)
            expected_counts = {}
            for orb in fx.special_orbits:
                if orb.branchable and rng.random() < 0.4:
                    f = f * orb.poly
                    expected_counts[orb.name] = 1
            params = []
            for val in rng.sample(range(3, 40), rng.randint(0, 2)):
                try:
                    f = f * fx.generic_template(dom, dom.from_int(val))
                    params.append(val)
                except ExcludedParameterError:
                    continue
            if f.is_constant():
                continue
            rep = orbit_decomposition(f, fx)
            for orb_name, count in expected_counts.items():
                assert rep.counts[orb_name] == count, (name, orb_name)
            assert rep.t_generic == len(params), name
            if rep.generic_params is not None:
                rebuilt = UniPoly.one(dom)
                for orb in fx.special_orbits:
                    if expected_counts.get(orb.name):
                        rebuilt = rebuilt * orb.poly
                for p in rep.generic_params:
                    rebuilt = rebuilt * fx.generic_template(dom, p)
                assert rebuilt == f, name


def test_locus_component_matches_dihedral_classification():
    # a product of generic dihedral orbits sits on the plus component, whose
    # group agrees with the classification table's semidirect product
    from superelliptic import invariants_of, locus_test

    fx = fixture_by_name("dihedral(4)")
    dom = fx.domain
    f = fx.generic_template(dom, dom.from_int(3)) * fx.generic_template(dom, dom.from_int(5))
    u = invariants_of(f, 4)
    rep = locus_test(u)
    assert rep.dihedral and rep.component == "plus"
    aut = classify(fx, orbit_decomposition(f, fx), n=4)
    assert aut.full_group == rep.component_group(4, 4) == "Z/4Z x| D_4"


def test_classify_requires_delta_dividing_n():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    rep = orbit_decomposition(d3.generic_template(dom, dom.from_int(4)), d3)
    with pytest.raises(Exception):
        classify(d3, rep, n=4)


def test_transport_conjugation_bridges_coordinate_models():
    # transporting the standard-coordinate orbits by the diagonalizing
    # matrix yields point sets stable under the diagonalized generators
    from superelliptic import mobius_transport
    from superelliptic.catalog import _diagonalizing_matrix, sqrt3_field
    from superelliptic.groups import SpecialOrbit

    a4b = fixture_by_name("a4_b")
    dom = sqrt3_field()
    q = _diagonalizing_matrix(dom)
    std = fixture_by_name("a4")
    for orb_name in ("B1", "B2"):
        moved = mobius_transport(std.orbit(orb_name).poly.map_domain(dom), q).monic()
        has_inf = int(moved.degree()) < 4  # a root went to infinity
        assert orbit_set_invariant(SpecialOrbit("tmp", moved, has_inf), a4b), orb_name


def test_merge_validation_edges():
    from superelliptic import DomainMismatchError

    d3 = fixture_by_name("dihedral(3)")
    f1 = delta_form(qpoly("x^6 + a*x^3 + 1", "a"), 3)
    f2 = delta_form(qpoly("x^6 + a*x^3 + 1", "a"), 1)
    with pytest.raises(Exception):
        merge(f1, f2)  # mismatched delta
    g = delta_form(qpoly("x^6 + b*x^3 + 1", "b"), 3)
    with pytest.raises(DomainMismatchError):
        merge(f1, g)


def test_orbit_image_consistency():
    d3 = fixture_by_name("dihedral(3)")
    dom = d3.domain
    binf = d3.orbit("Binf")
    for g in d3.generators:
        img, inf_flag = orbit_image(binf.poly, True, g)
        assert inf_flag and img == binf.poly


def test_psl_pgl_case_b_transport():
    pgl = fixture_by_name("pgl(3,2)")
    gens = psl_pgl_case_b_generators(pgl)
    assert len(group_elements(gens, bound=721)) == 720
    dom = pgl.domain
    assert [[dom.fmt(e) for e in (g.a, g.b, g.c, g.d)] for g in gens] == [
        ["2*w + 2", "2", "2", "2*w + 2"],
        ["0", "2", "1", "0"],
        ["2*w + 2", "1", "2", "2*w + 1"],
    ]


PROJECTIVE = ("pgl(5,1)", "pgl(7,1)", "pgl(2,2)", "pgl(2,3)", "psl(5,1)", "psl(7,1)", "psl(13,1)")


def test_projective_fixtures_golden():
    # PSL/PGL outside the standard catalog, pinned byte for byte
    text = catalog_to_json({name: fixture_by_name(name) for name in PROJECTIVE})
    stored = (pathlib.Path(__file__).parent / "golden" / "projective_fixtures.json").read_text()
    assert text + "\n" == stored


@pytest.mark.parametrize("name, message", [
    ("psl(2,2)", "PSL(2, 2^t) coincides with PGL; use the pgl fixture"),
    ("psl(3,1)", "need q >= 5 for an extra automorphism inside PSL"),
])
def test_psl_rejects_small_and_even_fields(name, message):
    with pytest.raises(ValueError) as info:
        fixture_by_name(name)
    assert str(info.value) == message


FINITE_FIELD_MODULI = {
    2: ("t^2 + t + 1", "t^3 + t + 1"),
    3: ("t^2 + 1", "t^3 + 2*t + 1"),
    5: ("t^2 + 2", "t^3 + t + 1"),
    7: ("t^2 + 1", "t^3 + 2"),
    11: ("t^2 + 1", "t^3 + t + 4"),
}


@pytest.mark.parametrize("p", sorted(FINITE_FIELD_MODULI))
def test_finite_field_takes_the_first_irreducible_modulus(p):
    # the first monic irreducible in the order that counts the coefficient
    # tuple (constant term first) up in base p
    assert tuple(finite_field(p, t).fmt_minpoly("t") for t in (2, 3)) == FINITE_FIELD_MODULI[p]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_finite_field_modulus_is_the_first_monic_with_no_root(p):
    # a monic of degree 2 or 3 is irreducible exactly when it has no root
    # in F_p; the monics are counted up as in the test above
    for t in (2, 3):
        monics = (tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=t))
        first = next(m for m in monics if all(sum(c * x**e for e, c in enumerate(m)) % p for x in range(p)))
        assert finite_field(p, t).minpoly == first


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_multiplicative_generator_is_the_first_element_of_full_order(p):
    for t in (1, 2, 3):
        dom = finite_field(p, t)

        def order(g):
            k, acc = 1, g
            while not dom.is_one(acc):
                acc, k = dom.mul(acc, g), k + 1
            return k

        first = next(g for g in dom.iter_elements() if not dom.is_zero(g) and order(g) == dom.order - 1)
        assert multiplicative_generator(dom) == first


def test_orbit_transport_keeps_the_point_count():
    # (x - 1)^2 (x + 1) is no orbit: q sends its double root 1 to infinity,
    # so the moved point set has 2 points where 3 are declared
    q = Mobius.from_ints(QQ, 1, 0, 1, -1)
    x = UniPoly.gen(QQ)
    moved = _orbit_from_transport(SpecialOrbit("B", x**3 - x, False), q, "B'")
    assert moved.size == 3 and moved.includes_infinity
    bad = SpecialOrbit("B", UniPoly.from_int_list(QQ, [1, -1, -1, 1]), False)
    with pytest.raises(GroupError, match="got 2 points, expected 3"):
        _orbit_from_transport(bad, q, "B'")


def test_multiplicative_generator():
    F9 = fixture_by_name("pgl(3,2)").domain
    g = multiplicative_generator(F9)
    order = 1
    acc = g
    while not F9.is_one(acc):
        acc = F9.mul(acc, g)
        order += 1
    assert order == 8


def test_catalog_roundtrip(tmp_path):
    names = ("dihedral(3)", "s4", "a4", "a4_b")
    text = catalog_to_json({name: fixture_by_name(name) for name in names})
    path = tmp_path / "cat.json"
    path.write_text(text)
    loaded = load_catalog(str(path))
    d3 = loaded["dihedral(3)"]
    ref = fixture_by_name("dihedral(3)")
    assert d3.order == 6 and d3.delta == 3
    assert len(group_elements(d3.generators)) == 6
    assert [str(o.poly) for o in d3.special_orbits] == [str(o.poly) for o in ref.special_orbits]
    # linear, a4 and seed templates all come back from the file
    for name in ("s4", "a4", "a4_b"):
        fx, ref = loaded[name], fixture_by_name(name)
        assert fx.template_kind == ref.template_kind
        tpl = fx.generic_template(fx.domain, fx.domain.from_int(7))
        assert str(tpl) == str(ref.generic_template(ref.domain, ref.domain.from_int(7))), name
    # deterministic export
    assert catalog_to_json({name: fixture_by_name(name) for name in names}) == text


def test_conjugated_fixture_checks():
    # the conjugate of sigma*rho must be diagonal: the identity matrix fails
    with pytest.raises(GroupError, match="not diagonal"):
        a5_c_fixture(Mobius.identity(zeta5_field()))
    # with delta = 2 the diagonal element must be x -> -x, not x -> i x
    s4 = fixture_by_name("s4")
    with pytest.raises(GroupError, match="x -> -x"):
        _moved(s4, Mobius.identity(s4.domain), "s4_id", 2, (0, 1), (0,), "'")


def _case_c_matrix() -> Mobius:
    """A matrix diagonalizing the order-3 element sigma*rho of a5 over
    Q(i, zeta5, sqrt3), for building a5_c."""
    base = zeta5_field()
    dom = adjoin(base, "sqrt3", (base.from_int(-3), base.zero(), base.one()), field=True)
    i = parse_expression("I", dom).coeff(0)
    s3 = dom.gen()
    zeta = parse_expression("z5", dom).coeff(0)
    b = dom.neg(dom.mul(i, dom.add(zeta, dom.pow(zeta, 4))))
    sigma = Mobius(dom, zeta, dom.zero(), dom.zero(), dom.one())
    rho = Mobius(dom, dom.from_int(-1), dom.neg(b), b, dom.one())
    m = sigma * rho
    omega = dom.mul(dom.add(dom.from_int(-1), dom.mul(i, s3)), dom.inv(dom.from_int(2)))
    tr = dom.add(m.a, m.d)
    lam2 = dom.div(tr, dom.add(dom.one(), omega))
    lam1 = dom.mul(omega, lam2)
    if dom.is_zero(m.b):
        raise AssertionError("unexpected diagonal element")
    return Mobius(dom, m.b, m.b, dom.sub(lam1, m.a), dom.sub(lam2, m.a))


@functools.cache
def _case_c_fixture():
    return a5_c_fixture(_case_c_matrix())


def test_transported_fixtures_golden():
    # the five fixtures that conjugate a standard one, pinned byte for byte
    fixtures = {name: fixture_by_name(name) for name in ("a4_b", "s4_b", "s4_c", "a5_b")}
    fixtures["a5_c"] = _case_c_fixture()
    stored = (pathlib.Path(__file__).parent / "golden" / "catalog_transported.json").read_text()
    assert catalog_to_json(fixtures) + "\n" == stored


def test_a5_case_c_from_user_matrix():
    fx = _case_c_fixture()
    assert len(fx.elements()) == 60
    sizes = sorted(orb.size for orb in fx.special_orbits)
    assert sizes == [12, 20, 30]
    # the face orbit carries 0 and infinity for the order-3 case
    b0 = fx.orbit("B0''")
    assert not b0.branchable
    assert fx.orbit("B0*''").branchable and fx.orbit("Binf''").branchable
    rep = orbit_decomposition(fx.orbit("B0*''").poly, fx)
    aut = classify(fx, rep, n=3)
    assert aut.full_group == "Z/3Z x A_5"
    aut6 = classify(fx, rep, n=6)
    assert "m, l, o" in " ".join(aut6.caveats)


def test_a_seed_template_over_the_fixture_domain_constructs_no_mobius(monkeypatch):
    # an element over its own domain is its own image: a seed template and
    # the seed recovery over the fixture's domain remap none of them
    a4b = fixture_by_name("a4_b")
    dom = a4b.domain
    a4b.elements()
    built = []
    real = Mobius.__init__
    monkeypatch.setattr(Mobius, "__init__", lambda self, *args: built.append(args) or real(self, *args))
    seed = dom.from_int(3)
    tpl = a4b.generic_template(dom, seed)
    assert groups._recover_seeds(a4b, dom, tpl, 1) == ((seed,), UniPoly.one(dom))
    assert not built


def test_seed_recovery_answers_none_where_no_seed_orbit_divides(monkeypatch):
    """The fall-through answers of the seed recovery: over dihedral_b(4)'s
    Q(i), x (x - 3)(x^6 + x + 1) is divisible by no special orbit and has
    degree 8, the generic orbit size.  Its root 0 lies in the special orbit
    B0 (an orbit polynomial of degree 3), and the orbit of 3 does not
    divide it, which the image at the first prime shows.  Two generic
    orbits recovered as one leave a nonconstant remainder."""
    fx = fixture_by_name("dihedral_b(4)")
    dom = fx.domain
    x, one = UniPoly.gen(dom), UniPoly.one(dom)
    f = x * (x - UniPoly.constant(dom, dom.from_int(3))) * (x**6 + x + one)
    sizes, verdicts = [], []
    real_orbit, real_rem = groups.orbit_polynomial, unipoly._remainder_mod_p
    monkeypatch.setattr(groups, "orbit_polynomial",
                        lambda *args: sizes.append(int((orb := real_orbit(*args)).degree())) or orb)
    monkeypatch.setattr(unipoly, "_remainder_mod_p", lambda *args: verdicts.append(real_rem(*args)) or verdicts[-1])
    report = orbit_decomposition(f, fx)
    assert report.t_generic == 1 and report.generic_params is None and report.cofactor == f
    assert report.warnings == ("generic parameters not recovered (not rational in the base)",)
    assert sizes == [3, fx.generic_size] and verdicts[-1] is True
    assert groups._recover_seeds(fx, dom, f, 1) == (None, f)
    templates = [fx.generic_template(dom, dom.from_int(a)) for a in (3, 5)]
    params, rest = groups._recover_seeds(fx, dom, templates[0] * templates[1], 1)
    assert params is None and rest in templates
