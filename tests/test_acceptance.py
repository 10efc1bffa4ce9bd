"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact arithmetic: all comparisons are equality in the
stated coefficient domain.  The expected values are the classical tables
for these families, re-derived by expansion where the commonly quoted form
disagrees (each such spot is marked in comments and in the assertions).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

from superelliptic import (
    QQ,
    DeltaForm,
    UniPoly,
    common_rational,
    delta_form,
    discriminant,
    invariants,
    invariants_general,
    invariants_of,
    is_invariant,
    merge,
    mpq,
    normalize,
    orbit_decomposition,
    orbit_set_invariant,
    reconstruct,
    shifted_invariants,
    specialize,
    tau1_apply,
    tau2_apply,
    verify_roundtrip,
)
from superelliptic.catalog import fixture_by_name
from superelliptic.parser import build_domain, parse_expression

from conftest import rand_mpq, symmetric_form

SEED = 20260811


def _report(num, name, started):
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_1_discriminants():
    t0 = time.monotonic()
    dom1 = build_domain(0, [], ("a",))
    f6 = parse_expression("x^6 + a*x^3 + 1", dom1)
    tA = time.monotonic()
    d6 = discriminant(f6)
    assert time.monotonic() - tA < 1.0
    assert dom1.eq(d6, parse_expression("3^6*(a^2 - 4)^3", dom1).coeff(0))

    dom2 = build_domain(0, [], ("a", "b"))
    f9 = parse_expression("x^9 + a*x^6 + b*x^3 + 1", dom2)
    tA = time.monotonic()
    d9 = discriminant(f9)
    assert time.monotonic() - tA < 1.0
    assert dom2.eq(
        d9,
        parse_expression("3^9*(27 - 18*b*a - b^2*a^2 + 4*a^3 + 4*b^3)^3", dom2).coeff(0),
    )

    dom3 = build_domain(0, [], ("a", "b", "c"))
    f12 = parse_expression("x^12 + a*x^9 + b*x^6 + c*x^3 + 1", dom3)
    tA = time.monotonic()
    d12 = discriminant(f12)
    assert time.monotonic() - tA < 1.0
    displayed_inner = parse_expression(
        "0 - 256 - b^2*c^2*a^2 - 18*c^3*a*b - 18*a^3*b*c + 80*b^2*c*a + 192*c*a"
        " - 144*a^2*b - 144*c^2*b + 27*a^4 + 27*c^4 + 128*b^2 + 4*b^3*a^2"
        " + 4*c^3*a^3 + 4*b^3*c^2 + 6*c^2*a^2 - 16*b^4",
        dom3,
    ).coeff(0)
    # the displayed degree-12 value has the inner polynomial negated: our
    # convention is pinned by the degree-6/9 tables and by
    # disc(x^12 + 1) = +12^12 (both hold above and in the unit suite)
    expected = dom3.mul(dom3.from_int(3**12), dom3.pow(dom3.neg(displayed_inner), 3))
    assert dom3.eq(d12, expected)
    negated = dom3.mul(dom3.from_int(3**12), dom3.pow(displayed_inner, 3))
    assert not dom3.eq(d12, negated)
    _report(1, "discriminant identities", t0)


def test_criterion_2_invariant_fixtures():
    t0 = time.monotonic()
    u6 = invariants_of(parse_expression("x^6 + a*x^3 + 1", build_domain(0, [], ("a",))), 3)
    assert u6.fmt() == ["2*a^2", "2"]
    u9 = invariants_of(
        parse_expression("x^9 + a*x^6 + b*x^3 + 1", build_domain(0, [], ("a", "b"))), 3
    )
    assert u9.fmt() == ["a^3 + b^3", "2*a*b", "2"]
    u12 = invariants_of(
        parse_expression(
            "x^12 + a*x^9 + b*x^6 + c*x^3 + 1", build_domain(0, [], ("a", "b", "c"))
        ),
        3,
    )
    assert u12.fmt() == ["a^4 + c^4", "a^2*b + b*c^2", "2*a*c", "2"]

    # tetrahedral locus inside the 12-point space, from the tied
    # coefficient formulas a2 = (2a+12)/(2-a), a3 = (2a-12)/(2+a)
    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    two, twelve = dom.from_int(2), dom.from_int(12)
    a2 = dom.div(dom.add(dom.mul(two, a), twelve), dom.sub(two, a))
    a3 = dom.div(dom.sub(dom.mul(two, a), twelve), dom.add(two, a))
    f = UniPoly.one(dom)
    for aj in (a, a2, a3):
        f = f * UniPoly(dom, {4: dom.one(), 2: dom.neg(aj), 0: dom.one()})
    u = invariants_of(f, 2)
    a1 = delta_form(f, 2).coeffs[1]
    assert dom.eq(u[1], dom.mul(dom.from_int(2), dom.pow(a1, 6)))
    assert dom.eq(u[2], dom.mul(dom.from_int(-66), dom.pow(a1, 4)))
    assert dom.eq(u[3], dom.mul(dom.from_int(-4), dom.pow(a1, 4)))
    assert dom.eq(u[4], dom.mul(dom.from_int(-66), dom.pow(a1, 2)))
    assert dom.eq(u[5], dom.mul(dom.from_int(2), dom.pow(a1, 2)))
    assert dom.eq(u[6], dom.from_int(2))
    assert dom.eq(dom.mul(u[4], u[4]), dom.mul(dom.from_int(-66), u[2]))
    assert dom.eq(dom.mul(dom.from_int(-33), u[5]), u[4])
    # recomputed by expansion: u2^3 = -71874 u1^2 (the constant 71874
    # sometimes quoted lacks the sign; u3 = (2/33) u1 should read u2)
    assert dom.eq(dom.pow(u[2], 3), dom.mul(dom.from_int(-71874), dom.mul(u[1], u[1])))
    assert dom.eq(u[3], dom.mul(dom.div(dom.from_int(2), dom.from_int(33)), u[2]))
    assert time.monotonic() - t0 < 5.0
    _report(2, "invariant fixtures and tetrahedral locus", t0)


def _expect(dom, text):
    return parse_expression(text, dom).coeff(0)


def test_criterion_3_octahedral_merge_table():
    t0 = time.monotonic()
    dom = build_domain(0, [], ("a", "b"))
    fa = parse_expression("(x^8 + 14*x^4 + 1)^3 - a*(x^5 - x)^4", dom)
    fb = parse_expression("(x^8 + 14*x^4 + 1)^3 - b*(x^5 - x)^4", dom)
    merged = merge(delta_form(fa, 4), delta_form(fb, 4))
    assert merged.r == 12
    u = invariants(merged)
    z = "(84 - b - a)"
    rows = [
        f"2*{z}^12",
        f"2*{z}^10*(2946 - 38*b - 38*a + a*b)",
        f"2*{z}^9*(55300 - 429*b - 429*a - 8*a*b)",
        f"2*{z}^8*(588015 - 712*b + 28*a*b - 712*a)",
        f"2*{z}^7*(3392424 + 7342*b + 7342*a - 56*a*b)",
        f"2*{z}^6*(8699676 - 12324*b - 12324*a + 70*a*b)",
        f"2*{z}^5*(3392424 + 7342*b + 7342*a - 56*a*b)",
        f"2*{z}^4*(588015 - 712*b + 28*a*b - 712*a)",
        f"2*{z}^3*(55300 - 429*b - 429*a - 8*a*b)",
        f"2*{z}^2*(2946 - 38*b - 38*a + a*b)",
        f"2*{z}^2",
        "2",
    ]
    for i, row in enumerate(rows, start=1):
        assert dom.eq(u[i], _expect(dom, row)), f"u_{i}"
    assert time.monotonic() - t0 < 60.0
    _report(3, "octahedral 12-row merged table", t0)


def test_criterion_4_icosahedral_table():
    t0 = time.monotonic()
    dom = build_domain(0, [], ("a",), sugar_i=True)
    f0 = "(x*(x^10 + 11*I*x^5 + 1))"
    f1 = "(x^20 - 228*I*x^15 - 494*x^10 - 228*I*x^5 + 1)"
    f = parse_expression(f"{f1}^3 - a*{f0}^5", dom)
    u = invariants_of(f, 5)
    assert u.r == 12
    z = "(0 - a - 684*I)"
    rows = [
        f"2*{z}^12",
        f"(0 - 2*I)*{z}^10*(55*a - 157434*I)",
        f"2*{z}^9*(12527460*I + 1205*a)",
        f"70*I*{z}^8*(374*a - 2213157*I)",
        f"2*{z}^7*(0 - 69585*a - 130689144*I)",
        f"(0 - 2*I)*{z}^6*(33211924*I + 134761*a)",
        f"2*{z}^5*(0 - 69585*a - 130689144*I)",
        f"70*I*{z}^4*(374*a - 2213157*I)",
        f"2*{z}^3*(12527460*I + 1205*a)",
        f"(0 - 2*I)*{z}^2*(55*a - 157434*I)",
        f"2*{z}^2",
        "2",
    ]
    for i, row in enumerate(rows, start=1):
        assert dom.eq(u[i], _expect(dom, row)), f"u_{i}"
    assert time.monotonic() - t0 < 60.0
    _report(4, "icosahedral 12-row table", t0)


def test_criterion_5_char3_stretch_fixture():
    t0 = time.monotonic()
    dom = build_domain(3, [], ("a",))
    f = parse_expression("((x^9 - x)^8 + 1)^10 - a*(x^9 - x)^72", dom)
    assert int(f.degree()) == 720
    u = invariants_of(f, 8)
    assert u.r == 90
    two = dom.from_int(2)
    one_plus_a = dom.add(dom.one(), dom.param("a"))  # 4 + 4a reduced mod 3
    for i in range(1, 90):
        if i % 9:
            assert dom.eq(u[i], two), f"u_{i}"
        else:
            assert dom.eq(u[i], one_plus_a), f"u_{i}"
    # the pattern 4 + 4a holds whenever 9 | i with 0 < i < r; at i = r
    # the final invariant of a normal form is identically 2, which is the
    # one residual deviation (a normalization artifact, not group data)
    assert dom.eq(u[90], two)
    assert not dom.eq(u[90], one_plus_a)
    assert time.monotonic() - t0 < 300.0
    _report(5, "characteristic-3 stretch fixture (r = 90)", t0)


def test_criterion_6_dihedral_identity_suite():
    t0 = time.monotonic()
    for r in range(3, 9):
        names = tuple(f"a{i}" for i in range(1, r // 2 + 1))
        dom = build_domain(0, [], names)
        df = symmetric_form(dom, 1, r, [dom.param(n) for n in names])
        u = invariants(df)
        assert dom.eq(
            dom.pow(u[r - 1], r),
            dom.mul(dom.from_int(2 ** (r - 2)), dom.mul(u[1], u[1])),
        ), f"r={r}"
    dom = build_domain(0, [("I", "t^2+1")], ("a", "b", "c"))
    u = invariants_of(
        parse_expression("x^12 + a*x^9 + b*x^6 + c*x^3 + 1", dom), 3
    )
    two_u1 = dom.mul(dom.from_int(2), u[1])
    u3sq = dom.mul(u[3], u[3])
    assert dom.eq(dom.sub(two_u1, u3sq), _expect(dom, "2*(a - c)^2*(a + c)^2"))
    assert dom.eq(dom.add(two_u1, u3sq), _expect(dom, "2*(a - I*c)^2*(a + I*c)^2"))
    _report(6, "dihedral identity suite and component factorizations", t0)


def test_criterion_7_normalization_bridge():
    t0 = time.monotonic()
    dom = build_domain(0, [("s3", "t^2 - 3")], ())
    f = parse_expression("x^6 + (25 - 15*s3)*x^3 + (15*s3 - 26)", dom)
    df = delta_form(f, 3)
    nf, record = normalize(df)
    assert record.root_free  # no 6th root of the constant in Q(sqrt3)
    u = invariants_general(nf)
    assert u.values == (dom.from_int(-100), dom.from_int(2))
    # matches the normal form computed in its own tower Q(i, sqrt2)
    dom2 = build_domain(0, [], (), sugar_i=True, sugar_sqrts=[2])
    u2 = invariants_of(parse_expression("x^6 + 5*I*sqrt(2)*x^3 + 1", dom2), 3)
    assert [common_rational(dom2, v) for v in u2.values] == [mpq(-100), mpq(2)]
    _report(7, "normalization bridge without the joint tower", t0)


def test_criterion_8_group_fixture_suite():
    t0 = time.monotonic()
    sizes = {
        "cyclic(3)": ([1, 1], 3),
        "cyclic(4)": ([1, 1], 4),
        "dihedral(2)": ([2, 2, 2], 4),
        "dihedral(3)": ([2, 3, 3], 6),
        "dihedral(4)": ([2, 4, 4], 8),
        "dihedral(5)": ([2, 5, 5], 10),
        "dihedral(6)": ([2, 6, 6], 12),
        "dihedral_b(3)": ([2, 3, 3], 6),
        "dihedral_b(4)": ([2, 4, 4], 8),
        "a4": ([4, 4, 6], 12),
        "a4_b": ([4, 4, 6], 12),
        "s4": ([6, 8, 12], 24),
        "s4_b": ([6, 8, 12], 24),
        "s4_c": ([6, 8, 12], 24),
        "a5": ([12, 20, 30], 60),
        "a5_b": ([12, 20, 30], 60),
        "elem_abelian(3,1,2)": ([1, 3], 6),
        "elem_abelian(3,2,4)": ([1, 9], 36),
        "psl(3,2)": ([10, 72], 360),
        "pgl(3,2)": ([10, 72], 720),
    }
    rational_param_fixtures = {
        "cyclic(3)": 5,
        "cyclic(4)": 5,
        "dihedral(2)": 3,
        "dihedral(3)": 3,
        "dihedral(4)": 3,
        "dihedral(5)": 3,
        "dihedral(6)": 3,
        "dihedral_b(3)": 3,
        "dihedral_b(4)": 3,
        "a4": 5,
        "a4_b": 4,
        "s4": 7,
        "s4_b": 7,
        "s4_c": 7,
        "a5": 3,
        "elem_abelian(3,1,2)": 1,
        "elem_abelian(3,2,4)": 1,
    }
    for name, (orbit_sizes, order) in sizes.items():
        fx = fixture_by_name(name)
        assert len(fx.elements()) == order == fx.order, name
        got = sorted(orb.size for orb in fx.special_orbits)
        assert got == sorted(orbit_sizes), (name, got)
        for orb in fx.special_orbits:
            if orb.poly.is_constant():
                continue
            # the point set with its infinity flag, for every orbit; branch
            # polynomials also transport proportionally, with no degree drop
            assert orbit_set_invariant(orb, fx), (name, orb.name)
            if orb.branchable:
                assert is_invariant(orb.poly, fx), (name, orb.name)
    # generic templates decompose back with exact parameter recovery
    for name, a_int in rational_param_fixtures.items():
        fx = fixture_by_name(name)
        dom = fx.domain
        tpl = fx.generic_template(dom, dom.from_int(a_int))
        rep = orbit_decomposition(tpl, fx)
        assert rep.t_generic == 1, name
        assert rep.generic_params is not None, name
        assert fx.generic_template(dom, rep.generic_params[0]) == tpl, name
    # the two big projective fixtures, with a field-element parameter
    for name in ("psl(3,2)", "pgl(3,2)"):
        fx = fixture_by_name(name)
        dom = fx.domain
        w = dom.gen()
        tpl = fx.generic_template(dom, w)
        rep = orbit_decomposition(tpl, fx)
        assert rep.t_generic == 1 and rep.generic_params == (w,), name
    # a5_b's template parameter lives in Q(i) inside its tower
    fx = fixture_by_name("a5_b")
    dom = fx.domain
    tpl = fx.generic_template(dom, dom.from_int(2))
    rep = orbit_decomposition(tpl, fx)
    assert rep.t_generic == 1 and rep.generic_params == (dom.from_int(2),)
    _report(8, "group fixture suite (invariance, sizes, recovery)", t0)


def test_criterion_9_reconstruction_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    done = 0
    while done < 100:
        r = rng.randint(3, 6)
        half = [rand_mpq(rng) for _ in range((r - 1) // 2 + (1 if r % 2 == 0 else 0))]
        if not half[0]:
            continue
        df = symmetric_form(QQ, 2, r, half)
        u = invariants(df)
        if QQ.is_zero(u[1]):
            continue
        model = reconstruct(u)
        assert verify_roundtrip(model)
        # u_1/2 = a_1^r is a perfect power here, so specialization applies
        sp = specialize(model, half[0])
        assert invariants(sp).values == u.values
        done += 1
    _report(9, "reconstruction round-trips and specialization", t0)


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    # tau_1 / tau_2 invariance in quotient rings
    for _ in range(25):
        r = rng.randint(3, 6)
        coeffs = [mpq(1)] + [rand_mpq(rng) for _ in range(r - 1)] + [mpq(1)]
        df = DeltaForm(QQ, 2, tuple(coeffs))
        u = invariants(df)
        assert invariants(tau2_apply(df)).values == u.values
        out = tau1_apply(df)
        ring = out.domain
        ut = invariants(out)
        assert all(ring.eq(ut[i], ring.from_base(u[i])) for i in range(1, r + 1))
    # merge equivariance and the convolution law
    for _ in range(25):
        ra, rb = rng.randint(1, 4), rng.randint(1, 4)
        fa = [mpq(1)] + [rand_mpq(rng) for _ in range(ra - 1)] + [mpq(1)]
        fb = [mpq(1)] + [rand_mpq(rng) for _ in range(rb - 1)] + [mpq(1)]
        dfa, dfb = DeltaForm(QQ, 2, tuple(fa)), DeltaForm(QQ, 2, tuple(fb))
        try:
            dfm = merge(dfa, dfb)
        except Exception:
            continue
        assert merge(dfa.reversed(), dfb.reversed()) == dfm.reversed()
        for i in range(ra + rb + 1):
            conv = sum(
                (fa[k] * fb[i - k] for k in range(max(0, i - rb), min(ra, i) + 1)), mpq(0)
            )
            assert dfm.coeffs[i] == conv
    # rescale invariance
    for _ in range(25):
        r = rng.randint(2, 5)
        coeffs = [mpq(1)] + [rand_mpq(rng) for _ in range(r - 1)] + [mpq(1)]
        f = DeltaForm(QQ, 2, tuple(coeffs)).to_unipoly()
        lam = mpq(rng.choice([2, 3, -2]), rng.choice([1, 3]))
        scaled = UniPoly(QQ, {e: c * lam**e for e, c in f.coeffs.items()})
        assert invariants_of(f, 2).values == invariants_of(scaled, 2).values
    # blow-up bilinear relation under matching conventions (r = 4, 6)
    for r in (4, 6):
        names = tuple(f"a{i}" for i in range(1, r // 2 + 1))
        dom = build_domain(0, [], names)
        df = symmetric_form(dom, 1, r, [dom.param(n) for n in names])
        u1 = shifted_invariants(df, 1, convention="r-1")
        u2 = shifted_invariants(df, 2, convention="r-1")
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                assert dom.eq(dom.mul(u2[i], u1[j]), dom.mul(u2[j], u1[i]))
    # products of dihedral orbit polynomials satisfy a_i = a_0 a_{r-i}
    fx = fixture_by_name("dihedral(3)")
    dom = fx.domain
    for _ in range(25):
        f = UniPoly.one(dom)
        used = set()
        for _ in range(rng.randint(1, 3)):
            val = rng.randint(-9, 9)
            if val in (2, -2) or val in used:
                continue
            used.add(val)
            f = f * fx.generic_template(dom, dom.from_int(val))
        if rng.random() < 0.5:
            f = f * fx.orbit("B-").poly
        if f.is_constant():
            continue
        df = delta_form(f, 3)
        a0 = df.coeffs[0]
        assert all(
            dom.eq(df.coeffs[i], dom.mul(a0, df.coeffs[df.r - i])) for i in range(1, df.r)
        )
    _report(10, "property suites with fixed seeds", t0)
