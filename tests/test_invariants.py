import pytest

from superelliptic import (
    QQ,
    DeltaForm,
    InvariantError,
    PrimeField,
    QuotientRing,
    UniPoly,
    delta_form,
    discriminant,
    invariants,
    invariants_general,
    invariants_of,
    locus_test,
    mpq,
    normalize,
    resultant,
    shifted_invariants,
    tau1_apply,
    tau2_apply,
)
from superelliptic.parser import build_domain, parse_constant, parse_expression

from conftest import qpoly, rand_mpq, symmetric_form


def test_table_s6():
    u = invariants_of(qpoly("x^6 + a*x^3 + 1", "a"), 3)
    dom = u.domain
    assert u.values == (parse_expression("2*a^2", dom).coeff(0), dom.from_int(2))
    assert any("r = 2" in w for w in u.warnings)


def test_table_s9():
    u = invariants_of(qpoly("x^9 + a*x^6 + b*x^3 + 1", "a", "b"), 3)
    dom = u.domain
    assert u[1] == parse_expression("b^3 + a^3", dom).coeff(0)
    assert u[2] == parse_expression("2*b*a", dom).coeff(0)
    assert u[3] == dom.from_int(2)


def test_table_s12():
    u = invariants_of(qpoly("x^12 + a*x^9 + b*x^6 + c*x^3 + 1", "a", "b", "c"), 3)
    dom = u.domain
    assert u[1] == parse_expression("c^4 + a^4", dom).coeff(0)
    assert u[2] == parse_expression("c^2*b + a^2*b", dom).coeff(0)
    assert u[3] == parse_expression("2*c*a", dom).coeff(0)
    assert u[4] == dom.from_int(2)


def test_zero_middle_coefficients():
    df = DeltaForm(QQ, 2, (mpq(1), mpq(0), mpq(0), mpq(0), mpq(1)))
    u = invariants(df)
    assert u.values == (mpq(0), mpq(0), mpq(0), mpq(2))


def test_invariants_require_normal_form():
    df = DeltaForm(QQ, 1, (mpq(2), mpq(1), mpq(1)))
    with pytest.raises(InvariantError):
        invariants(df)


def test_general_agrees_on_normal_input():
    df = DeltaForm(QQ, 1, (mpq(1), mpq(3), mpq(5), mpq(1)))
    assert invariants_general(df).values == invariants(df).values


@pytest.mark.parametrize(
    "char, exts, params, text",
    [
        (0, [], (), "{p}/{q}"),
        (0, [("i", "t^2 + 1")], (), "{p}/{q} + {m}*i"),
        (7, [], (), "{p}"),
        (3, [("w", "t^2 + 1")], (), "{p} + {m}*w"),
        (0, [], ("a",), "{p}/{q} + {m}*a"),
    ],
)
def test_general_agrees_with_normal_form(rng, char, exts, params, text):
    # monic forms whose a_0 = lam^(delta r): the corrected invariants of the
    # form equal the plain invariants of the normal form lam carries it to
    dom = build_domain(char, exts, params)

    def draw(nonzero=False):
        while True:
            v = parse_constant(
                text.format(p=rng.randint(-6, 6), q=rng.randint(1, 4), m=rng.randint(-3, 3)), dom
            )
            if not (nonzero and dom.is_zero(v)):
                return v

    for _ in range(12):
        delta, r = rng.randint(1, 3), rng.randint(2, 5)
        lam = draw(nonzero=True)
        a0 = dom.pow(lam, delta * r)
        df = DeltaForm(dom, delta, (a0,) + tuple(draw() for _ in range(r - 1)) + (dom.one(),))
        nf, record = normalize(df, lam)
        assert not record.root_free and nf.is_normal
        assert invariants_general(df).values == invariants(nf).values


def test_corrected_invariants_sqrt3_fixture():
    # monic sextic over Q(sqrt3) whose normal form lives in Q(i, sqrt2)
    dom = build_domain(0, [("s3", "t^2 - 3")], ())
    f = parse_expression("x^6 + (25 - 15*s3)*x^3 + (15*s3 - 26)", dom)
    u = invariants_of(f, 3)
    assert u.values == (dom.from_int(-100), dom.from_int(2))
    # same invariants as the normal form computed in its own tower
    dom2 = build_domain(0, [], ())
    f2 = qpoly("x^6 + 5*I*sqrt(2)*x^3 + 1")
    u2 = invariants_of(f2, 3)
    from superelliptic import common_rational

    assert [common_rational(u2.domain, v) for v in u2.values] == [mpq(-100), mpq(2)]


def test_corrected_invariants_closed_form_and_lambda_substitution():
    # (b0, b1, 1) with r = 2: u_1 = 2 b1^2 / b0; cross-checked for b0 = 64
    dom = build_domain(0, [], ("b",))
    b = dom.param("b")
    df = DeltaForm(dom, 3, (dom.from_int(64), b, dom.one()))
    u = invariants_general(df)
    assert dom.eq(u[1], dom.div(dom.mul(dom.from_int(2), dom.mul(b, b)), dom.from_int(64)))
    # independent route: formal lambda with lambda^6 = 64 in Q(b)[c]/(c^6 - 64)
    ring = QuotientRing(dom, "c", (dom.from_int(-64),) + (dom.zero(),) * 5 + (dom.one(),))
    c = ring.gen()
    a1p = ring.mul(ring.inv(ring.pow(c, 3)), ring.from_base(b))  # lambda^{delta(1-r)} a_1
    u1_formal = ring.mul(ring.from_base(dom.from_int(2)), ring.mul(a1p, a1p))
    assert ring.eq(u1_formal, ring.from_base(u[1]))


def _a4_locus_data():
    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    two, six, twelve = dom.from_int(2), dom.from_int(6), dom.from_int(12)
    a2 = dom.div(dom.add(dom.mul(two, a), twelve), dom.sub(two, a))
    a3 = dom.div(dom.sub(dom.mul(two, a), twelve), dom.add(two, a))
    f = UniPoly.one(dom)
    for aj in (a, a2, a3):
        f = f * UniPoly(dom, {4: dom.one(), 2: dom.neg(aj), 0: dom.one()})
    return dom, a, f


def test_a4_locus_coefficients_match_tied_formulas():
    dom, a, f = _a4_locus_data()
    df = delta_form(f, 2)
    assert df.r == 6
    six, thirtysix, four = dom.from_int(6), dom.from_int(36), dom.from_int(4)
    expected_a1 = dom.div(
        dom.neg(dom.mul(a, dom.mul(dom.sub(a, six), dom.add(a, six)))),
        dom.mul(dom.add(dom.from_int(2), a), dom.add(dom.from_int(-2), a)),
    )
    assert dom.eq(df.coeffs[1], expected_a1)
    assert dom.eq(df.coeffs[2], dom.from_int(-33))
    assert dom.eq(df.coeffs[3], dom.mul(dom.from_int(-2), expected_a1))
    assert dom.eq(df.coeffs[4], dom.from_int(-33))
    assert dom.eq(df.coeffs[5], expected_a1)


def test_a4_locus_invariants_and_relations():
    dom, a, f = _a4_locus_data()
    u = invariants_of(f, 2)
    a1 = delta_form(f, 2).coeffs[1]
    pow_ = lambda x, k: dom.pow(x, k)
    assert dom.eq(u[1], dom.mul(dom.from_int(2), pow_(a1, 6)))
    assert dom.eq(u[2], dom.mul(dom.from_int(-66), pow_(a1, 4)))
    assert dom.eq(u[3], dom.mul(dom.from_int(-4), pow_(a1, 4)))
    assert dom.eq(u[4], dom.mul(dom.from_int(-66), pow_(a1, 2)))
    assert dom.eq(u[5], dom.mul(dom.from_int(2), pow_(a1, 2)))
    assert dom.eq(u[6], dom.from_int(2))
    # derived relations; the u2^3 = c u1^2 constant is recomputed by expansion
    assert dom.eq(dom.mul(u[4], u[4]), dom.mul(dom.from_int(-66), u[2]))
    assert dom.eq(dom.mul(dom.from_int(-33), u[5]), u[4])
    assert dom.eq(u[3], dom.mul(dom.div(dom.from_int(2), dom.from_int(33)), u[2]))
    assert dom.eq(pow_(u[2], 3), dom.mul(dom.from_int(-71874), dom.mul(u[1], u[1])))
    # the sign-free +71874 constant does not match the expansion
    assert not dom.eq(pow_(u[2], 3), dom.mul(dom.from_int(71874), dom.mul(u[1], u[1])))


def test_tau2():
    dom = build_domain(0, [], ("a", "b"))
    df = DeltaForm(dom, 3, (dom.one(), dom.param("b"), dom.param("a"), dom.one()))
    assert tau2_apply(df).coeffs == (dom.one(), dom.param("a"), dom.param("b"), dom.one())
    pal = DeltaForm(dom, 3, (dom.one(), dom.param("a"), dom.param("a"), dom.one()))
    assert tau2_apply(pal) == pal
    assert tau2_apply(tau2_apply(df)) == df


def test_tau1_reduction_and_specialization():
    dom = build_domain(0, [], ("a", "b"))
    df = DeltaForm(dom, 2, (dom.one(), dom.param("b"), dom.param("a"), dom.one()))
    out = tau1_apply(df)
    ring = out.domain
    eps = ring.gen()
    # a_r picks up eps^(delta r) = (eps^r)^delta = 1
    assert ring.is_one(out.coeffs[-1])
    assert ring.eq(out.coeffs[1], ring.mul(ring.pow(eps, 2), ring.from_base(dom.param("b"))))
    # r = 2, delta odd: eps^delta = -eps... specialize eps -> -1 means a1 -> -a1
    df2 = DeltaForm(dom, 3, (dom.one(), dom.param("a"), dom.one()))
    out2 = tau1_apply(df2)
    ring2 = out2.domain
    # eps^3 reduces to eps modulo eps^2 - 1
    assert ring2.eq(out2.coeffs[1], ring2.mul(ring2.gen(), ring2.from_base(dom.param("a"))))


def test_tau_invariance_of_invariants(rng):
    # rational random normal forms
    for _ in range(30):
        r = rng.randint(3, 6)
        coeffs = [mpq(1)] + [rand_mpq(rng) for _ in range(r - 1)] + [mpq(1)]
        df = DeltaForm(QQ, 2, tuple(coeffs))
        u = invariants(df)
        assert invariants(tau2_apply(df)).values == u.values
        out = tau1_apply(df)
        ring = out.domain
        ut = invariants(out)
        for i in range(1, r + 1):
            assert ring.eq(ut[i], ring.from_base(u[i]))
    # and symbolically for r = 4
    dom = build_domain(0, [], ("a", "b", "c"))
    df = DeltaForm(
        dom, 3, (dom.one(), dom.param("a"), dom.param("b"), dom.param("c"), dom.one())
    )
    u = invariants(df)
    assert invariants(tau2_apply(df)).values == u.values
    out = tau1_apply(df)
    ring = out.domain
    ut = invariants(out)
    for i in range(1, 5):
        assert ring.eq(ut[i], ring.from_base(u[i]))


def test_u_r_is_two(rng):
    for _ in range(25):
        r = rng.randint(2, 7)
        coeffs = [mpq(1)] + [rand_mpq(rng) for _ in range(r - 1)] + [mpq(1)]
        u = invariants(DeltaForm(QQ, 1, tuple(coeffs)))
        assert u[r] == mpq(2)


def test_invariants_of_takes_powers_by_ladder(monkeypatch):
    """invariants_of raises no element to a power >= 2 through pow: each
    power a_1^k, a_(r-1)^k, a_0^-k comes from a ladder.  The characteristic-3
    stretch family (r = 90) has u_i = 2 except u_i = 1 + p for 9 | i < 90;
    the root-free form (a_0 = a) takes the corrected invariants."""
    from superelliptic.rings import FunctionField

    dom = build_domain(3, [], ("a",))
    a = dom.param("a")
    p = dom.add(dom.mul(dom.from_int(2), a), dom.one())
    stretch = parse_expression("((x^9 - x)^8 + 1)^10 - (2*a + 1)*(x^9 - x)^72", dom)
    coeffs = [a, dom.add(a, dom.one()), dom.from_int(2), a, dom.one()]
    root_free = UniPoly(dom, {4 * i: c for i, c in enumerate(coeffs)})
    a0_inv = dom.inv(a)
    expected = [dom.add(dom.mul(dom.pow(a0_inv, 4 - i), dom.mul(dom.pow(coeffs[1], 4 - i), coeffs[i])),
                        dom.mul(a0_inv, dom.mul(dom.pow(coeffs[3], 4 - i), coeffs[4 - i])))
                for i in range(1, 5)]
    exponents = []
    real_pow = FunctionField.pow
    monkeypatch.setattr(FunctionField, "pow",
                        lambda self, x, n: exponents.append(n) or real_pow(self, x, n))
    u = invariants_of(stretch, 8)
    assert u.r == 90
    for i in range(1, 91):
        assert dom.eq(u[i], dom.add(dom.one(), p) if i % 9 == 0 and i < 90 else dom.from_int(2)), f"u_{i}"
    v = invariants_of(root_free, 4)
    assert all(dom.eq(v[i], expected[i - 1]) for i in range(1, 5))
    assert not [n for n in exponents if n >= 2]


def test_shifted_invariants_symmetric_e1():
    dom = build_domain(0, [], ("a", "b"))
    a, b = dom.param("a"), dom.param("b")
    df = DeltaForm(dom, 1, (dom.one(), a, b, a, dom.one()))  # r = 4 symmetric
    u = shifted_invariants(df, 1, convention="r-1")
    for i in range(1, 5):
        expected = dom.mul(dom.from_int(2), dom.mul(dom.pow(a, 3), df.coeffs[i]))
        assert dom.eq(u[i], expected)


def test_shifted_invariants_detect_deeper_cyclic():
    # a1 = a3 = 0, a2 != 0: plain invariants vanish, e = 2 shift does not
    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    df = DeltaForm(dom, 1, (dom.one(), dom.zero(), a, dom.zero(), dom.one()))
    u = invariants(df)
    assert all(dom.is_zero(u[i]) for i in range(1, 4)) and dom.eq(u[4], dom.from_int(2))
    u2 = shifted_invariants(df, 2, convention="r-1")
    assert not all(dom.is_zero(v) for v in u2.values)
    zero = DeltaForm(QQ, 1, (mpq(1), mpq(0), mpq(0), mpq(0), mpq(1)))
    for e in (1, 2, 3):
        ue = shifted_invariants(zero, e)
        assert all(QQ.is_zero(v) for v in ue.values[:-1])


def test_shifted_invariant_conventions_and_blowup_relation():
    # matching "r-1" tags: u_i^(e) u_j^(1) = u_j^(e) u_i^(1) on symmetric forms
    for r in (4, 6):
        names = tuple(f"a{i}" for i in range(1, r // 2 + 1))
        dom = build_domain(0, [], names)
        half = [dom.param(n) for n in names]
        df = symmetric_form(dom, 1, r, half)
        u1 = shifted_invariants(df, 1, convention="r-1")
        u2 = shifted_invariants(df, 2, convention="r-1")
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                assert dom.eq(dom.mul(u2[i], u1[j]), dom.mul(u2[j], u1[i]))
    # mixed tags break the constant-ratio relation in general
    dom = build_domain(0, [], ("a1", "a2"))
    df = symmetric_form(dom, 1, 4, [dom.param("a1"), dom.param("a2")])
    u_plain = invariants(df)
    u_e2 = shifted_invariants(df, 2, convention="r-1")
    products_equal = all(
        dom.eq(dom.mul(u_e2[i], u_plain[j]), dom.mul(u_e2[j], u_plain[i]))
        for i in range(1, 5)
        for j in range(1, 5)
    )
    assert not products_equal


def test_shift_range_errors():
    df = DeltaForm(QQ, 1, (mpq(1), mpq(2), mpq(2), mpq(1)))
    with pytest.raises(InvariantError):
        shifted_invariants(df, 0)
    with pytest.raises(InvariantError):
        shifted_invariants(df, 3)
    with pytest.raises(InvariantError):
        shifted_invariants(df, 1, convention="bogus")


def test_dihedral_identity_symbolic():
    # u_{r-1}^r = 2^(r-2) u_1^2 on symmetric normal forms, r = 3..8
    for r in range(3, 9):
        names = tuple(f"a{i}" for i in range(1, r // 2 + 1))
        dom = build_domain(0, [], names)
        half = [dom.param(n) for n in names]
        df = symmetric_form(dom, 1, r, half)
        u = invariants(df)
        lhs = dom.pow(u[r - 1], r)
        rhs = dom.mul(dom.from_int(2 ** (r - 2)), dom.mul(u[1], u[1]))
        assert dom.eq(lhs, rhs)
        assert locus_test(u).dihedral


def test_locus_examples():
    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    rep = locus_test(invariants(DeltaForm(dom, 1, (dom.one(), a, a, dom.one()))))
    assert rep.dihedral and not rep.higher_cyclic
    # generic s = 9 fails the dihedral identity by 4a^3b^3 - 2a^6 - 2b^6
    dom2 = build_domain(0, [], ("a", "b"))
    u = invariants_of(
        parse_expression("x^9 + a*x^6 + b*x^3 + 1", dom2), 3
    )
    gap = dom2.sub(
        dom2.pow(u[2], 3), dom2.mul(dom2.from_int(2), dom2.mul(u[1], u[1]))
    )
    expected = parse_expression("4*b^3*a^3 - 2*b^6 - 2*a^6", dom2).coeff(0)
    assert dom2.eq(gap, expected)
    assert not locus_test(u).dihedral


def test_locus_component_split_s12():
    # a = +-c lands on the plus component, a = +-ic on the minus component
    dom = build_domain(0, [], ("a", "b"))
    a, b = dom.param("a"), dom.param("b")
    plus = DeltaForm(dom, 3, (dom.one(), a, b, a, dom.one()))
    rep = locus_test(invariants(plus))
    assert rep.component == "plus"
    assert rep.component_group(3, 3) == "Z/3Z x| D_3"
    minus_dom = build_domain(0, [("I", "t^2+1")], ("a", "b"))
    av, bv = minus_dom.param("a"), minus_dom.param("b")
    iv = parse_expression("I", minus_dom).coeff(0)
    ia = minus_dom.mul(iv, av)
    minus = DeltaForm(minus_dom, 3, (minus_dom.one(), ia, bv, av, minus_dom.one()))
    rep2 = locus_test(invariants(minus))
    assert rep2.component == "minus"


def test_component_factorizations_s12():
    # 2^((r-2)/2) u1 -+ u3^(r/2) factor as 2(a -+ c)^2 (a +- c)^2
    dom = build_domain(0, [("I", "t^2+1")], ("a", "b", "c"))
    f = parse_expression("x^12 + a*x^9 + b*x^6 + c*x^3 + 1", dom)
    u = invariants_of(f, 3)
    two_u1 = dom.mul(dom.from_int(2), u[1])
    u3sq = dom.mul(u[3], u[3])
    minus = dom.sub(two_u1, u3sq)
    plus = dom.add(two_u1, u3sq)
    expect_minus = parse_expression("2*(a-c)^2*(a+c)^2", dom).coeff(0)
    expect_plus = parse_expression("2*(a - I*c)^2*(a + I*c)^2", dom).coeff(0)
    assert dom.eq(minus, expect_minus)
    assert dom.eq(plus, expect_plus)


def test_higher_cyclic_locus():
    u = invariants(DeltaForm(QQ, 1, (mpq(1), mpq(0), mpq(0), mpq(0), mpq(1))))
    rep = locus_test(u)
    assert rep.higher_cyclic


def test_locus_char2_guard():
    F2 = PrimeField(2)
    df = DeltaForm(F2, 1, (1, 1, 1))
    u = invariants(df)
    with pytest.raises(InvariantError):
        locus_test(u)


def test_r2_degenerate_warning():
    u = invariants(DeltaForm(QQ, 3, (mpq(1), mpq(5), mpq(1))))
    rep = locus_test(u)
    assert rep.degenerate_r2 and rep.component == "none"


def test_symmetry_lemma_on_dihedral_products(rng):
    # products of D_delta orbit polynomials satisfy a_i = a_0 a_{r-i}
    from superelliptic.catalog import dihedral_fixture

    fx = dihedral_fixture(3)
    dom = fx.domain
    for _ in range(100):
        f = UniPoly.one(dom)
        used = set()
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(-6, 6)
            if a in (2, -2) or a in used:
                continue
            used.add(a)
            f = f * fx.generic_template(dom, dom.from_int(a))
        if rng.random() < 0.4:
            f = f * fx.orbit("B-").poly
        if rng.random() < 0.4:
            f = f * fx.orbit("B+").poly
        if f.is_constant():
            continue
        df = delta_form(f, 3)
        a0 = df.coeffs[0]
        for i in range(1, df.r):
            assert dom.eq(df.coeffs[i], dom.mul(a0, df.coeffs[df.r - i]))


@pytest.mark.parametrize("char, names, text, delta, other", [
    (0, ("a",), "a*x^6 + x^3 + 2", 3, "x^2 - a*x + 2"),
    (0, ("a", "b"), "x^9 + a*x^6 + b*x^3 + a", 3, "x^3 + b*x + a"),
    (3, ("a",), "x^8 + a*x^4 + (a+1)*x^2 + a", 2, "x^2 + a*x + 2"),
])
def test_function_field_raws_are_term_dicts_keyed_by_exponent_tuples(char, names, text, delta, other):
    """Callers read rational-function raws as (num, den) pairs of dicts keyed
    by ``nvars``-tuples of ints, with no zero coefficient (the raws printed
    and checked by ``perfbench``): invariants, resultants and
    discriminants all return that layout."""
    dom = build_domain(char, [], names)
    f, g = parse_expression(text, dom), parse_expression(other, dom)
    raws = [*invariants_of(f, delta).values, resultant(f, g), discriminant(f)]
    assert any(den != {(0,) * len(names): 1} for _, den in raws)
    for raw in raws:
        assert type(raw) is tuple and len(raw) == 2
        for part in raw:
            assert type(part) is dict and 0 not in part.values()
            for e in part:
                assert type(e) is tuple and len(e) == dom.nvars and all(type(k) is int for k in e)
