import pytest

from superelliptic import (
    QQ,
    DegreeCapError,
    Mobius,
    PrimeField,
    UniPoly,
    compose,
    discriminant,
    mobius_transport,
    mpq,
    poly_gcd,
    proportional,
    resultant,
    set_degree_cap,
    squarefree_test,
)
from superelliptic import rings, unipoly
from superelliptic.catalog import a5_fixture, zeta5_field
from superelliptic.parser import build_domain, parse_constant, parse_expression
from superelliptic.rings import QuotientRing
from superelliptic.unipoly import NEG_INF, _res_with_derivative

from conftest import qpoly


def P(ints):
    return UniPoly.from_int_list(QQ, ints)


def test_mul_and_zero_sentinel():
    x3m1, x3p1 = P([-1, 0, 0, 1]), P([1, 0, 0, 1])
    assert x3m1 * x3p1 == P([-1, 0, 0, 0, 0, 0, 1])
    z = P([-1, 1]) + P([1, -1])
    assert z.is_zero() and z.degree() == NEG_INF


def test_divrem_symbolic():
    f = qpoly("x^6 + a*x^3 + 1", "a")
    g = qpoly("x^3 - 1", "a")
    q, r = f.divrem(g)
    assert q == qpoly("x^3 + a + 1", "a")
    assert r == qpoly("a + 2", "a")
    assert q * g + r == f


def test_divrem_errors():
    with pytest.raises(ZeroDivisionError):
        P([1, 1]).divrem(UniPoly.zero(QQ))


def test_compose():
    assert compose(P([1, 0, 1]), P([0, 0, 0, 1])) == P([1, 0, 0, 0, 0, 0, 1])
    f = qpoly("x^5 - 2*x + 3", "a")
    assert compose(f, UniPoly.gen(f.domain)) == f
    assert compose(qpoly("x^2 + a*x + 1", "a"), qpoly("x + 1", "a")) == qpoly(
        "x^2 + (2 + a)*x + (2 + a)", "a"
    )


def test_transport_identity_and_palindrome():
    f = qpoly("x^2 + a*x + 1", "a")
    dom = f.domain
    assert mobius_transport(f, Mobius.identity(dom)) == f
    swap = Mobius.from_ints(dom, 0, 1, 1, 0)
    assert mobius_transport(f, swap) == f
    # degree drop: root 0 maps to infinity
    t = mobius_transport(UniPoly.gen(dom), swap)
    assert t == UniPoly.one(dom)


def test_transport_composition_property(rng):
    dom = QQ
    for _ in range(200):
        deg = rng.randint(1, 4)
        f = UniPoly(dom, {e: mpq(rng.randint(-5, 5)) for e in range(deg)} | {deg: mpq(rng.randint(1, 5))})
        def rand_mob():
            while True:
                a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
                if a * d - b * c:
                    return Mobius.from_ints(dom, a, b, c, d)
        m, n = rand_mob(), rand_mob()
        lhs = mobius_transport(mobius_transport(f, m), n)
        rhs = mobius_transport(f, m * n)
        if lhs.degree() == f.degree() == rhs.degree():
            assert proportional(lhs, rhs) is not None


def test_transport_scalar_matrix_proportional(rng):
    f = qpoly("x^3 + a*x + 2", "a")
    dom = f.domain
    m = Mobius.from_ints(dom, 1, 2, 3, 1)
    scaled = Mobius(dom, *(dom.mul(dom.from_int(5), e) for e in m.entries()))
    assert proportional(mobius_transport(f, m), mobius_transport(f, scaled)) is not None


TRANSPORT_DOMAINS = (
    # (domain, entry values; the zero entry is added by the test)
    (QQ, ("1", "-2", "3/5", "7")),
    (build_domain(0, [("i", "t^2 + 1")], ()), ("1", "i", "2 - i", "-3/2*i")),
    (zeta5_field(), ("1", "I", "z5", "z5^2 - I")),
    (PrimeField(5), ("1", "2", "4")),
    (build_domain(3, [("i", "t^2 + 1")], ()), ("1", "i", "i + 1", "2*i")),  # F_9
    (build_domain(0, [], ("a",)), ("1", "a", "a + 1", "1/(a - 2)")),
    # reducible modulus: t - 1 and t + 1 are zero divisors
    (build_domain(0, [("t", "t^2 - 1")], ()), ("1", "t + 1", "t - 1", "2*t + 3")),
)


def test_transport_matches_expanded_sum(rng):
    # mobius_transport against sum_e f_e (a x + b)^e (c x + d)^(n - e), with
    # each of a, b, c, d zero in turn, and with f(a/c) = 0 (degree drop)
    for dom, texts in TRANSPORT_DOMAINS:
        values = [parse_constant(t, dom) for t in texts]
        drops = 0
        for zero_at in (None, 0, 1, 2, 3, None):
            while True:
                entries = [rng.choice(values) for _ in range(4)]
                if zero_at is not None:
                    entries[zero_at] = dom.zero()
                try:
                    m = Mobius(dom, *entries)
                    break
                except ValueError:  # singular matrix
                    pass
            a, b, c, d = entries
            for drop in (False, True):
                n = rng.randint(1, 5)
                f = UniPoly(dom, {e: rng.choice(values + [dom.zero()]) for e in range(n)} | {n: rng.choice(values)})
                if drop:  # F(a, c) = 0 for the binary form F of f
                    f = f * UniPoly(dom, {1: c, 0: dom.neg(a)})
                n = int(f.degree())
                num, den = UniPoly(dom, {1: a, 0: b}), UniPoly(dom, {1: c, 0: d})
                expected = UniPoly.zero(dom)
                for e, fe in f.coeffs.items():
                    expected = expected + (num**e * den ** (n - e)).scale(fe)
                got = mobius_transport(f, m)
                assert got == expected, (dom, f, m)
                drops += got.degree() < n
        assert drops


def _counting_copy(dom, counts):
    """An equal domain whose mul and inv count their calls."""
    spy = QuotientRing(dom.base, dom.name, dom.minpoly, field=dom.is_field)
    for name in ("mul", "inv"):
        def call(*args, _name=name, _method=getattr(spy, name)):
            counts[_name] += 1
            return _method(*args)
        setattr(spy, name, call)
    return spy


def test_transport_cost_is_linear_in_degree():
    # a5 B0 has degree 20; Horner's expansion takes ~900 tower products
    fx = a5_fixture()
    f1 = fx.orbit("B0").poly
    sigma, rho = fx.generators
    elements = [sigma, rho, sigma * rho, rho * sigma * sigma, rho.inverse() * sigma * rho]
    counts = {"mul": 0, "inv": 0}
    dom = _counting_copy(fx.domain, counts)
    f = UniPoly(dom, f1.coeffs)
    n = int(f.degree())
    for g in elements:
        m = Mobius(dom, *g.entries())
        counts.update(mul=0, inv=0)
        t = mobius_transport(f, m)
        assert counts["mul"] <= 8 * (n + 1) and counts["inv"] <= 3, counts
        assert t.degree() == n and proportional(t, f) is not None


def test_parametric_transport_takes_the_gcd_free_path(monkeypatch):
    dom = build_domain(0, [], ("a", "b"))
    f = parse_expression("x^8 + a*x^5 - b*x^2 + 1", dom)
    m = Mobius(dom, *(parse_constant(t, dom) for t in ("a", "1", "a + 1", "b")))
    calls = []
    real = rings.mp_gcd
    monkeypatch.setattr(rings, "mp_gcd", lambda *args: calls.append(1) or real(*args))
    t = mobius_transport(f, m)
    assert not calls and t.degree() == 8


def test_resultant_fixtures():
    assert resultant(P([-1, 1]), P([1, 1])) == 2
    assert resultant(P([-1, 0, 1]), P([-4, 0, 1])) == 9
    assert resultant(P([-1, 0, 1]), P([-1, 1])) == 0
    with pytest.raises(ValueError):
        resultant(P([1, 1]), UniPoly.zero(QQ))


def test_resultant_brute_force_products_small_degrees(rng):
    # Res(f,g) = lc(f)^deg g * prod g(rho_i) over fixtures with known roots
    for _ in range(100):
        dr = rng.randint(1, 4)
        roots = [mpq(rng.randint(-4, 4)) for _ in range(dr)]
        lc = mpq(rng.choice([1, 2, 3]))
        f = UniPoly.constant(QQ, lc)
        for r in roots:
            f = f * UniPoly(QQ, {1: mpq(1), 0: -r})
        g = UniPoly(QQ, {e: mpq(rng.randint(-5, 5)) for e in range(rng.randint(1, 4))})
        g = g + UniPoly(QQ, {rng.randint(1, 4): mpq(rng.randint(1, 4))})
        if g.is_zero() or g.is_constant():
            continue
        expected = lc ** int(g.degree())
        for r in roots:
            expected *= g.evaluate(r)
        assert resultant(f, g) == expected


def test_resultant_swap_sign_property(rng):
    for _ in range(80):
        f = UniPoly(QQ, {e: mpq(rng.randint(-4, 4)) for e in range(rng.randint(1, 5))} | {rng.randint(1, 5): mpq(rng.randint(1, 3))})
        g = UniPoly(QQ, {e: mpq(rng.randint(-4, 4)) for e in range(rng.randint(1, 5))} | {rng.randint(1, 5): mpq(rng.randint(1, 3))})
        if f.is_constant() or g.is_constant():
            continue
        sign = -1 if (int(f.degree()) * int(g.degree())) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_discriminant_quadratic():
    dom = build_domain(0, [], ("a",))
    f = parse_expression("x^2 + a*x + 1", dom)
    assert dom.eq(discriminant(f), parse_expression("a^2 - 4", dom).coeff(0))


def test_discriminant_sextic_matches_table():
    dom = build_domain(0, [], ("a",))
    f = parse_expression("x^6 + a*x^3 + 1", dom)
    expected = parse_expression("729*(a^2-4)^3", dom).coeff(0)
    assert dom.eq(discriminant(f), expected)


def test_discriminant_fast_path_matches_prs(rng):
    for _ in range(40):
        delta = rng.choice([2, 3, 4])
        r = rng.choice([2, 3, 4])
        coeffs = {delta * r: mpq(rng.choice([1, 2])), 0: mpq(rng.randint(1, 5))}
        for i in range(1, r):
            coeffs[delta * i] = mpq(rng.randint(-4, 4))
        f = UniPoly(QQ, coeffs)
        assert _res_with_derivative(f) == resultant(f, f.derivative())


def test_discriminant_monomial_identity():
    # disc(x^n + c) = (-1)^(n(n-1)/2) n^n c^(n-1)
    for n, c in ((6, 1), (5, 2), (4, 3)):
        f = UniPoly(QQ, {n: mpq(1), 0: mpq(c)})
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        assert discriminant(f) == sign * mpq(n) ** n * mpq(c) ** (n - 1)


def test_degree_product_law(rng):
    for _ in range(60):
        f = UniPoly(QQ, {rng.randint(0, 6): mpq(rng.randint(1, 5))})
        g = UniPoly(QQ, {rng.randint(0, 6): mpq(rng.randint(1, 5))})
        assert (f * g).degree() == f.degree() + g.degree()


def test_squarefree():
    assert squarefree_test(qpoly("x^6 + a*x^3 + 1", "a"))
    assert not squarefree_test(P([1, -2, 1]))  # (x-1)^2
    F3 = PrimeField(3)
    assert squarefree_test(UniPoly.from_int_list(F3, [0, -1, 0, 1]))  # x^3 - x
    assert not squarefree_test(UniPoly.from_int_list(F3, [1, 0, 0, 1]))  # x^3 + 1 = (x+1)^3


GCD_DOMAINS = (
    # (characteristic, extension steps, parameters, generator names)
    (0, [], (), ()),
    (0, [("i", "t^2 + 1")], (), ("i",)),
    (0, [("i", "t^2 + 1"), ("s3", "t^2 - 3")], (), ("i", "s3")),
    (0, [], ("a",), ("a",)),
    (7, [], (), ()),
    (3, [("i", "t^2 + 1")], (), ("i",)),  # F_9
    (7, [], ("a",), ("a",)),
)


def test_gcd_of_random_products(rng):
    # Every domain class poly_gcd routes: Q, number-field towers and Q(a)
    # through mp_gcd; F_7 and F_9 through Euclid; F_7(a) through mp_gcd.
    for char, exts, params, gens in GCD_DOMAINS:
        dom = build_domain(char, exts, params)

        def rand_coeff():
            terms = [str(rng.randint(-3, 3))] + [f"{rng.randint(-2, 2)}*{g}" for g in gens]
            den = rng.choice(["1", "2"] + [f"({rng.choice([1, 2])} + {g})" for g in gens])
            return "(" + " + ".join(terms) + f")/{den}"

        def rand_poly(deg):
            text = " + ".join(f"{rand_coeff()}*x^{e}" for e in range(deg + 1))
            p = parse_expression(text, dom)
            return p if p.degree() == deg else rand_poly(deg)

        coprime_seen = 0
        for _ in range(12):
            a, b, c = (rand_poly(rng.randint(1, 3)) for _ in range(3))
            g = poly_gcd(a * c, b * c)
            assert c.monic().divides_exactly(g) is not None
            assert g.divides_exactly(a * c) is not None and g.divides_exactly(b * c) is not None
            if not dom.is_zero(resultant(a, b)):
                assert g == c.monic()
                coprime_seen += 1
        assert coprime_seen
        f, zero = rand_poly(2), UniPoly.zero(dom)
        assert poly_gcd(zero, f) == f.monic() and poly_gcd(f, zero) == f.monic()
        assert poly_gcd(zero, zero) == zero


def test_coprimality_builds_images_only_over_number_fields(monkeypatch):
    # over Q(a, b) polys_coprime runs the exact gcd and builds no F_p image;
    # over Q(i) it still tries the mod-p image first
    built = []
    real = unipoly._mod_p_domain
    monkeypatch.setattr(unipoly, "_mod_p_domain", lambda dom, p: built.append(p) or real(dom, p))
    dom = build_domain(0, [], ("a", "b"))
    pairs = [("x^3 + a*x + b", "x^2 - a"), ("x^4 - b*x^2 + a^2", "a*x^3 + x - b"),
             ("x^2 + (a + b)*x + a*b", "x^5 + a")]
    for f, g in ((parse_expression(f, dom), parse_expression(g, dom)) for f, g in pairs):
        h = parse_expression("x^2 + a*x - b", dom)
        assert not dom.is_zero(resultant(f, g))
        assert unipoly.polys_coprime(f, g) and unipoly.polys_coprime(g, f)
        assert not unipoly.polys_coprime(f * h, g * h)
        assert not unipoly.polys_coprime(f * (h + f), g * (h + f))
    assert not squarefree_test(parse_expression("(x - a)^2*(x + b)", dom))
    assert not built
    gauss = build_domain(0, [("I", "t^2 + 1")], ())
    assert unipoly.polys_coprime(parse_expression("x^2 + I", gauss), parse_expression("x + 1", gauss))
    assert built


def test_proportional():
    assert proportional(P([2, 0, 2]), P([1, 0, 1])) == 2
    assert proportional(P([1, 0, 1]), P([-1, 0, 1])) is None
    assert proportional(UniPoly.zero(QQ), UniPoly.zero(QQ)) == 1


def test_degree_cap():
    set_degree_cap(64)
    try:
        with pytest.raises(DegreeCapError):
            _ = P([0, 1]) ** 65
        with pytest.raises(DegreeCapError):
            _ = (P([1] * 40)) * (P([1] * 40))
    finally:
        set_degree_cap(4096)


def test_evaluate_horner():
    f = P([1, -3, 0, 2])  # 2x^3 - 3x + 1
    assert f.evaluate(mpq(2)) == 16 - 6 + 1
    assert f.evaluate(mpq(0)) == 1
