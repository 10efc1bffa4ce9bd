import pytest
from hypothesis import given, settings, strategies as st

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
from superelliptic.catalog import a5_fixture, sqrt3_field, zeta5_field
from superelliptic.parser import build_domain, parse_constant, parse_expression
from superelliptic.rings import QuotientRing
from superelliptic.unipoly import NEG_INF, _res_with_derivative

from conftest import qpoly, tower_from_leaves


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


# domains of the integer-column Taylor shift: Q, F_p and towers over them
SHIFT_DOMAINS = {
    "Q": QQ,
    "F_7": PrimeField(7),
    "F_9": build_domain(3, [("i", "t^2 + 1")], ()),
    "Q(i, sqrt3)": build_domain(0, [("I", "t^2 + 1"), ("s3", "t^2 - 3")], ()),
    "Q(i, zeta5)": zeta5_field(),
}


def _random_coeffs(dom, rng, n):
    """n + 1 coefficients with zeros, mixed denominators and, over a tower,
    one leaf column that is zero in every coefficient."""
    leaf = dom.leaf if isinstance(dom, QuotientRing) else dom
    dim = dom.dim if isinstance(dom, QuotientRing) else 1
    dead = rng.randrange(1, dim) if dim > 1 else None

    def leaf_value(k):
        if k == dead or rng.random() < 0.3:
            return leaf.zero()
        if leaf.char:
            return rng.randrange(leaf.char)
        return mpq(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 25)))

    coeffs = []
    for _ in range(n + 1):
        coeffs.append(tower_from_leaves(dom, [leaf_value(k) for k in range(dim)]))
    return coeffs


def _shift_by_additions(dom, g):
    """g(x + 1) by the plain loop of domain additions."""
    g = list(g)
    n = len(g) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] = dom.add(g[j], g[j + 1])
    return g


@pytest.mark.parametrize("name", list(SHIFT_DOMAINS))
def test_shift_by_one_matches_domain_additions(name, rng):
    dom = SHIFT_DOMAINS[name]
    for n in (0, 1, 2, 3, 7, 12, 20):
        for _ in range(3):
            g = _random_coeffs(dom, rng, n)
            assert rings._shift_by_one(dom, list(g)) == _shift_by_additions(dom, g), (name, g)
    zero = [dom.zero()] * 6
    assert rings._shift_by_one(dom, list(zero)) == zero


@pytest.mark.parametrize("name", list(SHIFT_DOMAINS))
def test_shift_transport_matches_horner(name, rng):
    dom = SHIFT_DOMAINS[name]

    def element():
        return _random_coeffs(dom, rng, 0)[0]

    def mobius(zero_at=None):
        while True:
            entries = [element() for _ in range(4)]
            if zero_at is not None:
                entries[zero_at] = dom.zero()
            try:
                return Mobius(dom, *entries)
            except ValueError:  # singular matrix
                pass

    maps = [mobius(2), mobius(3)] + [mobius() for _ in range(3)]  # c = 0, d = 0
    for n in (1, 4, 11, 20):
        coeffs = _random_coeffs(dom, rng, n)
        while dom.is_zero(coeffs[n]):
            coeffs[n] = element()
        f = UniPoly.from_list(dom, coeffs)
        for m in maps:
            assert mobius_transport(f, m) == unipoly._horner_transport(f, m), (name, f, m)


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


@pytest.mark.parametrize("ext", [[], [("I", "t^2 + 1")]], ids=["Q", "Q(i)"])
def test_coprimality_of_a_zero_or_constant_takes_no_gcd(ext, monkeypatch):
    # a zero operand is coprime to nothing of positive degree, and a
    # nonzero constant to everything; neither reaches an image or a gcd
    dom = build_domain(0, ext, ())
    for name in ("_coprime_mod_p", "poly_gcd"):
        monkeypatch.setattr(unipoly, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    f, zero = parse_expression("x^2 + 3", dom), UniPoly.zero(dom)
    c = UniPoly.constant(dom, dom.from_int(5))
    assert not unipoly.polys_coprime(zero, f) and not unipoly.polys_coprime(f, zero)
    assert unipoly.polys_coprime(c, f) and unipoly.polys_coprime(f, c)


def test_coprimality_builds_images_only_over_number_fields(monkeypatch):
    # over Q(a, b) polys_coprime runs the exact gcd and builds no F_p image;
    # over Q(i) it still tries the mod-p image first
    built = []
    real = unipoly._mod_p_image
    monkeypatch.setattr(unipoly, "_mod_p_image", lambda dom, p: built.append(p) or real(dom, p))
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


def _q_zeta20():
    """Q(zeta20) = Q(i, zeta5) as one step over Q.  Its modulus splits mod
    every prime, since (Z/20Z)^* has no element of order 8, so the step gets
    no certificate and takes the tower image mod p; the map sends a value
    of the catalog's Q(i, zeta5) there by i -> zeta20^5, zeta5 -> zeta20^4."""
    L = build_domain(0, [("z", "t^8 - t^6 + t^4 - t^2 + 1")], ())
    K = zeta5_field()
    i, z5 = L.pow(L.gen(), 5), L.pow(L.gen(), 4)

    def to_l(c):
        out = L.zero()
        for b, cb in enumerate(K.coords(c)):
            for a, q in enumerate(K.base.coords(cb)):
                out = L.add(out, L.mul(L.from_base(q), L.mul(L.pow(i, a), L.pow(z5, b))))
        return out

    return L, to_l


def test_coprimality_over_q_i_zeta5_runs_tables_in_the_image(monkeypatch):
    # over Q(zeta20), which gets no certificate; the images' tables are
    # built once per image tower: build them first
    K, to_k = _q_zeta20()
    assert not rings._certified_field(K)
    for p in rings._image_primes(K):
        assert rings._mod_p_image(K, p)[0]._flat_inv
    inside, verdicts, hits = [], [], []
    real_mul, real_divmod = QuotientRing._schoolbook_mul, rings._ul_divmod

    def image_step(real, verdict):
        # the reduction of one polynomial, or one gcd, with the verdict it gives
        def step(*args):
            inside.append(args)
            try:
                out = real(*args)
                if verdict:
                    verdicts.append(out.degree() == 0)
                return out
            finally:
                inside.pop()
        return step

    def schoolbook(self, a, b):
        if inside:
            hits.append("_schoolbook_mul")
        return real_mul(self, a, b)

    def divmod_(*args):
        if inside:
            hits.append("_ul_divmod")
        return real_divmod(*args)

    b0 = a5_fixture().orbit("B0").poly
    f = UniPoly(K, {e: to_k(c) for e, c in b0.coeffs.items()})
    monkeypatch.setattr(unipoly, "_poly_mod_p", image_step(unipoly._poly_mod_p, False))
    monkeypatch.setattr(unipoly, "poly_gcd", image_step(unipoly.poly_gcd, True))
    monkeypatch.setattr(QuotientRing, "_schoolbook_mul", schoolbook)
    monkeypatch.setattr(rings, "_ul_divmod", divmod_)
    assert f.domain == K and f.degree() == 20
    assert squarefree_test(f)
    assert verdicts == [True] and not hits


def test_squarefree_test_over_a_certified_tower_makes_no_tower_product(monkeypatch):
    # the image of a5's B0 at a root chain is one int list, and its
    # derivative is taken there: no QuotientRing product runs
    f = a5_fixture().orbit("B0").poly
    K = f.domain
    assert rings._certified_field(K) and f.degree() == 20
    products = []
    real = QuotientRing.mul
    monkeypatch.setattr(QuotientRing, "mul", lambda self, a, b: products.append(self) or real(self, a, b))
    assert squarefree_test(f)
    assert not products
    assert isinstance(rings._mod_p_image(K, next(rings._image_primes(K)))[0], PrimeField)
    # 65537 = 2 mod 5 has no fifth root of unity, so no root chain
    with pytest.raises(ValueError, match="no root chain"):
        rings._mod_p_image(K, 65537)
    assert unipoly._poly_mod_p(f, 65537) is None


def _no_certificate_tower():
    """Q(r)(I) with r^4 - 10 r^2 + 1 = 0: r = sqrt2 + sqrt3 generates a
    field, but its modulus splits mod every prime (the Galois group is
    Klein's four-group), so no step above it is certified either."""
    return build_domain(0, [("r", "t^4 - 10*t^2 + 1")], (), sugar_i=True)


# domains of the trial-division differential: Q, the catalog towers, a
# tower with no certificate over a non-field base, and F_9, with no image
DIVISION_DOMAINS = {
    "Q": (0, []),
    "Q(i)": (0, [("I", "t^2 + 1")]),
    "Q(i, sqrt3)": (0, [("I", "t^2 + 1"), ("sqrt3", "t^2 - 3")]),
    "Q(i, sqrt2)": (0, [("I", "t^2 + 1"), ("sqrt2", "t^2 - 2")]),
    "Q(i, zeta5)": (0, [("I", "t^2 + 1"), ("z5", "t^4 + t^3 + t^2 + t + 1")]),
    "Q[t]/(t^2 - 1)[I]": (0, [("t", "t^2 - 1"), ("I", "t^2 + 1")]),
    "F_9": (3, [("w", "t^2 + 1")]),
}


def _division_outcome(divide):
    """The quotient or None that divide() returns, or the message and factor
    of the ZeroDivisorError it raises."""
    try:
        return divide()
    except rings.ZeroDivisorError as err:
        return str(err), err.factor


@pytest.mark.parametrize("name", list(DIVISION_DOMAINS))
def test_divides_exactly_matches_the_exact_division(name, rng, monkeypatch):
    """Seeded divisible and non-divisible pairs give the answer, or the
    error, of the division over the domain.  At the domain's first image
    prime p, a coefficient whose denominator p divides, and a divisor
    whose leading coefficient vanishes mod p, make the image step aside."""
    char, exts = DIVISION_DOMAINS[name]
    dom = build_domain(char, exts, ())
    p = next(rings._image_primes(dom), None)
    verdicts = []
    real = unipoly._remainder_mod_p
    monkeypatch.setattr(unipoly, "_remainder_mod_p", lambda f, g: verdicts.append(real(f, g)) or verdicts[-1])

    def coeff(special=None):
        leaves = [rng.randrange(char) if char else mpq(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(getattr(dom, "dim", 1))]
        if special is not None:
            leaves[0] = special
        return tower_from_leaves(dom, leaves)

    def poly(deg, lead=None):
        coeffs = {e: coeff() for e in range(deg)}
        coeffs[deg] = dom.one() if lead is None else lead
        return UniPoly(dom, coeffs)

    def check(g, f):
        exact = _division_outcome(lambda: (lambda q, r: q if r.is_zero() else None)(*f.divrem(g)))
        verdicts.clear()
        assert _division_outcome(lambda: g.divides_exactly(f)) == exact, (g, f)
        return verdicts[0]

    rejected = 0
    for _ in range(8):
        g = poly(rng.randint(1, 3), rng.choice([None, coeff()]))
        if dom.is_zero(g.lc()):
            continue
        h, r = poly(rng.randint(0, 3), coeff()), poly(rng.randint(0, int(g.degree()) - 1), coeff())
        for f in (g * h, g * h + r, poly(rng.randint(0, 5), coeff())):
            rejected += check(g, f)
    if p is None:
        assert not rejected
        return
    assert rejected
    # a denominator at p, in a divisible and a non-divisible pair, and a
    # divisor whose image drops its degree
    over_p = coeff(mpq(1, p))
    g, x = poly(2), UniPoly.gen(dom)
    for f in (g * (x + UniPoly.constant(dom, over_p)), g * x + UniPoly.constant(dom, over_p)):
        assert unipoly._poly_mod_p(f, p) is None
        assert not check(g, f)
    g = poly(2, dom.from_int(p))
    assert unipoly._poly_mod_p(g, p) is None
    assert not check(g, g * x) and not check(g, poly(4))
    if name == "Q[t]/(t^2 - 1)[I]":
        # a zero-divisor lead t - 1 is no unit of the image either, and the
        # division over the domain raises Euclid's error
        g = poly(2, dom.from_base(dom.base.sub(dom.base.gen(), dom.base.one())))
        assert not check(g, poly(4))
        assert isinstance(_division_outcome(lambda: g.divides_exactly(poly(4))), tuple)


def test_a_prime_dividing_a_denominator_gives_no_image_verdict():
    # p divides a denominator of c, so that prime builds no image of f and
    # polys_coprime decides at the next prime or exactly; p is the first
    # prime of the domain: 2^31 - 1 over a tower with no certificate, and
    # the first prime below 2^31 with a root chain over Q(i, sqrt3)
    cases = [(_no_certificate_tower(), "r"),
             (build_domain(0, [("I", "t^2 + 1"), ("s3", "t^2 - 3")], ()), "s3")]
    for K, name in cases:
        p, q = tuple(rings._image_primes(K))[:2]
        c = parse_constant(f"1/{p}*I + {name}", K)
        with pytest.raises(ValueError, match="prime divides a denominator"):
            rings._mod_p_image(K, p)[1](c)
        f = UniPoly(K, {2: K.one(), 1: K.one(), 0: c})
        g = UniPoly(K, {1: K.one(), 0: K.from_int(-1)})
        h = UniPoly(K, {1: K.one(), 0: c})
        assert unipoly._poly_mod_p(f, p) is None
        assert unipoly.polys_coprime(f, g) and unipoly.polys_coprime(g, f)
        assert unipoly._poly_mod_p(f * h, p) is None
        assert not unipoly.polys_coprime(f * h, g * h)
        assert poly_gcd(f * h, g * h) == h
    assert tuple(rings._image_primes(cases[0][0])) == (2147483647, 2147483629, 2147483587)
    # the same over Q, whose first prime is 2^31 - 1 too
    p = 2147483647
    assert next(rings._image_primes(QQ)) == p
    q = mpq(3, p)
    f, g, h = P([q, 1, 1]), P([-1, 1]), P([q, 1])
    with pytest.raises(ValueError, match="prime divides a denominator"):
        rings._mod_p_image(QQ, p)[1](q)
    assert unipoly._poly_mod_p(f, p) is None
    assert unipoly.polys_coprime(f, g)
    assert not unipoly.polys_coprime(f * h, g * h)
    # a leading coefficient divisible by p has an image that loses degree:
    # the degree rule rejects p, over the towers and over Q, and the next
    # prime decides
    for dom in [K for K, _ in cases] + [QQ]:
        p, q = tuple(rings._image_primes(dom))[:2]
        f = UniPoly(dom, {2: dom.from_int(p), 1: dom.one(), 0: dom.one()})
        g = UniPoly(dom, {1: dom.one(), 0: dom.from_int(-1)})
        assert unipoly._poly_mod_p(f, p) is None and unipoly._poly_mod_p(f, q) is not None
        assert unipoly.polys_coprime(f, g) and not unipoly.polys_coprime(f * g, g * g)


def test_each_image_is_built_once_per_domain_and_prime(monkeypatch):
    # a fresh tower with no certificate has no images; the first
    # coprimality test builds them and keeps them on the tower, so a second
    # one builds none; equal towers share what they keep through their
    # table, so the tower starts from an empty table cache
    monkeypatch.setattr(rings, "_TABLES", {})
    built = []
    real = QuotientRing.__init__
    monkeypatch.setattr(QuotientRing, "__init__", lambda self, *a, **k: built.append(self) or real(self, *a, **k))
    K = QuotientRing(QQ, "r", tuple(map(mpq, (1, 0, -10, 0, 1))), field=True)
    K = QuotientRing(K, "I", (K.one(), K.zero(), K.one()), field=True)
    f = UniPoly(K, {3: K.one(), 1: K.gen(), 0: K.from_int(5)})
    g = UniPoly(K, {2: K.one(), 0: K.from_base(K.base.gen())})
    built.clear()
    assert unipoly.polys_coprime(f, g)
    # one image tower of two steps over GF(2^31 - 1), which decides
    p = next(rings._image_primes(K))
    assert p == 2147483647
    assert len(built) == 2 and rings._mod_p_image(K, p)[0] is built[-1]
    assert rings._mod_p_image(K.base, p)[0] is built[0] and built[0].base == PrimeField(p)
    built.clear()
    assert unipoly.polys_coprime(f, g) and squarefree_test(f) and not built
    # a tower over Q(a) has no image, so every prime is bad for it, and it
    # has no primes to try
    Qa = build_domain(0, [], ("a",))
    L = QuotientRing(Qa, "r", (Qa.from_int(-7), Qa.zero(), Qa.one()), field=True)
    assert unipoly._poly_mod_p(UniPoly(L, {1: L.one(), 0: L.gen()}), p) is None
    assert not tuple(rings._image_primes(L))


def test_certificate_and_root_chains_are_found_once_per_tower(monkeypatch):
    # Q(sqrt7)(I): the step I is certified at a root chain of Q(sqrt7), and
    # the tower's primes are found as coprimality tests ask for them, the
    # first test needing one; once found, no test over the same tower
    # searches again; an empty table cache makes the tower fresh
    monkeypatch.setattr(rings, "_TABLES", {})
    searches = []
    for name in ("_fp_roots", "_fp_irreducible"):
        real = getattr(rings, name)
        monkeypatch.setattr(rings, name, lambda *a, real=real, name=name: searches.append(name) or real(*a))
    K = QuotientRing(QQ, "r", (mpq(-7), mpq(0), mpq(1)), field=True)
    K = QuotientRing(K, "I", (K.one(), K.zero(), K.one()), field=True)
    f = UniPoly(K, {3: K.one(), 1: K.gen(), 0: K.from_int(5)})
    g = UniPoly(K, {2: K.one(), 0: K.from_base(K.base.gen())})
    assert unipoly.polys_coprime(f, g)
    assert {"_fp_roots", "_fp_irreducible"} <= set(searches)
    assert len(K._kept["primes"]) == 1
    primes = tuple(rings._image_primes(K))
    assert len(primes) == 3 and all(isinstance(rings._mod_p_image(K, p)[0], PrimeField) for p in primes)
    searches.clear()
    assert unipoly.polys_coprime(f, g) and squarefree_test(f) and not squarefree_test(f * f)
    assert not searches


@st.composite
def _tower_pairs(draw, dom):
    """f = a h and g = b h over dom, with small sparse leaves; h is 1 or
    a monic polynomial of degree 1 or 2."""
    def element():
        leaves = [mpq(0)] * dom.dim
        for k, v in draw(st.lists(st.tuples(st.integers(0, dom.dim - 1), st.integers(-3, 3)), max_size=3)):
            leaves[k] = mpq(v)
        return tower_from_leaves(dom, leaves)

    def poly(deg, monic=False):
        coeffs = {e: element() for e in range(deg)}
        lead = dom.one() if monic else element()
        coeffs[deg] = dom.one() if dom.is_zero(lead) else lead
        return UniPoly(dom, coeffs)

    h = poly(draw(st.integers(0, 2)), monic=True)
    return poly(draw(st.integers(1, 3))) * h, poly(draw(st.integers(1, 2))) * h


@pytest.mark.parametrize("field", [sqrt3_field, zeta5_field], ids=["Q(i, sqrt3)", "Q(i, zeta5)"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_coprimality_at_a_root_chain_agrees_with_the_exact_gcd(field, data):
    dom = field()
    f, g = data.draw(_tower_pairs(dom))
    assert unipoly.polys_coprime(f, g) == (poly_gcd(f, g).degree() == 0)


def test_image_of_an_uncertified_tower_keeps_euclid():
    # Q[t]/(t^3 - t) is no field, so I over it inverts by Euclid, and so
    # does its image mod p, though the image's base F_p is certified
    K = build_domain(0, [("t", "t^3-t")], (), sugar_i=True)
    assert K._table is not None and K.base._flat_inv and not K._flat_inv
    image = rings._mod_p_image(K, next(rings._image_primes(K)))[0]
    assert image._table is not None and image.base._flat_inv and not image._flat_inv


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
