import inspect
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from superelliptic import (
    QQ,
    Rationals,
    DomainMismatchError,
    UniPoly,
    FunctionField,
    PrimeField,
    QuotientRing,
    ZeroDivisorError,
    adjoin,
    common_rational,
    embed,
    mpq,
    poly_gcd,
    rings,
)
from superelliptic.catalog import (
    finite_field,
    gaussian_field,
    multiplicative_generator,
    sqrt3_field,
    zeta5_field,
)
from superelliptic.groups import _rational_roots
from superelliptic.parser import build_domain
from superelliptic.rings import _q_roots

from conftest import rand_mpq, tower_from_leaves


def sqrt3():
    return adjoin(QQ, "s3", (QQ.from_int(-3), QQ.zero(), QQ.one()), field=True)


def test_rational_basics():
    assert QQ.add(mpq(1, 2), mpq(1, 3)) == mpq(5, 6)
    assert QQ.inv(mpq(5, 6)) == mpq(6, 5)
    assert QQ.is_zero(QQ.sub(mpq(3), mpq(3)))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())


def test_rational_nth_root():
    assert QQ.nth_root(mpq(64), 6) == 2
    assert QQ.nth_root(mpq(-8), 3) == -2
    assert QQ.nth_root(mpq(4, 9), 2) == mpq(2, 3)
    assert QQ.nth_root(mpq(2), 2) is None
    assert QQ.nth_root(mpq(-4), 2) is None


def test_prime_field_matches_integer_arithmetic_exhaustively():
    for p in (2, 3, 5, 7, 11, 13):
        F = PrimeField(p)
        for a in range(p):
            for b in range(p):
                assert F.add(a, b) == (a + b) % p
                assert F.mul(a, b) == (a * b) % p
                assert F.sub(a, b) == (a - b) % p
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_f3_example():
    F3 = PrimeField(3)
    assert F3.add(2, 2) == 1


def test_sqrt3_square_fixture():
    # (25 - 15 s3)^2 = 1300 - 750 s3, reduced modulo t^2 - 3 by hand
    K = sqrt3()
    a = K.from_coeffs([mpq(25), mpq(-15)])
    assert K.coords(K.mul(a, a)) == (mpq(1300), mpq(-750))


def test_tower_inverse():
    K = sqrt3()
    t = K.gen()
    assert K.mul(t, K.inv(t)) == K.one()
    assert K.coords(K.inv(t)) == (mpq(0), mpq(1, 3))


def test_zero_divisor_carries_factor():
    # t^3 - 8 = (t - 2)(t^2 + 2t + 4); inverting t - 2 must expose t - 2
    R = adjoin(QQ, "t", (QQ.from_int(-8), QQ.zero(), QQ.zero(), QQ.one()))
    with pytest.raises(ZeroDivisorError) as info:
        R.inv(R.from_coeffs([mpq(-2), mpq(1), mpq(0)]))
    assert info.value.factor == (mpq(-2), mpq(1))
    with pytest.raises(ZeroDivisionError):
        R.inv(R.zero())
    # arithmetic in the non-field quotient still works
    x = R.from_coeffs([mpq(1), mpq(1), mpq(0)])
    assert R.mul(x, R.one()) == x
    # over Q(a), stepwise: e^3 - 1 = (e - 1)(e^2 + e + 1); the factor is monic
    Qa = FunctionField(QQ, ("a",))
    a, one, zero = Qa.param("a"), Qa.one(), Qa.zero()
    E = adjoin(Qa, "e", (Qa.neg(one), zero, zero, one))
    for coeffs, factor in (([Qa.neg(a), a], (Qa.neg(one), one)), ([a, a, a], (one, one, one))):
        with pytest.raises(ZeroDivisorError) as info:
            E.inv(E.from_coeffs(coeffs))
        assert info.value.factor == factor


def test_adjoin_validation():
    with pytest.raises(ValueError):
        adjoin(QQ, "t", (QQ.one(), QQ.from_int(2)))  # degree 1
    with pytest.raises(ValueError):
        adjoin(QQ, "t", (QQ.one(), QQ.zero(), QQ.from_int(2)))  # not monic


def test_adjoin_nested_radical():
    # field containing sqrt(5 + sqrt5): minpoly t^2 - (5 + s5) over Q(s5)
    K5 = adjoin(QQ, "s5", (QQ.from_int(-5), QQ.zero(), QQ.one()), field=True)
    c0 = K5.neg(K5.add(K5.from_int(5), K5.gen()))
    E = adjoin(K5, "E", (c0, K5.zero(), K5.one()), field=True)
    e = E.gen()
    assert E.eq(E.mul(e, e), E.from_coeffs([K5.add(K5.from_int(5), K5.gen())]))
    assert E.mul(e, E.inv(e)) == E.one()


def _domains_for_axioms():
    K = sqrt3()
    FF = FunctionField(QQ, ("a", "b"))
    F7 = PrimeField(7)
    eps = QuotientRing(FF, "e", (FF.neg(FF.one()), FF.zero(), FF.zero(), FF.one()))
    # one domain of each family: F_9 (a field), F_3[e]/(e^2 - 1) (with zero
    # divisors), F_7(a) and Q(i)(a) as well
    return [QQ, F7, K, FF, eps, finite_field(3, 2), adjoin(PrimeField(3), "e", (2, 0, 1)),
            FunctionField(F7, ("a",)), FunctionField(gaussian_field(), ("a",))]


def _random_element(dom, rng, depth=0):
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    if dom is QQ or isinstance(dom, type(QQ)):
        return rand_mpq(rng)
    if isinstance(dom, QuotientRing):
        return dom.from_coeffs([_random_element(dom.base, rng) for _ in range(dom.degree)])
    if isinstance(dom, FunctionField):
        num = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(dom.nvars))
            num[e] = _random_element(dom.base, rng)
        den = {(0,) * dom.nvars: dom.base.one()}
        if rng.random() < 0.4:
            den = {tuple(rng.randint(0, 1) for _ in range(dom.nvars)): dom.base.one()}
        num = dom.from_poly({e: c for e, c in num.items() if not dom.base.is_zero(c)})
        return dom.div(num, dom.from_poly(den))
    raise AssertionError


def test_ring_axioms_randomized(rng):
    """Equal values reached by two routes have equal raws and keys: every
    domain returns canonical raws."""
    for dom in _domains_for_axioms():
        for _ in range(60):
            x = _random_element(dom, rng)
            y = _random_element(dom, rng)
            z = _random_element(dom, rng)
            for u, v in [
                (dom.add(dom.add(x, y), z), dom.add(x, dom.add(y, z))),
                (dom.mul(dom.mul(x, y), z), dom.mul(x, dom.mul(y, z))),
                (dom.mul(x, dom.add(y, z)), dom.add(dom.mul(x, y), dom.mul(x, z))),
                (dom.add(x, y), dom.add(y, x)),
                (dom.mul(x, y), dom.mul(y, x)),
                (dom.sub(x, x), dom.zero()),
            ]:
                assert dom.eq(u, v) and dom.key(u) == dom.key(v)


def test_f9_predicates_call_no_prime_field_method(monkeypatch, rng):
    """F_9 holds canonical residues, so is_zero, is_one, eq and key compare
    raws and call no method of the prime field below it."""
    F9 = finite_field(3, 2)
    zero, one = F9.zero(), F9.one()
    values = [_random_element(F9, rng) for _ in range(12)] + [zero, one]
    calls = []
    for name in dir(PrimeField):
        attr = inspect.getattr_static(PrimeField, name)
        if name.startswith("__") or not callable(attr):
            continue
        static = isinstance(attr, staticmethod)

        def spy(*args, _real=attr.__func__ if static else attr, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(PrimeField, name, staticmethod(spy) if static else spy)
    F9.add(values[0], values[1])
    assert "add" in calls  # the spies see leaf arithmetic
    calls.clear()
    for x in values:
        assert F9.is_zero(x) == (x == zero) and F9.is_one(x) == (x == one)
        assert all(F9.eq(x, y) == (x == y) for y in values)
        hash(F9.key(x))
    assert F9.is_zero(zero) and F9.is_one(one) and not calls


def test_field_inverses_randomized(rng):
    Qa = FunctionField(QQ, ("a",))
    Qa_e = adjoin(Qa, "e", (Qa.neg(Qa.param("a")), Qa.zero(), Qa.one()), field=True)
    for dom in (QQ, PrimeField(11), sqrt3(), Qa, Qa_e):
        for _ in range(40):
            x = _random_element(dom, rng)
            if dom.is_zero(x):
                continue
            assert dom.eq(dom.mul(x, dom.inv(x)), dom.one())


def test_rational_function_equality_matches_cross_multiplication(rng):
    FF = FunctionField(QQ, ("a", "b"))
    base = FF.ring
    for _ in range(1000):
        x = _random_element(FF, rng)
        y = _random_element(FF, rng)
        structural = FF.eq(x, y)
        # cross multiplication on the canonical forms
        lhs = _dict_mul(base, x[0], y[1])
        rhs = _dict_mul(base, y[0], x[1])
        cross = lhs == rhs
        assert structural == cross


def _dict_mul(base, f, g):
    from superelliptic.rings import mp_mul

    return mp_mul(base, f, g)


def _reference_mp_mul(base, f, g):
    """The term-by-term product ``mp_mul`` replaced, kept as the reference:
    each sum is tested for zero as it is made."""
    if not f or not g:
        return {}
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(int.__add__, e1, e2))
            p = base.mul(c1, c2)
            if e in out:
                s = base.add(out[e], p)
                if base.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            elif not base.is_zero(p):
                out[e] = p
    return out


@pytest.mark.parametrize("name", ["Z", "F_7", "Q(i)"])
def test_mp_mul_matches_the_term_by_term_product(name, rng):
    Qi = gaussian_field()
    base, coeff = {
        "Z": (rings.ZZ, lambda: rng.choice((-2, -1, 1, 2))),
        "F_7": (PrimeField(7), lambda: rng.randint(1, 6)),
        "Q(i)": (Qi, lambda: Qi.from_coeffs([mpq(rng.randint(-1, 1)), mpq(rng.choice((-1, 1)))])),
    }[name]
    cancelled = 0
    for nvars in range(1, 5):
        x = [rings.mp_gen(base, i, nvars) for i in range(nvars)]
        c = rings.mp_const(base, coeff(), nvars)
        one = rings.mp_const(base, base.one(), nvars)
        pairs = [(rings.mp_add(base, x[0], one), rings.mp_sub(base, x[0], one)),
                 (rings.mp_add(base, x[0], c), rings.mp_sub(base, x[0], c)),
                 (rings.mp_add(base, x[0], x[-1]), rings.mp_sub(base, x[0], x[-1])),
                 (c, rings.mp_add(base, x[0], one)), (c, c), ({}, c), (x[-1], {}), ({}, {})]
        for _ in range(60):
            f, g = ({tuple(rng.randint(0, 2) for _ in range(nvars)): coeff()
                     for _ in range(rng.randint(1, 8))} for _ in range(2))
            pairs.append((f, g))
        for f, g in pairs:
            got = rings.mp_mul(base, f, g)
            assert got == _reference_mp_mul(base, f, g), (name, f, g)
            assert not any(base.is_zero(v) for v in got.values())
            sums = {tuple(map(int.__add__, e1, e2)) for e1 in f for e2 in g}
            cancelled += len(got) < len(sums)
    # the pairs exercise the zero filter
    assert cancelled >= 10


def test_mp_exact_div_reports_an_inexact_quotient_as_none():
    ZZ, F7 = rings.ZZ, PrimeField(7)
    x = {(1,): 1}
    # a term of the remainder that no term of the divisor divides
    assert rings.mp_exact_div(ZZ, x, {(2,): 1}) is None
    assert rings.mp_exact_div(F7, {(1,): 1, (0,): 1}, x) is None
    # a coefficient outside Z: (3x + 1) / 2x
    assert rings.mp_exact_div(ZZ, {(1,): 3, (0,): 1}, {(1,): 2}) is None
    assert rings.mp_exact_div(ZZ, {(2,): 1, (0,): -1}, {(1,): 1, (0,): -1}) == {(1,): 1, (0,): 1}
    assert rings.mp_exact_div(ZZ, {}, x) == {}
    with pytest.raises(ZeroDivisionError):
        rings.mp_exact_div(ZZ, x, {})


def test_function_field_requires_field_base():
    R = adjoin(QQ, "t", (QQ.from_int(-8), QQ.zero(), QQ.zero(), QQ.one()))
    with pytest.raises(ValueError):
        FunctionField(R, ("a",))


def test_canonical_form_over_q_and_over_fp():
    FF = FunctionField(QQ, ("a",))
    a = FF.param("a")
    two_a = FF.mul(FF.from_int(2), a)
    r = FF.div(FF.one(), two_a)  # 1/(2a), held over Z[a]
    num, den = r
    assert num == {(0,): 1} and den == {(1,): 2}
    assert all(type(c) is int for c in (*num.values(), *den.values()))
    assert FF.fmt(r) == "1/2/a"
    # (4a + 6) / (2 - 6a) = -(2a + 3) / (3a - 1): the common integer
    # content 2 cancels and the denominator's leading coefficient is positive
    r = FF.div(FF.from_poly({(1,): mpq(4), (0,): mpq(6)}), FF.from_poly({(1,): mpq(-6), (0,): mpq(2)}))
    assert r == ({(1,): -2, (0,): -3}, {(1,): 3, (0,): -1})
    assert FF.fmt(r) == "(-2/3*a - 1)/(a - 1/3)"
    assert FF.from_base(mpq(-3, 4)) == ({(0,): -3}, {(0,): 4})
    assert FF.fmt(FF.from_base(mpq(-3, 4))) == "-3/4"
    assert FF.from_poly({(1,): mpq(0), (0,): mpq(0)}) == FF.zero()
    # over F_7 the denominator stays monic: 1/(2a) = 4/a
    F7a = FunctionField(PrimeField(7), ("a",))
    assert F7a.div(F7a.one(), F7a.mul(F7a.from_int(2), F7a.param("a"))) == ({(0,): 4}, {(1,): 1})


def test_pow_matches_repeated_mul_without_surplus_products(monkeypatch):
    FF = FunctionField(QQ, ("a",))
    a = FF.param("a")
    x = FF.div(FF.add(a, FF.from_int(2)), FF.sub(FF.mul(FF.from_int(3), a), FF.one()))
    expected = [FF.one()]
    for _ in range(9):
        expected.append(FF.mul(expected[-1], x))
    calls = []
    real_mul = FF.mul
    monkeypatch.setattr(FF, "mul", lambda p, q: calls.append(1) or real_mul(p, q))
    for n in range(1, 10):
        calls.clear()
        assert FF.eq(FF.pow(x, n), expected[n])
        assert len(calls) <= 2 * (n.bit_length() - 1)
    assert FF.eq(FF.pow(x, 0), FF.one())
    assert FF.eq(FF.mul(FF.pow(x, -3), expected[3]), FF.one())


@pytest.mark.parametrize("base, names", [(QQ, ("a",)), (QQ, ("a", "b")), (PrimeField(7), ("a",))],
                         ids=["Q(a)", "Q(a,b)", "F_7(a)"])
def test_pow_runs_no_gcd(base, names, monkeypatch):
    """A power of a reduced fraction is reduced: pow needs no mp_gcd."""
    FF = FunctionField(base, names)
    params = [FF.param(n) for n in names]
    num = FF.add(FF.mul(FF.from_int(3), params[0]), FF.from_int(2))
    den = FF.sub(FF.mul(params[-1], params[-1]), FF.from_int(5))
    x = FF.div(num, FF.mul(FF.from_int(4), den))
    expected = {0: FF.one(), -3: FF.inv(FF.mul(x, FF.mul(x, x)))}
    for n in range(1, 10):
        expected[n] = FF.mul(expected[n - 1], x)
    calls = []
    real_gcd = rings.mp_gcd
    monkeypatch.setattr(rings, "mp_gcd", lambda *args: calls.append(1) or real_gcd(*args))
    for n in (*range(2, 10), -3):
        assert FF.pow(x, n) == expected[n]
    assert calls == []


def test_square_by_mul_runs_no_gcd(monkeypatch):
    """mul(x, x) is pow(x, 2): the square of a reduced fraction is reduced.
    Over Q(a, b, c) the gcd of num^2 and den^2 runs the multivariate PRS,
    which takes seconds on this x; the square takes well under a second."""
    from superelliptic.parser import parse_constant

    FF = build_domain(0, [], ("a", "b", "c"))
    text = ("(-7/11*a^2*b^2*c^2 - 14/33*b^2*c - 7/88*a*c)/(a^2*b^4*c + 1/24*a^2*b^3*c^2"
            " + 1/16*a*b^3*c^2 - 4/11*a*b^3 - 1/66*a*b^2*c - 1/44*b^2*c)")
    x, x_copy = parse_constant(text, FF), parse_constant(text, FF)
    calls = []
    real_gcd = rings.mp_gcd
    monkeypatch.setattr(rings, "mp_gcd", lambda *args: calls.append(1) or real_gcd(*args))
    square = FF.pow(x, 2)
    assert FF.mul(x, x) == square
    assert FF.mul(x, x_copy) == square  # equal operands, not the same object
    assert calls == []


@pytest.mark.parametrize("base, names", [(QQ, ("a",)), (QQ, ("a", "b")), (PrimeField(7), ("a",))],
                         ids=["Q(a)", "Q(a,b)", "F_7(a)"])
def test_function_field_gcds_take_the_factors_not_the_product(base, names, monkeypatch):
    """Henrici's rule: mul takes gcd(n1, d2) and gcd(n2, d1) and nothing
    else, add over coprime denominators takes gcd(d1, d2) once, and add
    with a denominator 1 takes no gcd.  Only the outermost calls to mp_gcd
    are recorded, not those of its own recursion."""
    from superelliptic.rings import mp_add, mp_mul

    FF = FunctionField(base, names)
    ring = FF.ring
    a, b = FF.param(names[0]), FF.param(names[-1])
    x = FF.div(FF.add(FF.mul(a, b), FF.from_int(2)), FF.sub(FF.mul(b, b), FF.from_int(3)))
    y = FF.div(FF.add(a, FF.from_int(4)), FF.add(FF.mul(FF.from_int(3), a), FF.one()))
    p = FF.add(FF.mul(a, a), b)
    calls, depth = [], [0]
    real_gcd = rings.mp_gcd

    def spy(dom, f, g):
        if not depth[0]:
            calls.append((f, g))
        depth[0] += 1
        try:
            return real_gcd(dom, f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rings, "mp_gcd", spy)
    (n1, d1), (n2, d2) = x, y
    prod = FF.mul(x, y)
    assert calls == [(n1, d2), (n2, d1)]
    assert mp_mul(ring, prod[0], mp_mul(ring, d1, d2)) == mp_mul(ring, prod[1], mp_mul(ring, n1, n2))
    calls.clear()
    total = FF.add(x, y)
    assert calls == [(d1, d2)]
    cross = mp_add(ring, mp_mul(ring, n1, d2), mp_mul(ring, n2, d1))
    assert mp_mul(ring, total[0], mp_mul(ring, d1, d2)) == mp_mul(ring, total[1], cross)
    calls.clear()
    assert FF.add(x, p) == FF.add(p, x) == (mp_add(ring, n1, mp_mul(ring, p[0], d1)), d1)
    assert calls == []


def _powers_bases():
    F7 = PrimeField(7)
    Qi = adjoin(QQ, "I", (QQ.one(), QQ.zero(), QQ.one()), field=True)
    Qa = FunctionField(QQ, ("a",))
    F7a = FunctionField(F7, ("a",))

    def with_den(FF):  # (3a + 2) / (4 (a^2 - 5)): a denominator and content
        a = FF.param("a")
        num = FF.add(FF.mul(FF.from_int(3), a), FF.from_int(2))
        return FF.div(num, FF.mul(FF.from_int(4), FF.sub(FF.mul(a, a), FF.from_int(5))))

    return {
        "Q": (QQ, mpq(-3, 7)),
        "F_7": (F7, 3),
        "Q(i)": (Qi, Qi.from_coeffs([mpq(1, 2), mpq(-2)])),
        "Q(a)": (Qa, with_den(Qa)),
        "F_7(a)": (F7a, with_den(F7a)),
    }


@pytest.mark.parametrize("name", ["Q", "F_7", "Q(i)", "Q(a)", "F_7(a)"])
def test_powers_match_pow(name):
    dom, a = _powers_bases()[name]
    for n in (0, 1, 2, 9):
        ladder = dom.powers(a, n)
        assert len(ladder) == n + 1
        for k, v in enumerate(ladder):
            assert dom.eq(v, dom.pow(a, k)), f"{name}: a^{k} of powers(a, {n})"


@pytest.mark.parametrize("name", ["Q(a)", "F_7(a)"])
def test_function_field_powers_run_no_gcd(name, monkeypatch):
    """The FunctionField ladder keeps pow's rule: (num^k, den^k) is reduced."""
    dom, a = _powers_bases()[name]
    expected = [dom.pow(a, k) for k in range(10)]
    calls = []
    real_gcd = rings.mp_gcd
    monkeypatch.setattr(rings, "mp_gcd", lambda *args: calls.append(1) or real_gcd(*args))
    assert dom.powers(a, 9) == expected
    assert calls == []


def test_mp_gcd_remainder_coefficients_stay_small(rng, monkeypatch):
    """The remainder sequence of mp_gcd over Q[a] must not carry the rational
    scale of each pseudo-division forward (exponential bit growth)."""
    from superelliptic import rings

    def poly(coeffs):
        return {(i,): c for i, c in enumerate(coeffs) if c}

    def cofactor():
        return poly([rand_mpq(rng, -20, 20, 9) for _ in range(10)] + [mpq(1)])

    shared = poly([mpq(-5, 3), mpq(3, 2), mpq(1)])
    f = rings.mp_mul(QQ, cofactor(), shared)
    g = rings.mp_mul(QQ, cofactor(), shared)
    peak = 0
    real_prem = rings._mp_prem

    def spy(base, a, b, v):
        nonlocal peak
        r = real_prem(base, a, b, v)
        for c in r.values():
            bits = max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
            peak = max(peak, bits)
        return r

    monkeypatch.setattr(rings, "_mp_prem", spy)
    assert rings.mp_gcd(QQ, f, g) == shared
    assert 0 < peak < 2000


def test_embed_and_common_rational():
    K = sqrt3()
    FT = FunctionField(K, ("a",))
    v = embed(QQ, FT, mpq(7, 2))
    assert common_rational(FT, v) == mpq(7, 2)
    assert common_rational(K, K.gen()) is None
    with pytest.raises(DomainMismatchError):
        embed(K, QQ, K.gen())


def test_domain_mismatch_detected():
    K = sqrt3()
    K2 = adjoin(QQ, "s2", (QQ.from_int(-2), QQ.zero(), QQ.one()), field=True)
    assert K != K2
    from superelliptic import UniPoly

    f = UniPoly.one(K)
    g = UniPoly.one(K2)
    with pytest.raises(DomainMismatchError):
        f + g


def test_finite_tower_enumeration_and_roots():
    F3 = PrimeField(3)
    F9 = adjoin(F3, "w", (F3.one(), F3.zero(), F3.one()), field=True)  # w^2 = -1
    assert F9.order == 9
    els = list(F9.iter_elements())
    assert len(els) == 9
    # every nonzero element has an 8th power equal to 1
    for e in els:
        if not F9.is_zero(e):
            assert F9.is_one(F9.pow(e, 8))
    # nth_root by brute force
    r = F9.nth_root(F9.from_int(-1), 2)
    assert r is not None and F9.eq(F9.mul(r, r), F9.from_int(-1))


def test_two_step_finite_tower_first_found_choices():
    # F_81 = F_9[v]/(v^2 - (1 + w)): the order in which elements are met
    # decides which fixture generators and roots get printed
    F3 = PrimeField(3)
    F9 = adjoin(F3, "w", (1, 0, 1), field=True)
    F81 = adjoin(F9, "v", (F9.neg(F9.add(F9.one(), F9.gen())), F9.zero(), F9.one()), field=True)
    first = [F81.fmt(e) for e in list(F81.iter_elements())[:12]]
    assert first == ["0", "w*v", "2*w*v", "v", "(w + 1)*v", "(2*w + 1)*v", "2*v",
                     "(w + 2)*v", "(2*w + 2)*v", "w", "w*v + w", "2*w*v + w"]
    assert F81.fmt(multiplicative_generator(F81)) == "v + w"
    one = F81.one()
    roots = _rational_roots(F81, [F81.neg(one), F81.zero(), F81.zero(), F81.zero(), one])
    assert [F81.fmt(z) for z in roots] == ["w", "2*w", "1", "2"]


# -- cost guards of the multiplication-table kernel -------------------------


def _dense(dom, rng):
    """A tower element over Q with every rational leaf nonzero."""
    return tower_from_leaves(dom, [mpq(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
                                   for _ in range(dom.dim)])


def test_product_over_q_i_zeta5_makes_no_rational_calls(monkeypatch, rng):
    """A product, sum, difference and inverse over Q(i, zeta5) run on
    integer leaves: no rational operation and no ``mpq`` is made."""
    K = zeta5_field()
    a, b = _dense(K, rng), _dense(K, rng)
    expected = K._schoolbook_mul(a, b)
    calls = []
    for name in ("mul", "add"):
        real = getattr(Rationals, name)
        monkeypatch.setattr(Rationals, name, staticmethod(
            lambda x, y, _real=real: calls.append(1) or _real(x, y)))
    real_mpq = rings.mpq
    monkeypatch.setattr(rings, "mpq", lambda *args: calls.append(1) or real_mpq(*args))
    K.fmt(a)
    assert calls  # the spies see a read of the rational leaves
    calls.clear()
    product, total, diff, inverse = K.mul(a, b), K.add(a, b), K.sub(a, b), K.inv(a)
    assert not calls
    assert product == expected
    assert K.sub(total, b) == a and K.add(diff, b) == a
    assert K.is_one(K.mul(a, inverse))


def test_inverse_over_q_i_sqrt3_runs_no_euclid(monkeypatch, rng):
    K = sqrt3_field()
    a = _dense(K, rng)
    calls = []
    real = rings._ul_divmod
    monkeypatch.setattr(rings, "_ul_divmod", lambda *args: calls.append(1) or real(*args))
    assert K.is_one(K.mul(a, K.inv(a)))
    assert not calls


def test_inverse_over_an_uncertified_base_runs_euclid(monkeypatch):
    # Q[t]/(t^2 - 1) is no field (its discriminant 4 is a square), so the
    # step I over it keeps the extended Euclid inverse
    K = build_domain(0, [("t", "t^2-1")], (), sugar_i=True)
    assert not K._flat_inv
    calls = []
    real = rings._ul_divmod
    monkeypatch.setattr(rings, "_ul_divmod", lambda *args: calls.append(1) or real(*args))
    i = K.gen()
    assert K.inv(i) == K.neg(i)
    assert calls


@pytest.mark.parametrize("extensions", [
    [("e", "t^2-4")],
    [("e", "t^3-t")],
    [("e", "t^4-5*t^2+6")],
    [("I", "t^2+1"), ("e", "t^4-5*t^2+6")],
    # sqrt2 + sqrt3: irreducible, but it splits mod every prime
    [("r", "t^4-10*t^2+1")],
])
def test_planted_moduli_get_no_certificate(extensions):
    K = build_domain(0, extensions, ())
    assert K.is_field and not rings._certified_field(K)
    # the one prime rule: the first three primes below 2^31 with an image,
    # as over Q
    assert tuple(rings._image_primes(K)) == (2147483647, 2147483629, 2147483587)


def test_every_catalog_tower_over_q_is_certified_but_a5_b(monkeypatch):
    from superelliptic.catalog import standard_catalog

    towers = {name: fx.domain for name, fx in standard_catalog().items()
              if isinstance(fx.domain, QuotientRing) and not fx.domain.char}
    assert {name for name, K in towers.items() if not rings._certified_field(K)} == {"a5_b"}
    assert len(towers) == 15
    # a certified base gives a deeper step the table inverse: a5_b's top
    # step sits over the certified Q(i, zeta5)
    assert all(K._flat_inv for K in towers.values())
    # one quadratic step over Q is decided by its discriminant, with no
    # search; a deeper step by the first odd prime at which a root chain
    # of its base leaves its modulus irreducible.  Equal towers share what
    # they keep, so the towers below start from an empty table cache: the
    # catalog's Q(i) and Q(i, zeta5) hold their certificates already
    monkeypatch.setattr(rings, "_TABLES", {})
    tested = []
    real = rings._fp_irreducible
    monkeypatch.setattr(rings, "_fp_irreducible", lambda f, p: tested.append(p) or real(f, p))
    K = adjoin(QQ, "s7", (QQ.from_int(-7), QQ.zero(), QQ.one()))
    assert rings._certified_field(K) and not tested
    G = adjoin(QQ, "I", (QQ.one(), QQ.zero(), QQ.one()))
    Z = adjoin(G, "z5", tuple(G.one() for _ in range(5)))
    assert rings._certified_field(Z)
    # i has no root mod 3, 7 or 11; Phi_5 = (x - 1)^4 mod 5 at both roots
    # of i, and Phi_5 is irreducible mod 13
    assert tested == [5, 5, 13]
    # 3 divides a denominator of t^3 - 2/3, t^3 - 4 has the root 4 mod 5,
    # and 3 is no cube mod 7
    tested.clear()
    C = adjoin(QQ, "c", (mpq(-2, 3), QQ.zero(), QQ.zero(), QQ.one()))
    assert rings._certified_field(C) and tested == [5, 7]


def test_reduction_forms_no_product_for_a_zero_modulus_coefficient(monkeypatch):
    # t^6 - 2 has one nonzero coefficient below its lead, so reducing
    # 1 + t + ... + t^11 takes one base product at each of its six steps
    K = adjoin(QQ, "t", [QQ.from_int(c) for c in (-2, 0, 0, 0, 0, 0, 1)])
    products = []
    real = Rationals.mul
    monkeypatch.setattr(Rationals, "mul", staticmethod(lambda a, b: products.append(1) or real(a, b)))
    value = K.from_coeffs([QQ.one()] * 12)
    assert len(products) == 6
    assert K.coords(value) == (QQ.from_int(3),) * 6


def test_equal_towers_share_one_table(monkeypatch):
    monkeypatch.setattr(rings, "_TABLES", {})
    builds = []
    real = rings._build_table
    monkeypatch.setattr(rings, "_build_table", lambda *args: builds.append(args) or real(*args))
    compiled = []
    real_compile = rings._compile_product
    monkeypatch.setattr(rings, "_compile_product", lambda *args: compiled.append(args) or real_compile(*args))
    minpoly = (QQ.from_int(-7), QQ.zero(), QQ.one())
    K1, K2 = adjoin(QQ, "s7", minpoly), adjoin(QQ, "s7", minpoly)
    assert len(builds) == 1 and K1._table is K2._table
    # and one straight-line product, which both rings picked
    assert len(compiled) == 1 and K1._prod is K2._prod is K1._table.prod
    s = K2.gen()
    assert K2.mul(s, s) == K2.from_int(7)
    # a CLI request's tower over F_3 finds the table of the catalog's F_9
    F9 = adjoin(PrimeField(3), "w", (1, 0, 1), field=True)
    built = len(builds)
    request = build_domain(3, [("w", "t^2+1")], ())
    assert len(builds) == built and request._table is F9._table
    assert request._prod is F9._prod is F9._table.prod


def _table_towers():
    """Every catalog tower over Q (a5_b's of degree 16 included), a table
    with den != 1, three reducible moduli (e^2 = 0 gives an empty table
    entry) and two integer tables over F_p."""
    from superelliptic.catalog import standard_catalog

    towers = {fx.domain._signature(): fx.domain for fx in standard_catalog().values()
              if isinstance(fx.domain, QuotientRing) and not fx.domain.char}
    assert max(K.dim for K in towers.values()) == 16
    F9 = adjoin(PrimeField(3), "w", (1, 0, 1), field=True)
    F81 = adjoin(F9, "v", (F9.neg(F9.add(F9.one(), F9.gen())), F9.zero(), F9.one()), field=True)
    cbrt = adjoin(QQ, "c", (mpq(-2, 3), QQ.zero(), QQ.zero(), QQ.one()))
    assert cbrt._table.den != 1
    extra = [
        cbrt,
        adjoin(QQ, "e", (QQ.from_int(-4), QQ.zero(), QQ.one())),
        adjoin(QQ, "e", (QQ.zero(), QQ.from_int(-1), QQ.zero(), QQ.one())),
        adjoin(QQ, "e", (QQ.zero(), QQ.zero(), QQ.one())),
        F81,
        rings._tower_image(zeta5_field(), 65537)[0],
    ]
    return list(towers.values()) + extra


def _product_operands(dom, rng):
    """Zero, embedded integers, single generators, one-coordinate, dense and
    negated dense operands."""
    p = dom.char

    def leaf():
        return rng.randrange(1, p) if p else rand_mpq(rng, -99, 99, 12) or QQ.one()

    ops = [dom.zero(), dom.one(), dom.from_int(-1), dom.from_int(rng.randint(2, 10**6)), dom.gen()]
    if isinstance(dom.base, QuotientRing):
        ops.append(dom.from_base(dom.base.gen()))
    for k in rng.sample(range(dom.dim), min(3, dom.dim)):
        ops.append(tower_from_leaves(dom, [leaf() if i == k else dom.leaf.zero() for i in range(dom.dim)]))
    dense = [tower_from_leaves(dom, [leaf() for _ in range(dom.dim)]) for _ in range(3)]
    return ops + dense + [dom.neg(x) for x in dense]


def test_compiled_product_matches_the_schoolbook_product(rng, monkeypatch):
    """Each ring's product, and the same table compiled with its sums split
    every two terms, agree with the schoolbook product on seeded operands."""
    towers = _table_towers()
    monkeypatch.setattr(rings, "_SUM_CHUNK", 2)
    for dom in towers:
        table = dom._table
        products = [dom.mul, rings._compile_product(table.den, table.rows, dom.char)]
        ops = _product_operands(dom, rng)
        for a in ops:
            for b in ops:
                expected = dom._schoolbook_mul(a, b)
                assert all(prod(a, b) == expected for prod in products), (dom, a, b)


@pytest.mark.parametrize("p", [0, 65537])
def test_a_product_with_thousands_of_terms_per_coordinate_compiles(p):
    # e_i * e_j = e_0 for every pair of 80 basis elements: 3,240 pair
    # products in one sum, which CPython cannot compile as one expression
    dim = 80
    rows = (((0, 1),),) * dim
    prod = rings._compile_product(1, (rows,) * dim, p)
    a, b = tuple(range(1, dim + 1)), (1,) * dim
    if p:
        assert prod(a, b) == (sum(a) * dim % p,) + (0,) * (dim - 1)
    else:
        assert prod((a, 1), (b, 7)) == ((sum(a) * dim,) + (0,) * (dim - 1), 7)


def _zero_divisors(dom):
    """Zero divisors of the reducible table towers: t - r for each rational
    root r of a modulus over Q, e2 -+ w in a5_b's ring, where
    w = 2i(zeta5^2 - zeta5^3) squares to e2^2, and I - 256 in the image of
    Q(i, zeta5) mod 65537, where 256^2 = -1."""
    t = dom.gen()
    if dom.dim == 16:
        K = dom.base
        i, z = K.from_base(K.base.gen()), K.gen()
        w = dom.from_base(K.mul(K.mul(K.from_int(2), i), K.sub(K.pow(z, 2), K.pow(z, 3))))
        assert dom.is_zero(dom.sub(dom.mul(t, t), dom.mul(w, w)))
        return [dom.sub(t, w), dom.add(t, w)]
    if dom.char == 65537:
        return [dom.sub(dom.from_base(dom.base.gen()), dom.from_int(256))]
    if isinstance(dom.base, Rationals):
        return [dom.sub(t, dom.from_base(r)) for r in _q_roots(list(dom.minpoly))]
    return []


def test_inverse_routes_agree_on_units_and_zero_divisors(rng):
    """On every table tower, ``inv`` equals extended Euclid on seeded units,
    returns canonical raws and is a's inverse under the table product, and
    each zero divisor raises Euclid's error: its message, factor and domain.
    Where the top step has conjugates, a times their product lies in the
    base, the conjugate inverse equals Euclid's and rejects each zero
    divisor."""
    reducible = 0
    for dom in _table_towers():
        p, table = dom.char, dom._table
        ops = [a for a in _product_operands(dom, rng) if not dom.is_zero(a)]
        planted = [dom.mul(zd, u) for zd in _zero_divisors(dom) for u in (dom.one(), dom.gen(), ops[-1])]
        planted = [a for a in planted if not dom.is_zero(a)]
        reducible += bool(planted)
        for a in ops + planted:
            if table.cofactor is not None:
                norm = dom.coords(dom.mul(a, table.cofactor(a)))
                assert all(map(dom.base.is_zero, norm[1:])), (dom, a)
            try:
                expected = dom._euclid_inv(a)
            except ZeroDivisorError as euclid:
                with pytest.raises(ZeroDivisorError) as err:
                    dom.inv(a)
                assert (str(err.value), err.value.factor, err.value.domain) == (
                    str(euclid), euclid.factor, euclid.domain), (dom, a)
                assert table.cofactor is None or dom._conjugate_inv(a) is None
                continue
            assert a not in planted, (dom, a)
            out = dom.inv(a)
            assert out == expected and dom.is_one(dom.mul(a, out)), (dom, a)
            assert table.cofactor is None or dom._conjugate_inv(a) == expected, (dom, a)
            if p:
                assert all(type(x) is int and 0 <= x < p for x in out)
            else:
                _assert_canonical(dom, out)
    assert reducible == 5


def test_inverse_over_q_i_zeta5_runs_no_euclid(monkeypatch, rng):
    """Q(i, zeta5) inverts by the conjugates of its cyclotomic step and of
    Q(i); a step with no known automorphism, here Q(cbrt(2/3)), takes
    extended Euclid once."""
    K = zeta5_field()
    cbrt = adjoin(QQ, "c", (mpq(-2, 3), QQ.zero(), QQ.zero(), QQ.one()))
    assert K._table.cofactor and K.base._table.cofactor and cbrt._table.cofactor is None
    solved = []
    real = QuotientRing._euclid_inv
    monkeypatch.setattr(QuotientRing, "_euclid_inv", lambda self, a: solved.append(self) or real(self, a))
    a = _dense(K, rng)
    assert K.is_one(K.mul(a, K.inv(a)))
    assert not solved
    assert cbrt.is_one(cbrt.mul(cbrt.gen(), cbrt.inv(cbrt.gen())))
    assert solved == [cbrt]


def test_cyclotomic_steps_are_recognised():
    """x^n - 1 is the product of Phi_d over the divisors d of n; a step
    whose modulus is Phi_n gets phi(n) - 1 conjugates, over Q and over F_p,
    and a palindromic modulus that is no Phi_n gets none."""
    for n in range(1, 41):
        product = UniPoly.one(QQ)
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * UniPoly.from_int_list(QQ, rings._cyclotomic(d))
        assert product.to_list() == [QQ.from_int(-1)] + [QQ.zero()] * (n - 1) + [QQ.one()]
    for base in (QQ, PrimeField(65537)):
        for n in (5, 7, 8, 9, 12, 15):
            K = adjoin(base, "z", tuple(map(base.from_int, rings._cyclotomic(n))))
            # the other primitive n-th roots of unity
            roots = {K.gen(), *rings._conjugate_generators(K)}
            assert len(roots) == len(rings._cyclotomic(n)) - 1
            assert all(K.is_one(K.pow(s, n)) and not any(K.is_one(K.pow(s, k)) for k in range(1, n))
                       for s in roots)
    K = adjoin(QQ, "u", tuple(map(QQ.from_int, (1, 0, -10, 0, 1))))
    assert rings._conjugate_generators(K) == [] and K._table.cofactor is None


def test_nested_route_over_parameters_prime_fields_and_large_degree():
    FF = FunctionField(QQ, ("a",))
    eps = QuotientRing(FF, "e", (FF.neg(FF.one()), FF.zero(), FF.one()))
    F9 = adjoin(PrimeField(3), "w", (1, 0, 1), field=True)
    assert eps._table is None
    # towers over a prime field multiply through tables mod p
    F81 = adjoin(F9, "v", (F9.gen(), F9.zero(), F9.one()))
    assert F9._table is not None and F81._table is not None
    assert F9._table.den == 1 and F81._table.den == 1
    big = adjoin(QQ, "w", (QQ.from_int(-2),) + (QQ.zero(),) * 64 + (QQ.one(),))
    assert big._table is None and not big._flat_inv
    w = big.gen()
    assert big.mul(big.pow(w, 64), w) == big.from_int(2)


# -- small fields F_p[w]/(m) ------------------------------------------------


def _small_field(p, t):
    return adjoin(PrimeField(p), "w", rings._least_irreducible(p, t), field=True)


@pytest.mark.parametrize("p, t", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_small_field_products_and_inverses_match_on_every_pair(p, t):
    F = _small_field(p, t)
    # a quadratic field inverts by conjugates, a cubic one by Euclid
    assert (F._table.cofactor is not None) == (t == 2)
    elements = list(F.iter_elements())
    for a in elements:
        assert all(F.mul(a, b) == F._schoolbook_mul(a, b) for b in elements)
        if not F.is_zero(a):
            assert F.inv(a) == F._euclid_inv(a)
            if t == 2:
                assert F._conjugate_inv(a) == F.inv(a)


@pytest.mark.parametrize("p, t", [(3, 7), (2, 12)])
def test_small_field_products_and_inverses_match_on_seeded_pairs(p, t, rng):
    F = _small_field(p, t)
    assert F._table is not None and F.order <= rings._SMALL_FIELD_ORDER
    for _ in range(200):
        a, b = (tuple(rng.randrange(p) for _ in range(t)) for _ in range(2))
        assert F.mul(a, b) == F._schoolbook_mul(a, b)
        if not F.is_zero(a):
            assert F.inv(a) == F._euclid_inv(a)


def test_reducible_two_step_and_large_towers_over_fp_are_tabled():
    R = adjoin(PrimeField(3), "e", (2, 0, 1))  # e^2 - 1
    S = adjoin(PrimeField(5), "e", (0, 4, 0, 1))  # e^3 - e
    F9 = _small_field(3, 2)
    F81 = adjoin(F9, "v", (F9.gen(), F9.zero(), F9.one()), field=True)
    for dom in (R, S, F81, _small_field(2, 13)):
        assert dom._table is not None
    # a zero divisor still raises with the factor extended Euclid finds
    for dom, a, factor in (
        (R, (2, 1), (2, 1)),
        (R, (1, 1), (1, 1)),
        (R, (1, 2), (2, 1)),
        (S, (0, 1, 0), (0, 1)),
        (S, (1, 1, 0), (1, 1)),
        (S, (4, 0, 1), (4, 0, 1)),
    ):
        with pytest.raises(ZeroDivisorError) as info:
            dom.inv(a)
        assert info.value.factor == factor
    assert S.inv((1, 0, 1)) == (1, 0, 2)


# -- the canonical (nums, den) raw of towers over Q --------------------------


def _canonical_towers():
    return {
        "Q(i)": gaussian_field(),
        "Q(i, sqrt3)": sqrt3_field(),
        "Q(i, zeta5)": zeta5_field(),
        "Q[t]/(t^2 - 1)": adjoin(QQ, "t", (QQ.from_int(-1), QQ.zero(), QQ.one())),
        "big": adjoin(QQ, "w", (QQ.from_int(-2),) + (QQ.zero(),) * 64 + (QQ.one(),)),
    }


def _assert_canonical(dom, v):
    nums, den = v
    assert type(den) is int and den > 0, v
    assert len(nums) == dom.dim and all(type(n) is int for n in nums), v
    assert math.gcd(den, *nums) == 1, v  # so zero is ((0,) * dim, 1)


@pytest.mark.parametrize("name", list(_canonical_towers()))
def test_tower_raws_over_q_are_canonical(name, rng):
    """Every operation returns the canonical pair, so equal values reached
    by two routes have equal raws and keys (the dedupe of group elements
    and orbit points relies on it)."""
    dom = _canonical_towers()[name]
    sparse = dom.dim > 16  # big: few nonzero leaves keep Euclid cheap

    def element():
        leaves = [rand_mpq(rng, -9, 9, 12) if not sparse or rng.random() < 0.05 else QQ.zero()
                  for _ in range(dom.dim)]
        leaves[rng.randrange(dom.dim)] = mpq(rng.randint(1, 9), rng.randint(1, 12))
        return tower_from_leaves(dom, leaves)

    def same(x, y):
        assert x == y and dom.eq(x, y) and dom.key(x) == dom.key(y)

    zero, one = dom.zero(), dom.one()
    _assert_canonical(dom, zero)
    assert zero == ((0,) * dom.dim, 1) and dom.is_zero(zero) and dom.is_one(one)
    g = dom.gen()
    for _ in range(3 if sparse else 8):
        a, b, c = element(), element(), element()
        q = rand_mpq(rng, -30, 30, 18)
        base_value = tower_from_leaves(dom.base, [rand_mpq(rng, -9, 9, 6) for _ in range(dom.base.dim)]) \
            if isinstance(dom.base, QuotientRing) else q
        results = [a, b, c, embed(QQ, dom, q), dom.from_base(base_value),
                   dom.add(a, b), dom.sub(a, b), dom.neg(a), dom.mul(a, b),
                   dom.scale(a, base_value), dom.sub(a, a), dom.add(a, dom.neg(a))]
        # from_coeffs reduces a list longer than the degree modulo m
        long = [tower_from_leaves(dom.base, [rand_mpq(rng) for _ in range(dom.base.dim)])
                if isinstance(dom.base, QuotientRing) else rand_mpq(rng)
                for _ in range(dom.degree + 3)]
        reduced = dom.from_coeffs(long)
        powers = dom.powers(g, len(long) - 1)
        expected = zero
        for coeff, power in zip(long, powers):
            expected = dom.add(expected, dom.mul(dom.from_base(coeff), power))
        same(reduced, expected)
        results.append(reduced)
        try:
            inverse = dom.inv(a)
        except ZeroDivisorError:  # a zero divisor of t^2 - 1
            assert name == "Q[t]/(t^2 - 1)"
        else:
            results.append(inverse)
            same(dom.mul(a, inverse), one)
            if not sparse:
                same(dom.inv(inverse), a)
        for v in results:
            _assert_canonical(dom, v)
        same(dom.mul(dom.mul(a, b), c), dom.mul(a, dom.mul(b, c)))
        same(dom.mul(a, dom.add(b, c)), dom.add(dom.mul(a, b), dom.mul(a, c)))
        same(dom.sub(a, a), zero)
        same(dom.add(dom.sub(a, b), b), a)
        same(dom.neg(dom.neg(a)), a)
        same(embed(QQ, dom, q), dom.mul(dom.from_int(q.numerator), dom.inv(dom.from_int(q.denominator))))
    coeffs = [element() for _ in range(6)] + [zero]
    for v in rings._shift_by_one(dom, coeffs):
        _assert_canonical(dom, v)


def test_table_inverse_makes_the_denominator_positive():
    """The norm is here negative: the conjugate inverse moves its sign to
    the numerators, as extended Euclid does."""
    K = sqrt3()
    a = K.from_coeffs([mpq(1), mpq(1)])  # 1 + s3, norm 1 - 3 = -2
    inverse = K.inv(a)
    assert K.coords(inverse) == (mpq(-1, 2), mpq(1, 2))
    assert inverse == K._euclid_inv(a) == ((-1, 1), 2)


# -- tower paths the other tests leave unrun -----------------------------------


def test_tower_fmt_atom_and_nth_root():
    K = sqrt3_field()  # Q(i, sqrt3)
    i = K.from_base(K.base.gen())
    s = K.gen()
    assert K.fmt(K.add(s, K.one()), atom=True) == "(sqrt3 + 1)"
    assert K.fmt(K.neg(s), atom=True) == "(-sqrt3)"
    assert K.fmt(s, atom=True) == "sqrt3"
    assert K.fmt(K.mul(i, s), atom=True) == "I*sqrt3"
    assert K.fmt(K.add(i, s), atom=True) == "(sqrt3 + I)"
    # over an infinite tower only base elements are searched, step by step
    assert K.nth_root(s, 2) is None
    assert K.nth_root(K.add(s, K.one()), 3) is None
    assert K.nth_root(K.from_int(-1), 2) is None  # i^2, but Q has no root
    assert K.nth_root(K.from_int(16), 4) == K.from_int(2)
    assert K.nth_root(embed(QQ, K, mpq(-27, 8)), 3) == embed(QQ, K, mpq(-3, 2))


def test_common_rational_over_towers():
    K = sqrt3_field()  # Q(i, sqrt3)
    q = mpq(-7, 12)
    assert common_rational(K, embed(QQ, K, q)) == q
    assert common_rational(K, K.zero()) == 0
    assert common_rational(K, K.gen()) is None
    assert common_rational(K, K.add(embed(QQ, K, q), K.from_base(K.base.gen()))) is None
    FF = FunctionField(QQ, ("a",))
    eps = QuotientRing(FF, "e", (FF.from_int(-2), FF.zero(), FF.one()))
    assert common_rational(eps, embed(QQ, eps, q)) == q
    assert common_rational(eps, eps.from_base(FF.param("a"))) is None
    assert common_rational(eps, eps.gen()) is None


def test_gcd_over_a_ring_not_flagged_a_field_inverts_its_leads():
    # only Z takes the integer branch of mp_gcd's normal form and of exact
    # division; a tower built without field=True inverts its leads
    K = adjoin(QQ, "s7", (mpq(-7), mpq(0), mpq(1)))
    assert not K.is_field
    x, s, one = UniPoly.gen(K), UniPoly.constant(K, K.gen()), UniPoly.one(K)
    assert poly_gcd((x - s) * (x + one), (x - s) * (x - one)) == x - s
    # over Q[e]/(e^2 - 4) the lead e - 2 is a zero divisor: inverting it
    # raises with the factor e - 2 of the modulus
    E = adjoin(QQ, "e", (mpq(-4), mpq(0), mpq(1)))
    x, e, one = UniPoly.gen(E), UniPoly.constant(E, E.gen()), UniPoly.one(E)
    with pytest.raises(ZeroDivisorError, match="modulus has factor of degree 1") as info:
        poly_gcd((e - one - one) * x + one, x * x + one)
    assert info.value.factor == (mpq(-2), mpq(1)) and info.value.domain == QQ


def _times(a, b):
    out = [mpq(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(roots=st.lists(st.tuples(st.integers(-40, 40), st.one_of(st.integers(1, 12), st.sampled_from([15, 21, 35, 105])),
                                st.integers(1, 3)), max_size=4),
       k=st.sampled_from([1, 3, 5, 7, 105]),
       cofactor=st.sampled_from([(), (1, 0), (1, 1), (-2, 0, 0)]),
       scale=st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 9)))
@example(roots=[(2, 105, 1)], k=1, cofactor=(), scale=(1, 1))
@example(roots=[(-4, 7, 1)], k=15, cofactor=(), scale=(-3, 2))
@example(roots=[(0, 1, 2), (3, 5, 3), (-3, 5, 1)], k=21, cofactor=(1, 0), scale=(1, 1))
def test_q_roots_finds_every_planted_root(roots, k, cofactor, scale):
    # planted roots a/b, some repeated, times a cofactor with lead k and no
    # rational root (k x^2 + 1, k x^2 + x + 1, k x^3 - 2, or k): leads and
    # denominators divisible by 3, 5 and 7 push the prime past them, and a
    # single simple root gives a linear input
    f = [mpq(*scale) * c for c in list(map(mpq, cofactor)) + [mpq(k)]]
    for a, b, mult in roots:
        for _ in range(mult):
            f = _times(f, [mpq(-a, b), mpq(1)])
    expected = sorted({mpq(a, b) for a, b, _ in roots}, key=lambda q: (abs(q.numerator), q.denominator, q < 0))
    assert _q_roots(f) == expected
