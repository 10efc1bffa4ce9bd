"""Differential tests of `resultant`, `discriminant`, `poly_gcd`,
`invariants_of`, the tower product and inverse, rational-function
arithmetic, `mp_gcd` over Z and the rational roots behind parameter
recovery against sympy.

sympy computes over Q[generators][x]: an element of a tower is written as a
polynomial in its generator names (``I``, ``sqrt3``, ``w``), an F_p entry
is lifted to an integer, and a parameter stays a symbol.  sympy's answer is
then reduced by the minimal polynomials and by p.  That is sound because the
Sylvester determinant is an integer polynomial in the coefficients, so it
commutes with the quotient maps, as long as the leading coefficients stay
nonzero; for the discriminant over F_p, p does not divide deg f, so that
deg f' does not drop either.
"""

import pytest

sp = pytest.importorskip("sympy", exc_type=ImportError)

from superelliptic import UniPoly, discriminant, invariants_of, mpq, poly_gcd, resultant, rings
from superelliptic.catalog import zeta5_field
from superelliptic.parser import build_domain, parse_expression
from superelliptic.rings import (
    ZZ,
    FunctionField,
    PrimeField,
    QuotientRing,
    ZeroDivisorError,
    _q_roots,
    tower_chain,
)

X = sp.Symbol("x")

# name -> (characteristic, extension steps, parameters, largest degree in x)
DOMAINS = {
    "Q": (0, [], (), 5),
    "Q(i)": (0, [("I", "t^2 + 1")], (), 4),
    "Q(i, sqrt3)": (0, [("I", "t^2 + 1"), ("sqrt3", "t^2 - 3")], (), 3),
    "Q(a)": (0, [], ("a",), 3),
    "Q(a, b)": (0, [], ("a", "b"), 3),
    "F_7": (7, [], (), 5),
    "F_9": (3, [("w", "t^2 + 1")], (), 4),
}


def _domain(name):
    char, exts, params, _ = DOMAINS[name]
    return build_domain(char, exts, params)


def to_sympy(dom, raw):
    """A raw element as a sympy expression in the generator and parameter
    names; F_p residues become integers."""
    if isinstance(dom, QuotientRing):
        t = sp.Symbol(dom.name)
        return sp.Add(*(to_sympy(dom.base, c) * t**i for i, c in enumerate(dom.coords(raw))))
    if isinstance(dom, FunctionField):
        syms = sp.symbols(dom.names)

        def terms(d):
            return sp.Add(*(to_sympy(dom.base, c) * sp.Mul(*(s**e for s, e in zip(syms, exps)))
                            for exps, c in d.items()))

        return terms(raw[0]) / terms(raw[1])
    if isinstance(dom, PrimeField):
        return sp.Integer(raw)
    return sp.Rational(int(raw.numerator), int(raw.denominator))


def poly_to_sympy(f):
    return sp.Add(*(to_sympy(f.domain, c) * X**e for e, c in f.coeffs.items()))


def random_element(dom, rng):
    if isinstance(dom, QuotientRing):
        return dom.from_coeffs([random_element(dom.base, rng) for _ in range(dom.degree)])
    if isinstance(dom, FunctionField):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 1) for _ in dom.names)
            c = random_element(dom.base, rng)
            if not dom.base.is_zero(c):
                terms[exps] = c
        return dom.from_poly(terms)
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    return mpq(rng.randint(-5, 5), rng.randint(1, 3))


def random_poly(dom, rng, deg, delta=1):
    """F(x^delta) for a random F of degree deg with nonzero leading and
    constant coefficients."""
    coeffs = [random_element(dom, rng) for _ in range(deg + 1)]
    for i in (0, deg):
        while dom.is_zero(coeffs[i]):
            coeffs[i] = random_element(dom, rng)
    return UniPoly(dom, {delta * e: c for e, c in enumerate(coeffs) if not dom.is_zero(c)})


def minimal_polynomials(dom):
    gens, mins = [], []
    for link in tower_chain(dom):
        if isinstance(link, QuotientRing):
            t = sp.Symbol(link.name)
            gens.append(t)
            mins.append(sp.Add(*(to_sympy(link.base, c) * t**i for i, c in enumerate(link.minpoly))))
    return gens, mins


def assert_matches(dom, ours, expected, what):
    """ours (a raw element of dom) equals sympy's expected value reduced by
    the minimal polynomials and by the characteristic."""
    diff = sp.expand(to_sympy(dom, ours) - expected)
    gens, mins = minimal_polynomials(dom)
    if mins:
        diff = sp.reduced(diff, mins, *gens)[1]
    if dom.char:
        assert sp.Poly(diff, *(gens or [X]), modulus=dom.char).is_zero, what
    else:
        assert sp.cancel(diff) == 0, what


def sympy_resultant(f, g):
    """Res(f, g).  sympy 1.14's ``resultant(f, g)`` ignores the argument
    order when deg f < deg g, so the sign is restored with
    Res(f, g) = (-1)^(deg f deg g) Res(g, f)."""
    m, n = sp.degree(f, X), sp.degree(g, X)
    if m >= n:
        return sp.resultant(f, g, X)
    return (-1) ** (m * n) * sp.resultant(g, f, X)


def test_sympy_resultant_sign_fix():
    f, g = X**3 - 2, X**5 + X + 1
    assert sympy_resultant(f, g) == 23 and sympy_resultant(g, f) == -23


@pytest.mark.parametrize("name", list(DOMAINS))
def test_resultant_matches_sympy(name, rng):
    dom = _domain(name)
    top = DOMAINS[name][3]
    for _ in range(12):
        f = random_poly(dom, rng, rng.randint(1, top))
        g = random_poly(dom, rng, rng.randint(1, top))
        what = f"Res({f}, {g})"
        assert_matches(dom, resultant(f, g), sympy_resultant(poly_to_sympy(f), poly_to_sympy(g)), what)


@pytest.mark.parametrize("name", list(DOMAINS))
def test_discriminant_matches_sympy(name, rng):
    dom = _domain(name)
    top = DOMAINS[name][3]
    done = 0
    while done < 10:
        delta = rng.choice([1, 1, 2, 3])
        f = random_poly(dom, rng, rng.randint(1, max(1, top // delta)), delta)
        deg = int(f.degree())
        if deg < 2 or (dom.char and deg % dom.char == 0):
            continue
        assert_matches(dom, discriminant(f), sp.discriminant(poly_to_sympy(f), X), f"disc({f})")
        done += 1


@pytest.mark.parametrize("name", list(DOMAINS))
def test_deflated_resultant_matches_sympy(name, rng):
    """Res(F(x^k), G(x^k)) = Res(F, G)^k: pairs in x^2 and x^3 (over F_9,
    k = 3 is a multiple of p), a constant operand, and mixed supports
    4 | f, 6 | g, where k = 2."""
    dom = _domain(name)
    top = max(1, DOMAINS[name][3] - 2)
    pairs = [(random_poly(dom, rng, rng.randint(1, top), delta),
              random_poly(dom, rng, rng.randint(1, top), delta))
             for delta in (2, 3) for _ in range(2)]
    pairs.append((random_poly(dom, rng, 0), random_poly(dom, rng, 1, 3)))
    pairs.append((random_poly(dom, rng, 1, 4), random_poly(dom, rng, 1, 6)))
    for f, g in pairs:
        what = f"Res({f}, {g})"
        assert_matches(dom, resultant(f, g), sympy_resultant(poly_to_sympy(f), poly_to_sympy(g)), what)


def test_resultant_runs_the_prs_on_the_deflated_pair(monkeypatch):
    """The PRS sees F and G, not F(x^k) and G(x^k)."""
    from superelliptic import unipoly

    dom = _domain("Q")
    real = unipoly._prs_resultant
    seen = []
    monkeypatch.setattr(unipoly, "_prs_resultant",
                        lambda f, g: seen.append((int(f.degree()), int(g.degree()))) or real(f, g))
    f = parse_expression("2*x^6 - x^3 + 5", dom)
    g = parse_expression("x^9 + 3*x^6 - 7", dom)
    assert resultant(f, g) == real(f, g)
    f = parse_expression("x^8 - 3*x^4 + 1", dom)
    g = parse_expression("3*x^6 + x^2 - 2", dom)
    assert resultant(f, g) == real(f, g)
    assert resultant(f, parse_expression("7", dom)) == 7**8
    assert seen == [(2, 3), (4, 3), (2, 0)]


def test_resultant_with_a_parameter():
    dom = _domain("Q(a)")
    f = parse_expression("x^2 + a*x + 1", dom)
    g = parse_expression("x^2 - a", dom)
    a = sp.Symbol("a")
    expected = sympy_resultant(X**2 + a * X + 1, X**2 - a)
    assert_matches(dom, resultant(f, g), expected, "Res(x^2 + a*x + 1, x^2 - a)")


@pytest.mark.parametrize("name", list(DOMAINS))
def test_poly_gcd_matches_sympy(name, rng):
    """poly_gcd(h u, h v) is monic, and with the minimal polynomials it
    generates the same ideal as f and g: the reduced Groebner bases agree
    (over Q(params), in x over sympy's field of fractions)."""
    dom = _domain(name)
    char, _, params, top = DOMAINS[name]
    gens, mins = minimal_polynomials(dom)
    opts = {"order": "lex"}
    if char:
        opts["modulus"] = char
    elif params:
        opts["domain"] = sp.QQ.frac_field(*sp.symbols(params))
    for _ in range(4):
        h = random_poly(dom, rng, rng.randint(0, 2))
        f = h * random_poly(dom, rng, rng.randint(1, top - 1))
        g = h * random_poly(dom, rng, rng.randint(1, top - 1))
        gcd = poly_gcd(f, g)
        assert dom.is_one(gcd.coeff(gcd.degree())), f"gcd({f}, {g}) = {gcd}"
        ours = sp.groebner([poly_to_sympy(gcd)] + mins, X, *gens, **opts)
        theirs = sp.groebner([poly_to_sympy(f), poly_to_sympy(g)] + mins, X, *gens, **opts)
        assert ours.exprs == theirs.exprs, f"gcd({f}, {g}) = {gcd}"


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(i, sqrt3)", "Q(a)", "F_7", "F_9"])
def test_invariants_of_matches_sympy(name, rng):
    """invariants_of on c * (sum a_i x^(delta i)), a_r = 1, with a planted
    rescaling root: a_0 = lam^(delta r), lam = 1/mu.  sympy normalizes the
    form itself, a_i' = a_i mu^(delta (r - i)), and evaluates
    u_i = a_1'^(r-i) a_i' + a_(r-1)'^(r-i) a_(r-i)'.  Over Q our code finds
    the root, and over F_7 and F_9 it finds one by search, so the form is
    rescaled; over the other domains it mostly does not, and the corrected
    invariants of the monic form must agree."""
    dom = _domain(name)
    gens, mins = minimal_polynomials(dom)

    def draw():
        while dom.is_zero(x := random_element(dom, rng)):
            pass
        return x

    if mins:  # products in sympy's ring of the generators, reduced at once
        ring = sp.ring(gens, sp.QQ)[0]
        ideal = [ring.from_expr(m) for m in mins]
        lift, mul = ring.from_expr, lambda x, y: (x * y).rem(ideal)
    else:
        lift, mul = (lambda e: e), (lambda x, y: x * y)

    def power(x, k):
        out = lift(sp.Integer(1))
        for _ in range(k):
            out = mul(out, x)
        return out

    for _ in range(3):
        delta, r = rng.choice([1, 2]), rng.randint(3, 4)
        mu = draw()
        a = [dom.inv(dom.pow(mu, delta * r))] + [random_element(dom, rng) for _ in range(r - 1)]
        a.append(dom.one())
        c = draw()
        f = UniPoly(dom, {delta * i: dom.mul(c, ai) for i, ai in enumerate(a) if not dom.is_zero(ai)})
        u = invariants_of(f, delta)
        smu = lift(to_sympy(dom, mu))
        na = [mul(lift(to_sympy(dom, ai)), power(smu, delta * (r - i))) for i, ai in enumerate(a)]
        for i in range(1, r + 1):
            expected = mul(power(na[1], r - i), na[i]) + mul(power(na[r - 1], r - i), na[r - i])
            assert_matches(dom, u[i], expected.as_expr(), f"u_{i} of {f}")


@pytest.mark.parametrize("name", ["Q(a)", "Q(a, b)"])
def test_rational_function_arithmetic_matches_sympy(name, rng):
    """add, mul, div and pow over Q(params) against sympy.cancel, and the
    canonical form: integer num and den, coprime in Z[params] (integer
    content included), den with a positive graded-lex leading coefficient."""
    dom = _domain(name)
    syms = sp.symbols(dom.names)

    def draw():  # nonzero, so that every op below is defined
        while True:
            num, den = random_element(dom, rng), random_element(dom, rng)
            if not (dom.is_zero(num) or dom.is_zero(den)):
                return dom.div(num, den)

    for _ in range(14):
        x, y = draw(), draw()
        sx, sy = to_sympy(dom, x), to_sympy(dom, y)
        op = rng.choice(["add", "mul", "div", "pow"])
        if op == "pow":
            k = rng.choice([-3, -2, 2, 3, 5])
            out, expected = dom.pow(x, k), sx**k
        else:
            out = getattr(dom, op)(x, y)
            expected = {"add": sx + sy, "mul": sx * sy, "div": sx / sy}[op]
        assert sp.cancel(to_sympy(dom, out) - expected) == 0, f"{op}({dom.fmt(x)}, {dom.fmt(y)})"
        num, den = (sp.Poly(sp.Add(*(c * sp.Mul(*(v**e for v, e in zip(syms, exps)))
                                     for exps, c in part.items())), *syms) for part in out)
        assert all(type(c) is int for part in out for c in part.values())
        assert sp.gcd(num, den) == 1 and den.LC(order="grlex") > 0, dom.fmt(out)


def _planted_pairs(dom, rng):
    """(x, y) pairs that run every branch of ``FunctionField.add`` and
    ``mul``: coprime denominators, a shared denominator factor, equal
    denominators, a denominator 1, a sum that cancels to 0, a result whose
    denominator cancels to 1, and operands that share only integer
    content."""

    def poly():  # nonconstant, in the parameters
        while True:
            p = random_element(dom, rng)
            if dom.constant(p) is None:
                return p

    mul, div = dom.mul, dom.div
    a = dom.param(dom.names[0])
    pairs = []
    for _ in range(3):
        p, q, r, u, v = poly(), poly(), poly(), poly(), poly()
        x = div(u, p)
        pairs += [
            (x, div(v, q)),
            (div(u, mul(p, q)), div(v, mul(p, r))),
            (x, div(v, p)),
            (x, v),
            (v, x),
            (x, dom.neg(x)),
            (x, x),
            (x, mul(p, v)),
            (x, div(dom.sub(mul(p, v), u), p)),
        ]
    half = div(dom.one(), mul(dom.from_int(2), a))
    pairs += [(half, dom.from_int(2)), (half, half), (half, div(dom.one(), mul(dom.from_int(4), a))),
              (half, div(dom.from_int(3), mul(dom.from_int(2), dom.add(a, dom.one()))))]
    return pairs


@pytest.mark.parametrize("name", ["Q(a)", "Q(a, b)", "Q(a, b, c)", "F_7(a)"])
def test_function_field_branches_match_sympy_cancel(name, rng):
    """add, sub, mul and div over Q(params) and F_7(a) against sympy's
    cancel, on pairs planted to run each branch of Henrici's rule; every
    result is also in canonical form."""
    char, params = (7, ("a",)) if name == "F_7(a)" else (0, tuple(name[2:-1].split(", ")))
    dom = build_domain(char, [], params)
    syms = sp.symbols(dom.names)
    opts = {"modulus": char} if char else {}
    ops = {"add": lambda s, t: s + t, "sub": lambda s, t: s - t,
           "mul": lambda s, t: s * t, "div": lambda s, t: s / t}
    for x, y in _planted_pairs(dom, rng):
        sx, sy = to_sympy(dom, x), to_sympy(dom, y)
        for op, sym_op in ops.items():
            if op == "div" and dom.is_zero(y):
                continue
            out = getattr(dom, op)(x, y)
            what = f"{op}({dom.fmt(x)}, {dom.fmt(y)})"
            diff = sp.together(to_sympy(dom, out) - sp.cancel(sym_op(sx, sy), **opts))
            assert sp.Poly(sp.numer(diff), *syms, **opts).is_zero, what
            num, den = (sp.Poly(sp.Add(*(c * sp.Mul(*(v**e for v, e in zip(syms, exps)))
                                         for exps, c in part.items())), *syms, **opts) for part in out)
            lc = den.LC(order="grlex")
            assert sp.gcd(num, den).is_one if num else out == dom.zero(), what
            assert lc == 1 if char else lc > 0, what


def _zz_poly(rng, nvars, var, deg, bound):
    """A polynomial over Z in x_var alone, of degree deg, with coefficients
    in [-bound, bound]."""
    cs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)]
    return {tuple(d if i == var else 0 for i in range(nvars)): c
            for d, c in enumerate(cs) if c}


def _zz_pair(rng, kind):
    """(f, g) over Z for one case of the mp_gcd oracle; all but "bivariate"
    are univariate in one of up to three variables."""
    nvars = rng.randint(1, 3)
    var = rng.randrange(nvars)
    bound = 10**30 if kind == "huge" else rng.choice((1, 9, 10**6))

    def poly(deg):
        return _zz_poly(rng, nvars, var, deg, bound)

    f, g = poly(rng.randint(0, 8)), poly(rng.randint(0, 8))
    if kind in ("planted", "huge"):
        h = poly(rng.randint(1, 5))
        f, g = rings.mp_mul(ZZ, f, h), rings.mp_mul(ZZ, g, h)
    elif kind == "content":
        k = rng.randint(2, 10**9)
        f = {e: c * k for e, c in f.items()}
        g = {e: c * k * rng.randint(2, 99) for e, c in g.items()}
    elif kind == "divides":
        g = rings.mp_mul(ZZ, f, g)
    elif kind == "constant":
        f = {(0,) * nvars: rng.choice((-1, 1)) * rng.randint(1, 10**30)}
    elif kind == "bivariate":
        # contents along the second variable are gcds in Z[a] alone
        nvars = 2
        h = _zz_poly(rng, 2, 0, rng.randint(1, 3), 9)
        f, g = ({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-9, 9) or 1
                 for _ in range(rng.randint(1, 4))} for _ in range(2))
        f = rings.mp_mul(ZZ, rings.mp_mul(ZZ, f, h), _zz_poly(rng, 2, 0, 2, 9))
        g = rings.mp_mul(ZZ, rings.mp_mul(ZZ, g, h), _zz_poly(rng, 2, 0, 2, 9))
    flip = rng.randrange(4)  # negative leading coefficients
    if flip & 1:
        f = rings.mp_neg(ZZ, f)
    if flip & 2:
        g = rings.mp_neg(ZZ, g)
    return f, g


def assert_zz_gcd_matches(f, g):
    """mp_gcd(ZZ, f, g) is sympy's gcd made primitive with a positive
    graded-lex leading coefficient."""
    syms = sp.symbols(f"x:{len(next(iter(f)))}")

    def expr(d):
        return sp.Add(*(c * sp.Mul(*(s**e for s, e in zip(syms, exps))) for exps, c in d.items()))

    h = sp.Poly(sp.gcd(expr(f), expr(g)), *syms).primitive()[1]
    if h.LC(order="grlex") < 0:
        h = -h
    expected = {exps: int(c) for exps, c in h.terms()}
    assert rings.mp_gcd(ZZ, f, g) == expected, f"gcd({f}, {g})"


ZZ_GCD_KINDS = ["planted", "content", "coprime", "divides", "constant", "huge", "bivariate"]


@pytest.mark.parametrize("kind", ZZ_GCD_KINDS)
def test_mp_gcd_over_z_matches_sympy(kind, rng, monkeypatch):
    heu = []
    real = rings._heu_gcd
    monkeypatch.setattr(rings, "_heu_gcd", lambda *args: heu.append(1) or real(*args))
    for _ in range(25):
        assert_zz_gcd_matches(*_zz_pair(rng, kind))
    # every kind takes GCDHEU; the bivariate pairs through their contents
    assert heu


def test_mp_gcd_over_z_retries_a_failed_candidate(monkeypatch):
    # gcd 3x - 2: the digits of gamma at the first xi give a candidate that
    # does not divide f, and the second xi finds the gcd
    f = {(0,): 4, (1,): -4, (2,): -1, (3,): -3}
    g = {(0,): 4, (1,): -8, (2,): -1, (3,): 6}
    checked = []
    real = rings._zz_divides
    monkeypatch.setattr(rings, "_zz_divides", lambda p, h: checked.append(real(p, h)) or checked[-1])
    assert_zz_gcd_matches(f, g)
    assert rings.mp_gcd(ZZ, f, g) == {(0,): -2, (1,): 3}
    assert checked[0] is False and checked[-1] is True


@pytest.mark.parametrize("rejects", [1, None])
def test_mp_gcd_over_z_retry_and_remainder_fallback_match_sympy(rejects, rng, monkeypatch):
    """The division check refuses the first candidate of each gcd (a retry
    at a larger xi) or every candidate (the remainder sequence runs)."""
    refused, prem = [], []
    real_div, real_prem = rings._zz_divides, rings._mp_prem

    def divides(p, h):
        if rejects is None or len(refused) < rejects:
            refused.append(1)
            return False
        return real_div(p, h)

    monkeypatch.setattr(rings, "_zz_divides", divides)
    monkeypatch.setattr(rings, "_mp_prem", lambda *args: prem.append(1) or real_prem(*args))
    for kind in ("planted", "huge", "content", "divides"):
        for _ in range(6):
            refused.clear()
            f, g = _zz_pair(rng, kind)
            assert_zz_gcd_matches(f, g)
    assert refused
    assert bool(prem) == (rejects is None)


# towers for the product and inverse kernel; the last one is not a field
TOWERS = {
    "Q(i)": [("I", "t^2 + 1")],
    "Q(i, sqrt3)": [("I", "t^2 + 1"), ("sqrt3", "t^2 - 3")],
    "Q(i, zeta5)": [("I", "t^2 + 1"), ("z5", "t^4 + t^3 + t^2 + t + 1")],
    "Q[t]/(t^2 - 1)": [("t", "t^2 - 1")],
}


@pytest.mark.parametrize("name", list(TOWERS))
def test_tower_product_and_inverse_match_sympy(name, rng):
    dom = build_domain(0, TOWERS[name], ())
    gens, mins = minimal_polynomials(dom)
    inverted = 0
    for _ in range(12):
        a, b = random_element(dom, rng), random_element(dom, rng)
        sa, sb = to_sympy(dom, a), to_sympy(dom, b)
        prod = dom.mul(a, b)
        assert prod == dom._schoolbook_mul(a, b), f"{a} * {b}"
        assert_matches(dom, prod, sa * sb, f"{a} * {b}")
        if dom.is_zero(a):
            continue
        if name.startswith("Q[t]") and sp.degree(sp.gcd(sa, mins[0]), gens[0]) > 0:
            continue  # a zero divisor: only units are inverted here
        assert_matches(dom, dom.one(), sa * to_sympy(dom, dom.inv(a)), f"1 / {a}")
        inverted += 1
    assert inverted >= 6


def _prime_field_towers():
    """F_9, F_81 = F_9[v] with v^2 = w + 1, and the tower image of
    Q(i, zeta5) modulo 65537, where i^2 + 1 splits, so the image is no
    field.  Coprimality over Q(i, zeta5) maps to F_p by a root chain; the
    tower image, built directly here, is the route of towers with no
    certificate."""
    F9 = build_domain(3, [("w", "t^2 + 1")], ())
    F81 = QuotientRing(F9, "v", (F9.neg(F9.add(F9.one(), F9.gen())), F9.zero(), F9.one()), field=True)
    return {"F_9": F9, "F_81": F81, "Q(i, zeta5) mod 65537": rings._tower_image(zeta5_field(), 65537)[0]}


def assert_matches_mod_p(dom, ours, expected, what):
    """ours equals expected in GF(p)[generators] reduced by the minimal
    polynomials, taken with the top generator first, so that each leads
    with a power of its own generator."""
    gens, mins = minimal_polynomials(dom)
    diff = sp.expand(to_sympy(dom, ours) - expected)
    assert sp.reduced(diff, mins[::-1], *gens[::-1], modulus=dom.char)[1] == 0, what


@pytest.mark.parametrize("name", ["F_9", "F_81", "Q(i, zeta5) mod 65537"])
def test_tower_tables_mod_p_match_sympy(name, rng):
    dom = _prime_field_towers()[name]
    assert dom._table is not None and dom._table.den == 1
    inverted = 0
    for _ in range(12):
        a, b = random_element(dom, rng), random_element(dom, rng)
        sa, sb = to_sympy(dom, a), to_sympy(dom, b)
        prod = dom.mul(a, b)
        assert prod == dom._schoolbook_mul(a, b), f"{a} * {b}"
        assert_matches_mod_p(dom, prod, sa * sb, f"{a} * {b}")
        if dom.is_zero(a):
            continue
        flat = dom.inv(a)
        assert flat == dom._euclid_inv(a), f"1 / {a}"
        assert_matches_mod_p(dom, dom.one(), sa * to_sympy(dom, flat), f"1 / {a}")
        inverted += 1
    assert inverted >= 10


def test_zero_divisor_of_a_prime_field_image_keeps_the_euclid_factor(rng):
    dom = _prime_field_towers()["Q(i, zeta5) mod 65537"]
    assert dom._flat_inv and dom.base._flat_inv
    c = 256  # c^2 = -1 mod 65537
    i = dom.from_base(dom.base.gen())
    for unit in (dom.one(), dom.gen(), random_element(dom, rng)):
        zd = dom.mul(dom.sub(i, dom.from_int(c)), unit)
        assert dom._conjugate_inv(zd) is None
        with pytest.raises(ZeroDivisorError) as flat:
            dom.inv(zd)
        with pytest.raises(ZeroDivisorError) as euclid:
            dom._euclid_inv(zd)
        assert flat.value.factor == euclid.value.factor
        assert flat.value.domain == euclid.value.domain
        assert str(flat.value) == str(euclid.value)
    # the factor found in the base is i - c
    with pytest.raises(ZeroDivisorError) as base:
        dom.base.inv(dom.base.sub(dom.base.gen(), dom.base.from_int(c)))
    assert base.value.factor == (65537 - c, 1) and base.value.domain == PrimeField(65537)


def test_rational_roots_match_sympy(rng):
    # planted roots up to 10^7 over 10^7, half of them with numerator and
    # denominator above 200,000, some repeated, beside a random cofactor
    for _ in range(24):
        planted = []
        for _ in range(rng.randint(1, 4)):
            lo = rng.choice([0, 200_001])
            num = rng.choice([-1, 1]) * rng.randint(lo, 10**7)
            planted.append(sp.Rational(num, rng.randint(max(lo, 1), 10**7)))
        planted += rng.sample(planted, rng.randint(0, len(planted)))
        cofactor = sp.Add(*(rng.randint(-9, 9) * X**e for e in range(rng.randint(0, 3))), X**3)
        scale = sp.Rational(rng.randint(1, 999), rng.randint(1, 999))
        poly = sp.Poly(scale * cofactor * sp.Mul(*(X - r for r in planted)), X, domain="QQ")
        expected = sorted(poly.ground_roots(), key=lambda r: (abs(r.p), r.q, r.p < 0))
        assert set(planted) <= set(expected)
        coeffs = [mpq(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        assert _q_roots(coeffs) == [mpq(int(r.p), int(r.q)) for r in expected], poly
