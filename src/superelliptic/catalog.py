"""The standard catalog of PGL(2) group fixtures.

Every fixture is built exactly, over an explicit tower rooted in Q or F_p:

* cyclic(d), dihedral(d)       -- over the d-th cyclotomic field
* dihedral_b(m)                -- the order-2-outside-the-rotation model
* a4, s4, a5                   -- standard coordinates, over Q(i, sqrt3),
                                  Q(i) and Q(i, zeta5)
* a4_b, s4_b                   -- a4 and s4 conjugated inside Q(i, sqrt3)
                                  so that the order-3 element i(x+1)/(x-1)
                                  is diagonal (its eigenvalue ratio is a
                                  primitive cube root of unity)
* s4_c                         -- s4 conjugated over Q(i, sqrt2) so that the
                                  distinguished involution is x -> -x
* a5_b                         -- a5 conjugated over one radical step above
                                  Q(i, zeta5) so that an involution is x -> -x
* a5_c                         -- a5 conjugated by a caller-supplied matrix
                                  that diagonalizes an order-3 element (the
                                  nested radical constants are not shipped)
* elem_abelian(p,t,m), psl(p,t), pgl(p,t) over F_{p^t}

The five conjugated fixtures are the standard one moved by a matrix q
(``_moved``): generators q^-1 g q, special orbits moved by q^-1 through
``groups.orbit_image`` and the linear template transported by q.  PSL(2, q)
and PGL(2, q) come from one builder (``_projective``).  Construction is
validated on the fly: group closures must hit the declared order, the
distinguished conjugated element must come out diagonal, and special-orbit
sizes must match the classical counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re

from .rings import QQ, Domain, El, PrimeField, QuotientRing, adjoin, embed, tower_chain
from .unipoly import INF, Mobius, UniPoly, mobius_transport
from .groups import (
    GroupFixture, GroupError, SpecialOrbit, _eval_mod, group_elements, orbit_image,
    orbit_points, orbit_polynomial,
)
from .parser import build_domain, parse_expression


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@functools.cache
def cyclotomic_coeffs(n: int) -> tuple:
    """Coefficients (constant first) of the n-th cyclotomic polynomial."""
    x = UniPoly.gen(QQ)
    num = x**n - UniPoly.one(QQ)
    for d in range(1, n):
        if n % d == 0:
            num, rem = num.divrem(UniPoly.from_list(QQ, cyclotomic_coeffs(d)))
            if not rem.is_zero():
                raise AssertionError("cyclotomic division must be exact")
    return tuple(num.to_list())


@functools.cache
def gaussian_field() -> QuotientRing:
    """Q(i), generator named I."""
    return adjoin(QQ, "I", (QQ.one(), QQ.zero(), QQ.one()), field=True)


@functools.cache
def zeta_field(delta: int) -> tuple[Domain, El]:
    """A field containing a primitive delta-th root of unity, and the root."""
    if delta == 1:
        return QQ, QQ.one()
    if delta == 2:
        return QQ, QQ.from_int(-1)
    if delta == 4:
        k = gaussian_field()
        return k, k.gen()
    k = adjoin(QQ, f"z{delta}", cyclotomic_coeffs(delta), field=True)
    return k, k.gen()


@functools.cache
def sqrt3_field() -> QuotientRing:
    """Q(i, sqrt3)."""
    g = gaussian_field()
    return adjoin(g, "sqrt3", (g.from_int(-3), g.zero(), g.one()), field=True)


@functools.cache
def sqrt2_field() -> QuotientRing:
    """Q(i, sqrt2)."""
    g = gaussian_field()
    return adjoin(g, "sqrt2", (g.from_int(-2), g.zero(), g.one()), field=True)


@functools.cache
def zeta5_field() -> QuotientRing:
    """Q(i, zeta5)."""
    g = gaussian_field()
    coeffs = tuple(embed(QQ, g, c) for c in cyclotomic_coeffs(5))
    return adjoin(g, "z5", coeffs, field=True)


@functools.cache
def finite_field(p: int, t: int) -> Domain:
    """F_{p^t} as F_p or F_p[w]/(irreducible of degree t), t <= 3."""
    base = PrimeField(p)
    if t == 1:
        return base
    if t > 3:
        raise ValueError("finite fields only shipped up to cubic extensions")
    # smallest monic irreducible of degree t: no roots suffices for t in (2,3)
    for tail in itertools.product(range(p), repeat=t):
        coeffs = tail[::-1] + (1,)
        if all(_eval_mod(coeffs, x, p) for x in range(p)):
            return adjoin(base, "w", coeffs, field=True)
    raise AssertionError("no irreducible polynomial found")


def multiplicative_generator(dom: Domain) -> El:
    """A generator of the multiplicative group of a small finite field."""
    q = dom.order  # type: ignore[attr-defined]
    target = q - 1
    for cand in dom.iter_elements():
        if dom.is_zero(cand):
            continue
        order = 1
        acc = cand
        while not dom.is_one(acc):
            acc = dom.mul(acc, cand)
            order += 1
        if order == target:
            return cand
    raise AssertionError("no multiplicative generator found")


def find_generator(dom: Domain, name: str) -> El:
    """The named tower generator of ``dom``, embedded up to the top."""
    for link in tower_chain(dom):
        if isinstance(link, QuotientRing) and link.name == name:
            return embed(link, dom, link.gen())
    raise KeyError(f"domain {dom!r} has no tower generator named {name!r}")


# ---------------------------------------------------------------------------
# small construction helpers
# ---------------------------------------------------------------------------


def _scaling(dom: Domain, c: El) -> Mobius:
    return Mobius(dom, c, dom.zero(), dom.zero(), dom.one())


def _inversion(dom: Domain) -> Mobius:
    return Mobius(dom, dom.zero(), dom.one(), dom.one(), dom.zero())


def _translation(dom: Domain, c: El) -> Mobius:
    return Mobius(dom, dom.one(), c, dom.zero(), dom.one())


def _int_poly(dom: Domain, spec: dict[int, int]) -> UniPoly:
    return UniPoly(dom, {e: dom.from_int(c) for e, c in spec.items()})


def _orbit_from_seed(elements, seed, expected_size: int, name: str) -> SpecialOrbit:
    pts = orbit_points(elements, seed)
    if len(pts) != expected_size:
        raise GroupError(f"orbit {name}: got {len(pts)} points, expected {expected_size}")
    has_inf = any(p is INF for p in pts)
    return SpecialOrbit(name, orbit_polynomial(elements, seed), has_inf)


def _orbit_from_transport(std: SpecialOrbit, q: Mobius, name: str) -> SpecialOrbit:
    """The orbit ``std`` moved by q^-1, which must keep its size."""
    t, has_inf = orbit_image(std.poly.map_domain(q.domain), std.includes_infinity, q.inverse())
    size = int(t.degree()) + has_inf
    if size != std.size:
        raise GroupError(f"orbit {name}: got {size} points, expected {std.size}")
    return SpecialOrbit(name, t, has_inf)


def _conjugates(q: Mobius, gens) -> list[Mobius]:
    qi = q.inverse()
    return [qi * g * q for g in gens]


def _moved(
    std: GroupFixture,
    q: Mobius,
    name: str,
    delta: int,
    gen_order: tuple[int, ...],
    diagonal: tuple[int, ...],
    mark: str,
    caveats: tuple[str, ...] = (),
) -> GroupFixture:
    """The fixture ``std`` moved by q, over the domain of q: the generators
    q^-1 g q listed by their index in ``gen_order``, every special orbit and
    excluded parameter of ``std`` transported and renamed with ``mark``.

    The product of the generators indexed by ``diagonal`` must become
    diagonal, and x -> -x when delta = 2.  T1 is multiplied by
    (c x + d)^(deg T0 - deg T1), so that T0 - a T1 still cuts out the
    orbit of parameter a.
    """
    dom = q.domain
    conj = _conjugates(q, [g.map_domain(dom) for g in std.generators])
    rot = functools.reduce(operator.mul, (conj[k] for k in diagonal))
    if not (dom.is_zero(rot.b) and dom.is_zero(rot.c)):
        raise GroupError(f"{name}: conjugated generator is not diagonal")
    if delta == 2 and not dom.eq(rot.a, dom.neg(rot.d)):
        raise GroupError(f"{name}: distinguished involution is not x -> -x")
    specials = [_orbit_from_transport(orb, q, orb.name + mark) for orb in std.special_orbits]
    t0 = t1 = None
    if std.t0 is not None:  # a4 has no linear template; a4_b uses seeds
        lin = UniPoly(dom, {1: q.c, 0: q.d}) ** int(std.t0.degree() - std.t1.degree())
        t0 = mobius_transport(std.t0.map_domain(dom), q)
        t1 = mobius_transport(std.t1.map_domain(dom), q) * lin
    return GroupFixture(
        name=name,
        family=name,
        domain=dom,
        generators=[conj[k] for k in gen_order],
        order=std.order,
        delta=delta,
        special_orbits=specials,
        generic_size=std.generic_size,
        template_kind=std.template_kind,
        t0=t0,
        t1=t1,
        excluded=[(embed(std.domain, dom, v), orbit + mark) for v, orbit in std.excluded],
        caveats=caveats,
    )


# ---------------------------------------------------------------------------
# family builders (characteristic zero)
# ---------------------------------------------------------------------------


@functools.cache
def cyclic_fixture(delta: int) -> GroupFixture:
    if delta < 2:
        raise ValueError("cyclic fixtures need delta >= 2")
    dom, zeta = zeta_field(delta)
    gens = [_scaling(dom, zeta)]
    specials = [
        SpecialOrbit("B0", UniPoly.gen(dom), False),
        SpecialOrbit("Binf", UniPoly.one(dom), True),
    ]
    return GroupFixture(
        name=f"cyclic({delta})",
        family="cyclic",
        domain=dom,
        generators=gens,
        order=delta,
        delta=delta,
        special_orbits=specials,
        generic_size=delta,
        template_kind="linear",
        t0=_int_poly(dom, {delta: 1}),
        t1=UniPoly.one(dom),
        excluded=[(dom.zero(), "B0")],
        params=(delta,),
    )


@functools.cache
def dihedral_fixture(delta: int) -> GroupFixture:
    if delta < 2:
        raise ValueError("dihedral fixtures need delta >= 2")
    dom, zeta = zeta_field(delta)
    gens = [_scaling(dom, zeta), _inversion(dom)]
    specials = [
        SpecialOrbit("Binf", UniPoly.gen(dom), True),
        SpecialOrbit("B-", _int_poly(dom, {delta: 1, 0: -1}), False),
        SpecialOrbit("B+", _int_poly(dom, {delta: 1, 0: 1}), False),
    ]
    return GroupFixture(
        name=f"dihedral({delta})",
        family="dihedral",
        domain=dom,
        generators=gens,
        order=2 * delta,
        delta=delta,
        special_orbits=specials,
        generic_size=2 * delta,
        template_kind="linear",
        t0=_int_poly(dom, {2 * delta: 1, 0: 1}),
        t1=_int_poly(dom, {delta: -1}),
        excluded=[(dom.from_int(2), "B+"), (dom.from_int(-2), "B-")],
        params=(delta,),
    )


@functools.cache
def dihedral_b_fixture(m: int) -> GroupFixture:
    """Dihedral reduced group with the order-2 extra automorphism outside
    the rotation subgroup; the involution is x -> -x."""
    if m < 3:
        raise ValueError("the separate order-2 model needs m > 2")
    dom, zeta = zeta_field(m)
    neg = _scaling(dom, dom.from_int(-1))
    zp1 = dom.add(zeta, dom.one())
    zm1 = dom.sub(zeta, dom.one())
    rot = Mobius(dom, dom.neg(zp1), zm1, zm1, dom.neg(zp1))
    gens = [neg, rot]
    elements = group_elements(gens, bound=2 * m + 1)
    if len(elements) != 2 * m:
        raise GroupError(f"dihedral_b({m}): closure size {len(elements)}")
    specials = [
        _orbit_from_seed(elements, dom.zero(), m, "B0"),
        _orbit_from_seed(elements, INF, m, "Binf"),
        SpecialOrbit("B1", _int_poly(dom, {2: 1, 0: -1}), False),
    ]
    fx = GroupFixture(
        name=f"dihedral_b({m})",
        family="dihedral_b",
        domain=dom,
        generators=gens,
        order=2 * m,
        delta=2,
        special_orbits=specials,
        generic_size=2 * m,
        template_kind="seed",
        params=(m,),
    )
    fx._elements = elements
    return fx


@functools.cache
def a4_fixture() -> GroupFixture:
    dom = sqrt3_field()
    i = find_generator(dom, "I")
    s3 = dom.gen()
    neg = _scaling(dom, dom.from_int(-1))
    mu = Mobius(dom, i, i, dom.one(), dom.from_int(-1))
    two_i_s3 = dom.mul(dom.from_int(2), dom.mul(i, s3))
    specials = [
        SpecialOrbit("B0", _int_poly(dom, {5: 1, 1: -1}), True),
        SpecialOrbit("B1", UniPoly(dom, {4: dom.one(), 2: dom.neg(two_i_s3), 0: dom.one()}), False),
        SpecialOrbit("B2", UniPoly(dom, {4: dom.one(), 2: two_i_s3, 0: dom.one()}), False),
    ]
    return GroupFixture(
        name="a4",
        family="a4",
        domain=dom,
        generators=[neg, mu],
        order=12,
        delta=2,
        special_orbits=specials,
        generic_size=12,
        template_kind="a4",
        excluded=[
            (dom.from_int(2), "B0"),
            (dom.from_int(-2), "B0"),
            (two_i_s3, "B1"),
            (dom.neg(two_i_s3), "B2"),
        ],
    )


def _diagonalizing_matrix(dom: Domain) -> Mobius:
    """Matrix whose conjugation diagonalizes mu(x) = i(x+1)/(x-1); the
    multiplier is the primitive cube root of unity omega.

    mu has order 3; its eigenvalue ratio is a cube root of unity, so the
    eigenvector matrix lives in Q(i, sqrt3) even though the eigenvalues
    do not generate anything worse.
    """
    i = find_generator(dom, "I")
    s3 = find_generator(dom, "sqrt3")
    half = dom.inv(dom.from_int(2))
    omega = dom.mul(dom.add(dom.from_int(-1), dom.mul(i, s3)), half)
    # lam2 = (i - 1)/(1 + omega), lam1 = omega * lam2
    lam2 = dom.div(dom.sub(i, dom.one()), dom.add(dom.one(), omega))
    lam1 = dom.mul(omega, lam2)
    return Mobius(dom, dom.add(lam1, dom.one()), dom.add(lam2, dom.one()), dom.one(), dom.one())


A4_B_CAVEAT = (
    "coordinates come from diagonalizing the standard order-3 element "
    "i(x+1)/(x-1) inside Q(i, sqrt3); the curve over the 6-point orbit has "
    "dihedral invariants (-100, 2)"
)


@functools.cache
def a4_b_fixture() -> GroupFixture:
    moved = _moved(a4_fixture(), _diagonalizing_matrix(sqrt3_field()), "a4_b", 3, (1, 0), (1,), "")
    dom = moved.domain
    b1, *quartics = moved.special_orbits
    # the quartic orbit through infinity is named Binf, the one through 0 is B0
    if not quartics[0].includes_infinity:
        quartics.reverse()
    binf, bzero = quartics
    if binf.includes_infinity == bzero.includes_infinity or not dom.is_zero(bzero.poly.coeff(0)):
        raise GroupError("a4_b: the two quartic orbits must split 0 and infinity")
    fx = GroupFixture(
        name="a4_b",
        family="a4_b",
        domain=dom,
        generators=moved.generators,
        order=12,
        delta=3,
        special_orbits=[
            SpecialOrbit("B0", bzero.poly, False),
            SpecialOrbit("Binf", binf.poly, True),
            SpecialOrbit("B1", b1.poly, b1.includes_infinity),
        ],
        generic_size=12,
        template_kind="seed",
        caveats=(A4_B_CAVEAT,),
    )
    fx.elements()  # the closure is checked at build time
    return fx


@functools.cache
def s4_fixture() -> GroupFixture:
    dom = gaussian_field()
    i = dom.gen()
    sigma = _scaling(dom, i)
    mu = Mobius(dom, i, i, dom.one(), dom.from_int(-1))
    g1 = _int_poly(dom, {8: 1, 4: 14, 0: 1})
    g2 = _int_poly(dom, {12: 1, 8: -33, 4: -33, 0: 1})
    specials = [
        SpecialOrbit("B0", _int_poly(dom, {5: 1, 1: -1}), True),
        SpecialOrbit("B1", g1, False),
        SpecialOrbit("B2", g2, False),
    ]
    return GroupFixture(
        name="s4",
        family="s4",
        domain=dom,
        generators=[sigma, mu],
        order=24,
        delta=4,
        special_orbits=specials,
        generic_size=24,
        template_kind="linear",
        t0=g1**3,
        t1=_int_poly(dom, {5: 1, 1: -1}) ** 4,
        excluded=[(dom.zero(), "B1"), (dom.from_int(108), "B2")],
        caveats=(
            "the 12-point orbit polynomial is (x^4+1)(x^8-34x^4+1); the +34 "
            "variant in circulation fails the invariance test",
        ),
    )


@functools.cache
def s4_b_fixture() -> GroupFixture:
    fx = _moved(
        s4_fixture(),
        _diagonalizing_matrix(sqrt3_field()),
        "s4_b",
        3,
        (1, 0),
        (1,),
        "'",
        caveats=(
            "coordinates come from diagonalizing the order-3 element directly; "
            "the distinguished generator is the diagonal cube-root scaling",
        ),
    )
    fx.elements()  # the closure is checked at build time
    return fx


@functools.cache
def s4_c_fixture() -> GroupFixture:
    dom = sqrt2_field()
    i = find_generator(dom, "I")
    s2 = dom.gen()
    # q(x) = i((2+sqrt2)x + 2-sqrt2) * (sqrt2/2) / (x-1) = (i(sqrt2+1)x + i(sqrt2-1))/(x-1)
    q = Mobius(
        dom,
        dom.mul(i, dom.add(s2, dom.one())),
        dom.mul(i, dom.sub(s2, dom.one())),
        dom.one(),
        dom.from_int(-1),
    )
    # the distinguished involution is sigma * mu^2
    fx = _moved(s4_fixture(), q, "s4_c", 2, (0, 1), (0, 1, 1), "''")
    fx.elements()  # the closure is checked at build time
    return fx


def _a5_over(dom: Domain) -> GroupFixture:
    """The standard icosahedral fixture over a tower with generators I and z5."""
    i = find_generator(dom, "I")
    zeta = find_generator(dom, "z5")
    b = dom.neg(dom.mul(i, dom.add(zeta, dom.pow(zeta, 4))))
    sigma = _scaling(dom, zeta)
    rho = Mobius(dom, dom.from_int(-1), dom.neg(b), b, dom.one())
    f0 = UniPoly(dom, {11: dom.one(), 6: dom.mul(dom.from_int(11), i), 1: dom.one()})
    f1 = UniPoly(
        dom,
        {
            20: dom.one(),
            15: dom.mul(dom.from_int(-228), i),
            10: dom.from_int(-494),
            5: dom.mul(dom.from_int(-228), i),
            0: dom.one(),
        },
    )
    f2 = UniPoly(
        dom,
        {
            30: dom.one(),
            25: dom.mul(dom.from_int(522), i),
            20: dom.from_int(10005),
            10: dom.from_int(-10005),
            5: dom.mul(dom.from_int(-522), i),
            0: dom.from_int(-1),
        },
    )
    specials = [
        SpecialOrbit("Binf", f0, True),
        SpecialOrbit("B0", f1, False),
        SpecialOrbit("B0*", f2, False),
    ]
    return GroupFixture(
        name="a5",
        family="a5",
        domain=dom,
        generators=[sigma, rho],
        order=60,
        delta=5,
        special_orbits=specials,
        generic_size=60,
        template_kind="linear",
        t0=f1**3,
        t1=f0**5,
        excluded=[(dom.zero(), "B0"), (dom.mul(dom.from_int(-1728), i), "B0*")],
    )


@functools.cache
def a5_fixture() -> GroupFixture:
    return _a5_over(zeta5_field())


@functools.cache
def a5_b_fixture() -> GroupFixture:
    base = zeta5_field()
    zeta = base.gen()
    # sqrt5 = 2 zeta + 2 zeta^4 + 1; w^2 = 10 - 2 sqrt5
    s5 = base.add(
        base.add(base.mul(base.from_int(2), zeta), base.mul(base.from_int(2), base.pow(zeta, 4))),
        base.one(),
    )
    c0 = base.neg(base.sub(base.from_int(10), base.mul(base.from_int(2), s5)))
    dom = adjoin(base, "e2", (c0, base.zero(), base.one()), field=True)
    w = dom.gen()
    i = find_generator(dom, "I")
    s5_t = embed(base, dom, s5)
    q = Mobius(
        dom,
        dom.mul(i, dom.sub(w, dom.from_int(2))),
        dom.mul(i, dom.add(dom.from_int(2), w)),
        dom.sub(s5_t, dom.one()),
        dom.neg(dom.sub(s5_t, dom.one())),
    )
    # the involution rho becomes x -> -x
    return _moved(_a5_over(dom), q, "a5_b", 2, (0, 1), (1,), "'")


def a5_c_fixture(q1: Mobius) -> GroupFixture:
    """The order-3 transported icosahedral fixture for a caller-supplied
    transport matrix (the exact nested-radical entries are not shipped).

    The caller's domain must carry tower generators named I and z5; the
    conjugate of the order-3 element sigma*rho must come out diagonal.
    """
    return _moved(
        _a5_over(q1.domain),
        q1,
        "a5_c",
        3,
        (0, 1),
        (0, 1),
        "''",
        caveats=("transport matrix supplied by the caller; entries not validated beyond "
                 "the diagonality of the conjugated order-3 element",),
    )


# ---------------------------------------------------------------------------
# characteristic p families
# ---------------------------------------------------------------------------


@functools.cache
def elem_abelian_fixture(p: int, t: int, m: int) -> GroupFixture:
    q = p**t
    if m < 2 or (q - 1) % m:
        raise ValueError("need m >= 2 with m | p^t - 1")
    dom = finite_field(p, t)
    gens = []
    if t == 1:
        gens.append(_translation(dom, dom.one()))
    else:
        w = dom.gen()  # type: ignore[attr-defined]
        for k in range(t):
            gens.append(_translation(dom, dom.pow(w, k)))
    g = multiplicative_generator(dom)
    scale = dom.pow(g, (q - 1) // m)
    gens.append(_scaling(dom, scale))
    b0 = _int_poly(dom, {q: 1, 1: -1})
    specials = [
        SpecialOrbit("Binf", UniPoly.one(dom), True),
        SpecialOrbit("B0", b0, False),
    ]
    return GroupFixture(
        name=f"elem_abelian({p},{t},{m})",
        family="elem_abelian",
        domain=dom,
        generators=gens,
        order=q * m,
        delta=m,
        special_orbits=specials,
        generic_size=q * m,
        template_kind="linear",
        t0=b0**m,
        t1=UniPoly.one(dom),
        excluded=[(dom.zero(), "B0")],
        params=(p, t, m),
    )


PSL_PGL_CAVEAT = (
    "the rational-point orbit polynomial is x^(p^t) - x (the x^m - x variant "
    "with m = p^t - 1 has the wrong root count), and every orbit and template "
    "exponent uses q = p^t, which gives the correct orbit sizes"
)


def _projective(p: int, t: int, k: int) -> GroupFixture:
    """PGL(2, q) for k = 1 and PSL(2, q) for k = 2, with q = p^t: generated
    by the scaling by xi^k (xi generates F_q^*), x -> (-1)^(k-1)/x and
    x -> x + 1.  Order, delta and template exponents are PGL's divided by k."""
    q = p**t
    dom = finite_field(p, t)
    xi = multiplicative_generator(dom)
    inv = Mobius(dom, dom.zero(), dom.from_int((-1) ** (k - 1)), dom.one(), dom.zero())
    gens = [_scaling(dom, dom.pow(xi, k)), inv, _translation(dom, dom.one())]
    binf = _int_poly(dom, {q: 1, 1: -1})
    b0 = (binf ** (q - 1)) + UniPoly.one(dom)
    specials = [SpecialOrbit("Binf", binf, True), SpecialOrbit("B0", b0, False)]
    family = "pgl" if k == 1 else "psl"
    return GroupFixture(
        name=f"{family}({p},{t})",
        family=family,
        domain=dom,
        generators=gens,
        order=(q**3 - q) // k,
        delta=(q - 1) // k,
        special_orbits=specials,
        generic_size=(q**3 - q) // k,
        template_kind="linear",
        t0=b0 ** ((q + 1) // k),
        t1=binf ** (q * (q - 1) // k),
        excluded=[(dom.zero(), "B0")],
        caveats=(PSL_PGL_CAVEAT,),
        params=(p, t),
    )


@functools.cache
def pgl_fixture(p: int, t: int) -> GroupFixture:
    return _projective(p, t, 1)


@functools.cache
def psl_fixture(p: int, t: int) -> GroupFixture:
    if p == 2:
        raise ValueError("PSL(2, 2^t) coincides with PGL; use the pgl fixture")
    if (p**t - 1) // 2 < 2:
        raise ValueError("need q >= 5 for an extra automorphism inside PSL")
    return _projective(p, t, 2)


def psl_pgl_case_b_generators(fixture: GroupFixture) -> list[Mobius]:
    """Generators conjugated by the documented matrix -i(x+1)/(x-1), for the
    case where the extra automorphism reduces into the nonsplit torus.  Only
    the transport is shipped; no classification table exists for this case."""
    dom = fixture.domain
    minus_one = dom.from_int(-1)
    i = dom.nth_root(minus_one, 2)
    if i is None:
        raise GroupError("no square root of -1 in the fixture field; supply a larger field")
    q = Mobius(dom, dom.neg(i), dom.neg(i), dom.one(), minus_one)
    return _conjugates(q, fixture.generators)


# ---------------------------------------------------------------------------
# catalog access and serialization
# ---------------------------------------------------------------------------

CATALOG_SCHEMA = 1

_NAME_RE = re.compile(r"^([a-z0-9_*]+?)(?:\((\d+(?:,\d+)*)\))?$")

_STANDARD_NAMES = (
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
    "a5_b",
    "elem_abelian(3,1,2)",
    "elem_abelian(3,2,4)",
    "psl(3,2)",
    "pgl(3,2)",
)


def fixture_by_name(name: str) -> GroupFixture:
    m = _NAME_RE.match(name.strip())
    if not m:
        raise KeyError(f"malformed fixture name {name!r}")
    fam, args = m.group(1), m.group(2)
    params = tuple(int(x) for x in args.split(",")) if args else ()
    table = {
        "cyclic": (cyclic_fixture, 1),
        "dihedral": (dihedral_fixture, 1),
        "dihedral_b": (dihedral_b_fixture, 1),
        "a4": (a4_fixture, 0),
        "a4_b": (a4_b_fixture, 0),
        "s4": (s4_fixture, 0),
        "s4_b": (s4_b_fixture, 0),
        "s4_c": (s4_c_fixture, 0),
        "a5": (a5_fixture, 0),
        "a5_b": (a5_b_fixture, 0),
        "elem_abelian": (elem_abelian_fixture, 3),
        "psl": (psl_fixture, 2),
        "pgl": (pgl_fixture, 2),
    }
    if fam not in table:
        raise KeyError(f"unknown fixture family {fam!r}")
    builder, arity = table[fam]
    if len(params) != arity:
        raise KeyError(f"fixture family {fam!r} takes {arity} parameters, got {len(params)}")
    return builder(*params)


def standard_catalog() -> dict[str, GroupFixture]:
    return {name: fixture_by_name(name) for name in _STANDARD_NAMES}


def _domain_declaration(dom: Domain) -> dict:
    char = dom.char
    exts = []
    for link in tower_chain(dom):
        if isinstance(link, QuotientRing):
            exts.append([link.name, link.fmt_minpoly("t")])
    return {"char": char, "extensions": exts}


def fixture_to_dict(fx: GroupFixture) -> dict:
    data = {
        "name": fx.name,
        "family": fx.family,
        "domain": _domain_declaration(fx.domain),
        "generators": [[fx.domain.fmt(e) for e in g.entries()] for g in fx.generators],
        "order": fx.order,
        "delta": fx.delta,
        "generic": {
            "size": fx.generic_size,
            "kind": fx.template_kind,
            "t0": str(fx.t0) if fx.t0 is not None else None,
            "t1": str(fx.t1) if fx.t1 is not None else None,
            "excluded": [[fx.domain.fmt(v), orbit] for v, orbit in fx.excluded],
        },
        "special_orbits": [
            {
                "name": orb.name,
                "poly": str(orb.poly),
                "includes_infinity": orb.includes_infinity,
                "size": orb.size,
                "branchable": orb.branchable,
            }
            for orb in fx.special_orbits
        ],
        "caveats": list(fx.caveats),
        "params": list(fx.params),
    }
    return data


def catalog_to_json(catalog: dict[str, GroupFixture] | None = None) -> str:
    catalog = catalog if catalog is not None else standard_catalog()
    payload = {
        "schema": CATALOG_SCHEMA,
        "fixtures": {name: fixture_to_dict(fx) for name, fx in sorted(catalog.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_catalog(path: str) -> dict[str, GroupFixture]:
    """Fixtures from a JSON catalog file (the inverse of catalog_to_json).

    Seed- and a4-kind templates are reconstructed from the family tag;
    linear templates are parsed from their serialized polynomials.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != CATALOG_SCHEMA:
        raise ValueError(f"unsupported catalog schema {payload.get('schema')!r}")
    out = {}
    for name, data in payload["fixtures"].items():
        decl = data["domain"]
        dom = build_domain(decl["char"], [(n, m) for n, m in decl["extensions"]], ())
        parse = lambda text: parse_expression(text, dom)
        gens = []
        for entries in data["generators"]:
            vals = [_constant_of(parse(e)) for e in entries]
            gens.append(Mobius(dom, *vals))
        specials = [
            SpecialOrbit(o["name"], parse(o["poly"]), o["includes_infinity"])
            for o in data["special_orbits"]
        ]
        gen = data["generic"]
        t0 = parse(gen["t0"]) if gen.get("t0") else None
        t1 = parse(gen["t1"]) if gen.get("t1") else None
        excluded = [(_constant_of(parse(v)), orbit) for v, orbit in gen.get("excluded", [])]
        fx = GroupFixture(
            name=data["name"],
            family=data["family"],
            domain=dom,
            generators=gens,
            order=data["order"],
            delta=data["delta"],
            special_orbits=specials,
            generic_size=gen["size"],
            template_kind=gen["kind"],
            t0=t0,
            t1=t1,
            excluded=excluded,
            caveats=tuple(data.get("caveats", ())),
            params=tuple(data.get("params", ())),
        )
        out[data["name"]] = fx
    return out


def _constant_of(poly: UniPoly) -> El:
    if not poly.is_constant():
        raise ValueError("expected a constant expression")
    return poly.coeff(0)
