"""Finite subgroups of PGL(2) as explicit matrix fixtures.

A :class:`GroupFixture` packages: a coefficient tower large enough for the
generators and the named special-orbit polynomials; the generators; the
distinguished diagonal automorphism order delta (the extra-automorphism
order the family models); and a one-parameter template for the generic
orbits.  Orbits are monic polynomials over the fixture tower; an orbit that
touches 0 or infinity can never appear in the branch locus of a normal form
(the extra automorphism fixes those two points), which is how ``branchable``
is derived.

Templates come in three kinds:

* ``linear``   -- T0 - a*T1 (possibly with deg T1 = deg T0 after a Mobius
                  transport, in which case the leading coefficient is affine
                  in a and the template is monicized on demand);
* ``seed``     -- the orbit polynomial of a free seed point;
* ``a4``       -- the triple-quartic family whose three quartic parameters
                  are tied rational functions of one free parameter.

``orbit_decomposition`` peels exact special-orbit divisors off a branch
polynomial, counts generic orbits by degree, and recovers generic
parameters exactly when they are rational (or the coefficient field is
finite); ``classify`` turns the counts into the full automorphism group of
y^n = f(x) per the classical structure tables for cyclic covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Any

from .rings import (
    QQ,
    Domain,
    DomainMismatchError,
    El,
    FunctionField,
    common_rational,
    embed,
    mpq,
)
from .unipoly import INF, Mobius, UniPoly, mobius_transport, proportional, squarefree_test


class GroupError(ValueError):
    pass


class ClosureBoundError(GroupError):
    """The generated group exceeded the declared size bound."""


class ExcludedParameterError(GroupError):
    """A generic-template parameter degenerates onto a special orbit."""

    def __init__(self, message: str, orbit: str):
        super().__init__(message)
        self.orbit = orbit


class DecompositionError(GroupError):
    pass


def group_elements(generators: list[Mobius], bound: int = 2048) -> list[Mobius]:
    """Closure of the generators under multiplication, modulo scalars."""
    if not generators:
        raise GroupError("no generators")
    dom = generators[0].domain
    for g in generators[1:]:
        if g.domain != dom:
            raise DomainMismatchError("generators over different domains")
    ident = Mobius.identity(dom)
    seen: dict[Any, Mobius] = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = m * g
                k = prod.key()
                if k not in seen:
                    if len(seen) >= bound:
                        raise ClosureBoundError(f"group closure exceeds bound {bound}")
                    seen[k] = prod
                    new.append(prod)
        frontier = new
    return list(seen.values())


def orbit_points(elements: list[Mobius], seed) -> list:
    """Distinct images of the seed (a raw value or INF) under the group."""
    dom = elements[0].domain
    seen = {}
    has_inf = False
    for g in elements:
        pt = g.apply(seed)
        if pt is INF:
            has_inf = True
        else:
            seen[dom.key(pt)] = pt
    pts = list(seen.values())
    if has_inf:
        pts.append(INF)
    return pts


def orbit_polynomial(elements: list[Mobius], seed, var: str = "x") -> UniPoly:
    """Monic polynomial whose roots are the finite points of the orbit of
    the seed; infinity, when in the orbit, is simply dropped (the degree is
    the orbit size minus one in that case)."""
    dom = elements[0].domain
    out = UniPoly.one(dom, var)
    for pt in orbit_points(elements, seed):
        if pt is INF:
            continue
        out = out * UniPoly(dom, {1: dom.one(), 0: dom.neg(pt)}, var)
    return out


@dataclass(frozen=True)
class SpecialOrbit:
    name: str
    poly: UniPoly
    includes_infinity: bool

    @property
    def size(self) -> int:
        return int(self.poly.degree()) + (1 if self.includes_infinity else 0)

    @property
    def branchable(self) -> bool:
        """An orbit through 0 or infinity cannot be a branch orbit of a
        normal form (both points are fixed by the extra automorphism)."""
        if self.includes_infinity:
            return False
        return not self.poly.domain.is_zero(self.poly.coeff(0))


class GroupFixture:
    """A finite subgroup of PGL(2) with its named orbits and generic family."""

    def __init__(
        self,
        name: str,
        family: str,
        domain: Domain,
        generators: list[Mobius],
        order: int,
        delta: int,
        special_orbits: list[SpecialOrbit],
        generic_size: int,
        template_kind: str,
        t0: UniPoly | None = None,
        t1: UniPoly | None = None,
        excluded: list[tuple[El, str]] | None = None,
        caveats: tuple[str, ...] = (),
        params: tuple = (),
    ):
        self.name = name
        self.family = family
        self.domain = domain
        self.generators = list(generators)
        self.order = order
        self.delta = delta
        self.special_orbits = list(special_orbits)
        self.generic_size = generic_size
        self.template_kind = template_kind
        self.t0 = t0
        self.t1 = t1
        self.excluded = list(excluded or [])
        self.caveats = caveats
        self.params = params
        self._elements: list[Mobius] | None = None

    def __repr__(self):
        return f"GroupFixture({self.name}, order={self.order}, delta={self.delta})"

    def elements(self) -> list[Mobius]:
        if self._elements is None:
            self._elements = group_elements(self.generators, bound=self.order + 1)
            if len(self._elements) != self.order:
                raise GroupError(
                    f"{self.name}: closure has {len(self._elements)} elements, expected {self.order}"
                )
        return self._elements

    def orbit(self, name: str) -> SpecialOrbit:
        for orb in self.special_orbits:
            if orb.name == name:
                return orb
        raise KeyError(f"{self.name} has no special orbit {name!r}")

    # -- generic templates ------------------------------------------------

    def generic_template(self, dom: Domain, a: El, var: str = "x") -> UniPoly:
        """The generic-orbit polynomial at parameter value ``a`` over ``dom``
        (a domain the fixture tower embeds into), monic, expanded."""
        for value, orbit in self.excluded:
            try:
                bad = embed(self.domain, dom, value)
            except DomainMismatchError:
                continue
            if dom.eq(a, bad):
                raise ExcludedParameterError(
                    f"parameter {dom.fmt(a)} degenerates onto special orbit {orbit}", orbit
                )
        if self.template_kind == "seed":
            return self._seed_template(dom, a, var)
        if self.template_kind == "a4":
            return _a4_template(dom, a, var)
        t0 = self.t0.map_domain(dom)
        t1 = self.t1.map_domain(dom)
        out = t0 - t1.scale(a)
        if not out.is_monic():
            out = out.monic()
        return out

    def _seed_template(self, dom: Domain, seed: El, var: str) -> UniPoly:
        elements = [g.map_domain(dom) for g in self.elements()]
        pts = orbit_points(elements, seed)
        if any(p is INF for p in pts) or len(pts) != self.generic_size:
            name = self._locate_special(dom, seed)
            raise ExcludedParameterError(
                f"seed {dom.fmt(seed)} lies in a special orbit"
                + (f" ({name})" if name else ""),
                name or "special",
            )
        return orbit_polynomial(elements, seed, var)

    def _locate_special(self, dom: Domain, seed: El) -> str | None:
        for orb in self.special_orbits:
            p = orb.poly.map_domain(dom)
            if dom.is_zero(p.evaluate(seed)):
                return orb.name
        return None


def orbit_image(poly: UniPoly, has_inf: bool, g: Mobius) -> tuple[UniPoly, bool]:
    """Image of the point set {roots of poly} (plus infinity when flagged)
    under the Mobius map, as a monic polynomial plus an infinity flag."""
    dom = poly.domain
    t = mobius_transport(poly, g.inverse()).monic()
    new_inf = int(t.degree()) < int(poly.degree())
    g_inf = g.apply(INF)
    if has_inf:
        if g_inf is INF:
            new_inf = True
        else:
            t = t * UniPoly(dom, {1: dom.one(), 0: dom.neg(g_inf)}, poly.var)
    return t, new_inf


def orbit_set_invariant(orb: SpecialOrbit, fixture_or_generators) -> bool:
    """True iff the orbit's point set (including infinity when flagged) is
    stable under every generator; the right invariance notion for orbits
    through 0 or infinity, where plain transport proportionality drops
    degree by design."""
    generators = (
        fixture_or_generators.generators
        if isinstance(fixture_or_generators, GroupFixture)
        else list(fixture_or_generators)
    )
    ref = orb.poly.monic()
    for g in generators:
        gg = g if g.domain == ref.domain else g.map_domain(ref.domain)
        img, inf_flag = orbit_image(ref, orb.includes_infinity, gg)
        if inf_flag != orb.includes_infinity or img != ref:
            return False
    return True


def _working_domain(f_dom: Domain, fx_dom: Domain) -> Domain:
    """A common domain for a polynomial and a fixture: the fixture tower
    itself, or the fixture tower extended by the polynomial's parameters."""
    if f_dom == fx_dom:
        return fx_dom
    try:
        embed(f_dom, fx_dom, f_dom.one())
        return fx_dom
    except DomainMismatchError:
        pass
    if isinstance(f_dom, FunctionField) and not isinstance(fx_dom, FunctionField):
        work = FunctionField(fx_dom, f_dom.names)
        embed(f_dom, work, f_dom.one())  # raises if the bases are incompatible
        return work
    raise DomainMismatchError(f"cannot reconcile {f_dom!r} with the fixture tower {fx_dom!r}")


def is_invariant(f: UniPoly, fixture_or_generators) -> bool:
    """True iff every generator transports f to a proportional polynomial
    without degree drop (a drop means a root maps to infinity, which is
    rejected for branch polynomials)."""
    if isinstance(fixture_or_generators, GroupFixture):
        generators = fixture_or_generators.generators
        if f.domain != fixture_or_generators.domain:
            f = f.map_domain(_working_domain(f.domain, fixture_or_generators.domain))
    else:
        generators = list(fixture_or_generators)
    for g in generators:
        gg = g if g.domain == f.domain else g.map_domain(f.domain)
        t = mobius_transport(f, gg)
        if t.degree() != f.degree():
            return False
        if proportional(t, f) is None:
            return False
    return True


@dataclass(frozen=True)
class OrbitReport:
    fixture: str
    domain: Domain
    counts: dict[str, int]
    t_generic: int
    generic_params: tuple | None
    cofactor: UniPoly
    matched_by: str = "division"
    warnings: tuple[str, ...] = ()


def _solve_unique(dom: Domain, rows: list[list[El]], rhs: list[El]) -> list[El] | None:
    """Exact Gaussian elimination; unique solution or None."""
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    piv_rows = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if not dom.is_zero(a[i][c]):
                piv = i
                break
        if piv is None:
            return None  # underdetermined in this column
        a[r], a[piv] = a[piv], a[r]
        inv = dom.inv(a[r][c])
        a[r] = [dom.mul(v, inv) for v in a[r]]
        for i in range(m):
            if i != r and not dom.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [dom.sub(a[i][j], dom.mul(f, a[r][j])) for j in range(n + 1)]
        piv_rows.append(r)
        r += 1
        if r == m:
            break
    if r < n:
        return None
    for i in range(r, m):
        if not dom.is_zero(a[i][n]):
            return None  # inconsistent
    return [a[i][n] for i in range(n)]


def _q_projection(dom: Domain, raw: El):
    """The coefficient of 1 in the tower-basis expansion of a raw value, as
    a rational, or None when undefined (finite characteristic, genuine
    parameter dependence)."""
    from .rings import FunctionField, QuotientRing, Rationals

    if isinstance(dom, Rationals):
        return raw
    if isinstance(dom, QuotientRing):
        return _q_projection(dom.base, raw[0])
    if isinstance(dom, FunctionField):
        num, den = raw
        if not dom._den_is_one(dom.base, den):
            return None
        zero = (0,) * dom.nvars
        if not num:
            return _q_projection(dom.base, dom.base.zero())
        if zero in num and len(num) == 1:
            return _q_projection(dom.base, num[zero])
        return None
    return None


def _rational_roots(dom: Domain, coeffs: list[El]) -> list[El]:
    """Exact roots of sum coeffs[i] z^i available inside the domain:
    brute force over small finite domains; rational-root search otherwise.
    For tower coefficients the candidates come from the rational projection
    of the polynomial and are then verified exactly, so the result is
    correct though possibly incomplete (recovery is best-effort)."""
    while coeffs and dom.is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    if dom.is_finite and getattr(dom, "order", 1 << 30) <= 4096:
        roots = []
        for cand in dom.iter_elements():
            acc = dom.zero()
            for c in reversed(coeffs):
                acc = dom.add(dom.mul(acc, cand), c)
            if dom.is_zero(acc):
                roots.append(cand)
        return roots
    rats = [common_rational(dom, c) for c in coeffs]
    if any(r is None for r in rats):
        projected = [_q_projection(dom, c) for c in coeffs]
        if any(r is None for r in projected) or all(not r for r in projected):
            return []
        candidates = _rational_roots(QQ, list(projected))
        roots = []
        for q in candidates:
            val = _rational_into(dom, q)
            if val is None:
                continue
            acc = dom.zero()
            for c in reversed(coeffs):
                acc = dom.add(dom.mul(acc, val), c)
            if dom.is_zero(acc):
                roots.append(val)
        return roots
    den_lcm = 1
    for rat in rats:
        den_lcm = den_lcm * rat.denominator // gcd(den_lcm, int(rat.denominator))
    ints = [int(rat * den_lcm) for rat in rats]
    lead, const = ints[-1], ints[0]
    roots = []
    if const == 0:
        roots.append(dom.from_int(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
        lead, const = ints[-1], ints[0]
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for sign in (1, -1):
                cand = mpq(sign * p, q)
                acc = mpq(0)
                for c in reversed(rats):
                    acc = acc * cand + c
                if not acc:
                    val = _rational_into(dom, cand)
                    if val is not None and not any(dom.eq(val, r) for r in roots):
                        roots.append(val)
    return roots


_DIVISOR_SCAN_CAP = 200_000


def _divisors(n: int) -> list[int]:
    """Divisors of n with the trial scan capped: every divisor pair (d, n/d)
    with min(d, n/d) <= the cap is found.  Recovery stays best-effort for
    constants whose divisors are all astronomically large."""
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n and d <= _DIVISOR_SCAN_CAP:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_into(dom: Domain, q) -> El | None:
    if dom.char:
        return None
    num = dom.from_int(int(q.numerator))
    den = dom.from_int(int(q.denominator))
    return dom.div(num, den)


def orbit_decomposition(f: UniPoly, fixture: GroupFixture) -> OrbitReport:
    """Split a monic squarefree group-invariant polynomial into special
    orbits (each with count 0 or 1) and generic orbits.

    The caller guarantees invariance (see :func:`is_invariant`).  When f
    lives over a tower incompatible with the fixture's, a fallback matches
    a single whole special orbit through the dihedral invariants, which are
    insensitive to the change of normal-form coordinates.
    """
    warnings: list[str] = []
    try:
        if f.domain != fixture.domain:
            f = f.map_domain(_working_domain(f.domain, fixture.domain))
        dom = f.domain
    except DomainMismatchError:
        return _match_by_invariants(f, fixture)
    if not f.is_monic():
        f = f.monic()
        warnings.append("input monicized")
    if not squarefree_test(f):
        raise DecompositionError("branch polynomial must be squarefree")
    counts: dict[str, int] = {}
    rem = f
    for orb in fixture.special_orbits:
        if orb.poly.is_constant():
            counts[orb.name] = 0
            continue
        orb_poly = orb.poly if orb.poly.domain == dom else orb.poly.map_domain(dom)
        quo = orb_poly.divides_exactly(rem)
        if quo is None:
            counts[orb.name] = 0
            continue
        if orb_poly.divides_exactly(quo) is not None:
            raise DecompositionError(
                f"special orbit {orb.name} divides with multiplicity > 1; "
                "the branch divisor is not squarefree"
            )
        counts[orb.name] = 1
        rem = quo
    deg = int(rem.degree()) if rem.coeffs else 0
    if deg == 0:
        return OrbitReport(fixture.name, dom, counts, 0, None, rem, "division", tuple(warnings))
    if deg % fixture.generic_size:
        warnings.append(
            f"cofactor degree {deg} is not a multiple of the generic orbit size "
            f"{fixture.generic_size}; is the polynomial really invariant?"
        )
        return OrbitReport(fixture.name, dom, counts, 0, None, rem, "division", tuple(warnings))
    t = deg // fixture.generic_size
    params, cofactor = _recover_parameters(fixture, dom, rem, t)
    if params is None:
        warnings.append("generic parameters not recovered (not rational in the base)")
    return OrbitReport(fixture.name, dom, counts, t, params, cofactor, "division", tuple(warnings))


def _match_by_invariants(f: UniPoly, fixture: GroupFixture) -> OrbitReport:
    """Identify f with one whole special orbit by comparing dihedral
    invariants computed in each polynomial's own tower; only rational
    invariant vectors are compared."""
    deg = int(f.degree())
    u_f = None
    for orb in fixture.special_orbits:
        if orb.includes_infinity or int(orb.poly.degree()) != deg or not orb.branchable:
            continue
        if u_f is None:
            u_f = _rational_invariants(f, fixture.delta)
            if u_f is None:
                break
        u_orb = _rational_invariants(orb.poly, fixture.delta)
        if u_orb is not None and u_orb == u_f:
            counts = {o.name: (1 if o.name == orb.name else 0) for o in fixture.special_orbits}
            return OrbitReport(
                fixture.name,
                f.domain,
                counts,
                0,
                None,
                UniPoly.one(f.domain, f.var),
                "invariants",
                ("matched across incompatible towers via dihedral invariants",),
            )
    raise DecompositionError(
        "polynomial tower is incompatible with the fixture and no special orbit "
        "matches its dihedral invariants"
    )


def _rational_invariants(f: UniPoly, delta: int) -> tuple | None:
    from .covers import delta_form, normalize
    from .invariants import invariants_general

    try:
        df = delta_form(f, delta)
    except Exception:
        return None
    nf, _ = normalize(df)
    u = invariants_general(nf)
    out = []
    for v in u.values:
        q = common_rational(u.domain, v)
        if q is None:
            return None
        out.append(q)
    return tuple(out)


def _recover_parameters(
    fixture: GroupFixture, dom: Domain, cofactor: UniPoly, t: int
) -> tuple[tuple | None, UniPoly]:
    one = UniPoly.one(dom, cofactor.var)
    if t == 0:
        return (), one
    if fixture.template_kind == "seed":
        return _recover_seeds(fixture, dom, cofactor, t)
    if fixture.template_kind == "a4":
        return _recover_a4(fixture, dom, cofactor, t)
    return _recover_linear(fixture, dom, cofactor, t)


def _recover_linear(fixture, dom, cofactor, t):
    t0 = fixture.t0.map_domain(dom)
    t1 = fixture.t1.map_domain(dom)
    one = UniPoly.one(dom, cofactor.var)
    if t == 1:
        # C * (k - a*l) = T0 - a*T1 with (k, l) the leading coefficients.
        k = t0.coeff(int(cofactor.degree()))
        l = t1.coeff(int(cofactor.degree()))
        for e in sorted(set(t0.coeffs) | set(t1.coeffs) | set(cofactor.coeffs), reverse=True):
            coeff_a = dom.sub(t1.coeff(e), dom.mul(cofactor.coeff(e), l))
            rhs = dom.sub(t0.coeff(e), dom.mul(cofactor.coeff(e), k))
            if not dom.is_zero(coeff_a):
                a = dom.div(rhs, coeff_a)
                tpl = t0 - t1.scale(a)
                if proportional(tpl, cofactor) is not None:
                    return (a,), one
                return None, cofactor
        return None, cofactor
    if t1.degree() >= t0.degree():
        return None, cofactor
    # C = sum_j (-1)^j e_j T0^{t-j} T1^j, e_0 = 1: linear system in the e_j.
    basis = []
    t0_pows = [one]
    t1_pows = [one]
    for _ in range(t):
        t0_pows.append(t0_pows[-1] * t0)
        t1_pows.append(t1_pows[-1] * t1)
    for j in range(1, t + 1):
        term = t0_pows[t - j] * t1_pows[j]
        if j % 2:
            term = -term
        basis.append(term)
    target = cofactor - t0_pows[t]
    exps = sorted(set().union(*[set(b.coeffs) for b in basis], set(target.coeffs)), reverse=True)
    rows = [[b.coeff(e) for b in basis] for e in exps]
    rhs = [target.coeff(e) for e in exps]
    sol = _solve_unique(dom, rows, rhs)
    if sol is None:
        return None, cofactor
    # roots of z^t - e_1 z^{t-1} + e_2 z^{t-2} - ... +- e_t
    poly = [dom.one()]
    for j, e in enumerate(sol, start=1):
        poly.append(dom.mul(e, dom.from_int((-1) ** j)))
    coeffs = list(reversed(poly))
    roots = _rational_roots(dom, coeffs)
    if len(roots) < t:
        return None, cofactor
    for combo in itertools.combinations_with_replacement(roots, t):
        prod = one
        for a in combo:
            prod = prod * (t0 - t1.scale(a))
        if prod == cofactor:
            return tuple(combo), one
    return None, cofactor


def _recover_seeds(fixture, dom, cofactor, t):
    one = UniPoly.one(dom, cofactor.var)
    elements = [g.map_domain(dom) for g in fixture.elements()]
    rem = cofactor
    params = []
    for _ in range(t):
        roots = _rational_roots(dom, rem.to_list())
        hit = None
        for seed in roots:
            orb = orbit_polynomial(elements, seed, cofactor.var)
            if int(orb.degree()) != fixture.generic_size:
                continue
            quo = orb.divides_exactly(rem)
            if quo is not None:
                hit = (seed, quo)
                break
        if hit is None:
            return None, rem
        params.append(hit[0])
        rem = hit[1]
    if not rem.is_constant():
        return None, rem
    return tuple(params), one


def _a4_template(dom: Domain, a: El, var: str) -> UniPoly:
    """(x^4 - a x^2 + 1)(x^4 - a2 x^2 + 1)(x^4 - a3 x^2 + 1) with
    a2 = (2a + 12)/(2 - a) and a3 = (2a - 12)/(2 + a)."""
    two = dom.from_int(2)
    twelve = dom.from_int(12)
    a2 = dom.div(dom.add(dom.mul(two, a), twelve), dom.sub(two, a))
    a3 = dom.div(dom.sub(dom.mul(two, a), twelve), dom.add(two, a))
    out = UniPoly.one(dom, var)
    for aj in (a, a2, a3):
        out = out * UniPoly(dom, {4: dom.one(), 2: dom.neg(aj), 0: dom.one()}, var)
    return out


def _recover_a4(fixture, dom, cofactor, t):
    one = UniPoly.one(dom, cofactor.var)
    if t != 1:
        return None, cofactor  # multi-orbit recovery needs factorization
    # x^10-coefficient of the cofactor is -(a1+a2+a3) = -a(a^2-36)/(a^2-4):
    # candidates are rational roots of a^3 - S a^2 - 36 a + 4 S with S that sum.
    s = dom.neg(cofactor.coeff(10))
    coeffs = [
        dom.mul(dom.from_int(4), s),
        dom.from_int(-36),
        dom.neg(s),
        dom.one(),
    ]
    for cand in _rational_roots(dom, coeffs):
        try:
            tpl = fixture.generic_template(dom, cand, cofactor.var)
        except ExcludedParameterError:
            continue
        if tpl == cofactor:
            return (cand,), one
    return None, cofactor


# ---------------------------------------------------------------------------
# automorphism-group classification tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutGroupReport:
    fixture: str
    reduced: str
    full_group: str
    dimension: int
    caveats: tuple[str, ...] = ()


SMALL_CHAR_CAVEAT = (
    "structure table assumes characteristic 0 or p > 5; applied in small "
    "characteristic the way the char-3 projective-linear example does"
)


def classify(fixture: GroupFixture, report: OrbitReport, n: int, delta: int | None = None) -> AutGroupReport:
    """Full automorphism group of y^n = f(x) from the orbit counts.

    The presentation strings follow the classical structure tables; where a
    table leaves integers unsolved ("suitable" exponents) or defers to an
    external description, a caveat says so instead of inventing values.
    """
    if report.fixture != fixture.name:
        raise GroupError("orbit report was computed against a different fixture")
    delta = fixture.delta if delta is None else delta
    if delta > 1 and n % delta:
        raise GroupError(f"extra automorphism order {delta} must divide n = {n}")
    caveats: list[str] = list(fixture.caveats)
    if 0 < fixture.domain.char <= 5:
        caveats.append(SMALL_CHAR_CAVEAT)
    t = report.counts
    g = report.t_generic
    fam = fixture.family
    dim = g
    if fam == "cyclic":
        full = f"Z/{n}Z with a cyclic reduced group C_{delta}; no structure table applies"
        caveats.append("plain cyclic reduced groups fall outside the structure tables")
        return AutGroupReport(fixture.name, f"C_{delta}", full, dim, tuple(caveats))
    if fam == "dihedral":
        # fixed points of the inversion are +-1; 1 is a root of x^delta - 1
        # always, -1 of x^delta - 1 for even delta and of x^delta + 1 otherwise
        if delta % 2:
            fixed_in_branch = t.get("B-", 0) + t.get("B+", 0)
        else:
            fixed_in_branch = 2 * t.get("B-", 0)
        if fixed_in_branch == 0:
            full = f"Z/{n}Z x| D_{delta}"
        elif fixed_in_branch == 1:
            full = f"<R,S | R^{2*n} = 1, S^{delta} = 1, (R*S)^2 = 1>"
        else:
            full = f"<R,S | R^{2*n} = 1, S^{delta} = 1, R*S*R^-1 = S^-1>"
            caveats.append(
                "both inversion fixed points branch: the table lists the binary "
                "presentation here and the (R*S)^2 one as also occurring"
            )
        return AutGroupReport(fixture.name, f"D_{delta}", full, dim, tuple(caveats))
    if fam == "dihedral_b":
        m = fixture.order // 2
        if n % 2:
            raise GroupError("the order-2 extra automorphism needs 2 | n")
        if t.get("B1", 0) == 1:
            full = f"C_{n * m} x| C_2"
        else:
            full = f"C_{n} x| D_{m}"
        return AutGroupReport(fixture.name, f"D_{m}", full, dim, tuple(caveats))
    if fam == "a4":
        if t.get("B1", 0) == 0 and t.get("B2", 0) == 0:
            full = f"Z/{n}Z x A_4"
        else:
            full = f"Z/{3 * n}Z x V_4"
        return AutGroupReport(fixture.name, "A_4", full, dim, tuple(caveats))
    if fam == "a4_b":
        if t.get("B1", 0) == 0:
            full = f"Z/{n}Z x A_4"
        else:
            full = f"<R,S | R^2 = S^2, S^{2 * n} = 1, R*S*R^-1 = S^r>"
            caveats.append("exponent r: a suitable solution of modular equations, not solved here")
        return AutGroupReport(fixture.name, "A_4", full, dim, tuple(caveats))
    if fam == "s4":
        return AutGroupReport(fixture.name, "S_4", f"C_{n} x S_4", dim, tuple(caveats))
    if fam == "s4_b":
        if n % 4 == 2 and t.get("B0'", 0) == 1 and t.get("B2'", 0) == 1:
            full = (
                f"<X,Y,T | Y^2 = X^4 = X*T*X^-1 = Y*T*Y^-1 = T, "
                f"(X^-1*Y)^3 = T^k, T^{n} = 1>"
            )
            caveats.append(f"exponent k in 1..{n} left unsolved by the table")
        else:
            full = f"Z/{n}Z x S_4"
        return AutGroupReport(fixture.name, "S_4", full, dim, tuple(caveats))
    if fam == "s4_c":
        return AutGroupReport(fixture.name, "S_4", f"S_4 x| Z_{n}", dim, tuple(caveats))
    if fam == "a5":
        if n % 2 == 1 or t.get("B0*", 0) == 0:
            full = f"A_5 x Z/{n}Z"
        else:
            full = "(presentation via generators and relations; see caveats)"
            caveats.append(
                "n even with the 30-point orbit branching: the structure table "
                "defers to an external complicated presentation"
            )
        return AutGroupReport(fixture.name, "A_5", full, dim, tuple(caveats))
    if fam == "a5_b":
        return AutGroupReport(fixture.name, "A_5", f"Z/{n}Z x A_5", dim, tuple(caveats))
    if fam == "a5_c":
        if n % 2 == 1 or t.get("B0*''", 0) == 0:
            full = f"Z/{n}Z x A_5"
        else:
            full = (
                f"<X,Y,Z,T | T^{n} = X^3 = 1, Y^2 = T, Z^2 = T, (X*Y)^3 = T^l, "
                f"(Y*Z)^3 = T^o, (X*Z)^2 = T^m, X*T*X^-1 = Z*T*Z^-1 = Y*T*Y^-1 = T>"
            )
            caveats.append(f"exponents m, l, o in 1..{n} left unsolved by the table")
        return AutGroupReport(fixture.name, "A_5", full, dim, tuple(caveats))
    if fam == "elem_abelian":
        p, tt, m = fixture.params  # type: ignore[attr-defined]
        full = f"((Z/{p}Z)^{tt} x| Z/{m}Z) x Z/{n}Z"
        return AutGroupReport(fixture.name, f"(Z/{p}Z)^{tt} x| Z/{m}Z", full, dim, tuple(caveats))
    if fam in ("psl", "pgl"):
        p, tt = fixture.params  # type: ignore[attr-defined]
        gname = f"{fam.upper()}(2,{p ** tt})"
        if n % 2 == 1 or t.get("B0", 0) == 1:
            full = f"Z/{n}Z x {gname}"
        else:
            full = "(described by a restriction map; see caveats)"
            caveats.append(
                "n even without the B0 orbit branching: the structure table "
                "describes the group via a restriction map, not reproduced here"
            )
        return AutGroupReport(fixture.name, gname, full, dim, tuple(caveats))
    raise GroupError(f"no classification table for family {fam!r}")
