"""``tower_orbits``: seeded (fixture, parameter) draws over Q(i),
Q(i, sqrt3), Q(i, sqrt2), Q(i, zeta5) and F_9, through the Python API.

The time goes to ``rings.QuotientRing``, ``unipoly.mobius_transport``,
``groups`` and ``catalog``; no rational-function gcd runs.  Each pass
holds generic template -> orbit decomposition -> classify for every
fixture (a4_b once with a parameter whose rational-root scan is cheap and
once with one where it costs ~0.3 s), ``is_invariant`` where it costs
well under a second (on templates, and on templates plus a monomial that
breaks the x -> zeta_delta x symmetry), and transports of special-orbit
polynomials of degree 11-20 under group elements.

a5_b (Q(i, zeta5, e2)) is not drawn: its build and closure take ~14 s,
which every set-up sample of every run would pay.

Transport cost follows the number of nonzero rational coordinates of the
matrix entries: on a5 B0 it is 0.003 s for monomial elements and 0.2-0.4 s
for the densest half.  Elements are drawn from that densest half, so that
the degree-20 transports, six per pass, form one cost class in which
latency_p90 falls under every seed.  a4_b parameters come from sets
measured to cost alike: its rational-root scan takes from 0.04 s to over
20 s across small integers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Request, first_of_each_kind

FIXTURES = ("s4", "a4", "a4_b", "s4_b", "s4_c", "a5", "dihedral_b(4)",
            "psl(3,2)", "pgl(3,2)", "elem_abelian(3,2,4)")

A4B_LIGHT = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))
A4B_HEAVY = (Fraction(-2), Fraction(11))


def group_table(fx, n: int) -> str:
    """Structure-table entry for a branch locus of one generic orbit and no
    special orbit (every special count 0)."""
    fam = fx.family
    if fam == "s4":
        return f"C_{n} x S_4"
    if fam in ("a4", "a4_b"):
        return f"Z/{n}Z x A_4"
    if fam == "s4_b":
        return f"Z/{n}Z x S_4"
    if fam == "s4_c":
        return f"S_4 x| Z_{n}"
    if fam == "a5":
        return f"A_5 x Z/{n}Z"
    if fam == "dihedral_b":
        return f"C_{n} x| D_{fx.order // 2}"
    if fam == "elem_abelian":
        p, t, m = fx.params
        return f"((Z/{p}Z)^{t} x| Z/{m}Z) x Z/{n}Z"
    if fam in ("psl", "pgl"):
        # n is a multiple of delta (4 or 8), hence even, and B0 does not branch
        return "(described by a restriction map; see caveats)"
    raise ValueError(fam)


def _nonzero_leaves(raw) -> int:
    """Nonzero rational (or F_p) coordinates of a tower element."""
    if isinstance(raw, tuple):
        return sum(_nonzero_leaves(x) for x in raw)
    return 1 if raw else 0


class Deck:
    def __init__(self, api, catalog, rng: random.Random):
        self.api = api
        self.catalog = catalog
        self.rng = rng
        self.requests: list[Request] = []

    def fixture(self, name):
        return self.catalog.fixture_by_name(name)

    def _param(self, fx):
        """A seeded generic parameter of the fixture's base field."""
        dom, rng = fx.domain, self.rng
        if dom.char:  # F_9 = F_3(w): k1 + k2 w, not 0
            k1, k2 = rng.choice([(i, j) for i in range(3) for j in range(3) if i or j])
            return dom.add(dom.from_int(k1), dom.mul(dom.from_int(k2), dom.gen())), f"{k1}+{k2}w"
        if fx.family == "dihedral_b":
            k = rng.choice((2, 3, 5, 7, 11, -3, -5, -7))
        else:
            excluded = {0, 108, 2, -2}
            k = rng.choice([v for v in range(-40, 41) if v not in excluded])
        return dom.from_int(k), str(k)

    def _rational(self, dom, q: Fraction):
        return dom.div(dom.from_int(q.numerator), dom.from_int(q.denominator))

    def decompose(self, name: str, param: Fraction | None = None) -> None:
        fx = self.fixture(name)
        dom, api = fx.domain, self.api
        if param is None:
            a, label = self._param(fx)
        else:
            a, label = self._rational(dom, param), str(param)
        n = fx.delta * self.rng.randint(1, 3)
        group = group_table(fx, n)

        def call():
            tpl = fx.generic_template(dom, a)
            rep = api.orbit_decomposition(tpl, fx)
            return tpl, rep, api.classify(fx, rep, n)

        def check(out):
            tpl, rep, aut = out
            if rep.t_generic != 1 or any(rep.counts.values()):
                return f"t_generic {rep.t_generic}, counts {rep.counts}"
            if int(tpl.degree()) != fx.generic_size:
                return f"template degree {tpl.degree()}"
            params = rep.generic_params
            if params is None or len(params) != 1:
                return f"parameters {params}"
            # a seed template may come back from any point of the seed's orbit
            if not dom.eq(params[0], a) and fx.generic_template(dom, params[0]) != tpl:
                return "recovered parameter does not rebuild the template"
            if aut.full_group != group:
                return f"group {aut.full_group!r}, wanted {group!r}"
            return None

        self.requests.append(Request("decompose", f"{name} a={label} n={n}", call, check))

    def invariance(self, name: str, broken: bool) -> None:
        """Templates are invariant; adding x^e with e not = deg (mod delta)
        breaks invariance under x -> zeta_delta x, which every fixture holds."""
        fx = self.fixture(name)
        dom, api = fx.domain, self.api
        a, label = self._param(fx)
        f = fx.generic_template(dom, a)
        if broken:
            e = int(f.degree()) - 1 - self.rng.randrange(fx.delta - 1) if fx.delta > 1 else 1
            f = f + api.UniPoly(dom, {e: dom.from_int(self.rng.choice((1, 2)))})
        want = not broken
        self.requests.append(Request(
            "is_invariant", f"{name} a={label} broken={broken}",
            lambda: api.is_invariant(f, fx),
            lambda out: None if out is want else f"is_invariant {out}, wanted {want}"))

    def transports(self, name: str, orbit: str, count: int) -> None:
        """``count`` transports of one special-orbit polynomial under
        distinct elements from the densest half of the group."""
        fx = self.fixture(name)
        dom, api = fx.domain, self.api
        orb = fx.orbit(orbit)
        ranked = sorted(fx.elements(), key=lambda g: sum(_nonzero_leaves(e) for e in g.entries()))
        pool = [g for g in ranked[len(ranked) // 2:] if not dom.is_zero(g.c)]
        for g in self.rng.sample(pool, count):
            self._transport(fx, orb, orb.poly, g, dom, api)

    def _transport(self, fx, orb, f, g, dom, api) -> None:
        # roots of the transport are g^-1(orbit) = orbit; when infinity is in
        # the orbit and c != 0, g^-1(inf) = -d/c is a finite orbit point that
        # is no root of f, so the transport times (c x + d) is prop. to f
        def check(h):
            lhs = h
            if orb.includes_infinity:
                lhs = h * api.UniPoly(dom, {1: g.c, 0: g.d})
            if lhs.degree() != f.degree():
                return f"degree {h.degree()} for an orbit of size {orb.size}"
            ratio = dom.div(lhs.lc(), f.lc())
            return None if lhs == f.scale(ratio) else "transport is not proportional to the orbit"

        self.requests.append(Request(
            "transport", f"{fx.name} {orb.name} deg={f.degree()}",
            lambda: api.mobius_transport(f, g), check))


def build(seed: int, root):
    import superelliptic as api
    from superelliptic import catalog

    for name in FIXTURES:
        catalog.fixture_by_name(name).elements()
    deck = Deck(api, catalog, random.Random(seed))
    for name in ("s4",) * 5 + ("a4",) * 3 + ("s4_b",) * 3 + ("s4_c",) * 2 + ("a5",) * 2 + \
            ("dihedral_b(4)",) * 3 + ("psl(3,2)", "pgl(3,2)") + ("elem_abelian(3,2,4)",) * 3:
        deck.decompose(name)
    deck.decompose("a4_b", deck.rng.choice(A4B_LIGHT))
    deck.decompose("a4_b", deck.rng.choice(A4B_HEAVY))
    for name in ("s4", "a4", "elem_abelian(3,2,4)"):
        deck.invariance(name, False)
        deck.invariance(name, True)
    deck.invariance("s4", True)
    for name in ("a4_b", "s4_b", "dihedral_b(4)"):
        deck.invariance(name, False)
    deck.transports("s4", "B2", 2)
    deck.transports("a5", "Binf", 2)
    deck.transports("a5", "B0", 6)
    deck.transports("s4_b", "B2'", 2)
    deck.transports("s4_c", "B2''", 2)
    requests = deck.requests
    # warm-up: one request of each kind, all on s4, which is cheap to use
    warm = first_of_each_kind(requests)
    deck.rng.shuffle(requests)
    return requests, warm
