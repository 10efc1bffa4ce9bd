"""``param_loci``: parametric families from the acceptance criteria, with
seeded integer perturbations, through the Python API.

The time goes to ``rings.FunctionField`` and ``rings.mp_gcd``; towers and
groups are not touched.  Families: tetrahedral-locus invariants and
products u_i * u_j (u_1 * u_1 stays in every pass: it is nearly all
``mp_gcd``), octahedral merge tables in a, b, s6/s9/s12 discriminants and
resultants, the dihedral identity suite for r = 3..8, and the
characteristic-3 stretch family.

Perturbations are drawn from ranges where a request's cost does not swing
by orders of magnitude: the tetrahedral parameter is scaled (a -> k a), not
shifted, because a -> a + 1 turns the 0.1 s u_1 * u_1 into 50 s of
coefficient growth in ``mp_gcd``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Request, first_of_each_kind
import oracle

# tetrahedral locus: u_i = c_i * a1^e_i (acceptance criterion 2)
TET_FORMS = {1: (2, 6), 2: (-66, 4), 3: (-4, 4), 4: (-66, 2), 5: (2, 2), 6: (2, 0)}
TET_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3))

# octahedral 12-row merged table in z = 84 - b - a (acceptance criterion 3)
OCT_ROWS = [
    "2*{z}^12",
    "2*{z}^10*(2946 - 38*b - 38*a + a*b)",
    "2*{z}^9*(55300 - 429*b - 429*a - 8*a*b)",
    "2*{z}^8*(588015 - 712*b + 28*a*b - 712*a)",
    "2*{z}^7*(3392424 + 7342*b + 7342*a - 56*a*b)",
    "2*{z}^6*(8699676 - 12324*b - 12324*a + 70*a*b)",
    "2*{z}^5*(3392424 + 7342*b + 7342*a - 56*a*b)",
    "2*{z}^4*(588015 - 712*b + 28*a*b - 712*a)",
    "2*{z}^3*(55300 - 429*b - 429*a - 8*a*b)",
    "2*{z}^2*(2946 - 38*b - 38*a + a*b)",
    "2*{z}^2",
    "2",
]


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _ff_check(values, names, expected) -> str | None:
    if len(values) != len(expected):
        return f"{len(values)} values, wanted {len(expected)}"
    for i, (raw, want) in enumerate(zip(values, expected), start=1):
        if not oracle.same(oracle.from_rational_function(raw, names), want):
            return f"value {i} differs from the closed form"
    return None


class Deck:
    def __init__(self, api, rng: random.Random):
        self.api = api
        self.rng = rng
        self.requests: list[Request] = []

    def add(self, kind, label, call, check):
        self.requests.append(Request(kind, label, call, check))

    def _dom(self, names, char=0):
        return self.api.build_domain(char, [], tuple(names))

    # -- tetrahedral locus --------------------------------------------------

    def tetrahedral(self, products: int, k: Fraction) -> None:
        """The 12-point tetrahedral locus from the tied coefficients
        a2 = (2a+12)/(2-a), a3 = (2a-12)/(2+a), at a -> k a; with
        ``products`` > 0 also u_1*u_1 and further seeded products."""
        api, rng = self.api, self.rng
        pairs = [(1, 1)] if products else []
        while len(pairs) < products:
            i = rng.randint(1, 6)
            j = rng.randint(i, 6)
            if (i, j) not in pairs:
                pairs.append((i, j))
        dom = self._dom(("a",))

        def call():
            a = dom.mul(dom.param("a"), dom.div(dom.from_int(k.numerator), dom.from_int(k.denominator)))
            two, twelve = dom.from_int(2), dom.from_int(12)
            a2 = dom.div(dom.add(dom.mul(two, a), twelve), dom.sub(two, a))
            a3 = dom.div(dom.sub(dom.mul(two, a), twelve), dom.add(two, a))
            f = api.UniPoly.one(dom)
            for aj in (a, a2, a3):
                f = f * api.UniPoly(dom, {4: dom.one(), 2: dom.neg(aj), 0: dom.one()})
            u = api.invariants_of(f, 2)
            return u.values, [dom.mul(u[i], u[j]) for i, j in pairs]

        def check(out):
            values, prods = out
            s = oracle.sp()
            A = s.Rational(k.numerator, k.denominator) * oracle.symbols()["a"]
            form = [s.Integer(1)]
            for aj in (A, (2 * A + 12) / (2 - A), (2 * A - 12) / (2 + A)):
                nxt = [s.Integer(0)] * (len(form) + 2)
                for e, c in enumerate(form):
                    for de, m in ((0, 1), (1, -aj), (2, 1)):
                        nxt[e + de] += c * m
                form = nxt
            a1 = s.cancel(form[1])
            closed = {i: c * a1**e for i, (c, e) in TET_FORMS.items()}
            return (_ff_check(values, ("a",), [closed[i] for i in range(1, 7)])
                    or _ff_check(prods, ("a",), [closed[i] * closed[j] for i, j in pairs]))

        kind = "tet_products" if products else "tet_invariants"
        self.add(kind, f"a -> {k}*a pairs {pairs}", call, check)

    # -- octahedral merge ---------------------------------------------------

    def octahedral(self) -> None:
        api, rng = self.api, self.rng
        k1, k2 = rng.randint(-9, 9), rng.randint(-9, 9)
        dom = self._dom(("a", "b"))
        fa = api.parse_expression(f"(x^8 + 14*x^4 + 1)^3 - (a + {k1})*(x^5 - x)^4", dom)
        fb = api.parse_expression(f"(x^8 + 14*x^4 + 1)^3 - (b + {k2})*(x^5 - x)^4", dom)

        def call():
            merged = api.merge(api.delta_form(fa, 4), api.delta_form(fb, 4))
            return api.invariants(merged).values

        def check(values):
            s = oracle.symbols()
            rows = [oracle.parse(row.format(z="(84 - b - a)")).subs(
                {s["a"]: s["a"] + k1, s["b"]: s["b"] + k2}, simultaneous=True) for row in OCT_ROWS]
            return _ff_check(values, ("a", "b"), rows)

        self.add("oct_merge", f"a+{k1}, b+{k2}", call, check)

    # -- discriminants and resultants --------------------------------------

    def _family(self, r: int, names, const: int) -> str:
        terms = [f"x^{3 * r}"] + [f"{n}*x^{3 * (r - i)}" for i, n in enumerate(names, start=1)]
        return " + ".join(terms) + f" + ({const})"

    def discriminant(self, r: int) -> None:
        names = ("a", "b", "c")[: r - 1]
        text = self._family(r, names, _nonzero(self.rng, -6, 6))
        dom = self._dom(names)
        f = self.api.parse_expression(text, dom)
        self.add("discriminant", text, lambda: self.api.discriminant(f),
                 lambda out: _ff_check([out], names, [oracle.discriminant(text)]))

    def resultant(self, r: int) -> None:
        """Res(s_r(a, ..) + K1, s_r with its first parameter replaced by K2)."""
        rng = self.rng
        names = ("a", "b", "c")[: r - 1]
        text_a = self._family(r, names, _nonzero(rng, -6, 6))
        text_b = self._family(r, (str(_nonzero(rng, -6, 6)),) + names[1:], 1)
        dom = self._dom(names)
        fa = self.api.parse_expression(text_a, dom)
        fb = self.api.parse_expression(text_b, dom)
        self.add("resultant", f"{text_a} | {text_b}", lambda: self.api.resultant(fa, fb),
                 lambda out: _ff_check([out], names, [oracle.resultant(text_a, text_b)]))

    # -- dihedral identity suite -------------------------------------------

    def dihedral(self, r: int) -> None:
        """Symmetric normal form a_i = a_(r-i); u_(r-1)^r = 2^(r-2) u_1^2."""
        api, rng = self.api, self.rng
        half = r // 2
        names = tuple(f"a{i}" for i in range(1, half + 1))
        fixed = {i: _nonzero(rng, -9, 9) for i in range(2, half + 1) if rng.random() < 0.5}
        params = tuple(n for i, n in enumerate(names, start=1) if i not in fixed)
        dom = self._dom(params)
        half_vals = [dom.from_int(fixed[i]) if i in fixed else dom.param(names[i - 1])
                     for i in range(1, half + 1)]
        coeffs = [dom.one()] + [half_vals[min(i, r - i) - 1] for i in range(1, r)] + [dom.one()]
        df = api.DeltaForm(dom, 1, tuple(coeffs))

        def call():
            u = api.invariants(df)
            lhs = dom.pow(u[r - 1], r)
            rhs = dom.mul(dom.from_int(2 ** (r - 2)), dom.mul(u[1], u[1]))
            return u.values, dom.eq(lhs, rhs)

        def check(out):
            values, identity = out
            if identity is not True:
                return "u_(r-1)^r != 2^(r-2) u_1^2"
            s = oracle.symbols()
            hv = [fixed[i] if i in fixed else s[names[i - 1]] for i in range(1, half + 1)]
            form = [1] + [hv[min(i, r - i) - 1] for i in range(1, r)] + [1]
            return _ff_check(values, params, oracle.dihedral_invariants(form))

        self.add("dihedral", f"r={r} fixed={fixed}", call, check)

    # -- characteristic 3 ----------------------------------------------------

    def char3(self) -> None:
        """((x^9 - x)^8 + 1)^10 - p (x^9 - x)^72 over F_3(a) with p = c a + k:
        u_i = 2 unless 9 | i < 90, where u_i = 4 + 4p = 1 + p (criterion 5)."""
        rng = self.rng
        c, k = rng.randint(1, 2), rng.randint(0, 2)
        dom = self._dom(("a",), char=3)
        f = self.api.parse_expression(f"((x^9 - x)^8 + 1)^10 - ({c}*a + {k})*(x^9 - x)^72", dom)
        one = {(0,): 1}
        two = ({(0,): 2}, one)
        special = ({e: v for e, v in (((1,), c), ((0,), (1 + k) % 3)) if v}, one)

        def check(values):
            if len(values) != 90:
                return f"r = {len(values)}, wanted 90"
            for i, v in enumerate(values, start=1):
                want = special if i % 9 == 0 and i < 90 else two
                if v != want:
                    return f"u_{i} = {v}, wanted {want}"
            return None

        self.add("char3", f"p = {c}*a + {k}", lambda: self.api.invariants_of(f, 8).values, check)


def build(seed: int, root):
    import superelliptic as api

    deck = Deck(api, random.Random(seed))
    # the cost of a tetrahedral request moves 2x-3x with the scale: every
    # deck takes each scale once, so that the seed moves the latency
    # quantiles little; the deck holds 13 cheaper requests, which puts the
    # median in the middle of the 8 invariants requests and the 90th
    # percentile among the products
    for k in TET_SCALES:
        deck.tetrahedral(0, k)
        deck.tetrahedral(3, k)
    for _ in range(3):
        deck.octahedral()
    for r in (2, 3, 4):
        deck.discriminant(r)
    for r in (2, 2, 3, 3):
        deck.resultant(r)
    for r in range(3, 9):
        deck.dihedral(r)
    deck.char3()
    deck.char3()
    requests = deck.requests
    warm = first_of_each_kind(requests, skip=("tet_products",))
    deck.rng.shuffle(requests)
    return requests, warm
