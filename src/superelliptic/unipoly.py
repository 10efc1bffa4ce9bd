"""Univariate polynomials over an exact coefficient domain.

Polynomials are sparse ``{exponent: raw coefficient}`` maps tied to a
:class:`~superelliptic.rings.Domain`.  The degree of the zero polynomial is
the sentinel ``NEG_INF``.  Products, powers and compositions are guarded by
a configurable degree cap so runaway symbolic expansion fails fast.

Resultants are Sylvester-matrix determinants, computed by the subresultant
polynomial remainder sequence (Brown's algorithm), which is fraction-free
over polynomial coefficient domains.

Mobius transport of ``f`` by ``mu = (a x + b)/(c x + d)`` is the polynomial
numerator ``f(mu(x)) * (c x + d)^deg(f)``; its roots are the preimages of
the roots of ``f`` under ``mu``, and its degree drops by one for each root
that ``mu`` sends to infinity.  Transport by M and then by N yields a
polynomial proportional to transport by the matrix product M*N; transport
does not re-monicize.
"""

from __future__ import annotations

from math import gcd

from .rings import (
    Domain,
    DomainMismatchError,
    El,
    FunctionField,
    ZeroDivisorError,
    _dense_terms,
    _mod_p_domain,
    _mod_p_raw,
    embed,
    mp_exact_div,
    mp_gcd,
    mp_mul,
    tower_chain,
)

NEG_INF = float("-inf")

_degree_cap = 4096


class DegreeCapError(ValueError):
    """A product or composition exceeded the configured degree cap."""


def degree_cap() -> int:
    return _degree_cap


def set_degree_cap(n: int) -> None:
    """Set the expansion guard.  The cap is one value for the whole
    process (default 4096); ``cli.run`` restores it after each command."""
    global _degree_cap
    if n < 1:
        raise ValueError("degree cap must be positive")
    _degree_cap = n


def _check_cap(deg: int) -> None:
    if deg > _degree_cap:
        raise DegreeCapError(f"degree {deg} exceeds cap {_degree_cap}")


class Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()


class UniPoly:
    """Sparse univariate polynomial over a coefficient domain."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: Domain, coeffs: dict[int, El] | None = None):
        self.domain = domain
        cc = {}
        if coeffs:
            is_zero = domain.is_zero
            cc = {e: c for e, c in coeffs.items() if not is_zero(c)}
        self.coeffs = cc

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, domain: Domain) -> "UniPoly":
        return cls(domain, {})

    @classmethod
    def one(cls, domain: Domain) -> "UniPoly":
        return cls(domain, {0: domain.one()})

    @classmethod
    def constant(cls, domain: Domain, c: El) -> "UniPoly":
        return cls(domain, {0: c})

    @classmethod
    def gen(cls, domain: Domain) -> "UniPoly":
        return cls(domain, {1: domain.one()})

    @classmethod
    def from_list(cls, domain: Domain, coeffs) -> "UniPoly":
        """From an iterable of raws, constant term first."""
        return cls(domain, dict(enumerate(coeffs)))

    @classmethod
    def from_int_list(cls, domain: Domain, ints) -> "UniPoly":
        return cls(domain, {e: domain.from_int(n) for e, n in enumerate(ints)})

    # -- basic queries ----------------------------------------------------

    def degree(self) -> int | float:
        return max(self.coeffs) if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, e: int) -> El:
        return self.coeffs.get(e, self.domain.zero())

    def lc(self) -> El:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[max(self.coeffs)]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.domain.is_one(self.lc())

    def is_constant(self) -> bool:
        return not self.coeffs or max(self.coeffs) == 0

    def to_list(self) -> list[El]:
        """Coefficient list, constant term first."""
        z = self.domain.zero()
        d = int(self.degree()) if self.coeffs else -1
        return [self.coeffs.get(e, z) for e in range(d + 1)]

    def _same(self, other: "UniPoly") -> None:
        if not isinstance(other, UniPoly):
            raise TypeError(f"expected UniPoly, got {type(other).__name__}")
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"polynomials over different domains: {self.domain!r} vs {other.domain!r}"
            )

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._same(other)
        dom = self.domain
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                s = dom.add(out[e], c)
                if dom.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        p = UniPoly.__new__(UniPoly)
        p.domain, p.coeffs = dom, out
        return p

    def __neg__(self) -> "UniPoly":
        dom = self.domain
        p = UniPoly.__new__(UniPoly)
        p.domain = dom
        p.coeffs = {e: dom.neg(c) for e, c in self.coeffs.items()}
        return p

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._same(other)
        dom = self.domain
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(dom)
        _check_cap(max(self.coeffs) + max(other.coeffs))
        mul, add, is_zero = dom.mul, dom.add, dom.is_zero
        f, g = self.coeffs, other.coeffs
        if len(f) > len(g):
            f, g = g, f
        out: dict[int, El] = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = e1 + e2
                p = mul(c1, c2)
                if e in out:
                    s = add(out[e], p)
                    if is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not is_zero(p):
                    out[e] = p
        q = UniPoly.__new__(UniPoly)
        q.domain, q.coeffs = dom, out
        return q

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if self.coeffs:
            _check_cap(max(self.coeffs) * n)
        out = UniPoly.one(self.domain)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: El) -> "UniPoly":
        dom = self.domain
        if dom.is_zero(c):
            return UniPoly.zero(dom)
        mul = dom.mul
        return UniPoly(dom, {e: mul(v, c) for e, v in self.coeffs.items()})

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        return self.scale(self.domain.inv(self.lc()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.domain != other.domain:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        eq = self.domain.eq
        return all(eq(c, other.coeffs[e]) for e, c in self.coeffs.items())

    def __hash__(self):
        key = self.domain.key
        return hash((self.domain, frozenset((e, key(c)) for e, c in self.coeffs.items())))

    # -- division ---------------------------------------------------------

    def divrem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Quotient and remainder; the divisor's leading coefficient must be
        invertible."""
        self._same(other)
        dom = self.domain
        if not other.coeffs:
            raise ZeroDivisionError("division by zero polynomial")
        dg = max(other.coeffs)
        lead_inv = dom.inv(other.coeffs[dg])
        rem = dict(self.coeffs)
        quo: dict[int, El] = {}
        while rem:
            dr = max(rem)
            if dr < dg:
                break
            f = dom.mul(rem[dr], lead_inv)
            quo[dr - dg] = f
            for e, c in other.coeffs.items():
                t = e + dr - dg
                v = dom.sub(rem.get(t, dom.zero()), dom.mul(f, c))
                if dom.is_zero(v):
                    rem.pop(t, None)
                else:
                    rem[t] = v
        return UniPoly(dom, quo), UniPoly(dom, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divrem(other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divrem(other)[0]

    def divides_exactly(self, other: "UniPoly") -> "UniPoly | None":
        """Return other/self when self divides other exactly, else None."""
        quo, rem = other.divrem(self)
        return quo if rem.is_zero() else None

    # -- calculus & substitution -----------------------------------------

    def derivative(self) -> "UniPoly":
        dom = self.domain
        out = {}
        for e, c in self.coeffs.items():
            if e:
                v = dom.mul(c, dom.from_int(e))
                if not dom.is_zero(v):
                    out[e - 1] = v
        return UniPoly(dom, out)

    def evaluate(self, x: El) -> El:
        """Horner evaluation at a raw domain value."""
        dom = self.domain
        if not self.coeffs:
            return dom.zero()
        exps = sorted(self.coeffs, reverse=True)
        acc = self.coeffs[exps[0]]
        prev = exps[0]
        for e in exps[1:]:
            acc = dom.mul(acc, dom.pow(x, prev - e))
            acc = dom.add(acc, self.coeffs[e])
            prev = e
        if prev:
            acc = dom.mul(acc, dom.pow(x, prev))
        return acc

    def map_domain(self, dst: Domain) -> "UniPoly":
        """Embed all coefficients into a structurally larger domain."""
        src = self.domain
        return UniPoly(dst, {e: embed(src, dst, c) for e, c in self.coeffs.items()})

    # -- printing ----------------------------------------------------------

    def __repr__(self):
        return f"UniPoly({self})"

    def __str__(self):
        return "".join(_dense_terms(self.domain, self.coeffs, "x")) or "0"


def compose(f: UniPoly, g: UniPoly) -> UniPoly:
    """f(g(x)) by Horner evaluation over the polynomial ring."""
    f._same(g)
    dom = f.domain
    if not f.coeffs:
        return UniPoly.zero(dom)
    df = max(f.coeffs)
    if g.coeffs:
        _check_cap(df * max(g.coeffs))
    out = UniPoly.constant(dom, f.coeff(df))
    for e in range(df - 1, -1, -1):
        out = out * g
        c = f.coeffs.get(e)
        if c is not None:
            out = out + UniPoly.constant(dom, c)
    return out


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over a field coefficient domain; gcd(0, 0) = 0.

    Over a finite domain (F_p, F_q towers) coefficients cannot grow, so
    monic Euclid runs directly.  Over every other field (Q, number-field
    towers, rational functions over any field) x is adjoined as the last
    variable of a term dict, over the domain itself or over the ring of
    its parameters (Z over Q), and ``mp_gcd`` runs its primitive remainder
    sequence,
    which keeps the coefficients from exploding (Brown, JACM 18, 1971).
    """
    f._same(g)
    dom = f.domain
    if dom.is_finite:
        a, b = f, g
        while b.coeffs:
            a, b = b, a % b
        return a.monic()
    is_ff = isinstance(dom, FunctionField)
    big = mp_gcd(dom.ring if is_ff else dom, _adjoin_x(f), _adjoin_x(g))
    parts: dict[int, dict] = {}
    for mono, c in big.items():
        parts.setdefault(mono[-1], {})[mono[:-1]] = c
    # over a function field each part is a polynomial over the ring, and
    # over denominator 1 any such polynomial is a canonical element
    coeff = (lambda part: (part, dom._one_dict())) if is_ff else (lambda part: part[()])
    return UniPoly(dom, {e: coeff(part) for e, part in parts.items()}).monic()


def _adjoin_x(p: UniPoly) -> dict:
    """p as a term dict with x as the last variable.  Over a function field
    the coefficients are first cleared of denominators (multiplied through
    by their product) so the terms lie over the field's ring."""
    dom = p.domain
    if not isinstance(dom, FunctionField):
        return {(e,): c for e, c in p.coeffs.items()}
    ring = dom.ring
    den = dom._one_dict()
    for _, d in p.coeffs.values():
        den = mp_mul(ring, den, d)
    out = {}
    for e, (num, d) in p.coeffs.items():
        for mono, c in mp_mul(ring, num, mp_exact_div(ring, den, d)).items():
            out[mono + (e,)] = c
    return out


def polys_coprime(f: UniPoly, g: UniPoly) -> bool:
    """Exact coprimality test.

    Over Q and towers over Q a reduction modulo a prime that keeps both
    degrees can only enlarge the gcd, so a constant gcd of the images
    certifies coprimality.  The images are coprime for almost every prime
    and their gcd is finite-field Euclid, several times cheaper than the
    exact route; so the hot squarefree and disjointness checks reach
    ``poly_gcd`` over the original domain only when no prime decides (bad
    denominators, modulus collisions, a common factor mod p).  Over
    Q(params) the exact gcd is cheaper than building the F_p(params) image,
    so it is taken directly.
    """
    if f.is_zero() or g.is_zero():
        return False
    if f.is_constant() or g.is_constant():
        return True
    if f.domain.char == 0 and not isinstance(f.domain, FunctionField):
        for p in (65537, 2147483647, 39916801):
            verdict = _coprime_mod_p(f, g, p)
            if verdict:
                return True
            if verdict is False:
                break  # nontrivial common factor mod p: decide exactly
    return poly_gcd(f, g).degree() == 0


def _coprime_mod_p(f: UniPoly, g: UniPoly, p: int) -> bool | None:
    try:
        dom_p = _mod_p_domain(f.domain, p)
        fp = UniPoly(dom_p, {e: _mod_p_raw(f.domain, c, dom_p) for e, c in f.coeffs.items()})
        gp = UniPoly(dom_p, {e: _mod_p_raw(g.domain, c, dom_p) for e, c in g.coeffs.items()})
        if fp.degree() != f.degree() or gp.degree() != g.degree():
            return None  # leading coefficient vanished: bad prime
        return poly_gcd(fp, gp).degree() == 0
    except (ZeroDivisorError, ZeroDivisionError, ValueError):
        return None


def squarefree_test(f: UniPoly) -> bool:
    """True iff f has no repeated roots, i.e. gcd(f, f') is constant.

    Over a prime field a vanishing derivative means f is a p-th power up to
    factors, so the gcd test still answers correctly.
    """
    if f.is_constant():
        return True
    df = f.derivative()
    if df.is_zero():
        return False
    return polys_coprime(f, df)


def proportional(f: UniPoly, g: UniPoly) -> El | None:
    """Constant c with f = c*g, if one exists; (0,0) -> 1 by convention."""
    f._same(g)
    dom = f.domain
    if not f.coeffs and not g.coeffs:
        return dom.one()
    if not f.coeffs or not g.coeffs:
        return None
    if f.degree() != g.degree() or set(f.coeffs) != set(g.coeffs):
        return None
    c = dom.div(f.lc(), g.lc())
    for e, v in g.coeffs.items():
        if not dom.eq(f.coeffs[e], dom.mul(c, v)):
            return None
    return c


# ---------------------------------------------------------------------------
# Mobius transformations
# ---------------------------------------------------------------------------


class Mobius:
    """An element of PGL(2) over a coefficient domain, as a matrix (a b; c d)
    acting by x -> (a x + b)/(c x + d).  The matrix is kept as given (no
    projective normalization); ``key()`` provides the scalar-normalized
    form used to compare group elements.
    """

    __slots__ = ("domain", "a", "b", "c", "d")

    def __init__(self, domain: Domain, a: El, b: El, c: El, d: El):
        det = domain.sub(domain.mul(a, d), domain.mul(b, c))
        if domain.is_zero(det):
            raise ValueError("singular matrix does not define a Mobius map")
        self.domain = domain
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_ints(cls, domain: Domain, a: int, b: int, c: int, d: int) -> "Mobius":
        fi = domain.from_int
        return cls(domain, fi(a), fi(b), fi(c), fi(d))

    @classmethod
    def identity(cls, domain: Domain) -> "Mobius":
        return cls.from_ints(domain, 1, 0, 0, 1)

    def entries(self) -> tuple[El, El, El, El]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mobius") -> "Mobius":
        if self.domain != other.domain:
            raise DomainMismatchError("Mobius maps over different domains")
        dom = self.domain
        a = dom.add(dom.mul(self.a, other.a), dom.mul(self.b, other.c))
        b = dom.add(dom.mul(self.a, other.b), dom.mul(self.b, other.d))
        c = dom.add(dom.mul(self.c, other.a), dom.mul(self.d, other.c))
        d = dom.add(dom.mul(self.c, other.b), dom.mul(self.d, other.d))
        return Mobius(dom, a, b, c, d)

    def inverse(self) -> "Mobius":
        dom = self.domain
        return Mobius(dom, self.d, dom.neg(self.b), dom.neg(self.c), self.a)

    def apply(self, pt):
        """Image of a point (raw value or INF) on the projective line."""
        dom = self.domain
        if pt is INF:
            if dom.is_zero(self.c):
                return INF
            return dom.div(self.a, self.c)
        num = dom.add(dom.mul(self.a, pt), self.b)
        den = dom.add(dom.mul(self.c, pt), self.d)
        if dom.is_zero(den):
            return INF
        return dom.div(num, den)

    def key(self):
        """Hashable canonical key modulo scalars (first nonzero entry -> 1)."""
        dom = self.domain
        ent = self.entries()
        for v in ent:
            if not dom.is_zero(v):
                inv = dom.inv(v)
                return tuple(dom.key(dom.mul(e, inv)) for e in ent)
        raise AssertionError("zero matrix")

    def map_domain(self, dst: Domain) -> "Mobius":
        src = self.domain
        return Mobius(dst, *(embed(src, dst, e) for e in self.entries()))

    def __eq__(self, other):
        if not isinstance(other, Mobius):
            return NotImplemented
        return self.domain == other.domain and self.key() == other.key()

    def __hash__(self):
        return hash((self.domain, self.key()))

    def __repr__(self):
        fmt = self.domain.fmt
        return f"Mobius[({fmt(self.a)})x + ({fmt(self.b)}) : ({fmt(self.c)})x + ({fmt(self.d)})]"


def mobius_transport(f: UniPoly, m: Mobius) -> UniPoly:
    """Numerator of f((a x + b)/(c x + d)) * (c x + d)^deg(f), that is
    sum_e f_e (a x + b)^e (c x + d)^(n - e) with n = deg f.

    The roots of the result are the preimages under the map of the roots of
    f; the degree drops by the number of roots whose preimage is infinity.
    The result is not re-monicized.

    The map is split into Taylor shifts and scalings (von zur Gathen and
    Gerhard, "Fast algorithms for Taylor shifts and certain difference
    equations", ISSAC 1997).  For c != 0, (a x + b)/(c x + d) is
    u + w/(c x + d) with u = a/c and w = -det/c: shift f by u, reverse it
    with weights w^k, shift by d and scale coefficient i by c^i.  For c = 0,
    weigh f_e by d^(n-e), shift by b and scale by a^i.  A shift by a unit t
    scales by t^i, shifts by 1 with additions only and scales back by
    t^(-i); consecutive scalings are merged into one.  The cost is O(n)
    multiplications, at most three inversions and n(n + 1) additions,
    against O(n^2) multiplications for the Horner expansion of the sum
    above.  Every step is exact, so both give the same polynomial.

    Horner runs instead over a domain with a function field in its tower
    (the shifts bring denominators, and each addition of rational functions
    costs a gcd that Horner on polynomial entries never needs), and when
    c, u or d is a zero divisor of a reducible modulus, so that inverting
    it raises :class:`ZeroDivisorError`.
    """
    if f.is_zero():
        raise ValueError("transport of the zero polynomial")
    if f.domain != m.domain:
        raise DomainMismatchError("polynomial and matrix over different domains")
    if not any(isinstance(d, FunctionField) for d in tower_chain(f.domain)):
        try:
            return UniPoly.from_list(f.domain, _shift_transport(f, m))
        except ZeroDivisorError:
            pass
    return _horner_transport(f, m)


def _shift_transport(f: UniPoly, m: Mobius) -> list[El]:
    """Coefficients of the transport by shifts and scalings (see
    :func:`mobius_transport`); every inversion comes before the first
    shift."""
    dom = f.domain
    mul, inv, is_zero = dom.mul, dom.inv, dom.is_zero
    a, b, c, d = m.entries()
    n = int(f.degree())
    q = f.to_list()
    if is_zero(c):
        # sum_e f_e d^(n-e) (a x + b)^e: the list h_e = f_e d^(n-e) shifted
        # by b, then scaled by a^i
        if is_zero(b):
            return _scale_powers(dom, _scale_powers(dom, q[::-1], d)[::-1], a)
        t, t_inv = b, inv(b)
        z, e = mul(d, t_inv), mul(a, t_inv)
        q.reverse()
    else:
        # (a x + b)/(c x + d) = u + w/(c x + d): g = f(x + u) has
        # g_k = q_k u^(-k), and r(y) = y^n g(w/y) has r_(n-k) = q_k v^k with
        # v = w/u; the transport is r(c x + d)
        c_inv = inv(c)
        u = mul(a, c_inv)
        v = mul(dom.sub(mul(b, c), mul(a, d)), c_inv)
        t_inv = None if is_zero(d) else inv(d)
        if not is_zero(u):
            v = mul(v, inv(u))
            q = _shift_by_one(dom, _scale_powers(dom, q, u))
        if t_inv is None:
            # r_j c^j = c^n q_(n-j) (v/c)^(n-j)
            return _scale_powers(dom, q, mul(v, c_inv), dom.pow(c, n))[::-1]
        t, z, e = d, mul(v, t_inv), mul(c, t_inv)
    # The shift of r by t starts from r_j t^j = t^n q_(n-j) (v/t)^(n-j) (for
    # c = 0, h_j b^j = b^n f_j (d/b)^(n-j)); the factor t^n joins the last
    # scaling, which undoes t^j and applies c^j (or a^j) in one step.
    p = _shift_by_one(dom, _scale_powers(dom, q, z)[::-1])
    return _scale_powers(dom, p, e, dom.pow(t, n))


def _scale_powers(dom: Domain, h: list[El], t: El, s: El | None = None) -> list[El]:
    """The list s * t^i * h_i (s = 1 when None), with no product formed for
    a zero h_i."""
    mul, is_zero = dom.mul, dom.is_zero
    out = []
    pw = s
    for i, c in enumerate(h):
        if i:
            pw = t if pw is None else mul(pw, t)
        out.append(c if pw is None or is_zero(c) else mul(c, pw))
    return out


def _shift_by_one(dom: Domain, g: list[El]) -> list[El]:
    """The coefficients of g(x + 1) in place, by n(n + 1)/2 additions."""
    add = dom.add
    n = len(g) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] = add(g[j], g[j + 1])
    return g


def _horner_transport(f: UniPoly, m: Mobius) -> UniPoly:
    """The transport by Horner's scheme on the sum of products, O(n^2)
    multiplications and no inversion."""
    dom = f.domain
    n = int(f.degree())
    lin_num = UniPoly(dom, {1: m.a, 0: m.b})
    lin_den = UniPoly(dom, {1: m.c, 0: m.d})
    out = UniPoly.constant(dom, f.coeff(n))
    den_pow = UniPoly.one(dom)
    for e in range(n - 1, -1, -1):
        den_pow = den_pow * lin_den
        out = out * lin_num
        c = f.coeffs.get(e)
        if c is not None:
            out = out + den_pow.scale(c)
    return out


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def _prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g, fraction-free."""
    dom = f.domain
    df, dg = int(f.degree()), int(g.degree())
    lg = g.lc()
    r = dict(f.coeffs)
    steps = df - dg + 1
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r.pop(dr)
        # r = lc(g)*r - lr * x^(dr-dg) * g
        new: dict[int, El] = {}
        for e, c in r.items():
            new[e] = dom.mul(c, lg)
        for e, c in g.coeffs.items():
            if e == dg:
                continue
            t = e + dr - dg
            v = dom.sub(new.get(t, dom.zero()), dom.mul(lr, c))
            if dom.is_zero(v):
                new.pop(t, None)
            else:
                new[t] = v
        r = new
        steps -= 1
    if steps > 0:
        scale = dom.pow(lg, steps)
        r = {e: dom.mul(c, scale) for e, c in r.items()}
    return UniPoly(dom, r)


def _prs_resultant(f: UniPoly, g: UniPoly) -> El:
    """Resultant via the subresultant PRS (Brown, fraction-free)."""
    dom = f.domain
    n, m = int(f.degree()), int(g.degree())
    sign_swap = False
    if n < m:
        f, g = g, f
        n, m = m, n
        sign_swap = (n * m) % 2 == 1
    if m == 0:
        res = dom.pow(g.lc(), n)
        return dom.neg(res) if sign_swap else res
    d = n - m
    b = dom.from_int(-1) if d % 2 == 0 else dom.one()
    h = _prem(f, g).scale(b)
    lc = g.lc()
    c = dom.pow(lc, d)
    s_last = c
    c = dom.neg(c)
    while h.coeffs:
        k = int(h.degree())
        f, g = g, h
        m, d = k, m - k
        b = dom.neg(dom.mul(lc, dom.pow(c, d)))
        h = _prem(f, g)
        h = UniPoly(dom, {e: dom.exact_div(v, b) for e, v in h.coeffs.items()})
        lc = g.lc()
        if d > 1:
            q = dom.pow(c, d - 1)
            c = dom.exact_div(dom.pow(dom.neg(lc), d), q)
        else:
            c = dom.neg(lc)
        s_last = dom.neg(c)
    if int(g.degree()) > 0:
        return dom.zero()
    res = s_last
    return dom.neg(res) if sign_swap else res


def resultant(f: UniPoly, g: UniPoly) -> El:
    """Determinant of the Sylvester matrix of f and g, by the fraction-free
    subresultant PRS.  When f = F(x^k) and g = G(x^k) with k >= 2, the PRS
    runs on F and G, by

        Res(F(x^k), G(x^k)) = Res(F, G)^k,

    which follows from the root-product form Res(f, g) = lc(f)^deg g *
    prod g(beta) over the roots beta of f: each root alpha of F gives k
    roots beta of F(x^k), each with g(beta) = G(alpha), and lc(f)^deg g =
    (lc(F)^deg G)^k.  It is a polynomial identity over Z, so it holds in
    every characteristic, p | k included, with no sign factor.
    """
    f._same(g)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if f.is_constant() and g.is_constant():
        return f.domain.one()
    k = gcd(support_gcd(f), support_gcd(g))
    if k >= 2:
        return f.domain.pow(_prs_resultant(deflate(f, k), deflate(g, k)), k)
    return _prs_resultant(f, g)


def support_gcd(f: UniPoly) -> int:
    """GCD of the exponents carrying nonzero coefficients (0 for f = 0)."""
    return gcd(*f.coeffs)


def deflate(f: UniPoly, delta: int) -> UniPoly:
    """F with f = F(x^delta); every exponent must be divisible by delta."""
    if any(e % delta for e in f.coeffs):
        raise ValueError(f"not a polynomial in x^{delta}")
    return UniPoly(f.domain, {e // delta: c for e, c in f.coeffs.items()})


def _res_with_derivative(f: UniPoly) -> El:
    """Res(f, f'), using the composition identity for f = F(x^delta):

        Res(f, f') = delta^(r*delta) * f(0)^(delta-1) * Res(F, F')^delta

    with r = deg F, which follows from the root-product form of the
    resultant.  Falls back to the subresultant PRS when no deflation
    applies.
    """
    dom = f.domain
    delta = support_gcd(f)
    p = dom.char
    while p and delta % p == 0:
        delta //= p
    a0 = f.coeff(0)
    if delta >= 2 and not dom.is_zero(a0):
        big = deflate(f, delta)
        r = int(big.degree())
        inner = _res_with_derivative(big)
        res = dom.mul(dom.pow(dom.from_int(delta), r * delta), dom.pow(inner, delta))
        return dom.mul(res, dom.pow(a0, delta - 1))
    df = f.derivative()
    if df.is_zero():
        raise ValueError("inseparable polynomial: derivative is zero")
    return resultant(f, df)


def discriminant(f: UniPoly) -> El:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f) for d = deg f >= 2."""
    dom = f.domain
    d = f.degree()
    if d is NEG_INF or int(d) < 2:
        raise ValueError("discriminant requires degree >= 2")
    d = int(d)
    res = _res_with_derivative(f)
    res = dom.exact_div(res, f.lc())
    if (d * (d - 1) // 2) % 2 == 1:
        res = dom.neg(res)
    return res
