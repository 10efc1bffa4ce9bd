"""Exact coefficient domains.

Supported domains, with the raw Python value used for their elements:

* ``Rationals``         -- arbitrary-precision rationals (``gmpy2.mpq`` when
                           available, ``fractions.Fraction`` otherwise)
* ``PrimeField(p)``     -- residues stored as ``int`` in ``[0, p)``
* ``QuotientRing``      -- one extension step ``K[t]/(m(t))``; over Q (the
                           chain ends at ``Rationals``) elements are canonical
                           pairs ``(nums, den)`` of integer leaf coordinates
                           over one positive denominator, over F_p flat
                           tuples of residues, over a function field flat
                           tuples of its raws
* ``FunctionField``     -- rational functions in named parameters over a
                           field; elements are reduced ``(num, den)`` pairs
                           of term dicts ``{exponent tuple: raw}``; over Q
                           the raws are ``int`` (numerator and denominator
                           in Z[params], coprime), over any other field
                           they are base raws

Every raw a domain returns is canonical: equal values have equal raws.
So ``eq`` is ``==`` in every domain, and ``key`` is the raw itself wherever
the raw can be hashed (a function field keys its term dicts as sorted
tuples).  No domain works equality out again from its arithmetic.

Domains are immutable and hashable; every operation is a pure function of
raw values, so values can be shared freely between threads.  Operations on
mismatched domains raise :class:`DomainMismatchError`; inverting a nonzero
zero divisor in a quotient ring raises :class:`ZeroDivisorError` carrying a
proper factor of the modulus.

Quotient-ring steps are *not* required to be fields (the modulus may be
reducible); construct them with ``field=True`` only when the caller knows
the modulus is irreducible.  Rational-function fields require a field base.
Over Q they compute in Z[params] (Knuth, TAOCP vol. 2, 4.5.1 and 4.6.1):
the coefficients are integers, with no rational arithmetic in the products
and gcds, and the denominator's leading coefficient is divided out only
when a value is printed or read over Q, so printed forms are those of the
monic-denominator form over Q.  Sums and products follow Henrici's rule
(P. Henrici, "A subroutine for computations with rational numbers", JACM
3, 1956; Knuth, TAOCP vol. 2, 4.5.1): gcds of the factors are taken
before they are multiplied, and no gcd of a product is ever taken.

A tower whose chain ends at ``Rationals`` or at a ``PrimeField``
multiplies through an integer multiplication table (Cohen, GTM 138, 4.2),
built once per tower and shared by equal towers.  The table fixes the
product as a bilinear map, so it is written out once as straight-line
Python, one sum of pair products per coordinate (Buergisser, Clausen and
Shokrollahi, *Algebraic Complexity Theory*, ch. 14).  Over Q the integer
numerators of both operands are multiplied through the table and the
product is divided once by the gcd with its denominator (Knuth, TAOCP
vol. 2, 4.5.1), so a product makes no rational number; over F_p the
residues are multiplied as integers and reduced once mod p.  When the top
step's base is a certified field (Q, F_p, or a certified tower over Q,
below), a top step K[t]/(m) whose automorphisms over K m alone makes
known (a quadratic m, or a cyclotomic polynomial) inverts by conjugates:
a^-1 = c / N(a), where c is the product of a's images under the
automorphisms other than the identity and N(a) = a c lies in K (Cohen,
GTM 138, 4.2-4.3).  The automorphisms are written out once per tower
signature, like the product, and N(a) is inverted by the base's own
inverse, which takes the same route a step down.  Any other step, a norm
that is no unit of K (a is no unit), and any other base take extended
Euclid, which raises :class:`ZeroDivisorError` with the factor of this
step's modulus.  Towers
over a ``FunctionField``, and towers of total degree above 64, multiply
stepwise, by one convolution (``_ul_mul``) and one division
(``_ul_divmod``).

A small field such as F_9 = F_3[w]/(w^2 + 1) is no special case: it
multiplies by its generated product and inverts by conjugates.  A
reducible modulus over F_p has a table too, and inverting one of its zero
divisors raises from Euclid with the factor.

A tower over Q is *certified* a field when each step is: one quadratic
step over Q by its discriminant, which is not a square in Q, and any other
step at a root chain of its base.  A root chain at an odd prime p sends
each generator to a root mod p of its modulus at the chain below
(Cantor-Zassenhaus on int lists); p divides no denominator of a modulus,
and each modulus on the chain stays squarefree mod p, so the chain is an
unramified prime of degree one.  *Theorem:* if a monic modulus with
coefficients integral at such a prime is irreducible mod p (Rabin's
test), it is irreducible over the base.  A step is certified at the first
odd prime below ``_CERT_PRIME_BOUND`` where this holds, and stays
uncertified when none does: every reducible step, and steps with no
cyclic Frobenius, such as t^4 - 10 t^2 + 1.  The certificate is decided
once per domain and kept on it (``_certified_field``).

Every decision made mod p lives in this module.  One int-list kernel over
F_p (``_fp_*``) serves the certificates, the rational roots over Q by
p-adic lifting (``_q_roots``) and the modulus of a finite field
(``_least_irreducible``).  Reduction modulo a prime p has one route,
``_mod_p_image``, with its map on raws, built once per (domain, p) and
kept on the domain: Q maps to F_p by reduction, a certified tower to F_p
by its first root chain at p, and any other tower over Q to its tower
image over F_p, which inverts by conjugates exactly when its source
does.  One rule picks the primes of Q and of every tower over Q
(``_image_primes``): the first three below 2^31 at which the domain has
an image.  One rule says when p is good for a polynomial: p divides no
denominator of a modulus or a coefficient, and the image keeps the
degree.  Images at a good prime can only have a larger gcd (Brown, JACM
18, 1971); at a root chain the prime is a prime ideal of degree one
(Langemyr and McCallum, J. Symbolic Comput. 8, 1989), and over a
certified field a constant gcd of the images certifies gcd 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, Iterator, NamedTuple

try:
    from gmpy2 import mpq, mpz, iroot as _iroot, is_prime as _is_prime_fast

    _HAVE_GMPY = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as mpq  # type: ignore[assignment]

    _HAVE_GMPY = False

El = Any  # raw element of some domain


class DomainMismatchError(TypeError):
    """Operands belong to different coefficient domains."""


class ZeroDivisorError(ArithmeticError):
    """A noninvertible, nonzero residue was inverted in a quotient ring.

    ``factor`` holds the coefficient tuple (constant term first) of a proper
    monic factor of the modulus discovered by the extended Euclidean
    algorithm; ``domain`` is the base domain of those coefficients.
    """

    def __init__(self, message: str, domain: "Domain", factor: tuple):
        super().__init__(message)
        self.domain = domain
        self.factor = factor


def _int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 and whether it is exact."""
    if _HAVE_GMPY:
        r, exact = _iroot(mpz(n), k)
        return int(r), bool(exact)
    if n < 2:
        return n, True
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == n


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if _HAVE_GMPY:
        return bool(_is_prime_fast(n))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Domain:
    """Abstract base for coefficient domains.

    The contract of every domain: each raw it returns is canonical, so
    equal values have equal raws.  ``eq`` is therefore ``==``, every
    domain defines ``is_zero`` and ``is_one`` to compare with its canonical
    zero and one, and ``key`` returns the raw wherever it can be hashed.
    """

    char: int
    is_field: bool

    # -- construction -------------------------------------------------

    def zero(self) -> El:
        raise NotImplementedError

    def one(self) -> El:
        raise NotImplementedError

    def from_int(self, n: int) -> El:
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------

    def add(self, a: El, b: El) -> El:
        raise NotImplementedError

    def neg(self, a: El) -> El:
        raise NotImplementedError

    def mul(self, a: El, b: El) -> El:
        raise NotImplementedError

    def inv(self, a: El) -> El:
        raise NotImplementedError

    def sub(self, a: El, b: El) -> El:
        return self.add(a, self.neg(b))

    def div(self, a: El, b: El) -> El:
        return self.mul(a, self.inv(b))

    def exact_div(self, a: El, b: El) -> El:
        """Division known to be exact in the domain (used by the
        subresultant PRS and ``discriminant``); the default works for
        fields."""
        return self.div(a, b)

    def pow(self, a: El, n: int) -> El:
        """a**n by left-to-right binary powering: at most 2*floor(log2 n)
        products, each a squaring or a product by a itself.  For several
        powers of one base, ``powers`` is cheaper."""
        if n < 0:
            a, n = self.inv(a), -n
        if n == 0:
            return self.one()
        out = a
        for bit in bin(n)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def powers(self, a: El, n: int) -> list[El]:
        """[a^0, a^1, ..., a^n] for n >= 0, each power the product of the one
        before it and a: n - 1 products in all, where a ``pow`` for each
        exponent takes up to 2*floor(log2 k) for a^k."""
        out = [self.one()]
        if n:
            out.append(a)
        for _ in range(n - 1):
            out.append(self.mul(out[-1], a))
        return out

    # -- predicates ----------------------------------------------------

    def eq(self, a: El, b: El) -> bool:
        return a == b

    # -- misc ------------------------------------------------------------

    def key(self, a: El):
        """Hashable key of a raw value: the raw itself, which is canonical."""
        return a

    def fmt(self, a: El, atom: bool = False) -> str:
        raise NotImplementedError

    def nth_root(self, a: El, n: int) -> El | None:
        """Exact n-th root when the domain can find one, else None."""
        return None

    def iter_elements(self) -> Iterator[El]:
        """Enumerate all elements of a finite domain."""
        raise TypeError(f"{self} is not a finite domain")

    @property
    def is_finite(self) -> bool:
        return False

    def _signature(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Domain) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())


class Rationals(Domain):
    """The field of rational numbers."""

    char = 0
    is_field = True
    # builtins, not methods: these run on every leaf of a tower over Q
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    def zero(self):
        return mpq(0)

    def one(self):
        return mpq(1)

    def from_int(self, n):
        return mpq(n)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a / b

    def pow(self, a, n):
        if n < 0 and not a:
            raise ZeroDivisionError("inverse of zero")
        return a**n

    def is_zero(self, a):
        return not a

    def is_one(self, a):
        return a == 1

    def fmt(self, a, atom=False):
        s = str(a)
        if atom and a < 0:
            return f"({s})"
        return s

    def nth_root(self, a, n):
        if n <= 0:
            raise ValueError("root index must be positive")
        neg = a < 0
        if neg and n % 2 == 0:
            return None
        num, den = abs(a).numerator, a.denominator
        rn, okn = _int_nth_root(int(num), n)
        if not okn:
            return None
        rd, okd = _int_nth_root(int(den), n)
        if not okd:
            return None
        root = mpq(rn, rd)
        return -root if neg else root

    def _signature(self):
        return ("Q",)

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class Integers(Domain):
    """The ring of integers, as Python ``int``: the coefficient ring of a
    ``FunctionField`` over Q.  Not a field; ``mp_exact_div`` divides its
    values exactly or reports that it cannot."""

    char = 0
    is_field = False
    # builtins, not methods: these run in the inner loops of ``mp_mul``
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def is_one(self, a):
        return a == 1

    def _signature(self):
        return ("Z",)

    def __repr__(self):
        return "ZZ"


ZZ = Integers()


class PrimeField(Domain):
    """The prime field F_p, elements stored as reduced residues."""

    is_field = True
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def is_one(self, a):
        return a == 1

    def fmt(self, a, atom=False):
        return str(a)

    def nth_root(self, a, n):
        for c in range(self.p):
            if pow(c, n, self.p) == a:
                return c
        return None

    def iter_elements(self):
        return iter(range(self.p))

    @property
    def is_finite(self):
        return True

    @property
    def order(self) -> int:
        return self.p

    def _signature(self):
        return ("Fp", self.p)

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# the stepwise kernel: one convolution and one division of coefficient lists
# (constant term first) over any base, for QuotientRing products and inverses
# ---------------------------------------------------------------------------


def _ul_deg(base: Domain, c: list) -> int:
    for i in range(len(c) - 1, -1, -1):
        if not base.is_zero(c[i]):
            return i
    return -1


def _ul_mul(base: Domain, a, b) -> list:
    """Schoolbook product of coefficient lists, with no product formed for
    a zero entry."""
    add, mul, is_zero = base.add, base.mul, base.is_zero
    out = [base.zero()] * (len(a) + len(b) - 1)
    nb = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    for i, x in enumerate(a):
        if not is_zero(x):
            for j, y in nb:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _ul_divmod(base: Domain, a, b) -> tuple[list, list]:
    """Long division of coefficient lists, with no product formed for a zero
    entry of b; leading coeff of b must be invertible."""
    db = _ul_deg(base, b)
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    # a monic divisor needs no product by 1: raws are canonical (Domain)
    lead_inv = None if base.is_one(b[db]) else base.inv(b[db])
    nb = [(i, y) for i, y in enumerate(b[:db]) if not base.is_zero(y)]
    rem = list(a)
    dr = _ul_deg(base, rem)
    quo = [base.zero()] * max(dr - db + 1, 0)
    for k in range(dr, db - 1, -1):
        if not base.is_zero(rem[k]):
            f = rem[k] if lead_inv is None else base.mul(rem[k], lead_inv)
            quo[k - db] = f
            rem[k] = base.zero()  # rem[k] - f * b[db] is exactly zero
            for i, y in nb:
                rem[k - db + i] = base.sub(rem[k - db + i], base.mul(f, y))
    return quo, rem


# ---------------------------------------------------------------------------
# integer multiplication tables for towers over Q and over F_p (Cohen,
# GTM 138, 4.2)
# ---------------------------------------------------------------------------


class _MulTable(NamedTuple):
    """Structure constants of a tower over Q or F_p in its flat basis.

    The flat basis is the products of generator powers, in the order in
    which an element lists its leaf coordinates.  For basis elements e_i,
    e_j, ``rows[i][j]`` holds the pairs (k, c) with e_i * e_j = sum of
    c * e_k / ``den``; the c are nonzero integers.  Over F_p, ``den`` is 1
    and the c are residues in [1, p).  ``kept`` is the dict of every tower
    with this table (``_kept``): equal towers share their certificate, root
    chains, primes and images as they share the table.

    ``prod`` is the product of two raws.  The rows fix it as a bilinear
    map, so it is written out once per tower signature as straight-line
    Python (``_compile_product``): each pair product a_i b_j + a_j b_i is
    formed once and each output coordinate is one sum with the table's
    integer constants, where a loop over the rows pays an index, a tuple
    unpacking and a branch for every constant on every product.

    ``cofactor`` is set when the top step K[t]/(m) has automorphisms over
    K known from m alone (``_conjugate_generators``): it maps a raw a to
    the product c of its images under every such automorphism other than
    the identity, so that a * c is the norm of a, which lies in K
    (``QuotientRing.inv``).  Each automorphism is K-linear, so on the flat
    coordinates it is an integer matrix over one denominator, written out
    like the product (``_compile_cofactor``).  A table with no cofactor
    inverts by extended Euclid, off the table.
    """

    den: int
    rows: tuple
    kept: dict
    prod: Callable
    cofactor: Callable | None = None


# tower signature -> _MulTable, shared by equal towers, least recently used
# first; at most _TABLES_MAX are kept (a table of degree 64 takes about
# 6 MiB; the perfbench workloads hold at most 19 at once)
_TABLES: dict = {}
_TABLES_MAX = 32
# a table holds up to D^3 integers; towers of larger total degree D (none
# in the catalog, whose largest is 16) multiply by the schoolbook product
_TABLE_MAX_DIM = 64
# a generated sum of more terms than this is split over several statements:
# CPython compiles a long sum as nested nodes and raises RecursionError
# somewhere between 1,000 and 3,000 terms
_SUM_CHUNK = 100
# finite domains up to this order are searched element by element (roots,
# n-th roots)
_SMALL_FIELD_ORDER = 4096
_ZERO = mpq(0)


def _canonical(nums, den: int) -> tuple:
    """The canonical pair of the rationals n / den, n in the sequence nums,
    for den > 0: an int tuple and an int, divided by their gcd."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return tuple(n // g for n in nums), den // g
    return tuple(nums), den


def _flat_basis(ring: "QuotientRing") -> list:
    """The raws of the flat basis of a tower over Q or F_p."""
    units = [tuple(int(k == i) for k in range(ring.dim)) for i in range(ring.dim)]
    return [(u, 1) for u in units] if ring._over_q else units


def _build_table(ring: "QuotientRing") -> _MulTable:
    """The table of a tower over Q or F_p, from schoolbook products of its
    basis."""
    dim, over_q = ring.dim, ring._over_q
    basis = _flat_basis(ring)
    prods = {}
    for i in range(dim):
        for j in range(i, dim):
            v = ring._schoolbook_mul(basis[i], basis[j])
            prods[i, j] = v if over_q else (v, 1)
    den = math.lcm(*(d for _, d in prods.values()))
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), (nums, d) in prods.items():
        rows[i][j] = rows[j][i] = tuple((k, c * (den // d)) for k, c in enumerate(nums) if c)
    rows = tuple(map(tuple, rows))
    return _MulTable(den, rows, {}, _compile_product(den, rows, ring.char))


def _compile_product(den: int, rows: tuple, p: int) -> Callable:
    """The product of the table (den, rows) as one straight-line function
    of two raws: over Q (p = 0) of pairs (nums, den), ending in one
    ``_canonical``, over F_p of residue tuples, ending in one ``% p`` per
    leaf.  The source holds only generated identifiers and int literals
    taken from the table."""
    dim = len(rows)
    a = ", ".join(f"a{i}" for i in range(dim))
    b = ", ".join(f"b{i}" for i in range(dim))
    lines = [f"    ({a}), da = a", f"    ({b}), db = b"] if p == 0 else [f"    {a} = a", f"    {b} = b"]
    sums = [[] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if not rows[i][j]:
                continue
            m = f"m{i}_{j}"
            lines.append(f"    {m} = a{i}*b{j} + a{j}*b{i}" if i < j else f"    {m} = a{i}*b{i}")
            for k, c in rows[i][j]:
                sums[k].append(_term(c, m))
    for k, terms in enumerate(sums):
        if not terms:
            lines.append(f"    c{k} = 0")
        for n in range(0, len(terms), _SUM_CHUNK):
            chunk = "".join(terms[n:n + _SUM_CHUNK])
            lines.append(f"    c{k} = {chunk.removeprefix(' + ').lstrip()}" if n == 0 else f"    c{k} +={chunk}")
    if p == 0:
        scale = "da * db" if den == 1 else f"da * db * {den}"
        lines.append(f"    return _canonical(({', '.join(f'c{k}' for k in range(dim))},), {scale})")
    else:
        lines.append(f"    return ({', '.join(f'c{k} % {p}' for k in range(dim))},)")
    namespace = {"_canonical": _canonical}
    exec("def prod(a, b):\n" + "\n".join(lines), namespace)
    return namespace["prod"]


def _term(c: int, name: str) -> str:
    """The term c * name of a generated sum, with its sign: " + m",
    " - 3*m"."""
    sign = "-" if c < 0 else "+"
    return f" {sign} {name}" if abs(c) == 1 else f" {sign} {abs(c)}*{name}"


def _cyclotomic(n: int) -> list[int]:
    """The n-th cyclotomic polynomial, constant term first, as the product
    of (x^d - 1)^mu(n/d) over the divisors d of n: the factors with
    mu = 1 are multiplied in first, so that each division by one with
    mu = -1 is exact."""
    primes = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    f, divisors = [1], []
    for picked in itertools.product((False, True), repeat=len(primes)):
        d = n // math.prod(q for q, x in zip(primes, picked) if x)
        if sum(picked) % 2:
            divisors.append(d)
            continue
        # (x^d - 1) f
        f = [-c for c in f] + [0] * d
        for i, c in enumerate(f[: len(f) - d]):
            f[i + d] -= c
    for d in divisors:
        # f = q (x^d - 1), so q[k - d] = f[k] + q[k], from the top
        q = [0] * (len(f) - d)
        for k in range(len(f) - 1, d - 1, -1):
            q[k - d] = f[k] + (q[k] if k < len(q) else 0)
        f = q
    return f


def _conjugate_generators(ring: "QuotientRing") -> list:
    """The images of the top generator t of K[t]/(m) under the automorphisms
    over K other than the identity that m alone makes known, or [] when m
    makes none known.  A quadratic m = t^2 + c1 t + c0 has t -> -c1 - t,
    over any base.  The n-th cyclotomic polynomial, read as integers
    embedded in K, has t -> t^k for 1 < k < n prime to n: these hold in
    Z[t]/(m), so in every ring it maps to (Cohen, GTM 138, 4.2-4.3)."""
    m, d, base = ring.minpoly, ring.degree, ring.base
    t = ring.gen()
    if d == 2:
        return [ring.sub(ring.from_base(base.neg(m[1])), t)]
    # Phi_n is palindromic with constant term 1 for n > 1, and
    # phi(n) >= sqrt(n / 2) bounds n by 2 d^2
    if m[0] != base.one() or m != m[::-1]:
        return []
    bound = 2 * d * d
    phi = list(range(bound + 1))
    for q in range(2, bound + 1):
        if phi[q] == q:
            for k in range(q, bound + 1, q):
                phi[k] -= phi[k] // q
    for n in range(3, bound + 1):
        if phi[n] == d and tuple(map(base.from_int, _cyclotomic(n))) == m:
            return [ring.pow(t, k) for k in range(2, n) if math.gcd(k, n) == 1]
    return []


def _compile_cofactor(ring: "QuotientRing", prod: Callable) -> Callable | None:
    """The product of the conjugates of a raw (``_MulTable``) as one
    straight-line function, or None when the top step has no known
    automorphism.  The images of the flat basis under each automorphism
    are computed here once, by the ring's own arithmetic: x t^b goes to
    x s^b for x in the base and s the image of t.  Over Q each conjugate
    is (the integer matrix times a's numerators, its denominator times
    a's); over F_p its residues, taken between -p/2 and p/2, are not
    reduced, since ``prod`` reduces.  The conjugates are multiplied by
    prod."""
    gens = _conjugate_generators(ring)
    if not gens:
        return None
    dim, w, p, basis = ring.dim, ring._step, ring.char, _flat_basis(ring)
    a = ", ".join(f"a{j}" for j in range(dim))
    lines = [f"    ({a}), da = a"] if p == 0 else [f"    {a} = a"]
    for n, s in enumerate(gens):
        powers = ring.powers(s, ring.degree - 1)
        images = [ring.scale(powers[j // w], ring.coords(e)[j // w]) for j, e in enumerate(basis)]
        if p == 0:
            den = math.lcm(*(d for _, d in images))
            cols = [[c * (den // d) for c in nums] for nums, d in images]
        else:
            den, cols = 1, [[c - p if 2 * c > p else c for c in v] for v in images]
        coords = ", ".join(
            "".join(_term(col[k], f"a{j}") for j, col in enumerate(cols) if col[k]).removeprefix(" + ").lstrip()
            for k in range(dim))
        conj = f"({coords},)" if p else f"(({coords},), da)" if den == 1 else f"(({coords},), da * {den})"
        lines.append(f"    c = {conj}" if n == 0 else f"    c = prod(c, {conj})")
    namespace = {"prod": prod}
    exec("def cofactor(a):\n" + "\n".join(lines) + "\n    return c", namespace)
    return namespace["cofactor"]


def _table_for(ring: "QuotientRing") -> _MulTable | None:
    """The shared table of a tower over Q or F_p of total degree at most
    ``_TABLE_MAX_DIM``, else None.  The chain test comes first, so that
    only such towers compute their signature."""
    if not isinstance(ring.leaf, (Rationals, PrimeField)) or ring.dim > _TABLE_MAX_DIM:
        return None
    sig = ring._signature()
    table = _TABLES.pop(sig, None)
    if table is None:
        table = _build_table(ring)
        # the conjugations below multiply by the table's product
        ring._prod = table.prod
        table = table._replace(cofactor=_compile_cofactor(ring, table.prod))
        if len(_TABLES) >= _TABLES_MAX:
            del _TABLES[next(iter(_TABLES))]
    _TABLES[sig] = table
    return table


class QuotientRing(Domain):
    """One extension step K[t]/(m(t)) with monic modulus m.

    An element lists ``dim`` leaf coordinates over the ``leaf`` domain,
    the first domain down the chain that is not a quotient ring: the
    ``deg m`` base elements that are its coordinates in increasing powers
    of the generator, each itself flat, laid end to end, so the innermost
    generator varies fastest.  Over Q (``leaf`` is ``Rationals``) the raw is
    the canonical pair ``(nums, den)``: a tuple of ``dim`` ints and an int
    ``den > 0`` with gcd(den, *nums) = 1, the coordinates being n / den, and
    zero is ``((0,) * dim, 1)``.  Over any other leaf the raw is the flat
    tuple of leaf raws.  Only this module knows that layout; other
    code reads the base coordinates through :meth:`coords` and builds
    values from them through :meth:`from_coeffs`.  Off the table, products,
    reductions and extended Euclid run on ``_ul_mul`` and ``_ul_divmod`` over
    the base, which must invert the leading coefficients Euclid meets; a
    field base always does.  Inverting a nonzero noninvertible element
    raises :class:`ZeroDivisorError` with a discovered proper factor of ``m``.

    ``mul`` calls the one product the ring picks when it is built.  Over
    Q or F_p (every step of the chain a ``QuotientRing``, the bottom Q or a
    prime field) that is the product of the tower's integer table,
    reducible moduli included: generated straight-line code, built once
    per tower signature and shared by equal towers, because it spends no
    loop step, index or branch per table constant.  It reduces once: one
    gcd with the denominator over Q, one ``% p`` per leaf over F_p.  Any
    other tower takes ``_schoolbook_mul``, looked up on each product.
    When the base is a certified field and the top step has automorphisms
    known from its modulus (a quadratic or cyclotomic step), ``inv``
    divides the product c of a's conjugates by the norm N(a) = a c, which
    lies in the base and is inverted there (``_conjugate_inv``).  Every
    other element takes extended Euclid (``_euclid_inv``): a step with no
    known automorphism, for example Q(cbrt(2/3)) or a cubic modulus over
    F_p; a norm that is no unit of the base, so that the error carries the
    factor of this step's modulus; and a base that is not certified, where
    a unit can meet a zero-divisor leading coefficient, an error that is
    part of the contract.

    ``field=True`` is the caller's word, and ``is_field`` reports it.  The
    certificate (module docstring) is what the arithmetic trusts: a tower
    over Q is certified when each step's modulus is irreducible mod p at a
    root chain of its base, a chain that sends each generator to a root
    mod p of its modulus, at a prime p dividing no denominator, with each
    modulus on the chain squarefree mod p.
    """

    def __init__(self, base: Domain, name: str, minpoly: tuple, *, field: bool | None = None):
        deg = len(minpoly) - 1
        if deg < 2:
            raise ValueError("modulus must have degree >= 2")
        if not base.is_one(minpoly[-1]):
            raise ValueError("modulus must be monic")
        self.base = base
        self.name = name
        self.minpoly = tuple(minpoly)
        self.degree = deg
        self.char = base.char
        self.is_field = bool(field)
        # _step: the number of leaves per base coordinate
        below = isinstance(base, QuotientRing)
        self.leaf, self._step = (base.leaf, base.dim) if below else (base, 1)
        self.dim = deg * self._step
        # elements are (nums, den) pairs
        self._over_q = isinstance(self.leaf, Rationals)
        # every attribute is set here: one added later to an instance makes
        # each attribute read of it slower, in mul and inv too
        self._kept: dict = {}
        self._zero, self._one = self.zero(), self.one()
        # the table's product (``mul``), picked here once; None for a ring
        # with no table, whose ``mul`` looks up ``_schoolbook_mul``
        self._prod = None
        self._table = _table_for(self)
        if self._table is not None:
            self._prod = self._table.prod
            self._kept = self._table.kept
        self._flat_inv = self._table is not None and _certified_field(base)

    def coords(self, a) -> tuple:
        """The ``deg m`` base coordinates of a, constant term first."""
        w = self._step
        if self._over_q:
            nums, den = a
            if w == 1:
                return tuple(mpq(n, den) if n else _ZERO for n in nums)
            return tuple(_canonical(nums[i:i + w], den) for i in range(0, self.dim, w))
        if w == 1:
            return a
        return tuple(a[i:i + w] for i in range(0, self.dim, w))

    def _join(self, coords) -> tuple:
        """Inverse of :meth:`coords`."""
        if self._over_q:
            if self._step == 1:
                coords = [((int(c.numerator),), int(c.denominator)) for c in coords]
            else:
                coords = list(coords)
            # for each prime q, the input whose den holds the highest power
            # of q has a numerator prime to q, so this pair is canonical
            den = math.lcm(*(d for _, d in coords))
            return tuple(n * (den // d) for nums, d in coords for n in nums), den
        if self._step == 1:
            return tuple(coords)
        return tuple(x for c in coords for x in c)

    def zero(self):
        if self._over_q:
            return (0,) * self.dim, 1
        return (self.leaf.zero(),) * self.dim

    def one(self):
        return self.from_base(self.base.one())

    def gen(self):
        z = self.base.zero()
        return self._join((z, self.base.one()) + (z,) * (self.degree - 2))

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def from_base(self, a):
        z = self.base.zero()
        return self._join((a,) + (z,) * (self.degree - 1))

    def from_coeffs(self, coeffs) -> tuple:
        """Element from an iterable of base raws (constant first), reducing mod m."""
        d = self.degree
        _, rem = _ul_divmod(self.base, coeffs, self.minpoly)
        return self._join(rem[:d] + [self.base.zero()] * (d - len(rem)))

    def add(self, a, b):
        if not self._over_q:
            return tuple(map(self.leaf.add, a, b))
        (na, da), (nb, db) = a, b
        if da == db:
            return _canonical(list(map(operator.add, na, nb)), da)
        return _canonical([x * db + y * da for x, y in zip(na, nb)], da * db)

    def sub(self, a, b):
        if not self._over_q:
            return tuple(map(self.leaf.sub, a, b))
        (na, da), (nb, db) = a, b
        if da == db:
            return _canonical(list(map(operator.sub, na, nb)), da)
        return _canonical([x * db - y * da for x, y in zip(na, nb)], da * db)

    def neg(self, a):
        if not self._over_q:
            return tuple(map(self.leaf.neg, a))
        nums, den = a
        return tuple(map(operator.neg, nums)), den

    def mul(self, a, b):
        prod = self._prod
        return self._schoolbook_mul(a, b) if prod is None else prod(a, b)

    def _schoolbook_mul(self, a, b):
        """Schoolbook product of the base coordinates, then reduction mod m."""
        return self.from_coeffs(_ul_mul(self.base, self.coords(a), self.coords(b)))

    def scale(self, a, c):
        mul = self.base.mul
        return self._join(mul(x, c) for x in self.coords(a))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self._flat_inv and self._table.cofactor is not None:
            out = self._conjugate_inv(a)
            if out is not None:
                return out
        return self._euclid_inv(a)

    def _conjugate_inv(self, a):
        """a^-1 = c / N(a), where c is the product of a's conjugates
        (``_MulTable.cofactor``) and N(a) = a * c is its norm, the first
        base coordinate of a * c; None when N(a) is no unit of the base,
        which holds exactly when a is no unit.  N(a) is inverted by the
        base's own ``inv``, and over Q by c / N(a) = c * d / n for
        N(a) = n / d, so that no rational is made."""
        prod, base, w = self._prod, self.base, self._step
        c = self._table.cofactor(a)
        norm = prod(a, c)
        if not self._over_q:
            norm = norm[0] if w == 1 else norm[:w]
        elif w == 1:
            (n, *_), d = norm
            if not n:
                return None
            (nums, den), s = c, d if n > 0 else -d
            return _canonical([x * s for x in nums], den * abs(n))
        else:
            norm = _canonical(norm[0][:w], norm[1])
        if base.is_zero(norm):
            return None
        try:
            norm_inv = base.inv(norm)
        except ZeroDivisorError:
            return None
        # a base element embeds as its leaves padded with zeros
        pad = (0,) * (self.dim - w)
        if self._over_q:
            return prod(c, (norm_inv[0] + pad, norm_inv[1]))
        return prod(c, ((norm_inv,) if w == 1 else norm_inv) + pad)

    def _euclid_inv(self, a):
        """a^-1 by extended Euclid on (a, m) over the base; raises
        :class:`ZeroDivisorError` with the factor gcd(a, m) of m when it is
        no constant, or the base's own where a leading coefficient on the
        way is a zero divisor of a base that is no field."""
        base = self.base
        r0, r1 = list(self.minpoly), list(self.coords(a))
        s0, s1 = [base.zero()], [base.one()]
        while True:
            d1 = _ul_deg(base, r1)
            if d1 < 0:
                # gcd is r0
                d0 = _ul_deg(base, r0)
                if d0 == 0:
                    return self.from_coeffs(_ul_mul(base, s0, [base.inv(r0[0])]))
                factor = tuple(_ul_mul(base, r0[: d0 + 1], [base.inv(r0[d0])]))
                raise ZeroDivisorError(
                    f"zero divisor in {self!r}: modulus has factor of degree {d0}",
                    self.base,
                    factor,
                )
            quo, rem = _ul_divmod(base, r0, r1)
            r0, r1 = r1, rem
            # s0 - quo*s1
            pairs = itertools.zip_longest(s0, _ul_mul(base, quo, s1), fillvalue=base.zero())
            s0, s1 = s1, [base.sub(x, y) for x, y in pairs]

    def is_zero(self, a):
        return a == self._zero

    def is_one(self, a):
        return a == self._one

    def key(self, a):
        # term dicts cannot be hashed, so a function-field leaf keys each raw
        if isinstance(self.leaf, FunctionField):
            return tuple(map(self.leaf.key, a))
        return a

    def fmt(self, a, atom=False):
        parts = _dense_terms(self.base, dict(enumerate(self.coords(a))), self.name)
        if not parts:
            return "0"
        s = "".join(parts)
        if atom and (len(parts) > 1 or s.startswith("-")):
            return f"({s})"
        return s

    def iter_elements(self):
        if not self.base.is_finite:
            raise TypeError(f"{self} is not a finite domain")
        pools = [list(self.base.iter_elements()) for _ in range(self.degree)]
        return (self._join(c) for c in itertools.product(*pools))

    @property
    def is_finite(self):
        return self.base.is_finite

    @property
    def order(self) -> int:
        return self.base.order**self.degree  # type: ignore[attr-defined]

    def nth_root(self, a, n):
        # brute force is exact and cheap for the small finite towers in use
        if self.is_finite and self.order <= _SMALL_FIELD_ORDER:
            for c in self.iter_elements():
                if self.eq(self.pow(c, n), a):
                    return c
            return None
        c0, *rest = self.coords(a)
        if all(map(self.base.is_zero, rest)):
            r = self.base.nth_root(c0, n)
            return self.from_base(r) if r is not None else None
        return None

    def _signature(self):
        return ("quot", self.base._signature(), self.name, tuple(self.base.key(c) for c in self.minpoly))

    def __repr__(self):
        return f"{self.base!r}[{self.name}]/({self.fmt_minpoly()})"

    def fmt_minpoly(self, var: str | None = None) -> str:
        terms = _dense_terms(self.base, dict(enumerate(self.minpoly)), var or self.name)
        return "".join(terms) or "0"


def _shift_by_one(dom: Domain, g: list[El]) -> list[El]:
    """The coefficients of g(x + 1), for g over Q, F_p or a tower over
    them, by n(n + 1)/2 integer additions per leaf column.

    The shift is linear over the leaves, so each leaf coordinate, read as a
    column down the coefficients, shifts on its own.  Over Q the integer
    numerators are brought to the lcm of the coefficients' denominators
    first, and each shifted coefficient is divided by it once at the end;
    over F_p the leaves are residues, reduced once mod p at the end.
    All-zero columns are not shifted."""
    tower = isinstance(dom, QuotientRing)
    p = dom.char
    # each coefficient as integer leaves over a denominator; a residue is
    # an int, whose denominator is 1
    if tower and not p:
        pairs = g
    elif tower:
        pairs = [(c, 1) for c in g]
    else:
        pairs = [((c.numerator,), c.denominator) for c in g]
    den = math.lcm(*(d for _, d in pairs))
    cols = [list(col) for col in zip(*(
        nums if d == den else [v * (den // d) for v in nums] for nums, d in pairs))]
    n = len(g) - 1
    for col in cols:
        if any(col):
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    col[j] += col[j + 1]
    rows = zip(*cols)
    if p:
        return [tuple(v % p for v in row) for row in rows] if tower else [v % p for v in cols[0]]
    if tower:
        return [_canonical(row, den) for row in rows]
    return [mpq(v, den) if v else _ZERO for v in cols[0]]


def adjoin(base: Domain, name: str, minpoly, *, field: bool | None = None) -> QuotientRing:
    """Adjoin a generator with the given monic minimal polynomial.

    ``minpoly`` is an iterable of base raws, constant term first.  The
    result is a quotient ring; pass ``field=True`` when the modulus is known
    irreducible so that downstream constructions requiring a field accept it.
    """
    return QuotientRing(base, name, tuple(minpoly), field=field)


# ---------------------------------------------------------------------------
# multivariate term-dict helpers over a field or over Z
# ---------------------------------------------------------------------------


def _grlex_key(e: tuple) -> tuple:
    return (sum(e), e)


def mp_const(base: Domain, c: El, nvars: int) -> dict:
    if base.is_zero(c):
        return {}
    return {(0,) * nvars: c}


def mp_gen(base: Domain, i: int, nvars: int) -> dict:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): base.one()}


def mp_add(base: Domain, f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        if e in out:
            s = base.add(out[e], c)
            if base.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def mp_neg(base: Domain, f: dict) -> dict:
    neg = base.neg
    return {e: neg(c) for e, c in f.items()}


def mp_sub(base: Domain, f: dict, g: dict) -> dict:
    return mp_add(base, f, mp_neg(base, g))


def mp_mul(base: Domain, f: dict, g: dict) -> dict:
    """The product of two term dicts over any base, by one loop: each term
    product is summed into its exponent, the first one stored as it is,
    and zero sums are dropped once, at the end.

    The exponent sum is written out for one and two variables because
    ``tuple(map(int.__add__, e1, e2))`` builds a map object and a tuple
    from it on every term.  Replaying the 4,135 products of a seed-101
    ``param_loci`` pass (at most 76 x 16 terms, coefficients of 15 to 72
    bits; 2 vCPU, Python 3.11), this loop with the map sum for every arity
    took 30.5 ms, and with the written-out sums 17.1 ms.  With three or
    more variables the map is kept.
    """
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    mul, add = base.mul, base.add
    out: dict = {}
    get = out.get
    nvars = len(next(iter(f)))
    terms = g.items()
    if nvars == 1:
        for (x1,), c1 in f.items():
            for (x2,), c2 in terms:
                e = (x1 + x2,)
                p = mul(c1, c2)
                s = get(e)
                out[e] = p if s is None else add(s, p)
    elif nvars == 2:
        for (x1, y1), c1 in f.items():
            for (x2, y2), c2 in terms:
                e = (x1 + x2, y1 + y2)
                p = mul(c1, c2)
                s = get(e)
                out[e] = p if s is None else add(s, p)
    else:
        for e1, c1 in f.items():
            for e2, c2 in terms:
                e = tuple(map(int.__add__, e1, e2))
                p = mul(c1, c2)
                s = get(e)
                out[e] = p if s is None else add(s, p)
    # raws are canonical, so a zero sum equals the base's zero
    zero = base.zero()
    if zero in out.values():
        return {e: c for e, c in out.items() if c != zero}
    return out


def mp_scale(base: Domain, f: dict, c: El) -> dict:
    if base.is_zero(c):
        return {}
    mul = base.mul
    return {e: mul(v, c) for e, v in f.items()}


def mp_lead(f: dict) -> tuple:
    return max(f, key=_grlex_key)


def mp_total_deg(f: dict) -> int:
    return max((sum(e) for e in f), default=-1)


def mp_exact_div(base: Domain, f: dict, g: dict) -> dict | None:
    """f / g in the polynomial ring, or None if the division is not exact;
    over Z that includes a quotient with a coefficient outside Z."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return {}
    ge = mp_lead(g)
    gc = g[ge]
    over_z = isinstance(base, Integers)
    if not over_z:
        gc_inv = base.inv(gc)
        if len(g) == 1 and not any(ge):
            return mp_scale(base, f, gc_inv)
    elif len(g) == 1 and not any(ge):
        if any(c % gc for c in f.values()):
            return None
        return {e: c // gc for e, c in f.items()}
    rem = dict(f)
    out: dict = {}
    while rem:
        re = mp_lead(rem)
        diff = tuple(map(int.__sub__, re, ge))
        if any(d < 0 for d in diff):
            return None
        if not over_z:
            q = base.mul(rem[re], gc_inv)
        else:
            q, r = divmod(rem[re], gc)
            if r:
                return None
        out[diff] = q
        rem = mp_sub(base, rem, mp_mul(base, {diff: q}, g))
    return out


def _mv_deg(f: dict, v: int) -> int:
    return max((e[v] for e in f), default=-1)


def _mv_coeff(f: dict, v: int, d: int) -> dict:
    """Coefficient of x_v^d as a term dict with the v-slot zeroed."""
    out = {}
    for e, c in f.items():
        if e[v] == d:
            ez = list(e)
            ez[v] = 0
            out[tuple(ez)] = c
    return out


def _mv_shift(f: dict, v: int, d: int) -> dict:
    out = {}
    for e, c in f.items():
        ez = list(e)
        ez[v] += d
        out[tuple(ez)] = c
    return out


def mp_gcd(base: Domain, f: dict, g: dict) -> dict:
    """GCD in R[x_1..x_n], R a field k or Z, in normal form: over k monic
    (graded-lex leading coefficient 1); over Z primitive with a positive
    leading coefficient, that is the gcd in Q[x_1..x_n] up to the integer
    content, which the caller takes separately when it needs it.

    Primitive PRS recursion over the last variable x_v that occurs: each
    pseudo-remainder is replaced by its primitive part along x_v, put in
    normal form.  Over k = Q the content along x_v of a univariate
    polynomial is a unit, so stripping it alone never removes the rational
    scale that each pseudo-division multiplies in; left in place, that
    scale grows exponentially in bit length along the sequence (Knuth,
    TAOCP vol. 2, 4.6.1).  Over Z the normal form removes the integer
    content as well.  A primitive part is only defined up to a unit, so
    the normalization changes no result.

    Over Z, when x_v is the only variable in f and g, the heuristic gcd
    GCDHEU runs first (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989): one integer gcd in place of the remainder sequence.  Let f and
    g be primitive, a the one of smaller height |a| (largest coefficient
    magnitude), xi >= 2|a| + 2, and h the polynomial whose coefficients are
    the symmetric xi-adic digits of gamma = gcd(f(xi), g(xi)), so that
    h(xi) = gamma.  *Theorem:* if pp(h) divides f and g, it is their gcd.
    For a nonconstant q dividing a, every root of q lies below
    1 + |a| <= xi/2 in modulus (Cauchy), so |q(xi)| > xi/2.  The gcd G is
    pp(h) q, and G(xi) divides gamma = cont(h) pp(h)(xi), so q(xi) divides
    cont(h), which is at most xi/2 in size: q is constant.  A constant h
    therefore means gcd 1 with no check; otherwise exact division checks
    pp(h).  When that fails, xi grows (six times at most) before the
    remainder sequence runs.  Both routes return the same normal form."""
    if not f and not g:
        return {}
    if not f:
        return _mp_normal(base, g)[0]
    if not g:
        return _mp_normal(base, f)[0]
    nv = len(next(iter(f)))
    v = -1
    for i in range(nv - 1, -1, -1):
        if _mv_deg(f, i) > 0 or _mv_deg(g, i) > 0:
            v = i
            break
    if v < 0:
        return mp_const(base, base.one(), nv)
    if isinstance(base, Integers) and all(sum(e) == e[v] for e in itertools.chain(f, g)):
        h = _heu_gcd(f, g, v)
        if h is not None:
            return h
    cf, pf = _mp_content_pp(base, f, v)
    cg, pg = _mp_content_pp(base, g, v)
    cont = mp_gcd(base, cf, cg)
    a, b = pf, pg
    while True:
        r = _mp_prem(base, a, b, v)
        if not r:
            break
        _, r = _mp_content_pp(base, r, v)
        a, b = b, r
    return _mp_normal(base, mp_mul(base, cont, b))[0]


def _heu_gcd(f: dict, g: dict, v: int) -> dict | None:
    """GCDHEU for f, g in Z[x_v] (see ``mp_gcd``), or None if it fails."""
    nv = len(next(iter(f)))
    fs, gs = _zz_dense_pp(f, v), _zz_dense_pp(g, v)
    xi = 2 * min(max(map(abs, fs)), max(map(abs, gs))) + 2
    for _ in range(6):
        h, n = [], math.gcd(_zz_eval(fs, xi), _zz_eval(gs, xi))
        while n:
            d = n % xi
            if d > xi // 2:
                d -= xi
            h.append(d)
            n = (n - d) // xi
        if len(h) == 1:
            return mp_const(ZZ, 1, nv)
        c = math.gcd(*h) if h[-1] > 0 else -math.gcd(*h)
        h = [d // c for d in h]
        if _zz_divides(fs, h) and _zz_divides(gs, h):
            return {tuple(d if i == v else 0 for i in range(nv)): x for d, x in enumerate(h) if x}
        xi = xi * 73794 // 27011
    return None


def _zz_dense_pp(f: dict, v: int) -> list:
    """Primitive part of f in Z[x_v] as a coefficient list, constant first."""
    out = [0] * (_mv_deg(f, v) + 1)
    for e, c in f.items():
        out[e[v]] = c
    cont = math.gcd(*out)
    return [c // cont for c in out]


def _zz_eval(p: list, x: int) -> int:
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _zz_divides(p: list, h: list) -> bool:
    """Whether h divides p in Z[x], by long division; lists constant first."""
    m = len(h) - 1
    r = list(p)
    for i in range(len(p) - 1, m - 1, -1):
        q, rem = divmod(r[i], h[m])
        if rem:
            return False
        if q:
            for j in range(m):
                r[i - m + j] -= q * h[j]
    return not any(r[:m])


def _mp_normal(base: Domain, f: dict, *cofactors: dict) -> tuple:
    """f in normal form, then each cofactor divided by the same unit.

    The normal form is primitive with a positive leading coefficient over
    Z, and monic over any other base, which inverts the leading
    coefficient: a zero divisor of a quotient ring raises
    :class:`ZeroDivisorError`.  Over Z the content is taken over f and the
    cofactors together, so ``_mp_normal(ZZ, den, num)`` also cancels the
    integer content that a fraction num/den shares."""
    lc = f[mp_lead(f)]
    if not isinstance(base, Integers):
        if base.is_one(lc):
            return (f,) + cofactors
        inv = base.inv(lc)
        return tuple(mp_scale(base, g, inv) for g in (f,) + cofactors)
    c = math.gcd(*f.values(), *(x for g in cofactors for x in g.values()))
    if lc < 0:
        c = -c
    if c == 1:
        return (f,) + cofactors
    return tuple({e: x // c for e, x in g.items()} for g in (f,) + cofactors)


def _is_const(f: dict) -> bool:
    """Whether the nonzero term dict f is a constant."""
    return len(f) == 1 and not any(next(iter(f)))


def _cross_gcd(base: Domain, f: dict, g: dict) -> dict | None:
    """``mp_gcd(base, f, g)`` for nonzero f and g, or None when it is a
    constant.  A constant operand takes no gcd: its only common factor
    with the other is integer content, which ``_mp_normal`` cancels."""
    if _is_const(f) or _is_const(g):
        return None
    h = mp_gcd(base, f, g)
    return None if _is_const(h) else h


def _mp_content_pp(base: Domain, f: dict, v: int) -> tuple[dict, dict]:
    """(content, primitive part) of f along variable v, both in normal form.

    f equals content * primitive part up to a unit; the primitive part is
    normalized so that no scale survives into the next step of
    ``mp_gcd``'s remainder sequence."""
    deg = _mv_deg(f, v)
    if deg <= 0:
        return _mp_normal(base, f)[0], mp_const(base, base.one(), len(next(iter(f))))
    coeffs = [_mv_coeff(f, v, d) for d in range(deg + 1)]
    cont: dict = {}
    for c in coeffs:
        if c:
            cont = mp_gcd(base, cont, c)
        if mp_total_deg(cont) == 0 and cont:
            break
    pp = mp_exact_div(base, f, cont)
    assert pp is not None
    return cont, _mp_normal(base, pp)[0]


def _mp_prem(base: Domain, a: dict, b: dict, v: int) -> dict:
    """Pseudo-remainder of a by b along variable v (content-agnostic)."""
    da, db = _mv_deg(a, v), _mv_deg(b, v)
    lb = _mv_coeff(b, v, db)
    r = dict(a)
    dr = da
    while r and dr >= db:
        lr = _mv_coeff(r, v, dr)
        r = mp_sub(
            base,
            mp_mul(base, r, lb),
            mp_mul(base, _mv_shift(lr, v, dr - db), b),
        )
        dr = _mv_deg(r, v)
    return r


def mp_fmt(base: Domain, f: dict, names: tuple[str, ...], atom: bool = False) -> str:
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=_grlex_key, reverse=True):
        monos = []
        for name, exp in zip(names, e):
            if exp == 1:
                monos.append(name)
            elif exp:
                monos.append(f"{name}^{exp}")
        parts.append(_format_term(base, f[e], "*".join(monos), first=not parts))
    s = "".join(parts)
    if atom and (len(parts) > 1 or s.startswith("-")):
        return f"({s})"
    return s


def _dense_terms(base: Domain, coeffs: dict[int, El], var: str) -> list[str]:
    """The nonzero terms of sum coeffs[e] var^e, highest power first."""
    parts: list[str] = []
    for e in sorted(coeffs, reverse=True):
        if not base.is_zero(coeffs[e]):
            mono = var if e == 1 else (f"{var}^{e}" if e else "")
            parts.append(_format_term(base, coeffs[e], mono, first=not parts))
    return parts


def _format_term(base: Domain, c: El, mono: str, first: bool) -> str:
    """One term 'c*mono' with sign folding for single-term coefficients."""
    s = base.fmt(c)
    if " " not in s and s.startswith("-"):
        sign, body = "-", s[1:]
    else:
        sign = "+"
        body = f"({s})" if " " in s else s
    if sign == "+":
        joiner = "" if first else " + "
    else:
        joiner = "-" if first else " - "
    if not mono:
        return f"{joiner}{body}"
    if body == "1":
        return f"{joiner}{mono}"
    return f"{joiner}{body}*{mono}"


class FunctionField(Domain):
    """Rational functions in named parameters over a field base.

    Elements are pairs ``(num, den)`` of term dicts over ``ring``, reduced
    to the canonical form of the ``Domain`` contract.  Over Q the
    ring is Z: num and den are coprime in Z[params], integer content
    included, and den has a positive graded-lex leading coefficient.  Over
    any other field the ring is the base and den is monic (graded-lex
    leading coefficient 1).  ``from_base``, ``from_poly`` and ``fmt`` speak
    in base values: over Q, ``fmt`` divides num and den by the leading
    coefficient of den, so it prints the monic-denominator form.

    ``mul`` and ``add`` reduce the factors, not the product, by Henrici's
    rule (JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1), which holds over any
    gcd domain.  For reduced n1/d1 and n2/d2:

    * n1/d1 * n2/d2 = (n1/g1)(n2/g2) / ((d1/g2)(d2/g1)) with
      g1 = gcd(n1, d2) and g2 = gcd(n2, d1), and that pair is reduced;
    * n1/d1 + n2/d2, with g = gcd(d1, d2) and
      t = n1 (d2/g) + n2 (d1/g), is (t/h) / ((d1/g)(d2/h)) with
      h = gcd(t, g): a prime factor of t divides neither d1/g nor d2/g.

    So no gcd of a product is taken, and a gcd with a constant operand is
    skipped; over Z the integer content the two parts still share is
    cancelled by ``_reduce``.  ``sub``, ``div`` and ``exact_div`` go
    through these two.
    """

    is_field = True

    def __init__(self, base: Domain, names: tuple[str, ...]):
        if not base.is_field:
            raise ValueError("function field requires a field base")
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.base = base
        self.ring = ZZ if isinstance(base, Rationals) else base
        self.names = tuple(names)
        self.nvars = len(names)
        self.char = base.char
        # the denominator 1, compared against on every sum and product; set
        # here, as an attribute added later slows every attribute read
        self._unit = {(0,) * self.nvars: self.ring.one()}

    # construction

    def zero(self):
        return ({}, self._one_dict())

    def one(self):
        return (self._one_dict(), self._one_dict())

    def _one_dict(self):
        return dict(self._unit)

    def from_int(self, n):
        return (mp_const(self.ring, self.ring.from_int(n), self.nvars), self._one_dict())

    def from_base(self, c):
        return self.from_poly(mp_const(self.base, c, self.nvars))

    def param(self, name: str):
        return (mp_gen(self.ring, self.names.index(name), self.nvars), self._one_dict())

    def from_poly(self, terms: dict):
        """The polynomial with base coefficients ``terms``; zero
        coefficients are dropped."""
        terms = {e: c for e, c in terms.items() if not self.base.is_zero(c)}
        if self.ring is self.base:
            return self._reduce(terms, self._one_dict())
        den = math.lcm(*(int(c.denominator) for c in terms.values()))
        num = {e: int(c.numerator) * (den // int(c.denominator)) for e, c in terms.items()}
        return self._reduce(num, {(0,) * self.nvars: den})

    # canonical reduction

    def _reduce(self, num: dict, den: dict):
        """The canonical pair of num/den, for num and den with no common
        factor of positive degree: only a unit is divided out, over Z the
        integer content the two share and the sign of den."""
        if not num:
            return self.zero()
        den, num = _mp_normal(self.ring, den, num)
        return (num, den)

    def _base_pair(self, a):
        """(num, den) over the base with den monic: ``a`` itself unless the
        ring is Z, where both are divided by the leading coefficient of den."""
        if self.ring is self.base:
            return a
        num, den = a
        lc = den[mp_lead(den)]
        return ({e: mpq(c, lc) for e, c in num.items()}, {e: mpq(c, lc) for e, c in den.items()})

    def constant(self, a):
        """The base value of a constant element, else None."""
        num, den = a
        if len(den) != 1 or len(num) > 1 or any(next(iter(den))) or (num and any(next(iter(num)))):
            return None
        num, den = self._base_pair(a)
        return num.get((0,) * self.nvars, self.base.zero())

    # arithmetic

    def add(self, a, b):
        """The sum by Henrici's rule (see the class docstring).  A
        denominator 1 needs no gcd, and equal denominators skip the first."""
        ring, unit = self.ring, self._unit
        n1, d1 = a
        n2, d2 = b
        if d1 == unit:
            if d2 == unit:
                return (mp_add(ring, n1, n2), d1)
            n1, d1, n2, d2 = n2, d2, n1, d1
        if d2 == unit:
            # n1 + n2 d1 shares no factor with d1, integer content included
            return (mp_add(ring, n1, mp_mul(ring, n2, d1)), d1)
        if d1 == d2:
            t, g, e1 = mp_add(ring, n1, n2), d1, None
        else:
            g = _cross_gcd(ring, d1, d2)
            if g is None:
                num = mp_add(ring, mp_mul(ring, n1, d2), mp_mul(ring, n2, d1))
                return self._reduce(num, mp_mul(ring, d1, d2))
            e1 = mp_exact_div(ring, d1, g)
            t = mp_add(ring, mp_mul(ring, n1, mp_exact_div(ring, d2, g)), mp_mul(ring, n2, e1))
        if not t:
            return self.zero()
        g2 = _cross_gcd(ring, t, g)
        if g2 is not None:
            t, d2 = mp_exact_div(ring, t, g2), mp_exact_div(ring, d2, g2)
        return self._reduce(t, d2 if e1 is None else mp_mul(ring, e1, d2))

    def neg(self, a):
        return (mp_neg(self.ring, a[0]), a[1])

    def mul(self, a, b):
        """The product by Henrici's rule (see the class docstring).  No gcd
        is taken when both denominators are one or the operands are equal:
        the square of a reduced pair is reduced, as in ``pow``."""
        ring, unit = self.ring, self._unit
        n1, d1 = a
        n2, d2 = b
        if d1 == unit and d2 == unit:
            return (mp_mul(ring, n1, n2), d1)
        if a == b:
            return (mp_mul(ring, n1, n1), mp_mul(ring, d1, d1))
        if not n1 or not n2:
            return self.zero()
        g1 = _cross_gcd(ring, n1, d2)
        if g1 is not None:
            n1, d2 = mp_exact_div(ring, n1, g1), mp_exact_div(ring, d2, g1)
        g2 = _cross_gcd(ring, n2, d1)
        if g2 is not None:
            n2, d1 = mp_exact_div(ring, n2, g2), mp_exact_div(ring, d1, g2)
        return self._reduce(mp_mul(ring, n1, n2), mp_mul(ring, d1, d2))

    def inv(self, a):
        """(den, num) rescaled to the canonical form; num and den are
        coprime already, so no gcd is needed."""
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of zero")
        num, den = _mp_normal(self.ring, num, den)
        return (den, num)

    def pow(self, a, n):
        """a**n as (num^n, den^n) by binary powering, with no gcd: powers
        of coprime polynomials stay coprime, integer contents included, and
        the leading coefficient of den^n stays 1 or positive.  A
        denominator 1 is its own power."""
        if n < 0:
            a, n = self.inv(a), -n
        if n == 0:
            return self.one()
        ring = self.ring

        def power(f):
            out = f
            for bit in bin(n)[3:]:
                out = mp_mul(ring, out, out)
                if bit == "1":
                    out = mp_mul(ring, out, f)
            return out

        num, den = a
        return (power(num), den if den == self._unit else power(den))

    def powers(self, a, n):
        """[a^0, ..., a^n] by ``pow``'s rule: each (num^k, den^k) is the one
        before it times (num, den), with no gcd, and a denominator 1 stays
        as it is."""
        ring = self.ring
        num, den = a
        one_den = den == self._unit
        out = [self.one()]
        if n:
            out.append(a)
        for _ in range(n - 1):
            pn, pd = out[-1]
            out.append((mp_mul(ring, pn, num), pd if one_den else mp_mul(ring, pd, den)))
        return out

    def exact_div(self, a, b):
        ring, unit = self.ring, self._unit
        n1, d1 = a
        n2, d2 = b
        if d1 == unit and d2 == unit:
            if not n2:
                raise ZeroDivisionError("division by zero")
            q = mp_exact_div(ring, n1, n2)
            if q is not None:
                return (q, d1)
        return self.div(a, b)

    def is_zero(self, a):
        return not a[0]

    def is_one(self, a):
        return a[1] == self._unit and a[0] == self._unit

    def key(self, a):
        kb = self.ring.key
        num, den = a
        return (
            tuple(sorted((e, kb(c)) for e, c in num.items())),
            tuple(sorted((e, kb(c)) for e, c in den.items())),
        )

    def fmt(self, a, atom=False):
        num, den = self._base_pair(a)
        if den == {(0,) * self.nvars: self.base.one()}:
            return mp_fmt(self.base, num, self.names, atom=atom)
        ns = mp_fmt(self.base, num, self.names, atom=True)
        ds = mp_fmt(self.base, den, self.names, atom=True)
        s = f"{ns}/{ds}"
        return f"({s})" if atom else s

    def nth_root(self, a, n):
        if not a[0]:
            return self.zero() if n > 0 else None
        c = self.constant(a)
        if c is None:
            return None
        r = self.base.nth_root(c, n)
        return self.from_base(r) if r is not None else None

    def _signature(self):
        return ("rf", self.base._signature(), self.names)

    def __repr__(self):
        return f"{self.base!r}({', '.join(self.names)})"


# ---------------------------------------------------------------------------
# structural embeddings between compatible domains
# ---------------------------------------------------------------------------


def embed(src: Domain, dst: Domain, raw: El) -> El:
    """Lift a raw value of ``src`` into the structurally larger ``dst``.

    Supported lifts: identity; rationals into any characteristic-zero
    domain; a prime field into towers over it; a quotient ring or function
    field into one built over it; a function field into one with an extended
    parameter list (existing names must form a prefix) or a larger base.
    """
    if src == dst:
        return raw
    if isinstance(dst, QuotientRing):
        return dst.from_base(embed(src, dst.base, raw))
    if isinstance(dst, FunctionField):
        if isinstance(src, FunctionField):
            if src.names != dst.names[: src.nvars]:
                raise DomainMismatchError(f"cannot embed {src!r} into {dst!r}")
            pad = dst.nvars - src.nvars
            num, den = src._base_pair(raw)
            lift = lambda d: dst.from_poly({
                e + (0,) * pad: embed(src.base, dst.base, c) for e, c in d.items()
            })
            return dst.div(lift(num), lift(den))
        return dst.from_base(embed(src, dst.base, raw))
    raise DomainMismatchError(f"cannot embed {src!r} into {dst!r}")


def rational_projection(domain: Domain, raw: El):
    """The coefficient of 1 in the tower-basis expansion of a raw value, as
    a rational, or None when undefined (finite characteristic, genuine
    parameter dependence)."""
    if isinstance(domain, Rationals):
        return raw
    if isinstance(domain, QuotientRing):
        if domain._over_q:
            nums, den = raw
            return mpq(nums[0], den)
        return rational_projection(domain.leaf, raw[0])
    if isinstance(domain, FunctionField):
        c = domain.constant(raw)
        return None if c is None else rational_projection(domain.base, c)
    return None


def common_rational(domain: Domain, raw: El):
    """Return the value as a rational if it lies in the prime subfield Q,
    else None.  Used to compare invariants across unrelated towers."""
    q = rational_projection(domain, raw)
    if q is None or not domain.eq(embed(QQ, domain, q), raw):
        return None
    return q


# ---------------------------------------------------------------------------
# reduction modulo a prime: int lists over F_p, root chains, step
# certificates and the one image routine
# ---------------------------------------------------------------------------

# a step that no odd prime below this bound certifies stays uncertified
_CERT_PRIME_BOUND = 1000


def _fp_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b mod the monic m over F_p, for int lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(m) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out.pop() % p
        if c:
            for i in range(d):
                out[k - d + i] -= c * m[i]
    return _fp_trim([v % p for v in out])


def _fp_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder over F_p of int lists, constant term first;
    b is trimmed and nonzero, and both results are reduced and trimmed."""
    rem, db = list(a), len(b) - 1
    s = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem.pop() * s % p
        if c:
            quo[k - db] = c
            for i in range(db):
                rem[k - db + i] -= c * b[i]
    return _fp_trim(quo), _fp_trim([v % p for v in rem])


def _fp_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p, by Euclid, of two reduced and trimmed int
    lists, constant term first; [] when both are zero."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    s = pow(a[-1], -1, p)
    return [v * s % p for v in a]


def _fp_powmod(c: int, n: int, m: list, p: int) -> list:
    """(x + c)^n mod the monic m over F_p, for deg m >= 1."""
    d = len(m) - 1
    out = [1]
    for bit in bin(n)[2:]:
        out = _fp_mulmod(out, out, m, p)
        if bit == "1":
            # times x + c: a shift, c times out, one reduction step
            out = [0] + out
            for i in range(len(out) - 1):
                out[i] += c * out[i + 1]
            if len(out) > d:
                top = out.pop()
                for i in range(d):
                    out[i] -= top * m[i]
            out = _fp_trim([v % p for v in out])
    return out


def _fp_minus_x(a: list, p: int) -> list:
    """a - x over F_p."""
    a = a + [0] * (2 - len(a))
    a[1] = (a[1] - 1) % p
    return _fp_trim(a)


def _fp_squarefree(f: list, p: int) -> bool:
    """Whether the reduced and trimmed int list f is squarefree over F_p:
    prime to its derivative."""
    return len(_fp_gcd(f, _fp_trim([e * c % p for e, c in enumerate(f)][1:]), p)) == 1


def _fp_roots(f: list, p: int) -> list[int]:
    """The roots in F_p of the int list f of degree >= 1, for an odd prime
    p, sorted, by Cantor and Zassenhaus (Math. Comp. 36, 1981): the gcd g of
    f and x^p - x is the product of f's distinct linear factors, and a gcd
    of g and (x + a)^((p - 1)/2) - 1 splits it for about half the a in
    F_p, so the search for a ends."""

    def split(g):
        if len(g) <= 2:
            return [-g[0] % p] if len(g) == 2 else []
        for a in itertools.count():
            h = _fp_powmod(a, (p - 1) // 2, g, p)
            d = _fp_gcd(g, _fp_trim([(h[0] - 1) % p] + h[1:]), p)
            if 1 < len(d) < len(g):
                return split(d) + split(_fp_divmod(g, d, p)[0])

    return sorted(split(_fp_gcd(f, _fp_minus_x(_fp_powmod(0, p, f, p), p), p)))


def _fp_irreducible(f: list, p: int) -> bool:
    """Whether the monic int list f of degree n >= 2 is irreducible over
    F_p, by Rabin's test (SIAM J. Comput. 9, 1980): x^(p^n) = x mod f, and
    x^(p^(n/q)) - x is prime to f for every prime q dividing n."""
    n = len(f) - 1
    if _fp_minus_x(_fp_powmod(0, p**n, f, p), p):
        return False
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    return all(len(_fp_gcd(f, _fp_minus_x(_fp_powmod(0, p ** (n // q), f, p), p), p)) == 1 for q in primes)


def _least_irreducible(p: int, t: int) -> tuple:
    """The first monic irreducible of degree t >= 2 over F_p (Rabin's test),
    constant term first, its lower coefficients taken in the order of
    ``itertools.product`` from the x^(t-1) coefficient down."""
    monics = (tail[::-1] + (1,) for tail in itertools.product(range(p), repeat=t))
    return next(m for m in monics if _fp_irreducible(list(m), p))


def multiplicative_generator(dom: Domain) -> El:
    """The first element of a finite field, in ``iter_elements`` order,
    that generates its multiplicative group: g^((q - 1)/r) != 1 for every
    prime r dividing q - 1."""
    n = dom.order - 1  # type: ignore[attr-defined]
    cofactors = [n // r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
    return next(g for g in dom.iter_elements()
                if not dom.is_zero(g) and not any(dom.is_one(dom.pow(g, e)) for e in cofactors))


def _q_roots(coeffs: list) -> list:
    """Every rational root of sum coeffs[i] z^i (rational coefficients, not
    all zero), ordered by |numerator|, denominator, then sign, positive
    first.

    p-adic lifting (Loos, SIAM J. Comput. 12, 1983), on ints throughout:
    the squarefree part of the cleared polynomial (``mp_gcd`` over Z) has
    only simple roots modulo an odd prime p above its degree that divides
    neither its lead nor its discriminant, so each root mod p
    (``_fp_roots``) lifts by Newton's iteration to one p-adic root.  A
    rational root y/q in lowest terms has q | lead, so lead * root is an
    integer of absolute value at most |lead| + max |c_i| (Cauchy's bound);
    once the modulus exceeds twice that, the symmetric residue of lead *
    root is exact.
    """
    den = math.lcm(*(int(c.denominator) for c in coeffs))
    f = {(e,): int(c * den) for e, c in enumerate(coeffs) if c}
    ints = _zz_dense_pp(mp_exact_div(ZZ, f, mp_gcd(ZZ, f, {(e - 1,): e * c for (e,), c in f.items() if e})), 0)
    roots = []
    if ints[0] == 0:  # squarefree: z divides at most once
        roots.append(mpq(0))
        ints = ints[1:]
    n, lead = len(ints) - 1, ints[-1]
    if n == 0:
        return roots
    p = (n + 1) | 1
    while not (_is_prime(p) and lead % p and _fp_squarefree([c % p for c in ints], p)):
        p += 2
    deriv = [e * c for e, c in enumerate(ints)][1:]
    bound = 2 * (abs(lead) + max(map(abs, ints)))
    inv = pow(lead, -1, p)
    for r in _fp_roots([c * inv % p for c in ints], p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _zz_eval(ints, r) * pow(_zz_eval(deriv, r), -1, m)) % m
        y = lead * r % m
        cand = mpq(y - m if 2 * y > m else y, lead)
        if _zz_divides(ints, [-int(cand.numerator), int(cand.denominator)]):
            roots.append(cand)
    return sorted(roots, key=lambda q: (abs(q.numerator), q.denominator, q < 0))


def _raw_map(dom: Domain, p: int, vals: list | None) -> Any:
    """The map mod p on raws of Q or of a tower over Q, which raises
    ValueError when p divides a raw's denominator.  With vals, the values
    mod p of the flat basis at a root chain ([1] over Q), a raw goes to one
    residue; without, a tower's raw goes to the tuple of its leaf residues."""
    over_q = isinstance(dom, Rationals)

    def reduce(raw):
        nums, den = ((int(raw.numerator),), int(raw.denominator)) if over_q else raw
        if den == 1:
            s = 1
        elif den % p:
            s = pow(den, -1, p)
        else:
            raise ValueError("prime divides a denominator")
        if vals is None:
            return tuple(n * s % p for n in nums)
        return sum(map(operator.mul, nums, vals)) * s % p

    return reduce


def _modulus_mod_p(dom: QuotientRing, vals: list, p: int) -> list | None:
    """The image of dom's modulus at the root chain vals of its base, or
    None when p divides a denominator of it."""
    try:
        return list(map(_raw_map(dom.base, p, vals), dom.minpoly))
    except ValueError:
        return None


def _kept(dom: Domain, key, make) -> Any:
    """make(), computed once per (domain, key) and kept on the domain:
    certificates, root chains, primes and images.  A ``QuotientRing`` with
    a shared table (``_table_for``) keeps them in the table's ``kept``
    dict, so equal towers, such as the tower a CLI request rebuilds for
    each ``--ext``, search once per process, and the dict lives as long as
    the table stays in ``_TABLES``; any other ``QuotientRing`` makes its
    own dict when it is built, and Q makes it here."""
    kept = vars(dom).setdefault("_kept", {})
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _root_chains(dom: Domain, p: int) -> Iterator[list]:
    """Every root chain of Q or of a tower over Q at the odd prime p, as the
    values mod p of the flat basis.  A root chain sends each generator to a
    root mod p of its modulus at the chain below.  p divides no denominator
    of a modulus, and each modulus on the chain stays squarefree mod p."""
    if isinstance(dom, Rationals):
        yield [1]
        return
    base = dom.base
    # a tower base keeps its chains for sibling towers and deeper steps
    below = [[1]] if isinstance(base, Rationals) else _kept(base, ("chains", p), lambda: list(_root_chains(base, p)))
    for vals in below:
        m = _modulus_mod_p(dom, vals, p)
        if m is None or not _fp_squarefree(m, p):
            continue
        for r in _fp_roots(m, p):
            powers = [pow(r, e, p) for e in range(dom.degree)]
            yield [w * v % p for w in powers for v in vals]


def _certified_field(dom: Domain) -> bool:
    """Whether dom is known to be a field: Q, F_p, or a tower over Q whose
    every step is certified irreducible, kept on the domain once decided.
    One quadratic step over Q is certified by its discriminant, which is
    not a square.  Any other step is certified when its modulus is
    irreducible mod p at a root chain of its base, for an odd prime p below
    ``_CERT_PRIME_BOUND`` (the theorem in the module docstring)."""
    if isinstance(dom, (Rationals, PrimeField)):
        return True
    if not (isinstance(dom, QuotientRing) and dom._over_q):
        return False

    def certify():
        if dom.degree == 2 and isinstance(dom.base, Rationals):
            c, b, _ = dom.minpoly
            return QQ.nth_root(b * b - 4 * c, 2) is None
        return _certified_field(dom.base) and any(
            (m := _modulus_mod_p(dom, vals, p)) is not None and _fp_irreducible(m, p)
            for p in range(3, _CERT_PRIME_BOUND, 2) if _is_prime(p)
            for vals in _root_chains(dom.base, p))

    return _kept(dom, "certificate", certify)


def _image_primes(dom: Domain) -> Iterator[int]:
    """The primes at which coprimality over dom is tried, in order: the
    first three below 2^31 at which dom has an image (``_mod_p_image``),
    each found when it is first asked for and kept on the domain.  Only Q
    and towers over Q have images."""
    if not (isinstance(dom, Rationals) or isinstance(dom, QuotientRing) and dom._over_q):
        return

    def has_image(q):
        try:
            return _is_prime(q) and bool(_mod_p_image(dom, q))
        except ValueError:
            return False

    found = _kept(dom, "primes", list)
    for k in range(3):
        if k == len(found):
            below = found[-1] - 2 if found else 2**31 - 1
            found.append(next(q for q in range(below, 2, -2) if has_image(q)))
        yield found[k]


def _mod_p_image(dom: Domain, p: int) -> tuple[Domain, Any]:
    """The image of Q, or of a tower over Q, modulo the prime p, with its
    map on raws, which raises ValueError when p divides the denominator of
    a raw.  A certified tower maps to F_p, for an odd p, by its first root
    chain at p, and raises ValueError where it has none; Q and every other
    tower map to their tower image (:func:`_tower_image`).  Kept on the
    domain."""
    if not (isinstance(dom, QuotientRing) and _certified_field(dom)):
        return _tower_image(dom, p)

    def build():
        vals = next(_root_chains(dom, p), None)
        return None if vals is None else (PrimeField(p), _raw_map(dom, p, vals))

    image = _kept(dom, ("image", p), build)
    if image is None:
        raise ValueError("no root chain at this prime")
    return image


def _tower_image(dom: Domain, p: int) -> tuple[Domain, Any]:
    """F_p for Q, or for a tower over Q the tower over F_p with each modulus
    reduced, with its map on raws; kept on the domain."""
    if isinstance(dom, Rationals):
        return _kept(dom, ("tower", p), lambda: (PrimeField(p), _raw_map(dom, p, [1])))
    if not (isinstance(dom, QuotientRing) and dom._over_q):
        raise ValueError("no modular image for this domain")

    def build():
        base_p, base_reduce = _tower_image(dom.base, p)
        image = QuotientRing(base_p, dom.name, tuple(map(base_reduce, dom.minpoly)), field=True)
        # The image inverts by conjugates where its source does; every
        # route returns a true inverse or raises, so a gcd mod p that runs
        # through is certified even where the image is no field.  A source
        # that may raise ZeroDivisorError on a unit (Euclid over an
        # uncertified base) keeps Euclid in its image, so no verdict hides
        # that error.
        image._flat_inv = dom._flat_inv and image._table is not None
        return image, _raw_map(dom, p, None)

    return _kept(dom, ("tower", p), build)


def tower_chain(domain: Domain) -> list[Domain]:
    """The chain of domains from the prime field up to ``domain``."""
    chain = [domain]
    cur = domain
    while isinstance(cur, (QuotientRing, FunctionField)):
        cur = cur.base
        chain.append(cur)
    chain.reverse()
    return chain
