"""Exact coefficient domains.

Supported domains, with the raw Python value used for their elements:

* ``Rationals``         -- arbitrary-precision rationals (``gmpy2.mpq`` when
                           available, ``fractions.Fraction`` otherwise)
* ``PrimeField(p)``     -- residues stored as ``int`` in ``[0, p)``
* ``QuotientRing``      -- one extension step ``K[t]/(m(t))``; elements are
                           flat tuples of raws of the tower's bottom domain
* ``FunctionField``     -- rational functions in named parameters over a
                           field; elements are reduced ``(num, den)`` pairs
                           of term dicts ``{exponent tuple: raw}``; over Q
                           the raws are ``int`` (numerator and denominator
                           in Z[params], coprime), over any other field
                           they are base raws

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
monic-denominator form over Q.

A tower whose chain ends at ``Rationals`` multiplies through an integer
multiplication table (Cohen, GTM 138, 4.2), built once per tower and shared
by equal towers: the rational coordinates of both operands are cleared of
denominators, multiplied as integers through the table and divided once.
Its inverse solves the multiplication matrix fraction-free when the top
step's base is a certified field (Q, or one quadratic step over Q whose
discriminant is not a rational square).  A singular matrix, or any other
base, falls back to extended Euclid, which raises :class:`ZeroDivisorError`
with its factor.  Towers over a prime field or a ``FunctionField``, and
towers over Q of total degree above 64, multiply stepwise by the schoolbook
product over each base.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Iterator, NamedTuple

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
    """Abstract base for coefficient domains."""

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
        """Division known to be exact in the domain (used by fraction-free
        elimination); the default works for fields."""
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

    def is_zero(self, a: El) -> bool:
        return self.eq(a, self.zero())

    def is_one(self, a: El) -> bool:
        return self.eq(a, self.one())

    # -- misc ------------------------------------------------------------

    def key(self, a: El):
        """Hashable canonical key of a raw value."""
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
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def is_one(self, a):
        return a % self.p == 1

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
# dense univariate helpers over an arbitrary base domain (coefficient lists,
# constant term first) -- shared by QuotientRing reduction and inversion
# ---------------------------------------------------------------------------


def _ul_deg(base: Domain, c: list) -> int:
    for i in range(len(c) - 1, -1, -1):
        if not base.is_zero(c[i]):
            return i
    return -1


def _ul_divmod(base: Domain, a: list, b: list) -> tuple[list, list]:
    """Long division of coefficient lists; leading coeff of b must be invertible."""
    db = _ul_deg(base, b)
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    lead_inv = base.inv(b[db])
    rem = list(a)
    dr = _ul_deg(base, rem)
    quo = [base.zero()] * max(dr - db + 1, 0)
    while dr >= db:
        f = base.mul(rem[dr], lead_inv)
        quo[dr - db] = f
        for i in range(db + 1):
            rem[dr - db + i] = base.sub(rem[dr - db + i], base.mul(f, b[i]))
        dr = _ul_deg(base, rem)
    return quo, rem


# ---------------------------------------------------------------------------
# integer multiplication tables for towers over Q (Cohen, GTM 138, 4.2)
# ---------------------------------------------------------------------------


class _MulTable(NamedTuple):
    """Structure constants of a tower over Q in its flat basis.

    The flat basis is the products of generator powers, in the order in
    which an element's coordinate tuple lists its rational leaves.  For
    basis elements e_i, e_j, ``rows[i][j]`` holds the pairs (k, c) with
    e_i * e_j = sum of c * e_k / ``den``; the c are integers.
    """

    den: int
    rows: tuple


# tower signature -> _MulTable, shared by equal towers
_TABLES: dict = {}
# a table holds up to D^3 integers; towers of larger total degree D (none
# in the catalog, whose largest is 16) multiply by the schoolbook product
_TABLE_MAX_DIM = 64
_ZERO = mpq(0)


def _int_coords(flat) -> tuple[list, int]:
    """The nonzero leaves as (index, integer) pairs over one common
    denominator, and that denominator."""
    nz = []
    den = 1
    for i, c in enumerate(flat):
        if c:
            nz.append((i, c))
            d = c.denominator
            if d != 1 and den % d:
                den = math.lcm(den, d)
    if den == 1:
        return [(i, c.numerator) for i, c in nz], 1
    return [(i, c.numerator * (den // c.denominator)) for i, c in nz], den


def _from_ints(nums, den) -> tuple:
    """The rationals n / den, with one shared zero."""
    if den == 1:
        return tuple(mpq(n) if n else _ZERO for n in nums)
    return tuple(mpq(n, den) if n else _ZERO for n in nums)


def _build_table(ring: "QuotientRing") -> _MulTable:
    """The table of a tower over Q, from schoolbook products of its basis."""
    dim = ring.dim
    one = mpq(1)
    basis = [tuple(one if k == i else _ZERO for k in range(dim)) for i in range(dim)]
    prods = {}
    for i in range(dim):
        for j in range(i, dim):
            prods[i, j] = ring._schoolbook_mul(basis[i], basis[j])
    den = math.lcm(*(c.denominator for v in prods.values() for c in v))
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), v in prods.items():
        rows[i][j] = rows[j][i] = tuple(
            (k, c.numerator * (den // c.denominator)) for k, c in enumerate(v) if c)
    return _MulTable(den, tuple(map(tuple, rows)))


def _table_for(ring: "QuotientRing") -> _MulTable | None:
    """The shared table of a tower over Q of total degree at most
    ``_TABLE_MAX_DIM``, else None.  The chain test comes first, so that
    only towers over Q compute their signature."""
    if not isinstance(ring.leaf, Rationals) or ring.dim > _TABLE_MAX_DIM:
        return None
    sig = ring._signature()
    table = _TABLES.get(sig)
    if table is None:
        table = _TABLES[sig] = _build_table(ring)
    return table


def _certified_field(dom: Domain) -> bool:
    """Whether dom is known to be a field: Q, or one quadratic step over Q
    whose discriminant is not a square in Q."""
    if isinstance(dom, Rationals):
        return True
    if isinstance(dom, QuotientRing) and dom.degree == 2 and isinstance(dom.base, Rationals):
        c, b, _ = dom.minpoly
        return QQ.nth_root(mpq(b * b - 4 * c), 2) is None
    return False


class QuotientRing(Domain):
    """One extension step K[t]/(m(t)) with monic modulus m.

    An element is one flat tuple of ``dim`` raws of the ``leaf`` domain,
    the first domain down the chain that is not a quotient ring: the
    ``deg m`` base elements that are its coordinates in increasing powers
    of the generator, each itself flat, laid end to end, so the innermost
    generator varies fastest.  Only this module knows that layout; other
    code reads the base coordinates through :meth:`coords`.  The base must
    support inversion of the elements met during extended-gcd inversion; a
    field base always does.  Inverting a nonzero noninvertible element
    raises :class:`ZeroDivisorError` with a discovered proper factor of
    ``m``.

    Over Q (every step of the chain a ``QuotientRing``, the bottom Q),
    ``mul`` goes through the tower's integer table, reducible moduli
    included.  ``inv`` solves the table's multiplication matrix when the
    base is a certified field, and takes extended Euclid when the matrix is
    singular or the base is not certified: a unit can meet a zero-divisor
    leading coefficient in Euclid over a non-field base, and that error is
    part of the contract.
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
        self._table = _table_for(self)
        self._flat_inv = self._table is not None and _certified_field(base)

    def coords(self, a) -> tuple:
        """The ``deg m`` base coordinates of a, constant term first."""
        w = self._step
        if w == 1:
            return a
        return tuple(a[i:i + w] for i in range(0, self.dim, w))

    def _join(self, coords) -> tuple:
        """Inverse of :meth:`coords`."""
        if self._step == 1:
            return tuple(coords)
        return tuple(x for c in coords for x in c)

    def zero(self):
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
        lst = list(coeffs)
        if len(lst) < self.degree:
            lst += [self.base.zero()] * (self.degree - len(lst))
        if _ul_deg(self.base, lst) >= self.degree:
            _, lst = _ul_divmod(self.base, lst, list(self.minpoly))
            lst += [self.base.zero()] * (self.degree - len(lst))
        return self._join(lst[: self.degree])

    def add(self, a, b):
        return tuple(map(self.leaf.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.leaf.sub, a, b))

    def neg(self, a):
        return tuple(map(self.leaf.neg, a))

    def mul(self, a, b):
        table = self._table
        if table is None:
            return self._schoolbook_mul(a, b)
        xa, da = _int_coords(a)
        xb, db = _int_coords(b)
        if not xa or not xb:
            return self.zero()
        rows = table.rows
        acc = [0] * self.dim
        for i, x in xa:
            row = rows[i]
            for j, y in xb:
                xy = x * y
                for k, c in row[j]:
                    acc[k] += xy * c
        return _from_ints(acc, da * db * table.den)

    def _schoolbook_mul(self, a, b):
        """Schoolbook product of the base coordinates, then reduction mod m."""
        base = self.base
        d = self.degree
        prod = [base.zero()] * (2 * d - 1)
        cb = self.coords(b)
        for i, x in enumerate(self.coords(a)):
            if base.is_zero(x):
                continue
            for j, y in enumerate(cb):
                if base.is_zero(y):
                    continue
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        # reduce modulo the monic modulus
        m = self.minpoly
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if base.is_zero(c):
                continue
            prod[i] = base.zero()
            for j in range(d):
                prod[i - d + j] = base.sub(prod[i - d + j], base.mul(c, m[j]))
        return self._join(prod[:d])

    def scale(self, a, c):
        mul = self.base.mul
        return self._join(mul(x, c) for x in self.coords(a))

    def inv(self, a):
        base = self.base
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self._flat_inv:
            out = self._table_inv(a)
            if out is not None:
                return out
        # extended Euclid on (a, m) over the base
        r0, r1 = list(self.minpoly), list(self.coords(a))
        s0, s1 = [base.zero()], [base.one()]
        while True:
            d1 = _ul_deg(base, r1)
            if d1 < 0:
                # gcd is r0
                d0 = _ul_deg(base, r0)
                if d0 == 0:
                    c = base.inv(r0[0])
                    out = [base.mul(x, c) for x in s0]
                    return self.from_coeffs(out)
                lead = base.inv(r0[d0])
                factor = tuple(base.mul(x, lead) for x in r0[: d0 + 1])
                raise ZeroDivisorError(
                    f"zero divisor in {self!r}: modulus has factor of degree {d0}",
                    self.base,
                    factor,
                )
            quo, rem = _ul_divmod(base, r0, r1)
            r0, r1 = r1, rem
            # s0 - quo*s1
            prod = [base.zero()] * (len(quo) + len(s1))
            for i, q in enumerate(quo):
                if base.is_zero(q):
                    continue
                for j, s in enumerate(s1):
                    prod[i + j] = base.add(prod[i + j], base.mul(q, s))
            ln = max(len(s0), len(prod))
            s0 = s0 + [base.zero()] * (ln - len(s0))
            new = [base.sub(s0[i], prod[i] if i < len(prod) else base.zero()) for i in range(ln)]
            s0, s1 = s1, new

    def _table_inv(self, a):
        """a^-1 by a fraction-free Gauss-Jordan solve (Bareiss's exact
        divisions) of N y = e_0, where column j of the integer matrix N is
        da * den times the flat coordinates of a * e_j, so that
        a^-1 = da * den * y; None when N is singular (a is a zero divisor)."""
        table, dim = self._table, self.dim
        xa, da = _int_coords(a)
        rows = table.rows
        m = [[0] * (dim + 1) for _ in range(dim)]
        for i, x in xa:
            row = rows[i]
            for j in range(dim):
                for k, c in row[j]:
                    m[k][j] += x * c
        m[0][dim] = 1
        prev = 1
        for col in range(dim):
            piv = next((r for r in range(col, dim) if m[r][col]), None)
            if piv is None:
                return None
            m[col], m[piv] = m[piv], m[col]
            top = m[col]
            p = top[col]
            for r in range(dim):
                if r == col:
                    continue
                cur = m[r]
                f = cur[col]
                m[r] = [(p * u - f * v) // prev for u, v in zip(cur, top)]
            prev = p
        # row k now reads prev * y_k = m[k][dim]
        scale = da * table.den
        return _from_ints([r[dim] * scale for r in m], prev)

    def eq(self, a, b):
        return all(map(self.leaf.eq, a, b))

    def is_zero(self, a):
        return all(map(self.leaf.is_zero, a))

    def is_one(self, a):
        # leaf 0 is the constant coordinate of every step
        return self.leaf.is_one(a[0]) and all(map(self.leaf.is_zero, a[1:]))

    def key(self, a):
        return tuple(map(self.leaf.key, a))

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
        if self.is_finite and self.order <= 4096:
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
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    mul, add, is_zero = base.mul, base.add, base.is_zero
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(int.__add__, e1, e2))
            p = mul(c1, c2)
            if e in out:
                s = add(out[e], p)
                if is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            elif not is_zero(p):
                out[e] = p
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
    if base.is_field:
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
        if base.is_field:
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

    The normal form is monic over a field and, over Z, primitive with a
    positive leading coefficient; over Z the content is taken over f and
    the cofactors together, so ``_mp_normal(ZZ, den, num)`` also cancels
    the integer content that a fraction num/den shares."""
    lc = f[mp_lead(f)]
    if base.is_field:
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
    to a canonical form; equality is structural on that form.  Over Q the
    ring is Z: num and den are coprime in Z[params], integer content
    included, and den has a positive graded-lex leading coefficient.  Over
    any other field the ring is the base and den is monic (graded-lex
    leading coefficient 1).  ``from_base``, ``from_poly`` and ``fmt`` speak
    in base values: over Q, ``fmt`` divides num and den by the leading
    coefficient of den, so it prints the monic-denominator form.
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

    # construction

    def zero(self):
        return ({}, self._one_dict())

    def one(self):
        return (self._one_dict(), self._one_dict())

    def _one_dict(self):
        return {(0,) * self.nvars: self.ring.one()}

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
        ring = self.ring
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero()
        if len(den) > 1 or any(next(iter(den))):
            g = mp_gcd(ring, num, den)
            if mp_total_deg(g) > 0:
                num = mp_exact_div(ring, num, g)  # type: ignore[assignment]
                den = mp_exact_div(ring, den, g)  # type: ignore[assignment]
        den, num = _mp_normal(ring, den, num)
        return (num, den)

    def _den_is_one(self, den):
        if len(den) != 1:
            return False
        (e, c), = den.items()
        return not any(e) and self.ring.is_one(c)

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
        ring = self.ring
        n1, d1 = a
        n2, d2 = b
        if self._den_is_one(d1) and self._den_is_one(d2):
            return (mp_add(ring, n1, n2), d1)
        num = mp_add(ring, mp_mul(ring, n1, d2), mp_mul(ring, n2, d1))
        return self._reduce(num, mp_mul(ring, d1, d2))

    def neg(self, a):
        return (mp_neg(self.ring, a[0]), a[1])

    def mul(self, a, b):
        """The product, reduced by ``_reduce``'s gcd unless both denominators
        are one or the operands are equal: the square of a reduced pair is
        reduced, as in ``pow``."""
        ring = self.ring
        n1, d1 = a
        n2, d2 = b
        if self._den_is_one(d1) and self._den_is_one(d2):
            return (mp_mul(ring, n1, n2), d1)
        if a is b or self.eq(a, b):
            return (mp_mul(ring, n1, n1), mp_mul(ring, d1, d1))
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
        the leading coefficient of den^n stays 1 or positive."""
        if n < 0:
            a, n = self.inv(a), -n
        if n == 0:
            return self.one()
        ring = self.ring
        num, den = a
        out_n, out_d = num, den
        for bit in bin(n)[3:]:
            out_n, out_d = mp_mul(ring, out_n, out_n), mp_mul(ring, out_d, out_d)
            if bit == "1":
                out_n, out_d = mp_mul(ring, out_n, num), mp_mul(ring, out_d, den)
        return (out_n, out_d)

    def powers(self, a, n):
        """[a^0, ..., a^n] by ``pow``'s rule: each (num^k, den^k) is the one
        before it times (num, den), with no gcd."""
        ring = self.ring
        num, den = a
        out = [self.one()]
        if n:
            out.append(a)
        for _ in range(n - 1):
            pn, pd = out[-1]
            out.append((mp_mul(ring, pn, num), mp_mul(ring, pd, den)))
        return out

    def exact_div(self, a, b):
        ring = self.ring
        n1, d1 = a
        n2, d2 = b
        if self._den_is_one(d1) and self._den_is_one(d2):
            if not n2:
                raise ZeroDivisionError("division by zero")
            q = mp_exact_div(ring, n1, n2)
            if q is not None:
                return (q, d1)
        return self.div(a, b)

    def eq(self, a, b):
        n1, d1 = a
        n2, d2 = b
        if len(n1) != len(n2) or len(d1) != len(d2):
            return False
        return self._dict_eq(n1, n2) and self._dict_eq(d1, d2)

    def _dict_eq(self, f, g):
        eqb = self.ring.eq
        for e, c in f.items():
            if e not in g or not eqb(c, g[e]):
                return False
        return True

    def is_zero(self, a):
        return not a[0]

    def is_one(self, a):
        return self._den_is_one(a[1]) and self._den_is_one(a[0])

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


def _mod_p_domain(dom: Domain, p: int) -> Domain:
    """The image of Q, or of a tower over Q, modulo the prime p."""
    if isinstance(dom, Rationals):
        return PrimeField(p)
    if isinstance(dom, QuotientRing):
        base_p = _mod_p_domain(dom.base, p)
        minpoly = tuple(_mod_p_raw(dom.base, c, base_p) for c in dom.minpoly)
        return QuotientRing(base_p, dom.name, minpoly, field=True)
    raise ValueError("no modular image for this domain")


def _mod_p_raw(dom: Domain, raw, dom_p: Domain):
    """The image of a raw value of dom in its image domain ``dom_p``."""
    if isinstance(dom, Rationals):
        den = int(raw.denominator) % dom_p.p  # type: ignore[attr-defined]
        if den == 0:
            raise ValueError("prime divides a denominator")
        return dom_p.mul(dom_p.from_int(int(raw.numerator)), dom_p.inv(den))
    if isinstance(dom, QuotientRing):
        return tuple(_mod_p_raw(dom.leaf, c, dom_p.leaf) for c in raw)
    raise ValueError("no modular image for this value")


def tower_chain(domain: Domain) -> list[Domain]:
    """The chain of domains from the prime field up to ``domain``."""
    chain = [domain]
    cur = domain
    while isinstance(cur, (QuotientRing, FunctionField)):
        cur = cur.base
        chain.append(cur)
    chain.reverse()
    return chain
