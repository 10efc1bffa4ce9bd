"""Independent references: sympy 1.14 and closed forms written out here.

Nothing in this module calls ``superelliptic``.  ``sympy`` is imported on
first use, after the timed loop, so that it never counts towards set-up.
"""

from __future__ import annotations

import functools
from fractions import Fraction


@functools.cache
def sp():
    import sympy

    return sympy


@functools.cache
def symbols():
    s = sp()
    names = "x a b c a1 a2 a3 a4"
    return dict(zip(names.split(), s.symbols(names)))


def parse(text: str):
    """A report string (``2*a^3 + 1/2*b``) as a sympy expression."""
    return sp().parse_expr(text.replace("^", "**"), local_dict=symbols())


def same(expr_a, expr_b) -> bool:
    return sp().cancel(sp().together(expr_a - expr_b)) == 0


def discriminant(text: str):
    x = symbols()["x"]
    return sp().discriminant(parse(text), x)


def resultant(text_a: str, text_b: str):
    """Res(f, g), the Sylvester determinant: lc(f)^deg g * prod g(roots of f).

    sympy 1.14's ``resultant(f, g)`` ignores the argument order when
    deg f < deg g (Res(x^3 - 2, x^5 + x + 1) comes out -23, not 23), so
    the higher-degree argument goes first and the sign is restored with
    Res(f, g) = (-1)^(deg f deg g) Res(g, f)."""
    s = sp()
    x = symbols()["x"]
    f, g = parse(text_a), parse(text_b)
    m, n = s.Poly(f, x).degree(), s.Poly(g, x).degree()
    if m >= n:
        return s.resultant(f, g, x)
    return (-1) ** (m * n) * s.resultant(g, f, x)


def transport(text: str, a: int, b: int, c: int, d: int):
    """f((a x + b)/(c x + d)) (c x + d)^deg f, expanded."""
    s = sp()
    x = symbols()["x"]
    f = parse(text)
    n = s.Poly(f, x).degree()
    return s.expand(s.cancel(f.subs(x, (a * x + b) / (c * x + d)) * (c * x + d) ** n))


def from_terms(terms: dict, names: tuple[str, ...]):
    """A term dict ``{exponent tuple: rational}`` as a sympy polynomial."""
    s = sp()
    syms = [symbols()[n] for n in names]
    out = s.Integer(0)
    for exps, coeff in terms.items():
        q = Fraction(coeff)
        mono = s.Rational(q.numerator, q.denominator)
        for sym, e in zip(syms, exps):
            mono *= sym**e
        out += mono
    return out


def from_rational_function(raw, names: tuple[str, ...]):
    """A raw ``FunctionField`` element over Q, read straight from its
    ``(numerator, denominator)`` term dicts."""
    num, den = raw
    return from_terms(num, names) / from_terms(den, names)


def dihedral_invariants(coeffs: list):
    """u_i = a_1^(r-i) a_i + a_(r-1)^(r-i) a_(r-i), i = 1..r, on a normal
    form (a_0 .. a_r); works on sympy expressions or Fractions."""
    r = len(coeffs) - 1
    return [coeffs[1] ** (r - i) * coeffs[i] + coeffs[r - 1] ** (r - i) * coeffs[r - i]
            for i in range(1, r + 1)]


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
