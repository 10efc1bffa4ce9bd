"""Cyclic covers y^n = f(x) of the projective line.

A cover is stored with *factored* branch data: pairs (g_j, d_j) of pairwise
coprime squarefree polynomials and multiplicities 0 < d_j < n, so that
f = prod g_j^{d_j}.  An expanded polynomial is accepted only under the
all-multiplicities-one reading (with a squarefree check), because splitting
multiplicities off an expanded product would need factorization.

The genus comes from the tame Riemann-Hurwitz formula

    2g - 2 = -2n + sum_j deg(g_j) * (n - n/e_j) + (n - n/e_inf),

with e_j = n / gcd(n, d_j) over the roots of g_j and
e_inf = n / gcd(n, d) above infinity, d = sum d_j deg g_j.  When every
d_j = 1, gcd(n, d_j) = 1 and n | d this collapses to g = (n-1)(s-2)/2.

Polynomials supported entirely on exponents divisible by delta are handled
through :class:`DeltaForm`: the coefficient vector (a_0 .. a_r) of
f = sum a_i x^{delta i}, r = s/delta.  A delta-form is *normal* when
a_0 = a_r = 1; ``normalize`` monicizes and then rescales x by a root
lambda^{delta r} = a_0 when the coefficient domain yields one exactly,
using a_i' = lambda^{delta(i-r)} a_i.  ``merge`` multiplies two normal
forms with disjoint branch loci (coefficient convolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .rings import Domain, DomainMismatchError, El, _ul_mul
from .unipoly import UniPoly, compose, polys_coprime, resultant, squarefree_test, support_gcd

OUTSIDE_EQ2 = "ramification at infinity is partial (n does not divide d but gcd(n, d) > 1)"


class CoverError(ValueError):
    """Invalid branch data for a cyclic cover."""


class SharedBranchPointError(ValueError):
    """Merge inputs share a branch point (their resultant vanishes)."""


class BlowUpNeededError(ValueError):
    """u_1 = 0; reconstruction must go through the shifted invariants."""


def _check_cover_order(n: int) -> None:
    if n < 2:
        raise CoverError("cover order n must be at least 2")


@dataclass(frozen=True)
class CyclicCover:
    """y^n = prod g_j(x)^{d_j} with squarefree, pairwise coprime g_j."""

    n: int
    factors: tuple[tuple[UniPoly, int], ...]
    domain: Domain = field(init=False, repr=False)

    def __post_init__(self):
        _check_cover_order(self.n)
        if not self.factors:
            raise CoverError("at least one branch factor is required")
        dom = self.factors[0][0].domain
        object.__setattr__(self, "domain", dom)
        if dom.char and gcd(dom.char, self.n) != 1:
            raise CoverError(f"characteristic {dom.char} divides the cover order {self.n}")
        for g, d in self.factors:
            if g.domain != dom:
                raise DomainMismatchError("branch factors over different domains")
            if g.is_zero() or g.is_constant():
                raise CoverError("branch factors must be nonconstant")
            if not 0 < d < self.n:
                raise CoverError(f"multiplicity {d} outside 0 < d < n = {self.n}")
            if not squarefree_test(g):
                raise CoverError("branch factor is not squarefree")
        if dom.is_field:
            for i in range(len(self.factors)):
                for j in range(i + 1, len(self.factors)):
                    if not polys_coprime(self.factors[i][0], self.factors[j][0]):
                        raise CoverError("branch factors are not pairwise coprime")

    @classmethod
    def from_polynomial(cls, n: int, f: UniPoly) -> "CyclicCover":
        """Expanded branch polynomial, read with every multiplicity = 1."""
        if not squarefree_test(f):
            raise CoverError(
                "expanded branch polynomial must be squarefree; "
                "supply factored (g_j, d_j) data for repeated factors"
            )
        return cls(n, ((f, 1),))

    @property
    def s(self) -> int:
        """Number of finite branch points (with multiplicity one each)."""
        return sum(int(g.degree()) for g, _ in self.factors)

    @property
    def d(self) -> int:
        """Degree of the defining polynomial prod g_j^{d_j}."""
        return sum(int(g.degree()) * dj for g, dj in self.factors)

    def genus(self) -> int:
        return self.genus_report()[0]

    def genus_report(self) -> tuple[int, list[str]]:
        """Genus with warnings for inputs outside the simple-formula regime."""
        n = self.n
        rh = -2 * n
        for g, dj in self.factors:
            e = n // gcd(n, dj)
            rh += int(g.degree()) * (n - n // e)
        e_inf = n // gcd(n, self.d)
        rh += n - n // e_inf
        if rh % 2:
            raise ArithmeticError("internal inconsistency: odd Riemann-Hurwitz sum")
        genus = (rh + 2) // 2
        if genus < 0:
            raise ArithmeticError("internal inconsistency: negative genus")
        warnings = []
        if self.d % n and gcd(n, self.d) > 1:
            warnings.append(OUTSIDE_EQ2)
        return genus, warnings

    def normality_hint(self) -> bool:
        """True when 2n < s, which forces the cyclic cover group to be normal
        in the full automorphism group; False promises nothing."""
        if any(dj != 1 for _, dj in self.factors):
            raise CoverError("normality hint requires complete ramification (all d_j = 1)")
        return 2 * self.n < self.s


def recenter(f: UniPoly, c: El) -> UniPoly:
    """f(x + c); plumbing for moving a branch point away from 0."""
    dom = f.domain
    shift = UniPoly(dom, {1: dom.one(), 0: c})
    return compose(f, shift)


def admissible_deltas(f: UniPoly) -> list[int]:
    """All delta with f supported on exponents divisible by delta.

    These are the divisors of the gcd of the exponent support.  A zero
    constant term is rejected: 0 would be a branch point, and the caller
    must recenter first.
    """
    if f.is_zero() or f.is_constant():
        raise CoverError("need a nonconstant polynomial")
    if f.domain.is_zero(f.coeff(0)):
        raise CoverError("constant term is zero; recenter the branch locus first")
    g = support_gcd(f)
    return sorted(k for k in range(1, g + 1) if g % k == 0)


@dataclass(frozen=True)
class DeltaForm:
    """Coefficient vector (a_0 .. a_r) of f = sum a_i x^{delta i}."""

    domain: Domain
    delta: int
    coeffs: tuple[El, ...]

    def __post_init__(self):
        if self.delta < 1:
            raise CoverError("delta must be at least 1")
        if len(self.coeffs) < 2:
            raise CoverError("delta-form needs degree at least delta")
        if self.domain.is_zero(self.coeffs[0]):
            raise CoverError("a_0 = 0: recenter the branch locus first")
        if self.domain.is_zero(self.coeffs[-1]):
            raise CoverError("leading coefficient a_r = 0")

    @property
    def r(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_normal(self) -> bool:
        dom = self.domain
        return dom.is_one(self.coeffs[0]) and dom.is_one(self.coeffs[-1])

    @property
    def is_monic(self) -> bool:
        return self.domain.is_one(self.coeffs[-1])

    def to_unipoly(self) -> UniPoly:
        return UniPoly(self.domain, {self.delta * i: c for i, c in enumerate(self.coeffs)})

    def reversed(self) -> "DeltaForm":
        return DeltaForm(self.domain, self.delta, tuple(reversed(self.coeffs)))


def delta_form(f: UniPoly, delta: int) -> DeltaForm:
    """Extract the coefficient vector of f as a polynomial in x^delta."""
    if delta not in admissible_deltas(f):
        raise CoverError(f"delta = {delta} is not admissible for this polynomial")
    dom = f.domain
    r = int(f.degree()) // delta
    return DeltaForm(dom, delta, tuple(f.coeff(delta * i) for i in range(r + 1)))


@dataclass(frozen=True)
class NormalizationRecord:
    """How a delta-form was carried to (or toward) normal form.

    ``lead`` is the leading coefficient divided out (absorbed by rescaling
    y); ``lam`` is the substitution scale with lam^{delta r} = a_0, when one
    was found; ``root_free`` marks the monic-only outcome, whose a_0 is not
    one, so its invariants carry the a_0 correction.
    """

    lead: El
    lam: El | None
    root_free: bool


def normalize(df: DeltaForm, root: El | None = None) -> tuple[DeltaForm, NormalizationRecord]:
    """Monicize, then rescale to a_0 = 1 when an exact root is available.

    Over the rationals the required lambda with lambda^{delta r} = a_0 is
    extracted by integer root extraction; finite domains are searched
    exhaustively (they are small here); otherwise only a_0 = 1 or a
    caller-supplied ``root`` witness is used.  Without a root the monic form
    is returned flagged ``root_free``.
    """
    dom = df.domain
    lead = df.coeffs[-1]
    coeffs = df.coeffs
    if not dom.is_one(lead):
        inv = dom.inv(lead)
        coeffs = tuple(dom.mul(c, inv) for c in coeffs)
    a0 = coeffs[0]
    if dom.is_one(a0):
        return DeltaForm(dom, df.delta, coeffs), NormalizationRecord(lead, dom.one(), False)
    s = df.delta * df.r
    if root is not None:
        if not dom.eq(dom.pow(root, s), a0):
            raise CoverError("supplied root is not a correct rescaling witness")
        lam = root
    else:
        lam = dom.nth_root(a0, s)
    if lam is None:
        return DeltaForm(dom, df.delta, coeffs), NormalizationRecord(lead, None, True)
    # a_i' = lam^{delta(i-r)} a_i = lam^{delta i} a_i / a_0, by a ladder of lam^delta
    a0_inv = dom.inv(a0)
    ladder = dom.powers(dom.pow(lam, df.delta), df.r)
    out = tuple(dom.mul(dom.mul(c, lam_i), a0_inv) for c, lam_i in zip(coeffs, ladder))
    return DeltaForm(dom, df.delta, out), NormalizationRecord(lead, lam, False)


def merge(dfa: DeltaForm, dfb: DeltaForm) -> DeltaForm:
    """Product of two monic delta-forms with disjoint branch loci.

    The coefficients of the result are the convolution
    gamma_i = sum_{k+l=i} a_k b_l; when both inputs are normal forms the
    product is again normal (monic with constant term 1), realizing the
    union of the two branch loci.  Inputs sharing a branch point (vanishing
    resultant, detected through a nonconstant gcd) are rejected.
    """
    if dfa.domain != dfb.domain:
        raise DomainMismatchError("merge inputs over different domains")
    if dfa.delta != dfb.delta:
        raise CoverError("merge inputs must share delta")
    if not (dfa.is_monic and dfb.is_monic):
        raise CoverError("merge inputs must be monic delta-forms")
    dom = dfa.domain
    fa, fb = dfa.to_unipoly(), dfb.to_unipoly()
    coprime = polys_coprime(fa, fb) if dom.is_field else not dom.is_zero(resultant(fa, fb))
    if not coprime:
        raise SharedBranchPointError("shared branch point: resultant of the factors is zero")
    return DeltaForm(dom, dfa.delta, tuple(_ul_mul(dom, dfa.coeffs, dfb.coeffs)))
