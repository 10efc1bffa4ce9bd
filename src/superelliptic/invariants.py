"""Dihedral invariants of delta-forms and the locus predicates built on them.

For a normal form (a_0 .. a_r), a_0 = a_r = 1, the invariants are

    u_i = a_1^{r-i} a_i + a_{r-1}^{r-i} a_{r-i},   1 <= i <= r,

which are unchanged under the residual coordinate moves
tau_1 : a_i -> eps^{delta i} a_i (eps^r = 1) and tau_2 : a_i -> a_{r-i}.
On normal forms u_r = a_r + a_0 = 2 identically; the vector is kept at full
length r because the downstream tables list that final 2.

A merely monic form (a_r = 1, a_0 invertible) has *corrected* invariants

    u_i = a_0^{-(r-i)} a_1^{r-i} a_i + a_0^{-1} a_{r-1}^{r-i} a_{r-i},

obtained by eliminating the rescaling root lambda (lambda^{delta r} = a_0)
from a_i' = lambda^{delta(i-r)} a_i: only powers lambda^{delta r k} occur,
so every lambda collapses to a power of a_0 and no root extraction is
needed.  This agrees with the plain invariants of the normal form whenever
the root exists in the domain.

Shifted invariants u_i^{(e)} = a_e^X a_i + a_{r-e}^X a_{r-i} separate the
curves whose plain invariants all vanish (the extra automorphism sits in a
larger cyclic group); both conventions in circulation for the exponent X
are available behind a tag: "r-1" and "r-i" (the latter by analogy with the
plain invariants).  Constant-ratio identities only hold between matching
tags.

All three are one formula: the plain invariants are u^{(1)} under "r-i",
and the corrected ones add the a_0 factors, which are skipped when
a_0 = 1.  ``_invariant_values`` computes it; ``invariants``,
``invariants_general`` and ``shifted_invariants`` check their
preconditions and call it, and ``invariants_of`` normalizes and takes the
corrected invariants, which on a normal form are the plain ones.

The locus tests implement: all-zero u_1..u_{r-1} (higher cyclic);
u_{r-1}^r = 2^{r-2} u_1^2 (dihedral); and for even r >= 4 the split
u_{r-1}^{r/2} = +-2^{(r-2)/2} u_1 whose + component carries the group
Z/n x| D_delta and whose - component carries the binary-type group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import DeltaForm, delta_form, normalize
from .rings import Domain, El, QuotientRing

DEGENERATE_R2 = "r = 2: the residual action is cyclic, not dihedral; invariants are degenerate"


class InvariantError(ValueError):
    pass


@dataclass(frozen=True)
class InvariantVector:
    domain: Domain
    delta: int
    r: int
    values: tuple[El, ...]
    convention: str = "r-i"
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.r < 2:
            raise InvariantError("invariants need r >= 2")
        if len(self.values) != self.r:
            raise InvariantError("invariant vector must have length r")

    def __getitem__(self, i: int) -> El:
        """1-based access: u[1] .. u[r]."""
        if not 1 <= i <= self.r:
            raise IndexError(f"u_{i} out of range 1..{self.r}")
        return self.values[i - 1]

    def fmt(self) -> list[str]:
        return [self.domain.fmt(v) for v in self.values]


def _invariant_values(df: DeltaForm, e: int, convention: str) -> InvariantVector:
    """u_i^{(e)} = a_e^X a_i + a_{r-e}^X a_{r-i}, X = r-1 or r-i per the
    convention tag; when a_0 is not one, the left term is multiplied by
    a_0^{-(r-i)} and the right by a_0^{-1} (the corrected invariants)."""
    r = df.r
    if r < 2:
        raise InvariantError("invariants need r = s/delta >= 2")
    dom = df.domain
    a = df.coeffs
    a0_inv = None if dom.is_one(a[0]) else dom.inv(a[0])
    # each power once: a ladder to r - 1 for every base that is raised
    left_pows = dom.powers(a[e], r - 1)
    right_pows = dom.powers(a[r - e], r - 1)
    inv_pows = None if a0_inv is None else dom.powers(a0_inv, r - 1)
    vals = []
    for i in range(1, r + 1):
        x = r - 1 if convention == "r-1" else r - i
        left = dom.mul(left_pows[x], a[i])
        right = dom.mul(right_pows[x], a[r - i])
        if a0_inv is not None:
            left = dom.mul(inv_pows[r - i], left)
            right = dom.mul(a0_inv, right)
        vals.append(dom.add(left, right))
    warns = (DEGENERATE_R2,) if r == 2 else ()
    return InvariantVector(dom, df.delta, r, tuple(vals), convention, warns)


def invariants(df: DeltaForm) -> InvariantVector:
    """Dihedral invariants of a normal form."""
    if not df.is_normal:
        raise InvariantError("invariants require a normal form (a_0 = a_r = 1)")
    return _invariant_values(df, 1, "r-i")


def invariants_general(df: DeltaForm) -> InvariantVector:
    """Corrected invariants of a monic form with invertible a_0.

    Identical to ``invariants`` after normalization whenever the exact
    rescaling root exists, but computed without any root extraction.
    """
    if not df.is_monic:
        raise InvariantError("corrected invariants require a monic form (a_r = 1)")
    return _invariant_values(df, 1, "r-i")


def invariants_of(f, delta: int) -> InvariantVector:
    """Invariants of a branch polynomial: those of its normal form when an
    exact rescaling root exists, else the corrected ones of its monic form."""
    nf, _ = normalize(delta_form(f, delta))
    return invariants_general(nf)


def tau2_apply(df: DeltaForm) -> DeltaForm:
    """Coefficient reversal a_i -> a_{r-i}; an involution on normal forms."""
    if not df.is_normal:
        raise InvariantError("tau_2 acts on normal forms")
    return df.reversed()


def tau1_apply(df: DeltaForm, ring: QuotientRing | None = None) -> DeltaForm:
    """a_i -> eps^{delta i} a_i over domain[eps]/(eps^r - 1).

    Pass a prebuilt ``ring`` to apply several forms inside one quotient (the
    merge-equivariance checks need a shared eps); it must be a quotient ring
    over the form's domain whose generator has finite multiplicative order
    compatible with reduction (eps^k - 1 for some k).
    """
    if not df.is_normal:
        raise InvariantError("tau_1 acts on normal forms")
    dom = df.domain
    if ring is None:
        r = df.r
        minpoly = [dom.neg(dom.one())] + [dom.zero()] * (r - 1) + [dom.one()]
        ring = QuotientRing(dom, "eps", tuple(minpoly))
    eps = ring.gen()
    out = []
    for i, c in enumerate(df.coeffs):
        out.append(ring.mul(ring.pow(eps, df.delta * i), ring.from_base(c)))
    return DeltaForm(ring, df.delta, tuple(out))


def shifted_invariants(df: DeltaForm, e: int, convention: str = "r-1") -> InvariantVector:
    """u_i^{(e)} = a_e^X a_i + a_{r-e}^X a_{r-i} with X per the convention tag
    ("r-1", or "r-i" matching the plain invariants)."""
    if not df.is_normal:
        raise InvariantError("shifted invariants require a normal form")
    if convention not in ("r-1", "r-i"):
        raise InvariantError(f"unknown shifted-invariant convention {convention!r}")
    if not 1 <= e < df.r:
        raise InvariantError(f"shift e = {e} out of range 1..{df.r - 1}")
    return _invariant_values(df, e, convention)


@dataclass(frozen=True)
class LocusReport:
    higher_cyclic: bool
    dihedral: bool
    component: str  # "none" | "plus" | "minus"
    degenerate_r2: bool

    def component_group(self, n: int, delta: int) -> str | None:
        if self.component == "plus":
            return f"Z/{n}Z x| D_{delta}"
        if self.component == "minus":
            return f"<R,S | R^{2*n} = 1, S^{delta} = 1, R S R^-1 = S^-1>"
        return None


def locus_test(u: InvariantVector) -> LocusReport:
    """Predicates on an invariant vector under the plain ("r-i") convention."""
    if u.convention != "r-i":
        raise InvariantError("locus tests expect the plain invariant convention")
    dom = u.domain
    if dom.char == 2:
        raise InvariantError("locus tests are unavailable in characteristic 2")
    r = u.r
    higher = all(dom.is_zero(u[i]) for i in range(1, r))
    # u_{r-1}^r = 2^{r-2} u_1^2
    lhs = dom.pow(u[r - 1], r)
    rhs = dom.mul(dom.from_int(2 ** (r - 2)), dom.mul(u[1], u[1]))
    dihedral = dom.eq(lhs, rhs)
    component = "none"
    degenerate = r == 2
    if dihedral and not degenerate and r % 2 == 0:
        half = dom.pow(u[r - 1], r // 2)
        scale = dom.mul(dom.from_int(2 ** ((r - 2) // 2)), u[1])
        if dom.eq(half, scale):
            component = "plus"
        elif dom.eq(half, dom.neg(scale)):
            component = "minus"
    return LocusReport(higher, dihedral, component, degenerate)
