"""Constructive model over the field of moduli.

Given invariants u = (u_1 .. u_r) with u_1 != 0 of a curve whose reduced
automorphism group contains the dihedral group D_delta, a model defined
over the field generated by the invariants is

    y^n = x^{r delta} + t x^{(r-1) delta}
          + sum_{i=1}^{r-2} (u_{r-i}/u_1) t^{r-i} x^{delta i} + 1,

where t is a *formal* r-th root of u_1/2: all arithmetic happens in the
quotient ring K(u)[t]/(t^r - u_1/2), so no radical is ever extracted and
the construction is independent of any root choice (every fractional power
(u_1/2)^{(r-i)/r} that occurs is realized as t^{r-i}).

``verify_roundtrip`` recomputes the invariants of the model inside the
quotient ring and compares them with the inputs.  The identity holds when
u came from a dihedrally symmetric curve (a_i = a_{r-i}); for other inputs
False is a meaningful outcome, which is why the check is exposed instead of
assumed.  When u_1/2 has an r-th root c in the base field, substituting
t -> c produces a plain delta-form over the base with the same invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import BlowUpNeededError, DeltaForm
from .invariants import InvariantVector, invariants
from .rings import El, QuotientRing
from .unipoly import UniPoly


@dataclass(frozen=True)
class ModuliModel:
    source: InvariantVector
    delta: int
    ring: QuotientRing
    coeffs: tuple[El, ...]  # A_0 .. A_r over the ring

    @property
    def r(self) -> int:
        return len(self.coeffs) - 1

    def delta_form(self) -> DeltaForm:
        return DeltaForm(self.ring, self.delta, self.coeffs)


def reconstruct(u: InvariantVector) -> ModuliModel:
    """Build the model above; requires u_1 != 0 and characteristic != 2.

    With u_1 = 0 the invariants must first be replaced by shifted
    (blow-up) invariants; that path raises :class:`BlowUpNeededError`.
    """
    dom = u.domain
    if dom.char == 2:
        raise ValueError("reconstruction is unavailable in characteristic 2")
    if u.convention != "r-i":
        raise ValueError("reconstruction expects the plain invariant convention")
    if dom.is_zero(u[1]):
        raise BlowUpNeededError(
            "u_1 = 0: pass to shifted (blow-up) invariants before reconstructing"
        )
    r = u.r
    half_u1 = dom.div(u[1], dom.from_int(2))
    minpoly = [dom.neg(half_u1)] + [dom.zero()] * (r - 1) + [dom.one()]
    ring = QuotientRing(dom, "t", tuple(minpoly))
    t = ring.gen()
    one = ring.one()
    u1_inv = dom.inv(u[1])
    coeffs: list[El] = [one]
    for i in range(1, r - 1):
        ratio = dom.mul(u[r - i], u1_inv)
        coeffs.append(ring.scale(ring.pow(t, r - i), ratio))
    coeffs.append(t)  # A_{r-1} = t, the formal (u_1/2)^{1/r}
    coeffs.append(one)
    return ModuliModel(u, u.delta, ring, tuple(coeffs))


def verify_roundtrip(model: ModuliModel) -> bool:
    """Recompute the invariants of the model in its quotient ring and test
    them against the source invariants (embedded into the ring)."""
    u2 = invariants(model.delta_form())
    ring = model.ring
    src = model.source
    for i in range(1, src.r + 1):
        if not ring.eq(u2[i], ring.from_base(src[i])):
            return False
    return True


def specialize(model: ModuliModel, root: El) -> DeltaForm:
    """Substitute t -> root (a base-field r-th root of u_1/2), giving a
    delta-form over the base field."""
    dom = model.ring.base
    target = dom.div(model.source[1], dom.from_int(2))
    if not dom.eq(dom.pow(root, model.r), target):
        raise ValueError("root is not an r-th root of u_1/2")
    coords = model.ring.coords
    out = tuple(UniPoly.from_list(dom, coords(c)).evaluate(root) for c in model.coeffs)
    return DeltaForm(dom, model.delta, out)
