"""Exact arithmetic for cyclic covers y^n = f(x) of the projective line.

The package computes, over explicit exact coefficient fields (rationals,
rational-function fields in named parameters, quotient-ring towers, prime
fields): normal forms and dihedral invariants of covers with an extra
automorphism, orbit polynomials of the finite subgroups of PGL(2),
automorphism-group classification from branch-orbit counts, and an
explicit curve model over the field generated by the invariants.
"""

from .rings import (
    QQ,
    Domain,
    DomainMismatchError,
    FunctionField,
    PrimeField,
    QuotientRing,
    Rationals,
    ZeroDivisorError,
    adjoin,
    common_rational,
    embed,
    mpq,
    tower_chain,
)
from .unipoly import (
    INF,
    DegreeCapError,
    Mobius,
    NEG_INF,
    UniPoly,
    compose,
    deflate,
    degree_cap,
    discriminant,
    mobius_transport,
    poly_gcd,
    proportional,
    resultant,
    set_degree_cap,
    squarefree_test,
    support_gcd,
)
from .covers import (
    BlowUpNeededError,
    CoverError,
    CyclicCover,
    DeltaForm,
    NormalizationRecord,
    SharedBranchPointError,
    admissible_deltas,
    delta_form,
    merge,
    normalize,
    recenter,
)
from .invariants import (
    InvariantError,
    InvariantVector,
    LocusReport,
    invariants,
    invariants_general,
    invariants_of,
    locus_test,
    shifted_invariants,
    tau1_apply,
    tau2_apply,
)
from .moduli import ModuliModel, reconstruct, specialize, verify_roundtrip
from .groups import (
    AutGroupReport,
    ClosureBoundError,
    DecompositionError,
    ExcludedParameterError,
    GroupError,
    GroupFixture,
    OrbitReport,
    SpecialOrbit,
    classify,
    group_elements,
    is_invariant,
    orbit_decomposition,
    orbit_image,
    orbit_points,
    orbit_polynomial,
    orbit_set_invariant,
)
from . import catalog
from .parser import ParseError, build_domain, parse_constant, parse_expression

__version__ = "0.1.0"
