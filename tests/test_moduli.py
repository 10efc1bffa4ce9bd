import pytest

from superelliptic import (
    QQ,
    BlowUpNeededError,
    DeltaForm,
    InvariantVector,
    PrimeField,
    QuotientRing,
    invariants,
    mpq,
    reconstruct,
    specialize,
    verify_roundtrip,
)
from superelliptic.parser import build_domain, parse_constant

from conftest import rand_mpq, symmetric_form


def test_reconstruct_16_8_2():
    u = invariants(DeltaForm(QQ, 1, (mpq(1), mpq(2), mpq(2), mpq(1))))
    assert u.values == (mpq(16), mpq(8), mpq(2))
    model = reconstruct(u)
    ring = model.ring
    t = ring.gen()
    assert model.coeffs[0] == ring.one() and model.coeffs[3] == ring.one()
    assert model.coeffs[2] == t
    assert ring.eq(model.coeffs[1], ring.scale(ring.mul(t, t), mpq(1, 2)))
    # hand reduction: u_1' = t^6/8 + t^3 = 64/8 + 8 = 16
    assert verify_roundtrip(model)


def test_reconstruct_symbolic_symmetric():
    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    df = DeltaForm(dom, 1, (dom.one(), a, a, dom.one()))
    u = invariants(df)
    model = reconstruct(u)
    ring = model.ring
    # A_1 = (u_2/u_1) t^2 = t^2/a, A_2 = t with t^3 = a^3
    expected_a1 = ring.scale(ring.pow(ring.gen(), 2), dom.inv(a))
    assert ring.eq(model.coeffs[1], expected_a1)
    assert verify_roundtrip(model)


def test_reconstruct_s12_dihedral_locus_symbolic():
    dom = build_domain(0, [], ("a", "b"))
    a, b = dom.param("a"), dom.param("b")
    df = DeltaForm(dom, 3, (dom.one(), a, b, a, dom.one()))
    u = invariants(df)
    model = reconstruct(u)
    assert verify_roundtrip(model)


def test_roundtrip_on_tetrahedral_locus_invariants():
    # the tetrahedral locus forms are palindromic, so their invariants
    # (honest rational functions of the orbit parameter) must round-trip
    from superelliptic import UniPoly, invariants_of

    dom = build_domain(0, [], ("a",))
    a = dom.param("a")
    two, twelve = dom.from_int(2), dom.from_int(12)
    a2 = dom.div(dom.add(dom.mul(two, a), twelve), dom.sub(two, a))
    a3 = dom.div(dom.sub(dom.mul(two, a), twelve), dom.add(two, a))
    f = UniPoly.one(dom)
    for aj in (a, a2, a3):
        f = f * UniPoly(dom, {4: dom.one(), 2: dom.neg(aj), 0: dom.one()})
    u = invariants_of(f, 2)
    model = reconstruct(u)
    assert verify_roundtrip(model)


def test_roundtrip_false_for_nonsymmetric():
    u = invariants(DeltaForm(QQ, 1, (mpq(1), mpq(3), mpq(5), mpq(1))))
    assert u[2] ** 3 != 2 * u[1] ** 2
    assert not verify_roundtrip(reconstruct(u))


def test_roundtrip_random_symmetric(rng):
    for _ in range(100):
        r = rng.randint(3, 6)
        half = []
        while len(half) < (r - 1) // 2 + (1 if r % 2 == 0 else 0):
            v = rand_mpq(rng)
            if len(half) > 0 or v:
                half.append(v)
        if not half[0]:
            half[0] = mpq(1)
        df = symmetric_form(QQ, 2, r, half)
        u = invariants(df)
        if QQ.is_zero(u[1]):
            continue
        assert verify_roundtrip(reconstruct(u))


def test_model_palindromic_relation(rng):
    for _ in range(20):
        r = rng.randint(3, 5)
        half = [mpq(rng.randint(1, 7)) for _ in range((r - 1) // 2 + (1 if r % 2 == 0 else 0))]
        df = symmetric_form(QQ, 1, r, half)
        model = reconstruct(invariants(df))
        ring = model.ring
        A = model.coeffs
        assert verify_roundtrip(model)
        for i in range(1, r):
            lhs = ring.mul(ring.pow(A[1], r - i), A[i])
            rhs = ring.mul(ring.pow(A[r - 1], r - i), A[r - i])
            assert ring.eq(lhs, rhs)


def test_specialization_consistency(rng):
    for _ in range(30):
        r = rng.randint(3, 6)
        a1 = mpq(rng.randint(1, 5), rng.randint(1, 3))
        half = [a1] + [rand_mpq(rng) for _ in range((r - 1) // 2 + (1 if r % 2 == 0 else 0) - 1)]
        df = symmetric_form(QQ, 2, r, half)
        u = invariants(df)
        # u_1/2 = a1^r is a perfect r-th power with witness a1
        model = reconstruct(u)
        sp = specialize(model, a1)
        assert invariants(sp).values == u.values
    # the same round trip for a model over Q(i) and over Q(a): specialize
    # reads each coefficient through the base coordinates of t
    for exts, params, gen in (([("I", "t^2 + 1")], (), "I"), ([], ("a",), "a")):
        dom = build_domain(0, exts, params)
        for _ in range(6):
            r = rng.randint(3, 6)
            half = [parse_constant(f"{rng.randint(-4, 4)} + {rng.randint(1, 3)}*{gen}", dom)]
            half += [parse_constant(f"{rand_mpq(rng)} + {rng.randint(-2, 2)}*{gen}", dom)
                     for _ in range((r - 1) // 2 + (1 if r % 2 == 0 else 0) - 1)]
            u = invariants(symmetric_form(dom, 2, r, half))
            sp = specialize(reconstruct(u), half[0])
            assert sp.domain == dom
            assert all(map(dom.eq, invariants(sp).values, u.values))


def _rand_tower(dom, rng):
    """A random element of a tower over Q, built from base coordinates."""
    if not isinstance(dom, QuotientRing):
        return rand_mpq(rng)
    return dom.from_coeffs([_rand_tower(dom.base, rng) for _ in range(dom.degree)])


@pytest.mark.parametrize("exts", [[("I", "t^2 + 1")], [("I", "t^2 + 1"), ("s3", "t^2 - 3")]],
                         ids=["Q(i)", "Q(i, sqrt3)"])
def test_specialization_over_towers(exts, rng):
    # the model ring t^r = u_1/2 sits over a tower; t -> a_1 reads each
    # model coefficient through its base coordinates
    dom = build_domain(0, exts, ())
    for _ in range(10):
        r = rng.randint(3, 5)
        half = [_rand_tower(dom, rng) for _ in range((r - 1) // 2 + (1 if r % 2 == 0 else 0))]
        while dom.is_zero(half[0]):
            half[0] = _rand_tower(dom, rng)
        u = invariants(symmetric_form(dom, 2, r, half))
        # u_1/2 = a_1^r, with witness a_1
        assert invariants(specialize(reconstruct(u), half[0])).values == u.values


def test_specialize_rejects_wrong_root():
    model = reconstruct(invariants(DeltaForm(QQ, 1, (mpq(1), mpq(2), mpq(2), mpq(1)))))
    with pytest.raises(ValueError):
        specialize(model, mpq(3))


def test_blowup_redirect():
    u = invariants(DeltaForm(QQ, 1, (mpq(1), mpq(0), mpq(0), mpq(0), mpq(1))))
    with pytest.raises(BlowUpNeededError):
        reconstruct(u)


def test_char2_unsupported():
    F2 = PrimeField(2)
    u = InvariantVector(F2, 1, 3, (1, 1, 0))
    with pytest.raises(ValueError):
        reconstruct(u)
