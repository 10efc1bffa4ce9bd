import pytest

from superelliptic import (
    QQ,
    CoverError,
    CyclicCover,
    DeltaForm,
    DomainMismatchError,
    PrimeField,
    QuotientRing,
    SharedBranchPointError,
    UniPoly,
    admissible_deltas,
    delta_form,
    invariants_of,
    merge,
    mpq,
    normalize,
    recenter,
)
from superelliptic.catalog import gaussian_field
from superelliptic.covers import OUTSIDE_EQ2
from superelliptic.parser import build_domain, parse_expression

from conftest import qpoly, rand_mpq


def P(ints):
    return UniPoly.from_int_list(QQ, ints)


def test_genus_table():
    assert CyclicCover.from_polynomial(3, qpoly("x^6 + a*x^3 + 1", "a")).genus() == 4
    assert CyclicCover.from_polynomial(3, qpoly("x^9 + a*x^6 + b*x^3 + 1", "a", "b")).genus() == 7
    assert (
        CyclicCover.from_polynomial(
            3, qpoly("x^12 + a*x^9 + b*x^6 + c*x^3 + 1", "a", "b", "c")
        ).genus()
        == 10
    )
    f6 = P([-720, 1764, -1624, 735, -175, 21, -1])  # (x-1)...(x-6) up to sign: squarefree deg 6
    assert CyclicCover.from_polynomial(2, f6.monic()).genus() == 2


def test_genus_formula_specialization(rng):
    # complete ramification with n | s collapses to g = (n-1)(s-2)/2
    for _ in range(200):
        n = rng.randint(2, 6)
        s = n * rng.randint(1, 5)
        roots = rng.sample(range(-40, 40), s)
        f = UniPoly.one(QQ)
        for r in roots:
            f = f * UniPoly(QQ, {1: mpq(1), 0: mpq(-r)})
        cover = CyclicCover.from_polynomial(n, f)
        assert cover.genus() == (n - 1) * (s - 2) // 2


def test_genus_mixed_multiplicities():
    # y^4 = (x+1)^2 (x-1)(x-2): above -1 two points with e = 2, others full
    cover = CyclicCover(4, ((P([1, 1]), 2), (P([-1, 1]), 1), (P([-2, 1]), 1)))
    genus, warns = cover.genus_report()
    assert genus == 1
    assert warns == []  # d = 4 is divisible by n


def test_genus_outside_simple_regime_flagged():
    # n = 4, d = 6: gcd(4, 6) = 2 but 4 does not divide 6
    cover = CyclicCover(4, ((P([1, 1]), 2), (P([-1, 1]), 2), (P([-2, 1]), 1), (P([-3, 1]), 1)))
    genus, warns = cover.genus_report()
    assert OUTSIDE_EQ2 in warns
    # hand Riemann-Hurwitz: two e=2 points (2 each above), two e=4 points, e_inf = 2
    # 2g-2 = -8 + (4-2) + (4-2) + 3 + 3 + (4-2) -> 4, g = 3
    assert genus == 3


def test_genus_large_char3_curve():
    # the 720-point branch locus of the big characteristic-3 fixture
    dom = build_domain(3, [], ("a",))
    f = parse_expression("((x^9 - x)^8 + 1)^10 - a*(x^9 - x)^72", dom)
    cover = CyclicCover.from_polynomial(2, f)
    assert cover.s == 720
    assert cover.genus() == 359
    assert cover.normality_hint()


def test_cover_validation():
    with pytest.raises(CoverError, match="at least one branch factor is required"):
        CyclicCover(3, ())
    QI = gaussian_field()
    with pytest.raises(DomainMismatchError):
        CyclicCover(3, ((P([-1, 1]), 1), (UniPoly.from_int_list(QI, [-2, 1]), 1)))
    with pytest.raises(CoverError):
        CyclicCover(3, ((P([1, -2, 1]), 1),))  # (x-1)^2 not squarefree
    with pytest.raises(CoverError):
        CyclicCover(3, ((P([-1, 1]), 1), (P([-1, 1]), 2)))  # not coprime
    with pytest.raises(CoverError):
        CyclicCover(3, ((P([-1, 1]), 3),))  # d_j = n
    with pytest.raises(CoverError):
        CyclicCover.from_polynomial(2, P([1, -2, 1]))
    F3 = PrimeField(3)
    with pytest.raises(CoverError):
        CyclicCover.from_polynomial(3, UniPoly.from_int_list(F3, [1, 1]))


def test_normality_hint():
    assert CyclicCover.from_polynomial(3, qpoly("x^9+a*x^6+b*x^3+1", "a", "b")).normality_hint()
    assert not CyclicCover.from_polynomial(3, qpoly("x^6+a*x^3+1", "a")).normality_hint()
    f6 = P([-720, 1764, -1624, 735, -175, 21, -1]).monic()
    assert CyclicCover.from_polynomial(2, f6).normality_hint()
    cover = CyclicCover(4, ((P([1, 1]), 2), (P([-1, 1]), 1), (P([-2, 1]), 1)))
    with pytest.raises(CoverError):
        cover.normality_hint()


def test_admissible_deltas():
    assert admissible_deltas(qpoly("x^6 + a*x^3 + 1", "a")) == [1, 3]
    assert admissible_deltas(P([1, 0, 0, 1, 1])) == [1]
    assert admissible_deltas(P([-1, 0, 0, 0, 0, 0, 1])) == [1, 2, 3, 6]
    with pytest.raises(CoverError):
        admissible_deltas(P([0, 1, 1]))  # zero constant term


def test_recenter():
    f = P([0, 1, 1])  # x^2 + x, root at 0
    g = recenter(f, mpq(1))  # (x+1)^2 + (x+1)
    assert g == P([2, 3, 1])
    assert admissible_deltas(g) == [1]


def test_delta_form():
    df = delta_form(qpoly("x^6 + a*x^3 + 1", "a"), 3)
    dom = df.domain
    assert df.r == 2 and df.delta == 3
    assert df.coeffs[0] == dom.one() and df.coeffs[2] == dom.one()
    df9 = delta_form(qpoly("x^9 + a*x^6 + b*x^3 + 1", "a", "b"), 3)
    assert df9.r == 3
    # (f, 1) gives the full coefficient list
    f = P([1, 2, 3])
    assert delta_form(f, 1).coeffs == (mpq(1), mpq(2), mpq(3))
    with pytest.raises(CoverError):
        delta_form(f, 2)


def test_delta_form_validation():
    one, zero = QQ.one(), QQ.zero()
    for delta, coeffs, message in [(0, (one, one), "delta must be at least 1"),
                                   (1, (one,), "degree at least delta"),
                                   (1, (zero, one), "a_0 = 0"),
                                   (1, (one, zero), "a_r = 0")]:
        with pytest.raises(CoverError, match=message):
            DeltaForm(QQ, delta, coeffs)
    monic = DeltaForm(QQ, 1, (one, one))
    with pytest.raises(CoverError, match="monic"):
        merge(monic, DeltaForm(QQ, 1, (one, QQ.from_int(2))))


def test_normalize_identity_and_monicize():
    dom = qpoly("a", "a").domain
    a = dom.fmt  # noqa: F841
    av = qpoly("a", "a").coeff(0)
    df = DeltaForm(dom, 3, (dom.one(), av, dom.one()))
    nf, rec = normalize(df)
    assert nf == df and dom.is_one(rec.lam) and not rec.root_free
    df2 = DeltaForm(dom, 3, (dom.from_int(4), dom.mul(dom.from_int(4), av), dom.from_int(4)))
    nf2, rec2 = normalize(df2)
    assert nf2.coeffs == (dom.one(), av, dom.one())
    assert rec2.lead == dom.from_int(4) and dom.is_one(rec2.lam)


def test_normalize_with_root_extraction():
    dom = qpoly("a", "a").domain
    av = qpoly("a", "a").coeff(0)
    df = DeltaForm(dom, 3, (dom.from_int(64), av, dom.one()))
    nf, rec = normalize(df)
    assert rec.lam == dom.from_int(2)
    assert nf.coeffs == (dom.one(), dom.div(av, dom.from_int(8)), dom.one())


def test_normalize_root_free_and_witness():
    dom = qpoly("a", "a").domain
    av = qpoly("a", "a").coeff(0)
    df = DeltaForm(dom, 3, (dom.from_int(2), av, dom.one()))
    nf, rec = normalize(df)
    assert rec.root_free and rec.lam is None and nf.coeffs[0] == dom.from_int(2)
    with pytest.raises(CoverError):
        normalize(df, root=dom.from_int(3))


def test_normalize_idempotent(rng):
    for _ in range(40):
        coeffs = [rand_mpq(rng) for _ in range(3)]
        if not all(coeffs[i] for i in (0, 2)):
            continue
        df = DeltaForm(QQ, 2, tuple(coeffs))
        once, _ = normalize(df)
        twice, _ = normalize(once)
        assert once == twice


def test_rescale_invariance(rng):
    # the (corrected) invariants see through x -> lam x followed by renormalizing
    for _ in range(30):
        r = rng.randint(2, 5)
        coeffs = [mpq(1)] + [rand_mpq(rng) for _ in range(r - 1)] + [mpq(1)]
        delta = rng.choice([1, 2, 3])
        f = DeltaForm(QQ, delta, tuple(coeffs)).to_unipoly()
        lam = mpq(rng.choice([2, 3, -2]), rng.choice([1, 3]))
        scaled = UniPoly(QQ, {e: c * lam**e for e, c in f.coeffs.items()})
        u1 = invariants_of(f, delta)
        u2 = invariants_of(scaled, delta)
        assert u1.values == u2.values


def test_merge_examples():
    d1 = delta_form(P([-1, 0, 0, 1]), 1)
    d2 = delta_form(P([1, 0, 0, 1]), 1)
    assert merge(d1, d2).to_unipoly() == P([-1, 0, 0, 0, 0, 0, 1])
    with pytest.raises(SharedBranchPointError):
        merge(d2, d2)


def test_merge_convolution_law_exhaustive(rng):
    for ra in (1, 2, 3, 4):
        for rb in (1, 2, 3, 4):
            fa = [mpq(1)] + [rand_mpq(rng) for _ in range(ra - 1)] + [mpq(1)]
            fb = [mpq(1)] + [rand_mpq(rng) for _ in range(rb - 1)] + [mpq(1)]
            dfa = DeltaForm(QQ, 2, tuple(fa))
            dfb = DeltaForm(QQ, 2, tuple(fb))
            try:
                dfm = merge(dfa, dfb)
            except SharedBranchPointError:
                continue
            for i in range(ra + rb + 1):
                expected = sum(
                    (fa[k] * fb[i - k] for k in range(max(0, i - rb), min(ra, i) + 1)),
                    mpq(0),
                )
                assert dfm.coeffs[i] == expected


def test_merge_tau2_equivariance(rng):
    for _ in range(40):
        ra, rb = rng.randint(1, 4), rng.randint(1, 4)
        fa = [mpq(1)] + [rand_mpq(rng) for _ in range(ra - 1)] + [mpq(1)]
        fb = [mpq(1)] + [rand_mpq(rng) for _ in range(rb - 1)] + [mpq(1)]
        dfa, dfb = DeltaForm(QQ, 3, tuple(fa)), DeltaForm(QQ, 3, tuple(fb))
        try:
            lhs = merge(dfa.reversed(), dfb.reversed())
            rhs = merge(dfa, dfb).reversed()
        except SharedBranchPointError:
            continue
        assert lhs == rhs


def test_merge_tau1_equivariance_symbolic():
    # coefficient identity in Q[a..,b..][eps]/(eps^R - 1) with one shared eps
    ra, rb, delta = 2, 3, 2
    names = tuple(f"a{i}" for i in range(1, ra)) + tuple(f"b{i}" for i in range(1, rb))
    dom = build_domain(0, [], names)
    big_r = ra + rb
    ring = QuotientRing(
        dom, "eps", (dom.neg(dom.one()),) + (dom.zero(),) * (big_r - 1) + (dom.one(),)
    )
    eps = ring.gen()

    def lift(vals):
        return [ring.from_base(v) for v in vals]

    a_coeffs = [dom.one()] + [dom.param(f"a{i}") for i in range(1, ra)] + [dom.one()]
    b_coeffs = [dom.one()] + [dom.param(f"b{i}") for i in range(1, rb)] + [dom.one()]

    def tau1(coeffs):
        return [
            ring.mul(ring.pow(eps, delta * i), c) for i, c in enumerate(coeffs)
        ]

    def conv(xs, ys):
        out = [ring.zero()] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
        return out

    lhs = conv(tau1(lift(a_coeffs)), tau1(lift(b_coeffs)))
    rhs = tau1(conv(lift(a_coeffs), lift(b_coeffs)))
    assert all(ring.eq(x, y) for x, y in zip(lhs, rhs))
