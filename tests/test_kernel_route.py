"""The printed results of the univariate products and long divisions over a
``Domain``, pinned as strings: stepwise tower products over function
fields, extended Euclid in towers with no known automorphism (one zero
divisor included), ``UniPoly.divrem`` over F_9 and Q(i), and one ``merge``
over Q(a).  The strings do not depend on which loop computes them, so a
change of route must leave every one of them as it is."""

import random

import pytest

from superelliptic import QQ, DeltaForm, FunctionField, PrimeField, QuotientRing, UniPoly, ZeroDivisorError, merge
from superelliptic.catalog import finite_field, gaussian_field

F7 = PrimeField(7)


def _param_poly(F, rng, deg=1):
    """A seeded element of F = K(a): a small polynomial in a, divided by
    a + k half the time."""
    a, out = F.param("a"), F.zero()
    for _ in range(deg + 1):
        out = F.add(F.mul(out, a), F.from_int(rng.randint(-4, 4)))
    den = F.add(a, F.from_int(rng.randint(1, 3)))
    return F.div(out, den) if rng.random() < 0.5 else out


def _reconstruct_tower(F, r):
    """K[t]/(t^r - u1/2) over F = K(a), as ``reconstruct`` builds it, for
    u1 = a^2 + 3."""
    a = F.param("a")
    half_u1 = F.div(F.add(F.mul(a, a), F.from_int(3)), F.from_int(2))
    return QuotientRing(F, "t", (F.neg(half_u1),) + (F.zero(),) * (r - 1) + (F.one(),))


def _tower_route(F, seed):
    rng = random.Random(seed)
    K = _reconstruct_tower(F, 4)
    out = []
    for _ in range(2):
        x = K.from_coeffs([_param_poly(F, rng) for _ in range(4)])
        y = K.from_coeffs([_param_poly(F, rng) for _ in range(3)])
        out += [K.fmt(K.mul(x, y)), K.fmt(K.inv(y))]
    return out


def _euclid_route(F, seed):
    rng = random.Random(seed)
    K = QuotientRing(F, "c", tuple(map(F.from_int, (-2, 0, 0, 1))))
    out = []
    for _ in range(3):
        x = K.from_coeffs([F.from_int(rng.randint(-5, 5)) for _ in range(3)])
        out.append(K.fmt(K._euclid_inv(x)))
    return out


def _divrem_route(F, seed):
    rng = random.Random(seed)
    elements = list(F.iter_elements()) if F.is_finite else None

    def coeff():
        if elements is not None:
            return rng.choice(elements)
        return F.from_coeffs([QQ.from_int(rng.randint(-4, 4)) for _ in range(F.degree)])

    out = []
    for df, dg in ((6, 2), (5, 3), (7, 1)):
        f = UniPoly.from_list(F, [coeff() for _ in range(df)] + [F.one()])
        g = UniPoly.from_list(F, [coeff() for _ in range(dg)] + [F.from_int(2)])
        q, r = f.divrem(g)
        assert q * g + r == f
        out += [str(q), str(r)]
    return out


TOWER_OVER_Q_A = [
    '((-6*a^4 - 17*a^3 + 12*a - 4)/(a^3 + 6*a^2 + 11*a + 6))*t^3 + ((3*a^4 + 21*a^3 + 18*a^2 - 20*a '
    '- 4)/(a^3 + 6*a^2 + 11*a + 6))*t^2 + ((9/2*a^7 + 27*a^6 + 40*a^5 + 3*a^4 - 41/2*a^3 - 196*a^2 - 218*a '
    '+ 252)/(a^4 + 9*a^3 + 29*a^2 + 39*a + 18))*t + ((-9/2*a^6 - 19/2*a^5 + 17*a^4 + 12*a^3 + 93/2*a^2 '
    '+ 259/2*a - 151)/(a^4 + 7*a^3 + 17*a^2 + 17*a + 6))',
    '((-32/27*a^9 - 352/27*a^8 - 4192/81*a^7 - 5152/81*a^6 + 10592/81*a^5 + 33568/81*a^4 + 4064/81*a^3 '
    '- 5728/9*a^2 - 128*a + 896/3)/(a^16 + 40/3*a^15 + 74*a^14 + 6304/27*a^13 + 40915/81*a^12 '
    '+ 65872/81*a^11 + 63964/81*a^10 + 4984/81*a^9 - 7141/9*a^8 - 3808/3*a^7 - 26114/27*a^6 + 23912/27*a^5 '
    '+ 13049/9*a^4 - 131320/81*a^3 - 161288/81*a^2 + 364448/81*a - 155888/81))*t^3 + ((-2/3*a^13 - 28/3*a^12 '
    '- 482/9*a^11 - 13340/81*a^10 - 24680/81*a^9 - 29272/81*a^8 - 16336/81*a^7 + 20816/81*a^6 + 15842/27*a^5 '
    '+ 17836/81*a^4 - 18878/81*a^3 - 11300/81*a^2 + 296/27*a + 16/9)/(a^16 + 40/3*a^15 + 74*a^14 '
    '+ 6304/27*a^13 + 40915/81*a^12 + 65872/81*a^11 + 63964/81*a^10 + 4984/81*a^9 - 7141/9*a^8 - 3808/3*a^7 '
    '- 26114/27*a^6 + 23912/27*a^5 + 13049/9*a^4 - 131320/81*a^3 - 161288/81*a^2 + 364448/81*a '
    '- 155888/81))*t^2 + ((-8/9*a^12 - 304/27*a^11 - 4520/81*a^10 - 11104/81*a^9 - 14464/81*a^8 - 992/9*a^7 '
    '+ 3424/27*a^6 + 512*a^5 + 32744/81*a^4 - 24080/81*a^3 - 32312/81*a^2 + 1184/27*a + 928/9)/(a^16 '
    '+ 40/3*a^15 + 74*a^14 + 6304/27*a^13 + 40915/81*a^12 + 65872/81*a^11 + 63964/81*a^10 + 4984/81*a^9 '
    '- 7141/9*a^8 - 3808/3*a^7 - 26114/27*a^6 + 23912/27*a^5 + 13049/9*a^4 - 131320/81*a^3 - 161288/81*a^2 '
    '+ 364448/81*a - 155888/81))*t + ((-2/9*a^12 - 10/3*a^11 - 1660/81*a^10 - 5080/81*a^9 - 2384/27*a^8 '
    '- 1240/81*a^7 + 3688/27*a^6 + 3208/9*a^5 + 35786/81*a^4 - 5798/27*a^3 - 50804/81*a^2 - 920/81*a '
    '+ 5584/27)/(a^16 + 40/3*a^15 + 74*a^14 + 6304/27*a^13 + 40915/81*a^12 + 65872/81*a^11 + 63964/81*a^10 '
    '+ 4984/81*a^9 - 7141/9*a^8 - 3808/3*a^7 - 26114/27*a^6 + 23912/27*a^5 + 13049/9*a^4 - 131320/81*a^3 '
    '- 161288/81*a^2 + 364448/81*a - 155888/81))',
    '((6*a^4 + 28*a^3 + 10*a^2 - 60*a + 28)/(a^2 + 6*a + 9))*t^3 + ((a^4 - 5*a^3 - 13*a^2 + 57*a - 8)/(a^2 '
    '+ 4*a + 3))*t^2 + ((6*a^5 + 7*a^4 + 15*a^3 + 15*a^2 + 7*a - 18)/(a^2 + 4*a + 3))*t + ((4*a^6 + 15/2*a^5 '
    '- 11*a^4 + 7*a^3 - 58*a^2 - 77/2*a + 17)/(a^2 + 4*a + 3))',
    '((1/64*a^7 + 9/64*a^6 + 53/64*a^5 + 221/64*a^4 + 355/64*a^3 - 261/64*a^2 - 729/64*a + 351/64)/(a^12 '
    '+ 10*a^11 + 4799/128*a^10 + 1239/16*a^9 + 17593/128*a^8 + 1325/8*a^7 - 877/64*a^6 - 52*a^5 '
    '- 8575/64*a^4 - 3645/8*a^3 + 83307/128*a^2 - 4311/16*a + 5237/128))*t^3 + ((-1/2*a^9 - 21/4*a^8 '
    '- 159/8*a^7 - 539/16*a^6 - 545/16*a^5 - 119/4*a^4 + 41*a^3 + 1285/16*a^2 - 1065/16*a + 99/8)/(a^12 '
    '+ 10*a^11 + 4799/128*a^10 + 1239/16*a^9 + 17593/128*a^8 + 1325/8*a^7 - 877/64*a^6 - 52*a^5 '
    '- 8575/64*a^4 - 3645/8*a^3 + 83307/128*a^2 - 4311/16*a + 5237/128))*t^2 + ((1/8*a^9 + 5/4*a^8 '
    '+ 137/32*a^7 + 179/32*a^6 + 93/32*a^5 + 15/32*a^4 - 541/32*a^3 - 527/32*a^2 + 915/32*a - 315/32)/(a^12 '
    '+ 10*a^11 + 4799/128*a^10 + 1239/16*a^9 + 17593/128*a^8 + 1325/8*a^7 - 877/64*a^6 - 52*a^5 '
    '- 8575/64*a^4 - 3645/8*a^3 + 83307/128*a^2 - 4311/16*a + 5237/128))*t + ((-1/32*a^9 - 19/64*a^8 '
    '- 45/32*a^7 - 153/32*a^6 - 331/32*a^5 - 99/8*a^4 - 399/32*a^3 - 135/32*a^2 + 85/4*a - 213/64)/(a^12 '
    '+ 10*a^11 + 4799/128*a^10 + 1239/16*a^9 + 17593/128*a^8 + 1325/8*a^7 - 877/64*a^6 - 52*a^5 '
    '- 8575/64*a^4 - 3645/8*a^3 + 83307/128*a^2 - 4311/16*a + 5237/128))',
]
TOWER_OVER_F7_A = [
    '((5*a^3 + 4*a^2 + 4*a)/(a^2 + 6*a + 2))*t^3 + ((a^4 + 5*a^3 + 6*a^2 + 4*a + 4)/(a^3 + 6*a^2 + 4*a '
    '+ 6))*t^2 + ((6*a^5 + 3*a^4 + 6*a^3 + 3*a^2 + 5*a + 6)/(a^3 + 6*a^2 + 4*a + 6))*t + ((3*a^6 + a^5 '
    '+ 5*a^4 + 3*a^3 + 3*a^2 + 3*a + 6)/(a^3 + 6*a^2 + 4*a + 6))',
    '((5*a^7 + 5*a^6 + 2*a^5 + 2*a^4 + 3*a^3 + 5*a^2 + 2*a + 5)/(a^11 + a^9 + 2*a^7 + 4*a^6 + 6*a^3 + 6*a^2 '
    '+ 3*a + 3))*t^3 + ((3*a^9 + 6*a^8 + a^7 + 5*a^4 + 5*a^2 + 3*a + 2)/(a^11 + a^9 + 2*a^7 + 4*a^6 + 6*a^3 '
    '+ 6*a^2 + 3*a + 3))*t^2 + ((a^9 + 3*a^6 + 5*a^5 + a^4 + 5*a^3 + 5*a^2 + 3*a + 4)/(a^11 + a^9 + 2*a^7 '
    '+ 4*a^6 + 6*a^3 + 6*a^2 + 3*a + 3))*t + ((a^9 + a^8 + 2*a^7 + 4*a^5 + a^3 + 4*a + 6)/(a^11 + a^9 '
    '+ 2*a^7 + 4*a^6 + 6*a^3 + 6*a^2 + 3*a + 3))',
    '((4*a^5 + 6*a^3 + 5*a^2 + 3*a + 4)/(a^3 + 5*a^2 + 3))*t^3 + ((a^4 + 6*a^3 + 3*a^2 + a + 5)/(a^2 + 4*a '
    '+ 3))*t^2 + (a^3 + a^2 + 3*a + 5)*t + ((6*a^4 + 5*a^3 + 4*a^2 + 3*a + 3)/(a^2 + 4*a + 3))',
    '((3*a^7 + 2*a^6 + 6*a^5 + 5*a^4 + 6*a^3 + 4*a^2 + 6*a + 3)/(a^12 + 4*a^11 + 3*a^10 + 5*a^9 + 4*a^7 '
    '+ 3*a^6 + 6*a^5 + 5*a^3 + 4*a + 1))*t^3 + ((2*a^8 + 5*a^7 + 2*a^5 + 2*a^4 + 2*a^3 + 4*a^2 + 2*a '
    '+ 3)/(a^11 + 6*a^10 + a^9 + 4*a^6 + 4*a^5 + 5*a^2 + 3*a + 3))*t^2 + ((5*a^8 + a^7 + a^6 + 3*a^5 + 4*a^3 '
    '+ a^2 + 1)/(a^11 + 6*a^10 + a^9 + 4*a^6 + 4*a^5 + 5*a^2 + 3*a + 3))*t + ((2*a^8 + a^7 + 5*a^6 + 6*a^5 '
    '+ 4*a^4 + 6*a^2 + a + 5)/(a^11 + 6*a^10 + a^9 + 4*a^6 + 4*a^5 + 5*a^2 + 3*a + 3))',
]
EUCLID_OVER_Q = [
    '-1/47*c^2 - 16/141*c - 7/141',
    '19/327*c^2 - 7/327*c + 37/327',
    '-34/601*c^2 - 33/601*c + 21/601',
]
EUCLID_OVER_F7 = [
    '2*c^2 + c + 3',
    '5*c^2 + c',
    '3*c^2 + 3*c + 1',
]
DIVREM_OVER_F9 = [
    '2*x^4 + (w + 1)*x^2 + 2*w*x + (2*w + 1)',
    '(w + 1)*x',
    '2*x^2 + 2*x + 2*w',
    '2*w*x^2 + x + (w + 2)',
    '2*x^6 + w*x^5 + x^4 + 2*w*x^3 + w*x^2 + (2*w + 1)*x + 1',
    '(2*w + 2)',
]
DIVREM_OVER_Q_I = [
    '1/2*x^4 + (I - 3/4)*x^3 + (-3/2*I - 1/8)*x^2 + 29/16*x + (9/8*I - 89/32)',
    '(-69/4*I - 155/32)*x + (25/2*I - 27/32)',
    '1/2*x^2 + (-5/4*I - 1/2)*x + (5/4*I - 5/8)',
    '(-31/8*I - 5/4)*x^2 + (9/8*I - 7/8)*x + (-15/8*I + 1/2)',
    '1/2*x^6 + (3/4*I + 1/4)*x^5 + (-I - 1/4)*x^4 + (13/8*I - 11/8)*x^3 + (3/8*I + 7/2)*x^2 + (-31/16*I '
    '- 33/16)*x + (4*I + 17/16)',
    '(-33/16*I + 79/16)',
]
MERGE_OVER_Q_A = ("1 | (a^2 + a + 1)/(a + 1) | (a^2 + 5*a + 3)/(a + 1) | (a^2 + 3*a + 3)/(a + 1) | "
                  "(a^2 + 3*a + 3)/(a + 1) | 1")


def test_stepwise_tower_products_and_inverses_over_q_a():
    assert _tower_route(FunctionField(QQ, ("a",)), 3501) == TOWER_OVER_Q_A


def test_stepwise_tower_products_and_inverses_over_f7_a():
    assert _tower_route(FunctionField(F7, ("a",)), 3502) == TOWER_OVER_F7_A


@pytest.mark.parametrize("F, seed, expected", [(QQ, 3503, EUCLID_OVER_Q), (F7, 3504, EUCLID_OVER_F7)],
                         ids=["q", "f7"])
def test_euclid_inverses_mod_c3_minus_2(F, seed, expected):
    assert _euclid_route(F, seed) == expected


def test_euclid_reports_a_planted_zero_divisor():
    # c^3 - 8 = (c - 2)(c^2 + 2c + 4) over Q, and c^2 + 2c + 4 is a unit
    # times the second factor
    K = QuotientRing(QQ, "c", tuple(map(QQ.from_int, (-8, 0, 0, 1))))
    with pytest.raises(ZeroDivisorError) as info:
        K._euclid_inv(K.from_coeffs(list(map(QQ.from_int, (12, 6, 3)))))
    err = info.value
    assert str(err) == "zero divisor in QQ[c]/(c^3 - 8): modulus has factor of degree 2"
    assert err.domain == QQ and err.factor == tuple(map(QQ.from_int, (4, 2, 1)))


def test_divrem_over_f9():
    assert _divrem_route(finite_field(3, 2), 3505) == DIVREM_OVER_F9


def test_divrem_over_q_i():
    assert _divrem_route(gaussian_field(), 3506) == DIVREM_OVER_Q_I


def test_merge_over_q_a():
    F = FunctionField(QQ, ("a",))
    a, one = F.param("a"), F.one()
    dfa = DeltaForm(F, 2, (one, a, F.add(a, F.from_int(2)), one))
    dfb = DeltaForm(F, 2, (one, F.div(one, F.add(a, one)), one))
    out = merge(dfa, dfb)
    assert " | ".join(map(F.fmt, out.coeffs)) == MERGE_OVER_Q_A
