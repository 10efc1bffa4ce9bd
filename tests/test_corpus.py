"""A seeded coprimality corpus, pinned by ``golden/coprime_corpus.json``.

For seeded pairs (f, g) over Q, four number-field towers, ``a5_b``'s ring
(Q(i, zeta5) x Q(i, zeta5), declared a field) and three reducible towers
that ``--ext`` accepts, the golden holds the printed inputs and the printed
verdicts of ``polys_coprime(f, g)``, ``polys_coprime(g, f)``,
``squarefree_test(f)`` and ``squarefree_test(g)``, or the type and message
of the exception one raises.  Pairs are planted coprime, with a common
factor, with a square factor, with a coefficient denominator divisible by
the domain's first reduction prime, and with a leading coefficient
divisible by it, so that a change of reduction route shows in the bytes.
A second seeded pass plants the same kinds at 2^31 - 1, the first prime
of Q and of the four rings that get no certificate.

Regenerate (only when a verdict is meant to change) with
``PYTHONPATH=src python tests/test_corpus.py > tests/golden/coprime_corpus.json``.
"""

from __future__ import annotations

import json
import pathlib
import random

from superelliptic import QQ, UniPoly, mpq, squarefree_test
from superelliptic.catalog import a5_b_fixture, gaussian_field, sqrt2_field, sqrt3_field, zeta5_field
from superelliptic.parser import build_domain
from superelliptic.unipoly import polys_coprime

from conftest import tower_from_leaves

GOLDEN = pathlib.Path(__file__).parent / "golden" / "coprime_corpus.json"
SEED = 2026


def _domains():
    """(name, domain, prime, zero divisor): the prime is where the first
    pass plants denominators and leads: 65537 for Q and for the towers that
    are no certified field (their first prime under an earlier rule, now no
    prime of theirs, so those records show that it changes nothing), and
    the first prime below 2^31 with a root chain for the others; the zero
    divisor is planted in the reducible rings."""
    split = build_domain(0, [("I", "t^2+1"), ("e", "t^4-5*t^2+6")], ())
    a5_b = a5_b_fixture().domain
    i = a5_b.from_base(a5_b.base.from_base(a5_b.base.base.gen()))
    z = a5_b.from_base(a5_b.base.gen())
    # e2 - 2i(z5^2 - z5^3): the modulus e2^2 - (10 - 2 sqrt5) splits
    w = a5_b.sub(a5_b.gen(), a5_b.mul(a5_b.mul(a5_b.from_int(2), i), a5_b.sub(a5_b.pow(z, 2), a5_b.pow(z, 3))))
    e2m4, e3me = build_domain(0, [("e", "t^2-4")], ()), build_domain(0, [("e", "t^3-t")], ())
    return [
        ("Q", QQ, 65537, None),
        ("Q(i)", gaussian_field(), 2147483629, None),
        ("Q(i, sqrt3)", sqrt3_field(), 2147483629, None),
        ("Q(i, sqrt2)", sqrt2_field(), 2147483497, None),
        ("Q(i, zeta5)", zeta5_field(), 2147482921, None),
        ("a5_b", a5_b, 65537, w),
        ("Q[e]/(e^2-4)", e2m4, 65537, e2m4.sub(e2m4.gen(), e2m4.from_int(2))),
        ("Q[e]/(e^3-e)", e3me, 65537, e3me.gen()),
        ("Q(i)[e]/(e^4-5e^2+6)", split, 65537, split.sub(split.pow(split.gen(), 2), split.from_int(2))),
    ]


def _element(dom, rng, den=1):
    """A seeded element with at most three nonzero leaves, small integers
    over a denominator from {1, 2, 3}, the first of them times den."""
    dim = getattr(dom, "dim", 1)
    leaves = [mpq(0)] * dim
    for k in rng.sample(range(dim), min(dim, 3)):
        leaves[k] = mpq(rng.choice([1, -1, 2, -3, 5] + [0] * (den == 1)), rng.randint(1, 3) * den)
        den = 1
    return tower_from_leaves(dom, leaves)


def _unit(dom, rng):
    while True:
        c = _element(dom, rng)
        if not dom.is_zero(c):
            return c


def _poly(dom, rng, deg, monic=False):
    coeffs = {e: _element(dom, rng) for e in range(deg)}
    coeffs[deg] = dom.one() if monic else _unit(dom, rng)
    return UniPoly(dom, coeffs)


def _pairs(dom, prime, zero_divisor, rng, rounds):
    def poly(deg):
        return _poly(dom, rng, deg)

    def const(c):
        return UniPoly.constant(dom, c)

    x = UniPoly.gen(dom)
    for _ in range(rounds):
        yield "coprime", poly(rng.randint(1, 3)), poly(rng.randint(1, 3))
        h = _poly(dom, rng, rng.randint(1, 2), monic=True)
        yield "common factor", poly(rng.randint(1, 2)) * h, poly(1) * h
        h = _poly(dom, rng, 1, monic=True)
        yield "square factor", poly(1) * h * h, poly(2)
        c = dom.zero()
        while dom.is_zero(c):
            c = _element(dom, rng, den=prime)
        f, g = poly(2) + const(c), poly(2)
        yield "denominator", f, g
        yield "denominator, common factor", f * h, g * h
        yield "lead divisible", UniPoly(dom, {3: dom.from_int(prime)}) + poly(2), poly(2)
        if zero_divisor is not None:
            yield "zero divisor", const(zero_divisor) * x * x + poly(1), poly(2)
            yield "zero divisor, common factor", (const(zero_divisor) * x + const(_unit(dom, rng))) * h, poly(1) * h


def _outcome(call, *args) -> str:
    try:
        return str(call(*args))
    except Exception as exc:  # the corpus records every exception it meets
        return f"{type(exc).__name__}: {exc}"


def coprime_corpus() -> list[dict]:
    first = _domains()
    planted = [(name, dom, 2147483647, zd) for name, dom, prime, zd in first if prime == 65537]
    records = []
    for seed, domains in ((SEED, first), (SEED + 1, planted)):
        rng = random.Random(seed)
        for name, dom, prime, zero_divisor in domains:
            # the exact gcds over a5_b's ring, of dimension 16, cost the most
            for kind, f, g in _pairs(dom, prime, zero_divisor, rng, 1 if name == "a5_b" else 2):
                records.append({
                    "domain": name,
                    "kind": kind,
                    "f": str(f),
                    "g": str(g),
                    "coprime(f, g)": _outcome(polys_coprime, f, g),
                    "coprime(g, f)": _outcome(polys_coprime, g, f),
                    "squarefree(f)": _outcome(squarefree_test, f),
                    "squarefree(g)": _outcome(squarefree_test, g),
                })
    return records


def _dump(records) -> str:
    return json.dumps(records, indent=1) + "\n"


def test_coprime_corpus_matches_golden():
    assert _dump(coprime_corpus()) == GOLDEN.read_text()


if __name__ == "__main__":
    print(_dump(coprime_corpus()), end="")
