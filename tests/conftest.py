import random

import pytest

from superelliptic import DeltaForm, QuotientRing, mpq, parse_expression
from superelliptic.parser import domain_with_sugar


@pytest.fixture
def rng():
    return random.Random(20260811)


def qpoly(text, *params, char=0, exts=()):
    """Parse a polynomial over Q (or F_char) with the given parameters,
    auto-declaring any I / sqrt(n) sugar the expression uses."""
    dom = domain_with_sugar(char, list(exts), tuple(params), [text])
    return parse_expression(text, dom)


def rand_mpq(rng, lo=-9, hi=9, den=4):
    num = rng.randint(lo, hi)
    d = rng.randint(1, den)
    return mpq(num, d)


def tower_from_leaves(dom, leaves):
    """The tower element whose flat leaf coordinates, innermost generator
    fastest, are ``leaves``; built through ``from_coeffs`` only."""
    if not isinstance(dom, QuotientRing):
        (leaf,) = leaves
        return leaf
    w = len(leaves) // dom.degree
    return dom.from_coeffs([tower_from_leaves(dom.base, leaves[i:i + w])
                            for i in range(0, len(leaves), w)])


def symmetric_form(dom, delta, r, half_values):
    """Normal form with a_i = a_{r-i} built from the free half of the vector."""
    coeffs = [dom.one()]
    for i in range(1, r):
        coeffs.append(half_values[min(i, r - i) - 1])
    coeffs.append(dom.one())
    return DeltaForm(dom, delta, tuple(coeffs))
