"""Shared fixtures: rings, desk sequences, and known minimal bases."""

import pytest

from pgroebner import Zpr, groebner, parse_matrix, parse_vector

Z4 = Zpr(2, 2)
Z5 = Zpr(5, 1)
Z8 = Zpr(2, 3)
Z9 = Zpr(3, 2)

# sequence 1,4,3,3,2 over Z_5 and its minimal TOP basis
SEQ_Z5 = (1, 4, 3, 3, 2)
GB_Z5_TOP = """\
[2x+2, x^4+3x^3+x]
[x^2+2x+4, 4x^2+2x]
"""

# sequence 1,4,4,7,7 over Z_9: 4-row TOP basis, 2-row POT basis
SEQ_Z9A = (1, 4, 4, 7, 7)
GEN_Z9A = """\
[1, 8x^5+5x^4+5x^3+2x^2+2x]
[0, x^6]
"""
GB_Z9A_TOP = """\
[8, x^5+4x^4+4x^3+7x^2+7x]
[x+5, 3x^4+3x^2+x]
[x^2+3x+2, x^2+4x]
[3x+6, 3x]
"""

# sequence 6,3,1,5,6 over Z_9: 2-row TOP basis
SEQ_Z9B = (6, 3, 1, 5, 6)
GB_Z9B_TOP = """\
[x^3+4x^2+7x+4, x^2+3x]
[6x^2+8, x^3+5x^2+6x]
"""


@pytest.fixture
def z4():
    return Z4


@pytest.fixture
def z5():
    return Z5


@pytest.fixture
def z8():
    return Z8


@pytest.fixture
def z9():
    return Z9


@pytest.fixture
def all_pairs(monkeypatch):
    """Call it to make `buchberger` queue every pair: the reference for its
    insertion-time pair rule, `_partners`."""

    def every_earlier_element(basis, alpha, pos, o):
        leads = (g.lead(basis.order) for g in basis)
        return [(-m.alpha, i, g_ord) for i, (_, m, g_ord) in enumerate(leads) if m.pos == pos]

    def switch_on():
        monkeypatch.setattr(groebner, "_partners", every_earlier_element)

    return switch_on


def rows(ring, text):
    return parse_matrix(ring, text)


def vec(ring, text):
    return parse_vector(ring, text)
