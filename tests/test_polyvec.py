"""Tests for monomial orders, polynomial vectors, and the text grammar."""

import pytest
from hypothesis import given, strategies as st

from pgroebner import (
    POT,
    TOP,
    DimensionMismatch,
    MixedRings,
    Monomial,
    ParseError,
    Poly,
    PolyVec,
    ZeroVector,
    compare,
    format_poly,
    format_vector,
    parse_matrix,
    parse_poly,
    parse_vector,
)
from pgroebner.polyvec import combine
from conftest import Z5, Z9, vec

monomials = st.builds(
    Monomial,
    alpha=st.integers(min_value=0, max_value=12),
    pos=st.integers(min_value=1, max_value=4),
)


class TestCompare:
    def test_top_degree_dominates(self):
        assert compare(TOP, Monomial(4, 2), Monomial(0, 1)) == 1

    def test_top_position_breaks_ties(self):
        # equal degrees: the smaller position is the larger monomial
        assert compare(TOP, Monomial(2, 1), Monomial(2, 2)) == 1

    def test_pot_position_dominates(self):
        assert compare(POT, Monomial(5, 2), Monomial(0, 1)) == -1

    def test_equal_only_when_identical(self):
        assert compare(TOP, Monomial(3, 2), Monomial(3, 2)) == 0
        assert compare(POT, Monomial(3, 2), Monomial(3, 2)) == 0

    @given(monomials, monomials, monomials)
    def test_total_order_properties(self, x, y, z):
        for order in (TOP, POT):
            cxy = compare(order, x, y)
            assert cxy == -compare(order, y, x)
            assert (cxy == 0) == (x == y)
            if cxy <= 0 and compare(order, y, z) <= 0:
                assert compare(order, x, z) <= 0

    @given(monomials, monomials, st.integers(min_value=0, max_value=8))
    def test_shift_multiplicativity(self, x, y, gamma):
        for order in (TOP, POT):
            c = compare(order, x, y)
            assert compare(order, x.shifted(gamma), y.shifted(gamma)) == c


class TestLeadingData:
    def test_top_leading_data_of_known_row(self):
        f = vec(Z9, "[8, x^5+4x^4+4x^3+7x^2+7x]")
        assert f.lm(TOP) == Monomial(5, 2)
        assert f.lc(TOP) == 1
        assert f.lpos(TOP) == 2
        assert f.deg(TOP) == 5
        assert f.ord(TOP) == 2

    def test_top_prefers_first_position_on_degree_ties(self):
        f = vec(Z9, "[x^2+3x+2, x^2+4x]")
        assert f.lm(TOP) == Monomial(2, 1)

    def test_pot_first_nonzero_component(self):
        f = vec(Z9, "[1, 8x^5+5x^4+5x^3+2x^2+2x]")
        assert f.lpos(POT) == 1
        assert f.deg(POT) == 0

    def test_top_degree_is_max_component_degree(self):
        f = vec(Z9, "[x^3+1, x^2]")
        assert f.deg(TOP) == max(c.degree for c in f.components())

    def test_ord_vec_examples(self):
        assert vec(Z9, "[x+5, 3x^4+3x^2+x]").ord(TOP) == 1
        assert vec(Z9, "[8, x^5+4x^4+4x^3+7x^2+7x]").ord(TOP) == 2
        assert vec(Z9, "[x^3+2x+1]").ord(TOP) == 2
        assert vec(Z5, "[x^3+2x+1]").ord(TOP) == 1

    def test_zero_vector_has_no_leading_data(self):
        z = PolyVec.zero(Z9, 2)
        for attr in ("lm", "lt", "lc", "lpos", "deg", "ord"):
            with pytest.raises(ZeroVector):
                getattr(z, attr)(TOP)

    def test_lt_lc_lpos_deg_mutually_consistent(self):
        f = vec(Z9, "[3x+6, 3x^4+x^2]")
        for order in (TOP, POT):
            c, m = f.lt(order)
            assert c == f.lc(order)
            assert m == f.lm(order)
            assert m.pos == f.lpos(order)
            assert m.alpha == f.deg(order)


class TestArithmetic:
    def test_scale_known_row(self):
        f = vec(Z9, "[x+5, 3x^4+3x^2+x]")
        assert f.scale(3) == vec(Z9, "[3x+6, 3x]")

    def test_additive_inverse(self):
        f = vec(Z9, "[x+5, 3x^4+3x^2+x]")
        assert (f + (-f)).is_zero()

    def test_shift_mul(self):
        f = vec(Z9, "[1, x]")
        assert f.poly_mul(Poly.monomial(Z9, 1, 2)) == vec(Z9, "[x^2, x^3]")
        one = Poly.constant(Z9, 1)
        assert combine([one, Poly.monomial(Z9, 8, 1)], [f, f]) == vec(Z9, "[1+8x, x+8x^2]")
        with pytest.raises(MixedRings):
            combine([Poly.constant(Z5, 1)], [f])
        with pytest.raises(MixedRings):
            combine([one, one], [f, vec(Z5, "[1, x]")])
        with pytest.raises(DimensionMismatch):
            combine([one, one], [f, vec(Z9, "[1, x, 0]")])
        with pytest.raises(DimensionMismatch):
            combine([one], [f, f])

    def test_no_zero_coefficients_stored(self):
        f = vec(Z9, "[3x+6, 3x]").scale(3)
        assert all(c != 0 for c in f.terms.values())
        assert f == vec(Z9, "[9x+18, 9x]")  # reduces to [0+0, 0] componentwise... (=[0,0])
        assert f.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec(Z9, "[1, x]") + vec(Z9, "[1, x, 0]")

    def test_mixed_rings(self):
        with pytest.raises(MixedRings):
            vec(Z9, "[1, x]") + vec(Z5, "[1, x]")

    def test_lm_of_sum_bounded_by_max(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            f = _random_vec(rng)
            g = _random_vec(rng)
            if f.is_zero() or g.is_zero():
                continue
            for order in (TOP, POT):
                top = max(f.lm(order), g.lm(order), key=order.key)
                h = f + g
                if not h.is_zero():
                    assert order.compare(h.lm(order), top) <= 0
                if f.lm(order) != g.lm(order):
                    assert h.lm(order) == top


def _random_vec(rng):
    terms = {
        Monomial(rng.randrange(5), rng.randrange(1, 3)): rng.randrange(9)
        for _ in range(rng.randrange(5))
    }
    return PolyVec(Z9, 2, terms)


class TestTextGrammar:
    def test_signed_input_reduces(self):
        assert parse_poly(Z5, "x^2-3x-1") == parse_poly(Z5, "x^2+2x+4")
        assert parse_poly(Z9, "−3x + 6") == parse_poly(Z9, "6x+6")

    def test_format_is_canonical(self):
        assert format_poly(parse_poly(Z9, "0x^3 + 4 + x")) == "x+4"
        assert format_poly(Poly.zero(Z9)) == "0"
        assert format_poly(parse_poly(Z9, "1x^2+0x+1")) == "x^2+1"

    def test_vector_round_trip(self):
        for text in ("[8, x^5+4x^4+4x^3+7x^2+7x]", "[3x+6, 3x]", "[0, x^6]", "[1, 0]"):
            assert format_vector(parse_vector(Z9, text)) == text

    def test_repeated_terms_accumulate(self):
        assert parse_poly(Z9, "x+x+x") == parse_poly(Z9, "3x")

    def test_matrix_parsing_skips_comments_and_blanks(self):
        rows = parse_matrix(Z9, "# header\n\n[1, x]\n[0, x^2]\n")
        assert len(rows) == 2

    def test_parse_errors(self):
        for bad in ("", "x +", "[x", "[]", "3y", "x^", "++x"):
            with pytest.raises(ParseError):
                if bad.startswith("["):
                    parse_vector(Z9, bad)
                else:
                    parse_poly(Z9, bad)
        with pytest.raises(ParseError):
            parse_matrix(Z9, "[1, x]\n[1]\n")
        with pytest.raises(ParseError):
            parse_matrix(Z9, "# only a comment\n")

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=8))
    def test_poly_round_trip(self, coeffs):
        poly = Poly(Z9, coeffs)
        assert parse_poly(Z9, format_poly(poly)) == poly
