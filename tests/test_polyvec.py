"""Tests for monomial orders, polynomial vectors, and the text grammar."""

import random

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
    Zpr,
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
            for order in (TOP, POT, TOP):  # the zero vector caches nothing
                with pytest.raises(ZeroVector):
                    getattr(z, attr)(order)

    def test_lt_lc_lpos_deg_mutually_consistent(self):
        f = vec(Z9, "[3x+6, 3x^4+x^2]")
        for order in (TOP, POT):
            c, m = f.lt(order)
            assert c == f.lc(order)
            assert m == f.lm(order)
            assert m.pos == f.lpos(order)
            assert m.alpha == f.deg(order)


class TestLeadCache:
    """Leading data is cached per order; each answer must equal a fresh scan."""

    RINGS = (Zpr(2, 1), Z9, Zpr(2, 8), Zpr(65521, 1))
    ACCESSORS = ("lm", "lt", "lc", "ord", "lpos", "deg")

    @staticmethod
    def _fresh(v, order, attr):
        m = max(v.terms, key=order.key)
        c = v.terms[m]
        return {
            "lm": m, "lt": (c, m), "lc": c, "ord": v.ring.ord(c), "lpos": m.pos, "deg": m.alpha
        }[attr]

    def test_cached_answers_equal_a_fresh_scan(self):
        rng = random.Random(41)
        orders_differ = 0
        for ring in self.RINGS:
            for q in range(1, 5):
                # up to 4 terms, and up to 49 where the POT position pass matters
                for size in [5] * 30 + [50] * 10:
                    v = _random_vec(rng, ring, q, size)
                    if v.is_zero():
                        continue
                    orders_differ += v.lm(TOP) != v.lm(POT)
                    accessors = list(self.ACCESSORS)
                    rng.shuffle(accessors)
                    for attr in accessors:
                        for order in (TOP, POT, TOP):
                            assert getattr(v, attr)(order) == self._fresh(v, order, attr)
        assert orders_differ > 50  # the two caches are really exercised apart

    def test_cache_is_not_part_of_the_value(self):
        rng = random.Random(42)
        for ring in self.RINGS:
            for q in range(1, 5):
                v = _random_vec(rng, ring, q)
                if v.is_zero():
                    continue
                v.lm(TOP), v.lm(POT)
                fresh = PolyVec(ring, q, dict(v.terms))
                assert v == fresh and fresh == v
                assert hash(v) == hash(fresh)
                assert len({v, fresh}) == 1


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
        g = vec(Z9, "[3x, 2]")
        assert f.sub_term_mul(g, 2, 1) == f - g.term_mul(2, 1) == vec(Z9, "[3x^2+1, 6x]")
        assert f.sub_term_mul(f, 1, 0).is_zero()
        with pytest.raises(MixedRings):
            f.sub_term_mul(vec(Z5, "[1, x]"), 1, 0)
        with pytest.raises(DimensionMismatch):
            f.sub_term_mul(vec(Z9, "[1, x, 0]"), 1, 0)

    def test_sub_term_mul_equals_two_step_form(self):
        rng = random.Random(43)
        cancelled = zero = 0
        for ring in TestLeadCache.RINGS:
            for q in range(1, 5):
                for _ in range(30):
                    f, g = _random_vec(rng, ring, q), _random_vec(rng, ring, q)
                    c = rng.choice([0, 1, ring.p, rng.randrange(ring.modulus)])
                    gamma = rng.randrange(4)
                    if rng.randrange(4) == 0:  # full cancellation
                        f = g.term_mul(c, gamma)
                    h = f.sub_term_mul(g, c, gamma)
                    assert h == f - g.term_mul(c, gamma)
                    assert all(h.terms.values())
                    cancelled += h.is_zero() and not f.is_zero()
                    zero += h.is_zero()
        assert cancelled > 10 and zero > cancelled

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


def _random_vec(rng, ring=Z9, q=2, size=5):
    terms = {
        Monomial(rng.randrange(size), rng.randrange(1, q + 1)): rng.randrange(ring.modulus)
        for _ in range(rng.randrange(size))
    }
    return PolyVec(ring, q, terms)


class TestComponents:
    def test_components_rebuild_the_vector(self):
        rng = random.Random(71)
        empty = 0
        for ring in (Z9, Zpr(2, 8), Zpr(65521, 1)):
            for q in range(1, 5):
                for _ in range(40):
                    v = _random_vec(rng, ring, q, size=rng.randrange(1, 8))
                    comps = v.components()
                    assert len(comps) == q
                    assert PolyVec.from_components(ring, comps) == v
                    # no trailing zero: the public constructor would strip one
                    assert all(c.coeffs == Poly(ring, c.coeffs).coeffs for c in comps)
                    assert [v.component(pos) for pos in range(1, q + 1)] == comps
                    for pos in (0, q + 1):
                        with pytest.raises(DimensionMismatch):
                            v.component(pos)
                    empty += any(c.is_zero() for c in comps)
        assert empty > 100


class TestTrustedConstruction:
    """Arithmetic builds vectors without the public checks; they must not be needed."""

    @staticmethod
    def _assert_canonical(v):
        m = v.ring.modulus
        for mono, c in v.terms.items():
            assert isinstance(mono, Monomial)
            assert mono.alpha >= 0 and 1 <= mono.pos <= v.q
            assert 0 < c < m
        assert v.terms == PolyVec(v.ring, v.q, dict(v.terms)).terms

    @staticmethod
    def _reference(f, g, c, gamma):
        """f - c * x^gamma * g through the public constructor only."""
        terms = dict(f.terms)
        for mono, v in g.terms.items():
            key = Monomial(mono.alpha + gamma, mono.pos)
            terms[key] = terms.get(key, 0) - c * v
        return PolyVec(f.ring, f.q, terms)

    def test_results_equal_the_checked_constructor(self):
        from pgroebner.groebner import _s_vector, normalize_lc

        rng = random.Random(44)
        zero_on_absent = 0
        for ring in TestLeadCache.RINGS:
            m, p = ring.modulus, ring.p
            for q in range(1, 5):
                for _ in range(40):
                    f, g = _random_vec(rng, ring, q), _random_vec(rng, ring, q)
                    # c * v == 0 (mod p^r) for every v divisible by p
                    c = rng.choice([0, 1, p ** (ring.r - 1), m - 1, rng.randrange(m)])
                    gamma = rng.randrange(4)
                    zero = PolyVec(ring, q)
                    cases = [
                        (f.sub_term_mul(g, c, gamma), self._reference(f, g, c, gamma)),
                        (g.term_mul(c, gamma), self._reference(zero, g, -c, gamma)),
                        (g.scale(c), self._reference(zero, g, -c, 0)),
                    ]
                    for order in (TOP, POT):
                        if not g.is_zero():
                            u = g.lc(order) // p ** ring.vp(g.lc(order))
                            cases.append(
                                (normalize_lc(g, order), self._reference(zero, g, -pow(u, -1, m), 0))
                            )
                        if not f.is_zero() and not g.is_zero() and f.lpos(order) == g.lpos(order):
                            cases.append((_s_vector(f, g, order), None))
                    for got, want in cases:
                        self._assert_canonical(got)
                        if want is not None:
                            assert got == want
                    zero_on_absent += any(
                        c * v % m == 0 and Monomial(mono.alpha + gamma, mono.pos) not in f.terms
                        for mono, v in g.terms.items()
                    )
        assert zero_on_absent > 20

    def test_negative_shift_keeps_the_public_checks(self):
        g = vec(Z9, "[x^2, 3x]")
        assert g.term_mul(2, -1) == vec(Z9, "[2x, 6]")
        assert vec(Z9, "[x, 1]").sub_term_mul(g, 1, -1) == vec(Z9, "[0, 7]")
        with pytest.raises(DimensionMismatch):
            g.term_mul(2, -2)


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
