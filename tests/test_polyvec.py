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
from pgroebner.polyvec import BLOCK, MAX_EXPONENT, _lane_top, _layout, combine
from conftest import Z5, Z8, Z9, vec
import polyvec_reference as reference
from polyvec_reference import DictVec, combine as dict_combine, parse_poly as chunk_parse_poly

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

    def test_terms_is_a_new_dict_on_each_call(self):
        w = vec(Z9, "[x^2, 3x]")
        w.terms[Monomial(7, 2)] = 4
        assert w.terms == {Monomial(2, 1): 1, Monomial(1, 2): 3}
        assert w == vec(Z9, "[x^2, 3x]")
        assert w.term_mul(1, -1) == vec(Z9, "[x, 3]")


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
        from pgroebner.groebner import _pair_vector, normalize_lc

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
                            # the S-vector and g's annihilator vector, over normalized lcs
                            pw = [p**e for e in range(ring.r + 1)]
                            older, newer = (
                                (v._blocks, v.lm(order).alpha, v.ord(order))
                                for v in (normalize_lc(f, order), normalize_lc(g, order))
                            )
                            cases.append((f._like(_pair_vector(f._lay, pw, older, newer)), None))
                            cases.append((f._like(_pair_vector(f._lay, pw, newer, newer)), None))
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
        # a zero scalar leaves no term to fall below x^0
        for c in (0, 9, -9):
            assert g.term_mul(c, -5) == PolyVec.zero(Z9, 2)
            assert g.sub_term_mul(g, c, -5) == g

    def test_zero_divisor_scalar_drops_the_terms_it_kills_below_x0(self):
        g = vec(Z9, "[x^2, 3x]")
        assert g.term_mul(3, -2) == g.scale(3).term_mul(1, -2) == vec(Z9, "[3, 0]")
        assert g.term_mul(6, -2) == vec(Z9, "[6, 0]")
        assert vec(Z9, "[x^2, 0]").sub_term_mul(g, 3, -2) == vec(Z9, "[x^2+6, 0]")
        with pytest.raises(DimensionMismatch):
            g.term_mul(3, -3)  # 3x^2 still falls below x^0

    def test_negative_poly_exponents_match_term_mul(self):
        with pytest.raises(DimensionMismatch):
            Poly.monomial(Z9, 1, -2)
        assert Poly.monomial(Z9, 9, -2).is_zero()  # no term, as for PolyVec.zero(...).term_mul
        f = parse_poly(Z9, "x^2+1")
        with pytest.raises(DimensionMismatch):
            f.shift(-1)
        assert parse_poly(Z9, "x^3+3x^2").shift(-2) == parse_poly(Z9, "x+3")
        assert parse_poly(Z9, "x^3+3x^2").shift(-2).coeffs == (3, 1)
        assert Poly.zero(Z9).shift(-4).is_zero()
        assert f.shift(0) == f and f.shift(2) == parse_poly(Z9, "x^4+x^2")
        # the vector of each shift is the same vector's term_mul
        h = parse_poly(Z9, "3x^4+x^2")
        for gamma in range(-2, 3):
            lifted = PolyVec.from_components(Z9, [h.shift(gamma)])
            assert lifted == PolyVec.from_components(Z9, [h]).term_mul(1, gamma)


# the packed layouts: W = 2r for p = 2 and 3*bitlen(m) + 1 for odd p
PACKED_RINGS = (Zpr(2, 1), Zpr(2, 2), Zpr(2, 8), Z9, Zpr(3, 4), Zpr(3, 20), Zpr(65521, 1))
EDGE_TOPS = (3, BLOCK - 1, BLOCK, 2 * BLOCK + 1)


def _residue(rng, ring):
    """A residue, often a zero divisor or an edge value."""
    m, p = ring.modulus, ring.p
    return rng.choice([rng.randrange(m), p ** rng.randrange(ring.r) * rng.randrange(1, m) % m,
                       m - 1, 1, p ** (ring.r - 1)])


def _pair(rng, ring, q, top):
    """A seeded vector of degree <= top and its dict reference.

    It has a few terms anywhere, and terms at the top degree and at the
    block edges below it.
    """
    edges = [a for a in (top, top - 1, BLOCK - 1, BLOCK, BLOCK + 1, 0) if 0 <= a <= top]
    degrees = [rng.randrange(top + 1) for _ in range(rng.randrange(10))]
    degrees += rng.sample(edges, rng.randrange(len(edges) + 1))
    ref = DictVec(ring, q, {Monomial(a, rng.randrange(1, q + 1)): _residue(rng, ring)
                            for a in degrees})
    return ref.packed(), ref


def _shift(rng):
    """gamma for x^gamma: small ones, and ones that carry terms across blocks."""
    return rng.choice([0, 1, rng.randrange(BLOCK), BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                       rng.randrange(3 * BLOCK)])


def _agree(got, ref):
    """got is the canonical packing of the reference's value."""
    want = ref.packed()
    assert got.terms == ref.terms
    assert got == want and hash(got) == hash(want)
    assert got._blocks == want._blocks and (not got._blocks or got._blocks[-1])
    assert got.is_zero() == ref.is_zero()


class TestPackedAgainstDictReference:
    """The packed blocks against the dict arithmetic they replaced (`polyvec_reference`).

    Seeded vectors over Z_2 to Z_3^20 and Z_65521, q = 1-4, with degrees at
    the block edges and shifts that carry terms across blocks.
    """

    def test_arithmetic(self):
        rng = random.Random(171)
        zero = crossed = 0
        for ring in PACKED_RINGS:
            for q in range(1, 5):
                for top in EDGE_TOPS:
                    for _ in range(3):
                        (f, rf), (g, rg) = _pair(rng, ring, q, top), _pair(rng, ring, q, top)
                        c, gamma = _residue(rng, ring), _shift(rng)
                        a = Poly(ring, [_residue(rng, ring) if rng.randrange(3) == 0 else 0
                                        for _ in range(rng.choice([1, 3, BLOCK + 2]))])
                        b = Poly(ring, [_residue(rng, ring) for _ in range(3)])
                        cases = [
                            (f.sub_term_mul(g, c, gamma), rf.sub_term_mul(rg, c, gamma)),
                            (f + g, rf + rg),
                            (f - g, rf - rg),
                            (-f, -rf),
                            (f.scale(c), rf.scale(c)),
                            (g.term_mul(c, gamma), rg.term_mul(c, gamma)),
                            (f.poly_mul(a), rf.poly_mul(a)),
                            (combine([a, b], [f, g]), dict_combine([a, b], [rf, rg])),
                            # full cancellation
                            (g.term_mul(c, gamma).sub_term_mul(g, c, gamma), DictVec(ring, q)),
                            (f - f, DictVec(ring, q)),
                        ]
                        for got, want in cases:
                            _agree(got, want)
                        # zero results besides the two forced ones
                        zero += sum(got.is_zero() for got, _ in cases[:-2])
                        crossed += len(cases[5][0]._blocks) > len(g._blocks)
        assert zero > 100 and crossed > 100, (zero, crossed)

    def test_lead_under_top_and_pot(self):
        rng = random.Random(172)
        differ = 0
        for ring in PACKED_RINGS:
            for q in range(1, 5):
                for top in EDGE_TOPS:
                    for _ in range(8):
                        v, ref = _pair(rng, ring, q, top)
                        # and one with a term moved far up, past empty blocks
                        w = v.sub_term_mul(v, -1, 3 * BLOCK)
                        rw = ref.sub_term_mul(ref, -1, 3 * BLOCK)
                        for got, want in ((v, ref), (w, rw)):
                            for order in (TOP, POT):
                                if want.is_zero():
                                    with pytest.raises(ZeroVector):
                                        got.lead(order)
                                else:
                                    assert got.lead(order) == want.lead(order)
                        differ += not ref.is_zero() and v.lm(TOP) != v.lm(POT)
        assert differ > 200

    def test_lane_top_is_the_top_term_of_each_position(self):
        rng = random.Random(176)
        three_blocks = found = 0
        for ring in PACKED_RINGS:
            for q in range(1, 5):
                for top in EDGE_TOPS:
                    for _ in range(4):
                        v, ref = _pair(rng, ring, q, top)
                        if v.is_zero():
                            continue
                        # and one with a copy moved up past an empty block
                        w = v.sub_term_mul(v, -1, 2 * BLOCK)
                        rw = ref.sub_term_mul(ref, -1, 2 * BLOCK)
                        for got, want in ((v, ref), (w, rw)):
                            deg = max(m.alpha for m in want.terms)
                            three_blocks += len(got._blocks) >= 3
                            for pos in range(1, q + 1):
                                for below in (None, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1, deg,
                                              deg + 1, rng.randrange(deg + 2)):
                                    lane = [(c, m.alpha) for m, c in want.terms.items()
                                            if m.pos == pos and (below is None or m.alpha < below)]
                                    top_term = max(lane, key=lambda t: t[1], default=None)
                                    assert _lane_top(got._lay, got._blocks, pos, below) == top_term
                                    found += top_term is not None
        assert three_blocks > 200 and found > 5000, (three_blocks, found)

    def test_terms_components_coeff_and_equality_agree(self):
        rng = random.Random(173)
        for ring in PACKED_RINGS:
            for q in range(1, 5):
                for top in EDGE_TOPS:
                    for _ in range(4):
                        v, ref = _pair(rng, ring, q, top)
                        comps = v.components()
                        assert comps == ref.components()
                        assert [v.component(pos) for pos in range(1, q + 1)] == comps
                        rebuilt = PolyVec.from_components(ring, comps)
                        assert rebuilt == v and hash(rebuilt) == hash(v)
                        assert rebuilt.terms == v.terms == ref.terms
                        probes = list(ref.terms) + [Monomial(rng.randrange(3 * BLOCK), pos)
                                                    for pos in range(0, q + 2)]
                        for mono in probes:
                            assert v.coeff(mono) == ref.terms.get(mono, 0)
                        if not v.is_zero():
                            other = v.sub_term_mul(v, 1, rng.randrange(1, 2 * BLOCK))
                            assert other != v

    def test_zero_divisors_empty_a_block(self):
        rng = random.Random(174)
        emptied = 0
        for ring in PACKED_RINGS:
            p, r = ring.p, ring.r
            for q in range(1, 5):
                # units in blocks 0 and 2, only multiples of p^(r-1) in block 1
                terms = {Monomial(a, rng.randrange(1, q + 1)): rng.randrange(1, p)
                         for a in (0, 5, 2 * BLOCK, 2 * BLOCK + 7)}
                terms.update({Monomial(BLOCK + a, 1): p ** (r - 1) * rng.randrange(1, p)
                              for a in (0, 3, BLOCK - 1)})
                f, rf = PolyVec(ring, q, terms), DictVec(ring, q, terms)
                h = f.scale(p)
                _agree(h, rf.scale(p))
                if r > 1:
                    assert len(h._blocks) == 3 and h._blocks[1] == 0
                    emptied += 1
                else:
                    assert h.is_zero()
                # cancelling the top block leaves no trailing zero block
                top = DictVec(ring, q, {m: c for m, c in terms.items() if m.alpha >= 2 * BLOCK})
                _agree(f - top.packed(), rf - top)
                assert len((f - top.packed())._blocks) == 2
        assert emptied == 20

    @pytest.mark.parametrize("ring", PACKED_RINGS + (Zpr(2, 62), Zpr(3, 39)), ids=str)
    def test_slotwise_reduction_is_exact(self, ring):
        rng = random.Random(175)
        m = ring.modulus
        edges = [e for e in (0, 1, m - 1, m, m + 1, 2 * m - 1, 2 * m, m * m - m, m * m - 1)
                 if e < m * m]
        for q in (1, 3):
            lay = _layout(ring, q)
            assert m * m <= 1 << lay.W
            for n in (1, 2, 3, 7, 64, BLOCK * q - 1, BLOCK * q):
                slots = [rng.choice(edges) if rng.randrange(3) == 0 else rng.randrange(m * m)
                         for _ in range(n)]
                x = sum(s << j * lay.W for j, s in enumerate(slots))
                assert lay.fold(x) == sum(s % m << j * lay.W for j, s in enumerate(slots))


    def test_positions_are_those_of_the_terms(self):
        rng = random.Random(177)
        for ring in PACKED_RINGS:
            for q in (1, 2, 5, 13):
                lay = _layout(ring, q)
                for _ in range(20):
                    top = rng.choice((3, BLOCK, 3 * BLOCK))
                    v = PolyVec(ring, q, {Monomial(rng.randrange(top), rng.randint(1, q)):
                                          rng.randrange(ring.modulus) for _ in range(rng.randrange(6))})
                    assert lay.positions(v._blocks) == {m.pos for m in v.terms}


class TestSparseInputsStayLinear:
    def test_blocks_out_of_reach_are_reused(self):
        """An update by a one-block g touches the two blocks x^gamma * g reaches.

        The degrees are literal: f spans five blocks of 256 degrees, which a
        layout of one int per vector would not have.
        """
        ring, q = Zpr(2, 8), 2
        rng = random.Random(176)
        f = PolyVec(ring, q, {Monomial(a, rng.randrange(1, q + 1)): rng.randrange(1, 256)
                              for a in range(0, 1280, 7)})
        g = PolyVec(ring, q, {Monomial(a, 1): a + 1 for a in range(11)})
        assert len(f._blocks) == 5 and len(g._blocks) == 1
        gamma = 763  # x^gamma * g covers degrees 763-773, in blocks 2 and 3
        h = f.sub_term_mul(g, 3, gamma)
        for b in (0, 1, 4):
            assert h._blocks[b] is f._blocks[b]
        assert h._blocks[2] != f._blocks[2] and h._blocks[3] != f._blocks[3]
        _agree(h, DictVec.of(f).sub_term_mul(DictVec.of(g), 3, gamma))


def _grammar_strings():
    """20000 seeded strings, half of them built from term pieces and half free
    characters, each with the non-ASCII digit, the underscore, the minus sign
    U+2212, '*' and spaces the grammar must refuse or skip."""
    rng = random.Random(1801)
    signs = ["+"] * 12 + ["-", "\u2212", " - ", "++", "+-"]
    coeffs = ["", "", "3", "12", "0", "007", "5 4"] * 4 + ["\u0663", "1_0", "9" * 5000]
    stars = [""] * 8 + ["*", "**"]
    xs = ["", "x", "x^2", "x^10", " x^ 2", "x^99"] * 4 + [
        "x^", "x^\u0663", "x^1_0", "xx", "x^100001"]
    chars = "0123456789xx^^++--**  \u2212\u0663_y"
    for t in range(20000):
        if t % 2:
            yield "".join(rng.choice(chars) for _ in range(rng.randrange(9)))
        else:
            yield "".join(
                rng.choice(signs) + rng.choice(coeffs) + rng.choice(stars) + rng.choice(xs)
                for _ in range(rng.randint(1, 4))
            ) + rng.choice(["", "", "", " ", " ", "+"])


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
        for bad in ("", "x +", "[x", "[]", "[ , ]", "[,]", "[1, ]", "3y", "x^", "++x"):
            with pytest.raises(ParseError):
                if bad.startswith("["):
                    parse_vector(Z9, bad)
                else:
                    parse_poly(Z9, bad)
        with pytest.raises(ParseError):
            parse_matrix(Z9, "[1, x]\n[1]\n")
        with pytest.raises(ParseError):
            parse_matrix(Z9, "# only a comment\n")

    def test_grammar_matches_chunk_parser(self):
        verdicts = {True: 0, False: 0}
        for text in _grammar_strings():
            try:
                ref = chunk_parse_poly(Z9, text)
            except ParseError:
                ref = None
            try:
                got = parse_poly(Z9, text)
            except ParseError:
                got = None
            assert got == ref, text[:40]
            verdicts[ref is not None] += 1
        assert min(verdicts.values()) > 3000

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=8))
    def test_poly_round_trip(self, coeffs):
        poly = Poly(Z9, coeffs)
        assert parse_poly(Z9, format_poly(poly)) == poly


# text I/O rings: p = 2 with r = 1, 3, 8 and odd p with slots of 13, 52 and 97 bits
TEXT_RINGS = (Zpr(2, 1), Z8, Z9, Zpr(2, 8), Zpr(65521, 1), Zpr(3, 20))
TEXT_TOPS = (0, 1, 15, 16, 17, 255, 256, 257)


def _components(rng, ring, q, top):
    """q seeded components of degree <= top, each zero, dense or a few terms;
    most vectors have a term at degree top."""
    comps = []
    for _ in range(q):
        coeffs = [0] * (top + 1)
        kind = rng.randrange(3)
        for a in range(top + 1) if kind == 1 else [rng.randrange(top + 1) for _ in range(kind)]:
            coeffs[a] = _residue(rng, ring) if rng.randrange(5) else 0
        comps.append(coeffs)
    if rng.randrange(4):
        comps[rng.randrange(q)][top] = rng.randrange(1, ring.modulus)
    return [Poly(ring, c) for c in comps]


def _noisy_text(rng, ring, comps):
    """A non-canonical VECTOR text of comps: each component's terms shuffled,
    unreduced, negated or split in two, with zero terms, cancelling pairs,
    spaces, '*', 'x^1' and the minus sign U+2212."""
    m = ring.modulus
    entries = []
    for f in comps:
        terms = []
        for a, c in enumerate(f.coeffs):
            if c:
                d = rng.randrange(m)
                terms += rng.choice([[(a, c)], [(a, c + m * rng.randrange(1, 4))], [(a, c - m)],
                                     [(a, d), (a, c - d)]])
        top = min(len(f.coeffs) + 1, MAX_EXPONENT + 1)  # degrees for the extra terms
        terms += [(rng.randrange(top), 0) for _ in range(rng.randrange(2))]
        if rng.randrange(3) == 0:
            a, c = rng.randrange(top), rng.randrange(1, 3 * m)
            terms += [(a, c), (a, -c)]
        rng.shuffle(terms)
        pieces = []
        for a, c in terms or [(0, 0)]:
            sign = rng.choice(["-", "\u2212", " - "]) if c < 0 else rng.choice(["+", " + "])
            digits = "" if abs(c) == 1 and a and rng.randrange(2) else str(abs(c))
            x = "" if a == 0 else rng.choice(["x", "x^1"]) if a == 1 else f"x^{a}"
            star = "*" if digits and x and rng.randrange(4) == 0 else ""
            pieces.append(sign + digits + star + x)
        text = "".join(pieces)
        entries.append(text[1:] if text[0] == "+" and rng.randrange(2) else text)
    return "[" + ", ".join(entries) + "]"


class TestTextIOAgainstReference:
    """`parse_vector`, `format_vector`, `component(s)`, `terms` and `from_components`
    against the `Poly`-per-component and binary-string path they replaced
    (`polyvec_reference`): the same blocks, components, text and ParseErrors."""

    def _check(self, rng, ring, q, comps):
        v = reference.from_components(ring, comps)
        assert PolyVec.from_components(ring, comps)._blocks == v._blocks
        want = reference.components(v)
        assert v.components() == want
        assert [v.component(pos) for pos in range(1, q + 1)] == want
        assert v.terms == {Monomial(a, pos): c for pos, f in enumerate(want, 1)
                           for a, c in enumerate(f.coeffs) if c}
        text = format_vector(v)
        assert text == reference.format_vector(v)
        assert [format_poly(f) for f in want] == [reference.format_poly(f) for f in want]
        for t in (text, _noisy_text(rng, ring, comps)):
            got = parse_vector(ring, t)
            assert got == v and got._blocks == reference.parse_vector(ring, t)._blocks
            assert got._cache == (None, None)
        return v

    def test_seeded_vectors(self):
        rng = random.Random(2501)
        zero_comps = blocks = 0
        for ring in TEXT_RINGS:
            for q in range(1, 7):
                self._check(rng, ring, q, [Poly.zero(ring)] * q)
                for top in TEXT_TOPS:
                    for _ in range(3):
                        comps = _components(rng, ring, q, top)
                        v = self._check(rng, ring, q, comps)
                        zero_comps += any(f.is_zero() for f in comps)
                        blocks += len(v._blocks) == 2
        assert zero_comps > 200 and blocks > 100, (zero_comps, blocks)

    def test_sparse_terms_at_max_exponent(self):
        rng = random.Random(2502)
        for ring in TEXT_RINGS:
            for q in (1, 3):
                if q * _layout(ring, q).W > 100:  # the reference reads a string of 10^5 degrees
                    continue
                comps = [[0] * (MAX_EXPONENT + 1) for _ in range(q)]
                for a in (MAX_EXPONENT, MAX_EXPONENT - 1, BLOCK * rng.randrange(390), 16, 0):
                    comps[rng.randrange(q)][a] = rng.randrange(1, ring.modulus)
                v = self._check(rng, ring, q, [Poly(ring, c) for c in comps])
                assert len(v._blocks) == MAX_EXPONENT // BLOCK + 1

    def test_grammar_strings_as_vector_entries(self):
        def outcome(parse, text):
            """The value and its blocks, or the ParseError message."""
            try:
                got = parse(Z9, text)
            except ParseError as exc:
                return str(exc)
            return got, getattr(got, "_blocks", None)

        rng = random.Random(2503)
        verdicts = {True: 0, False: 0}
        for text in _grammar_strings():
            assert outcome(parse_poly, text) == outcome(reference.dict_parse_poly, text), text[:40]
            line = rng.choice(["[{}]", "[x, {}]", "[{}, 3]", "[{},{}]"]).format(text, text)
            got = outcome(parse_vector, line)
            assert got == outcome(reference.parse_vector, line), line[:40]
            verdicts[not isinstance(got, str)] += 1
        assert min(verdicts.values()) > 3000, verdicts
